"""Single executable exposing the pipeline stages as subcommands.

Config files are flat `key = value` lines with `#` comments; command-line
flags override file values; once a command's outputs are written, the fully
resolved config is echoed into out_dir/config.resolved, so a refused or
failed run leaves none. Paths inside a config file are resolved relative
to the config file's directory, path flags relative to the working
directory, and both are stored as absolute paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import typing

# One BLAS thread unless the caller sets a count, before numpy loads its BLAS:
# training then rounds as perfbench/ does, and no BLAS threads compete with
# the scene helper threads for the CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import data_model as dm
from . import evaluation as ev
from . import train as tr
from .bank import save_bank
from .errors import ConfigError, IoError, LangtailError
from .synth import SynthConfig, generate_corpus

log = logging.getLogger("langtail")

PATH_KEYS = {"out", "corpus", "bank", "pred", "gt", "prototypes", "features"}
# dataclass field -> CLI key, where they differ
ALIASES = {"lambda_entity": "lambda"}


def _fields(cls):
    """(CLI key, field name, field type) of each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return [(ALIASES.get(f.name, f.name), f.name, hints[f.name])
            for f in dataclasses.fields(cls)]


def _schema(cls, **extra) -> dict:
    """CLI keys of a config dataclass: int and float fields parse as that
    type; bool and tuple fields stay text until _build converts them."""
    keys = {key: typ if typ in (int, float) else str for key, _, typ in _fields(cls)}
    return {**keys, **extra}


def unmatched(v: str) -> str:
    if v not in ev.UNMATCHED_MODES:
        raise ValueError(f"{v!r} is not one of {', '.join(ev.UNMATCHED_MODES)}")
    return v


SYNTH_KEYS = _schema(SynthConfig, out=str)
TRAIN_KEYS = _schema(tr.TrainConfig, corpus=str, bank=str, out=str, baseline=str)
# corpus, out, and the TrainConfig fields that the bank of a run depends on
BANK_KEYS = {key: TRAIN_KEYS[key] for key in (
    "corpus", "out", "seed", "feat_dim", "hidden_dim", "warmup_epochs", "batch_scenes", "lr0")}
EVAL_KEYS = {"pred": str, "gt": str, "out": str, "unmatched": unmatched}

# name -> (keys, required keys, help); main runs cmd_<name> on the resolved keys
COMMANDS = {
    "synth": (SYNTH_KEYS, ("out",), "generate a synthetic long-tail corpus"),
    "bank": (BANK_KEYS, ("corpus", "out"), "build and align the entity semantic bank"),
    "train": (TRAIN_KEYS, ("corpus", "out"), "run the iterative training pipeline"),
    "eval": (EVAL_KEYS, ("pred", "gt"), "Hungarian-matched scoring of predictions"),
    "transfer": ({"prototypes": str, "features": str, "out": str},
                 ("prototypes", "features", "out"), "nearest-prototype labelling of features"),
    "report": (EVAL_KEYS, ("pred", "gt"), "long-tail per-class report"),
}


def _parse_bool(v: str) -> bool:
    s = v.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean value {v!r}")


def load_config_file(path, schema) -> dict:
    base = os.path.dirname(os.path.abspath(path))
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    except OSError as e:
        raise IoError(f"cannot read config {path}: {e}") from e
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = schema[key](value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {e}") from e
        if key in PATH_KEYS:
            out[key] = os.path.normpath(os.path.join(base, out[key]))
    return out


def resolve(args, schema, required) -> dict:
    """Config-file values overridden by flags; path flags become absolute,
    so config.resolved re-runs from any directory."""
    cfg = load_config_file(args.config, schema) if args.config else {}
    for key in schema:
        v = getattr(args, key)
        if v is not None:
            cfg[key] = os.path.abspath(v) if key in PATH_KEYS else v
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required option --{key}")
    return cfg


def write_resolved(out_dir, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with dm.atomic_open(os.path.join(out_dir, "config.resolved")) as f:
        for key in sorted(cfg):
            f.write(f"{key} = {cfg[key]}\n")


def parse_granularities(s: str) -> tuple:
    try:
        return tuple(int(x) for x in s.split(",") if x.strip())
    except ValueError as e:
        raise ConfigError(f"bad granularity list {s!r}") from e


CONVERTERS = {bool: _parse_bool, tuple: parse_granularities}


def _build(cls, cfg: dict):
    """The config dataclass from resolved values; keys that are not fields
    are skipped, and bool and tuple text is parsed by field type."""
    return cls(**{name: CONVERTERS.get(typ, lambda v: v)(cfg[key])
                  for key, name, typ in _fields(cls) if key in cfg})


def cmd_synth(cfg) -> int:
    scfg = _build(SynthConfig, cfg)
    out = cfg["out"]
    log.info("generating corpus in %s", out)
    scenes, entities = generate_corpus(scfg, out)
    write_resolved(out, cfg)
    log.info("wrote %d scenes, %d entities", len(scenes), len(entities))
    return 0


def cmd_bank(cfg) -> int:
    tcfg = _build(tr.TrainConfig, cfg)
    trainer = tr.start_run(tcfg, cfg["corpus"])
    trainer.warmup()
    bank_obj = tr.build_bank(trainer.backbone, trainer.scenes, trainer.entities)
    save_bank(cfg["out"], bank_obj)
    write_resolved(cfg["out"], cfg)
    log.info("aligned bank: %d entities, final loss %.3e",
             bank_obj.B.shape[0], bank_obj.alignment_loss_trace[-1])
    return 0


def cmd_train(cfg) -> int:
    tcfg = _build(tr.TrainConfig, cfg)
    baseline = _parse_bool(cfg.get("baseline", "false"))
    if baseline:
        tr.run_baseline(tcfg, cfg["corpus"], cfg["out"])
    else:
        tr.run_pipeline(tcfg, cfg["corpus"], cfg["out"], bank_dir=cfg.get("bank"))
    write_resolved(cfg["out"], cfg)
    log.info("training finished; outputs in %s", cfg["out"])
    return 0


def _score(cfg):
    """Confusion of the pred and gt label files and its Hungarian-matched report."""
    cm = ev.confusion(dm.read_labels(cfg["pred"]), dm.read_labels(cfg["gt"]))
    return cm, ev.match_and_score(cm, unmatched=cfg.get("unmatched", "merge"))


def cmd_eval(cfg) -> int:
    cm, report = _score(cfg)
    out = cfg.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        ev.write_report(os.path.join(out, "report.tsv"), report)
        dm.write_feature_matrix(os.path.join(out, "confusion.ltfm"),
                                cm.astype(np.float32))
    print(f"OA={report.oa:.4f}\tmAcc={report.macc:.4f}\tmIoU={report.miou:.4f}")
    return 0


def cmd_transfer(cfg) -> int:
    protos = dm.read_feature_matrix(cfg["prototypes"])
    labels = ev.max_cosine_labels(dm.read_feature_matrix(cfg["features"]), protos)
    dm.write_labels(cfg["out"], labels)
    log.info("wrote %d transferred labels to %s", labels.size, cfg["out"])
    return 0


def cmd_report(cfg) -> int:
    rows = ev.tail_report(_score(cfg)[1])
    out = cfg.get("out")
    lines = ["class\tcount\tiou\trecall\tabsorbed"]
    for r in rows:
        lines.append(f"{r['class']}\t{r['count']}\t{r['iou']:.6f}"
                     f"\t{r['recall']:.6f}\t{int(r['absorbed'])}")
    text = "\n".join(lines) + "\n"
    if out:
        with dm.atomic_open(out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="langtail")
    sub = p.add_subparsers(dest="command")
    for name, (keys, _, help_) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config")
        for key, caster in keys.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster)
    return p


def setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("LANGTAIL_LOG", "info"), logging.INFO
    )
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    keys, required, _ = COMMANDS[args.command]
    try:
        return globals()[f"cmd_{args.command}"](resolve(args, keys, required))
    except LangtailError as e:
        log.error("%s", e)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
