"""Single executable exposing the pipeline stages as subcommands.

Config files are flat `key = value` lines with `#` comments; command-line
flags override file values; the fully resolved config is echoed into
out_dir/config.resolved. Paths inside a config file are resolved relative
to the config file's directory.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

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
from .errors import (
    ConfigError,
    DataError,
    DegenerateGraphError,
    DivergenceError,
    EmptyBatchError,
    EmptyMaskError,
    FormatError,
    IoError,
    NormalizationError,
    NumericError,
    ShapeError,
    TruncationError,
)
from .synth import SynthConfig, generate_corpus, read_corpus

log = logging.getLogger("langtail")

USAGE_ERRORS = (ConfigError,)
DATA_ERRORS = (FormatError, TruncationError, DataError, IoError, ShapeError,
               DegenerateGraphError, EmptyMaskError, EmptyBatchError)
NUMERIC_ERRORS = (DivergenceError, NumericError, NormalizationError)

PATH_KEYS = {"out", "corpus", "bank", "pred", "gt", "checkpoint", "features"}

SYNTH_KEYS = {
    "n_classes": int, "points_per_scene": int, "n_scenes": int,
    "zipf_exponent": float, "input_dim": int, "class_separation": float,
    "noise_sigma": float, "entity_alias_rate": float, "seed": int,
    "instance_spread": float, "instance_size": int, "distill_dim": int,
    "out": str,
}
TRAIN_KEYS = {
    "lambda": float, "granularities": str, "epochs": int, "batch_scenes": int,
    "lr0": float, "lr_min": float, "poly_power": float, "recluster_every": int,
    "tau": float, "seed": int, "feat_dim": int, "hidden_dim": int,
    "warmup_epochs": int, "s_prime": int, "entity_batch": int,
    "use_global": str, "weight_decay": float,
    "align_steps": int, "align_lr": float, "sample_cap": int,
    "corpus": str, "bank": str, "out": str, "baseline": str,
}
BANK_KEYS = {"corpus": str, "out": str, "seed": int, "feat_dim": int,
             "hidden_dim": int, "warmup_epochs": int, "align_steps": int,
             "align_lr": float, "batch_scenes": int, "lr0": float}
EVAL_KEYS = {"pred": str, "gt": str, "out": str, "unmatched": str}


def _parse_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
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


def resolve(args, schema, required=()) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config, schema))
    for key in schema:
        flag = key.replace("-", "_")
        v = getattr(args, flag, None)
        if v is not None:
            cfg[key] = v
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required option --{key}")
    return cfg


def write_resolved(out_dir, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with dm.atomic_open(os.path.join(out_dir, "config.resolved")) as f:
        for key in sorted(cfg):
            f.write(f"{key} = {cfg[key]}\n")


def parse_granularities(s) -> tuple:
    if isinstance(s, (tuple, list)):
        return tuple(int(x) for x in s)
    try:
        return tuple(int(x) for x in str(s).split(",") if x.strip())
    except ValueError as e:
        raise ConfigError(f"bad granularity list {s!r}") from e


def _synth_config(cfg: dict) -> SynthConfig:
    fields = {k: v for k, v in cfg.items() if k not in ("out",)}
    return SynthConfig(**fields)


def _train_config(cfg: dict) -> tr.TrainConfig:
    skip = {"corpus", "bank", "out", "baseline"}
    kwargs = {}
    for k, v in cfg.items():
        if k in skip:
            continue
        if k == "lambda":
            kwargs["lambda_entity"] = v
        elif k == "granularities":
            kwargs["granularities"] = parse_granularities(v)
        elif k == "use_global":
            kwargs[k] = _parse_bool(v)
        else:
            kwargs[k] = v
    return tr.TrainConfig(**kwargs)


def cmd_synth(args) -> int:
    cfg = resolve(args, SYNTH_KEYS, required=("out",))
    out = cfg["out"]
    write_resolved(out, cfg)
    log.info("generating corpus in %s", out)
    scenes, entities = generate_corpus(_synth_config(cfg), out)
    log.info("wrote %d scenes, %d entities", len(scenes), len(entities))
    return 0


def cmd_bank(args) -> int:
    cfg = resolve(args, BANK_KEYS, required=("corpus", "out"))
    write_resolved(cfg["out"], cfg)
    scenes, entities = read_corpus(cfg["corpus"])
    tr.standardize_scenes(scenes)
    tcfg = tr.TrainConfig(**{k: v for k, v in cfg.items()
                             if k not in ("corpus", "out")})
    corpus = tr.CorpusState(scenes)
    trainer = tr.Trainer(corpus, entities, tcfg, scenes[0].points.shape[1])
    trainer.warmup()
    bank_obj = tr.build_bank(trainer.backbone, scenes, entities, tcfg)
    save_bank(cfg["out"], bank_obj)
    log.info("aligned bank: %d entities, final loss %.3e",
             bank_obj.B.shape[0], bank_obj.alignment_loss_trace[-1])
    return 0


def cmd_train(args) -> int:
    cfg = resolve(args, TRAIN_KEYS, required=("corpus", "out"))
    write_resolved(cfg["out"], cfg)
    tcfg = _train_config(cfg)
    if _parse_bool(cfg.get("baseline", False)):
        tr.run_baseline(tcfg, cfg["corpus"], cfg["out"])
    else:
        tr.run_pipeline(tcfg, cfg["corpus"], cfg["out"], bank_dir=cfg.get("bank"))
    log.info("training finished; outputs in %s", cfg["out"])
    return 0


def cmd_eval(args) -> int:
    cfg = resolve(args, EVAL_KEYS, required=("pred", "gt"))
    pred = dm.read_labels(cfg["pred"])
    gt = dm.read_labels(cfg["gt"])
    cm = ev.confusion(pred, gt)
    report = ev.match_and_score(cm, unmatched=cfg.get("unmatched", "merge"))
    out = cfg.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        ev.write_report(os.path.join(out, "report.tsv"), report)
        dm.write_feature_matrix(os.path.join(out, "confusion.ltfm"),
                                cm.counts.astype(np.float32))
    print(f"OA={report.oa:.4f}\tmAcc={report.macc:.4f}\tmIoU={report.miou:.4f}")
    return 0


def cmd_transfer(args) -> int:
    protos = dm.read_feature_matrix(args.prototypes)
    labels = ev.max_cosine_labels(dm.read_feature_matrix(args.features), protos)
    dm.write_labels(args.out, labels)
    log.info("wrote %d transferred labels to %s", labels.size, args.out)
    return 0


def cmd_report(args) -> int:
    pred = dm.read_labels(args.pred)
    gt = dm.read_labels(args.gt)
    report = ev.match_and_score(ev.confusion(pred, gt), unmatched=args.unmatched)
    rows = ev.tail_report(report)
    out = args.out
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

    sp = sub.add_parser("synth", help="generate a synthetic long-tail corpus")
    sp.add_argument("--config")
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int)
    for key, caster in SYNTH_KEYS.items():
        if key in ("out", "seed"):
            continue
        sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster)
    sp.set_defaults(func=cmd_synth)

    bp = sub.add_parser("bank", help="build and align the entity semantic bank")
    bp.add_argument("--config")
    for key, caster in BANK_KEYS.items():
        bp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster)
    bp.set_defaults(func=cmd_bank)

    tp = sub.add_parser("train", help="run the iterative training pipeline")
    tp.add_argument("--config")
    for key, caster in TRAIN_KEYS.items():
        flag = "--" + key.replace("_", "-")
        tp.add_argument(flag, dest=key, type=caster if caster is not str else str)
    tp.set_defaults(func=cmd_train)

    epp = sub.add_parser("eval", help="Hungarian-matched scoring of predictions")
    epp.add_argument("--config")
    epp.add_argument("--pred")
    epp.add_argument("--gt")
    epp.add_argument("--out")
    epp.add_argument("--unmatched", choices=("merge", "drop"))
    epp.set_defaults(func=cmd_eval)

    trp = sub.add_parser("transfer", help="nearest-prototype labelling of features")
    trp.add_argument("--prototypes", required=True)
    trp.add_argument("--features", required=True)
    trp.add_argument("--out", required=True)
    trp.set_defaults(func=cmd_transfer)

    rp = sub.add_parser("report", help="long-tail per-class report")
    rp.add_argument("--pred", required=True)
    rp.add_argument("--gt", required=True)
    rp.add_argument("--out")
    rp.add_argument("--unmatched", choices=("merge", "drop"), default="merge")
    rp.set_defaults(func=cmd_report)
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
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except USAGE_ERRORS as e:
        log.error("%s", e)
        return 1
    except DATA_ERRORS as e:
        log.error("%s", e)
        return 2
    except NUMERIC_ERRORS as e:
        log.error("%s", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
