"""End-to-end CLI flows, config resolution, and exit codes."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import append_mask_index, count_incidence_builds
from langtail import cli
from langtail import data_model as dm
from langtail import train as tr
from langtail.bank import load_bank
from langtail.cli import TRAIN_KEYS, SYNTH_KEYS, load_config_file, main, parse_granularities
from langtail.errors import ConfigError, LangtailError
from langtail.synth import SynthConfig, read_corpus

SMALL_SYNTH = ["--n-classes", "3", "--points-per-scene", "120",
               "--n-scenes", "2", "--seed", "5"]
SMALL_TRAIN = ["--granularities", "4", "--epochs", "2", "--recluster-every", "2",
               "--lambda", "0", "--use-global", "false", "--feat-dim", "8",
               "--hidden-dim", "8", "--warmup-epochs", "0", "--batch-scenes", "2"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given,want", [({}, ["1", "1", "1"]),
                                        ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])])
def test_cli_pins_blas_threads_unless_set(given, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(given, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    code = ("import os, langtail.cli, numpy; "
            f"print(*(os.environ[v] for v in {BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == want


def test_parse_granularities():
    assert parse_granularities("120,80,20") == (120, 80, 20)
    with pytest.raises(ConfigError):
        parse_granularities("a,b")


def test_config_file_parsing(tmp_path):
    p = tmp_path / "synth.cfg"
    p.write_text("# comment\nn_classes = 4\nout = corpus  # inline\n\nseed=7\n")
    cfg = load_config_file(p, SYNTH_KEYS)
    assert cfg["n_classes"] == 4
    assert cfg["seed"] == 7
    assert cfg["out"] == str(tmp_path / "corpus")  # relative to the config file


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(p, SYNTH_KEYS)


def test_synth_then_train_then_eval(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    assert main(["synth", "--out", corpus] + SMALL_SYNTH) == 0
    assert (tmp_path / "corpus" / "manifest.tsv").exists()
    assert (tmp_path / "corpus" / "config.resolved").exists()

    assert main(["train", "--corpus", corpus, "--out", out] + SMALL_TRAIN) == 0
    for rel in ("checkpoint.ltck", "losses.tsv", "prototypes.ltfm",
                "pred.ltlb", "config.resolved"):
        assert (tmp_path / "out" / rel).exists(), rel

    rc = main(["eval", "--pred", f"{out}/pred.ltlb",
               "--gt", f"{corpus}/labels.ltlb", "--out", str(tmp_path / "ev")])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("OA=")
    assert (tmp_path / "ev" / "report.tsv").exists()


def test_cli_baseline_flag(tmp_path):
    corpus = str(tmp_path / "corpus")
    assert main(["synth", "--out", corpus] + SMALL_SYNTH) == 0
    rc = main(["train", "--corpus", corpus, "--out", str(tmp_path / "b"),
               "--baseline", "true"] + SMALL_TRAIN)
    assert rc == 0
    assert (tmp_path / "b" / "losses.tsv").exists()


def test_cli_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_classes = 3\npoints_per_scene = 120\nn_scenes = 1\n"
                   "seed = 1\nout = corpus\n")
    assert main(["synth", "--config", str(cfg), "--n-scenes", "2"]) == 0
    manifest = (tmp_path / "corpus" / "manifest.tsv").read_text()
    assert len(manifest.strip().splitlines()) == 2
    resolved = (tmp_path / "corpus" / "config.resolved").read_text()
    assert "n_scenes = 2" in resolved


def test_cli_transfer_and_report(tmp_path, capsys):
    protos = tmp_path / "p.ltfm"
    feats = tmp_path / "f.ltfm"
    rng = np.random.default_rng(0)
    dm.write_feature_matrix(protos, rng.normal(size=(4, 3)).astype(np.float32))
    dm.write_feature_matrix(feats, rng.normal(size=(20, 3)).astype(np.float32))
    out = tmp_path / "t.ltlb"
    assert main(["transfer", "--prototypes", str(protos),
                 "--features", str(feats), "--out", str(out)]) == 0
    labels = dm.read_labels(out)
    assert labels.shape == (20,)

    gt = tmp_path / "gt.ltlb"
    dm.write_labels(gt, rng.integers(0, 3, size=20))
    assert main(["report", "--pred", str(out), "--gt", str(gt)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "class\tcount\tiou\trecall\tabsorbed"


def test_cli_transfer_and_report_from_config_files(tmp_path):
    # paths in a config file resolve relative to the file
    (tmp_path / "cfg").mkdir()
    rng = np.random.default_rng(0)
    dm.write_feature_matrix(tmp_path / "p.ltfm", rng.normal(size=(4, 3)).astype(np.float32))
    dm.write_feature_matrix(tmp_path / "f.ltfm", rng.normal(size=(20, 3)).astype(np.float32))
    dm.write_labels(tmp_path / "gt.ltlb", rng.integers(0, 3, size=20))
    (tmp_path / "cfg" / "t.cfg").write_text(
        "prototypes = ../p.ltfm\nfeatures = ../f.ltfm\nout = ../t.ltlb\n")
    (tmp_path / "cfg" / "r.cfg").write_text(
        "pred = ../t.ltlb\ngt = ../gt.ltlb\nunmatched = drop\nout = ../r.tsv\n")
    assert main(["transfer", "--config", str(tmp_path / "cfg" / "t.cfg")]) == 0
    assert dm.read_labels(tmp_path / "t.ltlb").shape == (20,)
    assert main(["report", "--config", str(tmp_path / "cfg" / "r.cfg")]) == 0
    assert (tmp_path / "r.tsv").read_text().startswith("class\tcount\tiou\trecall\tabsorbed\n")


MISSING = [(name, key) for name, (_, required, _) in cli.COMMANDS.items() for key in required]


@pytest.mark.parametrize("command,key", MISSING, ids=[f"{c}-{k}" for c, k in MISSING])
def test_cli_missing_required_key_exits_1(tmp_path, capfd, caplog, command, key):
    given = [a for k in cli.COMMANDS[command][1] if k != key
             for a in (f"--{k}", str(tmp_path / k))]
    assert main([command] + given) == 1
    assert f"missing required option --{key}" in caplog.text
    assert "Traceback" not in capfd.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_bad_unmatched_exits_1_before_reading(tmp_path, capfd, command, source):
    # the label files do not exist: reading them would exit 2
    argv = [command, "--pred", str(tmp_path / "p.ltlb"), "--gt", str(tmp_path / "g.ltlb")]
    if source == "file":
        (tmp_path / "x.cfg").write_text("unmatched = bogus\n")
        argv += ["--config", str(tmp_path / "x.cfg")]
    else:
        argv += ["--unmatched", "bogus"]
    assert main(argv) == 1
    assert "Traceback" not in capfd.readouterr().err


def test_cli_exit_codes(tmp_path):
    # usage error: missing required option
    assert main(["synth", "--n-classes", "3"]) == 1
    # usage error: unknown config key
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "c")]) == 1
    # data error: unreadable corpus
    assert main(["train", "--corpus", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")] + SMALL_TRAIN) == 2
    # no subcommand
    assert main([]) == 1


def test_cli_recluster_every_zero_exits_1(tmp_path):
    # a zero step would loop forever; the config is refused before the corpus is read
    assert main(["train", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
                 "--recluster-every", "0"]) == 1


def test_cli_data_error_on_corrupt_file(tmp_path):
    p = tmp_path / "x.ltlb"
    p.write_bytes(b"XXXX" + b"\x00" * 12)
    assert main(["eval", "--pred", str(p), "--gt", str(p)]) == 2


@pytest.mark.parametrize("command", ["eval", "report"])
def test_cli_out_of_range_prediction_exits_2(tmp_path, command):
    pred, gt = tmp_path / "pred.ltlb", tmp_path / "gt.ltlb"
    dm.write_labels(pred, np.array([0, -1, 1]))
    dm.write_labels(gt, np.array([0, 1, 1]))
    assert main([command, "--pred", str(pred), "--gt", str(gt)]) == 2


def test_cli_malformed_entities_tsv_exits_2(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    tsv = corpus / "bank" / "entities.tsv"
    tsv.write_text(tsv.read_text().replace("\t", " ", 1))
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
                + SMALL_TRAIN) == 2


def test_cli_train_with_a_mask_file_missing_exits_2(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    path = corpus / "bank" / "masks" / "scene0000.bin"
    eid = dm.read_entity_masks(path)[0][0]
    path.unlink()
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
                + SMALL_TRAIN) == 2
    assert f"entity {eid}: entities.tsv lists" in caplog.text


def test_cli_train_with_bank_refuses_mask_index_past_scene(tmp_path, caplog):
    # with --bank no entity features are pooled, so the mask indices first
    # meet the scene's rows in training, which read_corpus must guard
    corpus, bank = tmp_path / "corpus", tmp_path / "bank"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    assert main(["bank", "--corpus", str(corpus), "--out", str(bank), "--feat-dim", "8",
                 "--hidden-dim", "8", "--warmup-epochs", "0", "--batch-scenes", "2"]) == 0
    append_mask_index(corpus, "scene0000", 10 ** 6)
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
                 "--bank", str(bank)] + SMALL_TRAIN + ["--lambda", "0.5"]) == 2
    assert "mask index 1000000 out of range" in caplog.text


def test_cli_train_on_scenes_of_different_widths_exits_2(tmp_path, capfd, caplog):
    # scenes of different widths cannot share one backbone: refused as the corpus is read
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    path = corpus / "scenes" / "scene0001" / "points.ltfm"
    dm.write_feature_matrix(path, dm.read_feature_matrix(path)[:, :5])
    assert main(["train", "--corpus", str(corpus), "--out", str(out)] + SMALL_TRAIN) == 2
    assert "points.ltfm has 5 columns" in caplog.text
    assert "Traceback" not in capfd.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_train_with_a_bank_of_another_width_exits_2_before_writing(tmp_path, capfd, caplog):
    # the entity ids match, so this run used to exit 2 only at its first step,
    # after checkpoints/round_000.ltck was written
    corpus, bank, out = tmp_path / "corpus", tmp_path / "bank", tmp_path / "out"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    assert main(["bank", "--corpus", str(corpus), "--out", str(bank), "--feat-dim", "16",
                 "--hidden-dim", "8", "--warmup-epochs", "0"]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--bank", str(bank)] + SMALL_TRAIN + ["--lambda", "0.5"]) == 2
    assert "the bank's prototypes have 16 columns, the backbone's features 8" in caplog.text
    assert "Traceback" not in capfd.readouterr().err
    assert not out.exists()


def test_cli_train_with_a_granularity_above_the_superpoint_count_exits_1_before_writing(
        tmp_path, capfd, caplog):
    # this run used to exit 1 only after <out>/bank/ and <out>/checkpoints/ existed
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    n_sp = sum(dm.read_superpoints(corpus / "scenes" / sid / "superpoints.ltsp").max() + 1
               for sid in ("scene0000", "scene0001"))
    assert main(["train", "--corpus", str(corpus), "--out", str(out)] + SMALL_TRAIN
                + ["--granularities", f"{n_sp + 1},3", "--lambda", "0.5"]) == 1
    assert f"granularity {n_sp + 1} exceeds the corpus's {n_sp} superpoints" in caplog.text
    assert "Traceback" not in capfd.readouterr().err
    assert not out.exists()
    assert main(["train", "--corpus", str(corpus), "--out", str(out)] + SMALL_TRAIN
                + ["--granularities", f"{n_sp},3"]) == 0


def test_cli_synth_over_a_larger_corpus_leaves_a_corpus_that_trains(tmp_path):
    # the larger corpus's masks/scene0003.bin used to stay, and every later
    # train exited 2 with "mask references unknown entity 3000000"
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH + ["--n-scenes", "4"]) == 0
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH + ["--n-scenes", "3"]) == 0
    assert sorted(os.listdir(corpus / "bank" / "masks")) == [
        f"scene000{i}.bin" for i in range(3)]
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
                + SMALL_TRAIN) == 0


BANK_FILES = ("bank_aligned.ltfm", "trace.tsv", "entity_ids.tsv")


@pytest.mark.parametrize("extra", [[], ["--lr0", "0.05"]], ids=["default", "lr0.05"])
def test_cli_bank_equals_the_bank_train_builds(tmp_path, extra):
    # `bank` and `train` start a run the same way: read, standardise, warm up
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--distill-dim", "8"] + SMALL_SYNTH) == 0
    shared = ["--feat-dim", "8", "--hidden-dim", "8", "--warmup-epochs", "2",
              "--batch-scenes", "1"] + extra
    assert main(["bank", "--corpus", str(corpus), "--out", str(tmp_path / "bank")] + shared) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                 "--granularities", "4", "--epochs", "1", "--lambda", "0.5"] + shared) == 0
    for name in BANK_FILES:
        assert ((tmp_path / "bank" / name).read_bytes()
                == (tmp_path / "run" / "bank" / name).read_bytes()), name


def test_cli_train_on_a_runs_bank_reproduces_the_run(tmp_path):
    # a run trains on its bank as bank_aligned.ltfm stores it (float32), so
    # `train --bank <run>/bank` writes the run's artifacts byte for byte
    corpus, run, again = tmp_path / "corpus", tmp_path / "run", tmp_path / "again"
    assert main(["synth", "--out", str(corpus), "--distill-dim", "8"] + SMALL_SYNTH) == 0
    flags = ["--granularities", "6,3", "--epochs", "4", "--recluster-every", "2",
             "--lambda", "0.9", "--use-global", "true", "--s-prime", "4", "--feat-dim", "8",
             "--hidden-dim", "8", "--warmup-epochs", "1", "--batch-scenes", "1"]
    assert main(["train", "--corpus", str(corpus), "--out", str(run)] + flags) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(again),
                 "--bank", str(run / "bank")] + flags) == 0
    for name in ("pred.ltlb", "prototypes.ltfm", "losses.tsv"):
        assert (run / name).read_bytes() == (again / name).read_bytes(), name


def test_cli_bank_builds_each_incidence_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    calls = count_incidence_builds(monkeypatch)
    assert main(["bank", "--corpus", str(corpus), "--out", str(tmp_path / "bank"),
                 "--feat-dim", "8", "--hidden-dim", "8", "--warmup-epochs", "0"]) == 0
    assert len(calls) == 1


class _BankSaved(Exception):
    pass


def test_bank_keys_are_the_fields_the_bank_depends_on(tmp_path, monkeypatch):
    # a TrainConfig field whose value changes the bank a run builds must be a
    # `bank` key, or `bank` cannot build that bank; a `bank` key that never
    # changes it does nothing. feat_dim is the bank's width, and warm-up
    # needs it to equal the corpus's distill width, so it is not varied;
    # granularities must not exceed the corpus's superpoints, which
    # run_pipeline checks first.
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--distill-dim", "8"] + SMALL_SYNTH) == 0
    save = tr.save_bank

    def save_and_stop(out_dir, bank):
        save(out_dir, bank)
        raise _BankSaved

    monkeypatch.setattr(tr, "save_bank", save_and_stop)

    def bank_bytes(cfg, out):
        with pytest.raises(_BankSaved):
            tr.run_pipeline(cfg, corpus, out)
        return [(out / "bank" / name).read_bytes() for name in BANK_FILES]

    base = tr.TrainConfig(lambda_entity=0.5, granularities=(4,), feat_dim=8, hidden_dim=8,
                          warmup_epochs=2, batch_scenes=1)
    want = bank_bytes(base, tmp_path / "base")
    changes = set()
    for f in dataclasses.fields(tr.TrainConfig):
        if f.name == "feat_dim":
            continue
        other = (3,) if f.name == "granularities" else _other_value(getattr(base, f.name))[1]
        cfg = dataclasses.replace(base, **{f.name: other})
        if bank_bytes(cfg, tmp_path / f.name) != want:
            changes.add(cli.ALIASES.get(f.name, f.name))
    assert changes == set(cli.BANK_KEYS) - {"corpus", "out", "feat_dim"}


def test_cli_train_with_a_dir_without_a_bank_exits_2(tmp_path, capfd):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    (tmp_path / "empty").mkdir()
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--bank", str(tmp_path / "empty")] + SMALL_TRAIN + ["--lambda", "0.5"]) == 2
    assert "Traceback" not in capfd.readouterr().err
    assert not (out / "pred.ltlb").exists()
    assert not (out / "bank").exists()
    assert not (out / "config.resolved").exists()  # written last, after the outputs


def test_cli_train_with_a_bank_of_another_corpus_exits_2(tmp_path, capfd, caplog):
    # a bank of more entities than the corpus has used to end in an IndexError
    big, small, bank = tmp_path / "big", tmp_path / "small", tmp_path / "bank"
    assert main(["synth", "--out", str(big)] + SMALL_SYNTH + ["--n-scenes", "6"]) == 0
    assert main(["synth", "--out", str(small)] + SMALL_SYNTH + ["--n-scenes", "3"]) == 0
    assert main(["bank", "--corpus", str(big), "--out", str(bank), "--feat-dim", "8",
                 "--hidden-dim", "8", "--warmup-epochs", "0", "--batch-scenes", "2"]) == 0
    assert main(["train", "--corpus", str(small), "--out", str(tmp_path / "out"),
                 "--bank", str(bank)] + SMALL_TRAIN + ["--lambda", "0.5"]) == 2
    assert "the bank's entities are not the corpus's" in caplog.text
    assert "Traceback" not in capfd.readouterr().err
    assert not (tmp_path / "out" / "pred.ltlb").exists()


@pytest.mark.parametrize("command", ["bank", "train"])
def test_cli_run_without_a_corpus_leaves_no_config_resolved(tmp_path, capfd, command):
    out = tmp_path / "out"
    assert main([command, "--corpus", str(tmp_path / "nope"), "--out", str(out)]) == 2
    assert "Traceback" not in capfd.readouterr().err
    assert not (out / "config.resolved").exists()


@pytest.mark.parametrize("bank_of, code, warmups", [
    (None, 2, 0),  # a dir without a bank
    ("big", 2, 0),  # a bank of another corpus
    ("corpus", 0, 1),  # the corpus's own bank: the run warms up once
], ids=["no-bank", "other-corpus", "own-bank"])
def test_cli_train_checks_its_bank_before_the_warm_up(tmp_path, monkeypatch, bank_of,
                                                      code, warmups):
    corpus, bank, out = tmp_path / "corpus", tmp_path / "bank", tmp_path / "out"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    assert main(["synth", "--out", str(tmp_path / "big")] + SMALL_SYNTH + ["--n-scenes", "6"]) == 0
    bank.mkdir()
    if bank_of is not None:
        assert main(["bank", "--corpus", str(tmp_path / bank_of), "--out", str(bank),
                     "--feat-dim", "8", "--hidden-dim", "8", "--warmup-epochs", "0"]) == 0
    calls = []
    warmup = tr.Trainer.warmup
    monkeypatch.setattr(tr.Trainer, "warmup", lambda self: calls.append(1) or warmup(self))
    assert main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--bank", str(bank)] + SMALL_TRAIN + ["--lambda", "0.5"]) == code
    assert len(calls) == warmups
    assert (out / "checkpoints").exists() == (code == 0)


def test_config_file_bad_value(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text("# header\nepochs = abc\n")
    with pytest.raises(ConfigError, match=r"train\.cfg:2:"):
        load_config_file(p, TRAIN_KEYS)
    assert main(["train", "--config", str(p)]) == 1


def test_config_file_threads_key_removed(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text("threads = 2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(p, TRAIN_KEYS)


REMOVED_KEYS = ([("dump_spectral", "train"), ("freeze_spectral", "train"),
                 ("instance_size", "synth")]
                + [(key, "train") for key in ("lr_min", "poly_power", "weight_decay",
                                              "align_steps", "align_lr", "sample_cap")]
                + [(key, "bank") for key in ("weight_decay", "align_steps", "align_lr")])


@pytest.mark.parametrize("key, command", REMOVED_KEYS,
                         ids=[f"{c}-{k}" if c == "bank" else k for k, c in REMOVED_KEYS])
def test_config_file_spectral_keys_removed(tmp_path, key, command):
    # removed keys: from a config file or a flag they are unknown (exit 1)
    p = tmp_path / f"{command}.cfg"
    p.write_text(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(p, cli.COMMANDS[command][0])
    assert main([command, "--config", str(p)]) == 1
    assert main([command, "--out", str(tmp_path / "out"), f"--{key.replace('_', '-')}", "1"]) == 1
    assert not (tmp_path / "out").exists()


def test_config_file_bad_utf8_exits_1(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_bytes(b"epochs = 2\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"train\.cfg: not UTF-8"):
        load_config_file(p, TRAIN_KEYS)
    assert main(["train", "--config", str(p)]) == 1


TRAIN_CFG = ("corpus = corpus\nout = out\ngranularities = 4\nepochs = 2\nrecluster_every = 2\n"
             "lambda = 0.5\nuse_global = false\nfeat_dim = 8\nhidden_dim = 8\n"
             "warmup_epochs = 0\nbatch_scenes = 2\nbank = bank\n")
# text file under tmp_path -> its reader, given tmp_path
TEXT_FILES = {
    "manifest.tsv": ("corpus/manifest.tsv", lambda d: read_corpus(d / "corpus")),
    "entities.tsv": ("corpus/bank/entities.tsv", lambda d: read_corpus(d / "corpus")),
    "entity_ids.tsv": ("bank/entity_ids.tsv", lambda d: load_bank(d / "bank")),
    "trace.tsv": ("bank/trace.tsv", lambda d: load_bank(d / "bank")),
    "train.cfg": ("train.cfg", lambda d: cli._build(
        tr.TrainConfig, load_config_file(d / "train.cfg", TRAIN_KEYS))),
}


@pytest.mark.parametrize("name", TEXT_FILES)
def test_text_file_cut_short_or_not_utf8_is_refused(tmp_path, monkeypatch, capfd, name):
    # every prefix of the file, and the file with an invalid UTF-8 byte in its
    # middle: its reader returns or raises a LangtailError, and where it
    # raises, `train` exits 1 or 2
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "corpus"] + SMALL_SYNTH) == 0
    assert main(["bank", "--corpus", "corpus", "--out", "bank", "--feat-dim", "8",
                 "--hidden-dim", "8", "--warmup-epochs", "0", "--batch-scenes", "2"]) == 0
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    rel, read = TEXT_FILES[name]
    path = tmp_path / rel
    whole = path.read_bytes()
    not_utf8 = whole[:len(whole) // 2] + b"\xff" + whole[len(whole) // 2:]
    refused = []
    for data in [whole[:end] for end in range(len(whole))] + [not_utf8]:
        path.write_bytes(data)
        try:
            read(tmp_path)
        except LangtailError:
            refused.append(data)
            assert main(["train", "--config", "train.cfg"]) in (1, 2)
    assert not_utf8 in refused
    assert "Traceback" not in capfd.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest", [b"scene_000\n\xff\n", b"", b"\n\n",
                                      b"scene0000\nscene0001\nscene0000\n"],
                         ids=["bad_utf8", "empty", "blank_lines", "scene_twice"])
def test_cli_bad_manifest_exits_2(tmp_path, manifest):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    (corpus / "manifest.tsv").write_bytes(manifest)
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
                + SMALL_TRAIN) == 2


def _capture(monkeypatch, target, name):
    """Replace target.name by a stub that records the config it is given."""
    got = []
    monkeypatch.setattr(target, name, lambda cfg, *a, **kw: got.append(cfg) or ([], []))
    return got


def _other_value(d):
    """A valid config value other than d: (CLI text, built value)."""
    if isinstance(d, bool):
        return str(not d).lower(), not d
    if isinstance(d, tuple):
        return "60,30", (60, 30)
    want = d * 2 + 1 if isinstance(d, int) else d * 2
    return repr(want), want


FIELD_CASES = [(cls, f, source)
               for cls in (SynthConfig, tr.TrainConfig)
               for f in dataclasses.fields(cls)
               for source in ("file", "flag")]


@pytest.mark.parametrize("cls,field,source", FIELD_CASES,
                         ids=[f"{c.__name__}.{f.name}-{s}" for c, f, s in FIELD_CASES])
def test_every_config_field_reaches_the_dataclass(tmp_path, monkeypatch, cls, field, source):
    # the CLI's keys are derived from the dataclasses, so no field is left behind
    text, want = _other_value(field.default)
    key = cli.ALIASES.get(field.name, field.name)
    if cls is SynthConfig:
        got = _capture(monkeypatch, cli, "generate_corpus")
        argv = ["synth", "--out", str(tmp_path / "o")]
    else:
        got = _capture(monkeypatch, tr, "run_pipeline")
        argv = ["train", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "o")]
    if source == "file":
        (tmp_path / "x.cfg").write_text(f"{key} = {text}\n")
        argv += ["--config", str(tmp_path / "x.cfg")]
    else:
        argv += ["--" + key.replace("_", "-"), text]
    assert main(argv) == 0
    assert getattr(got[0], field.name) == want
    assert getattr(cls(), field.name) != want


def test_train_config_resolved_golden(tmp_path, monkeypatch):
    # keys from a file (its paths relative to the file) and from flags
    # (relative to the working directory), a flag overriding the file
    got = _capture(monkeypatch, tr, "run_pipeline")
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cfg" / "t.cfg").write_text(
        "# run settings\ncorpus = ../corpus\nlambda = 0.5\ngranularities = 12,6\n"
        "epochs = 3\nuse_global = no\n")
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", "cfg/t.cfg", "--out", "runs/./a",
                 "--epochs", "4", "--tau", "0.1", "--bank", "bank/"]) == 0
    assert (tmp_path / "runs" / "a" / "config.resolved").read_text() == (
        f"bank = {tmp_path}/bank\n"
        f"corpus = {tmp_path}/corpus\n"
        "epochs = 4\n"
        "granularities = 12,6\n"
        "lambda = 0.5\n"
        f"out = {tmp_path}/runs/a\n"
        "tau = 0.1\n"
        "use_global = no\n")
    assert got[0] == tr.TrainConfig(lambda_entity=0.5, granularities=(12, 6), epochs=4,
                                    use_global=False, tau=0.1)


REFUSED = [
    ["train", "--use-global", "maybe"],
    ["train", "--granularities", ","],
    ["train", "--tau", "0"],
    ["train", "--baseline", "maybe"],
    ["train", "--hidden-dim", "0"],
    ["train", "--feat-dim", "0"],
    ["train", "--entity-batch", "0"],
    ["train", "--s-prime", "0"],
    ["train", "--recluster-every", "0"],
    ["train", "--lr0", "0"],
    ["train", "--warmup-epochs", "-1"],
    ["bank", "--hidden-dim", "0"],
    ["bank", "--batch-scenes", "0"],
    ["synth", "--n-scenes", "0"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=[" ".join(a) for a in REFUSED])
def test_cli_refused_config_exits_1_before_writing(tmp_path, capfd, argv):
    # refused before the corpus is read (it does not exist: reading it would
    # exit 2) and before <out>/config.resolved is written
    out = tmp_path / "o"
    if argv[0] != "synth":
        argv = argv + ["--corpus", str(tmp_path / "nope")]
    assert main(argv + ["--out", str(out)]) == 1
    assert "Traceback" not in capfd.readouterr().err
    assert not out.exists()


def test_train_rerun_from_config_resolved(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "c"] + SMALL_SYNTH) == 0
    assert main(["train", "--corpus", "c", "--out", "o"] + SMALL_TRAIN) == 0
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["train", "--config", "../o/config.resolved", "--out", "../o2"]) == 0
    assert (tmp_path / "o2" / "pred.ltlb").read_bytes() == \
        (tmp_path / "o" / "pred.ltlb").read_bytes()


def test_synth_rerun_from_config_resolved(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "c"] + SMALL_SYNTH) == 0
    before = (tmp_path / "c" / "manifest.tsv").read_bytes()
    assert main(["synth", "--config", "c/config.resolved"]) == 0
    assert not (tmp_path / "c" / "c").exists()
    assert (tmp_path / "c" / "manifest.tsv").read_bytes() == before


# a value that config.resolved, `key = value` lines with `#` comments read
# back stripped, would read back as another value
UNWRITABLE = ["c#1", "c ", "c\nd", "c\rd", " c\t"]
UNWRITABLE_FLAGS = ([("train", "out", v) for v in UNWRITABLE]
                    + [("train", "corpus", v) for v in UNWRITABLE]
                    + [("train", "granularities", v) for v in ("4 ", " 4", "4,2\n")]
                    # a re-run from c#1/config.resolved would write to <abs>/c
                    + [("synth", "out", "c#1")])


@pytest.mark.parametrize("command,key,value", UNWRITABLE_FLAGS, ids=repr)
def test_cli_refuses_a_value_config_resolved_cannot_hold(tmp_path, monkeypatch, capfd,
                                                         command, key, value):
    # refused with exit 1 before the corpus is read (it does not exist:
    # reading it would exit 2) and before anything is written
    monkeypatch.chdir(tmp_path)
    flags = {"synth": {"out": "o"}, "train": {"corpus": "nope", "out": "o"}}[command]
    flags[key] = value
    assert main([command] + [a for k, v in flags.items() for a in (f"--{k}", v)]) == 1
    assert "Traceback" not in capfd.readouterr().err
    assert os.listdir(tmp_path) == []


SMALL_BANK = ["--feat-dim", "8", "--hidden-dim", "8", "--warmup-epochs", "0",
              "--batch-scenes", "2"]
OUT_RUNS = {
    "synth": SMALL_SYNTH,
    "bank": ["--corpus", "{corpus}"] + SMALL_BANK,
    "train": ["--corpus", "{corpus}"] + SMALL_TRAIN,
    "train --baseline": ["--corpus", "{corpus}", "--baseline", "true"] + SMALL_TRAIN,
    "eval": ["--pred", "{corpus}/labels.ltlb", "--gt", "{corpus}/labels.ltlb"],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("run", OUT_RUNS)
def test_cli_out_at_an_existing_file_exits_2(tmp_path, capfd, run, under):
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus)] + SMALL_SYNTH) == 0
    (tmp_path / "f").write_text("kept\n")
    out = tmp_path / "f" / "o" if under else tmp_path / "f"
    argv = [a.replace("{corpus}", str(corpus)) for a in OUT_RUNS[run]]
    assert main(run.split()[:1] + argv + ["--out", str(out)]) == 2
    assert "Traceback" not in capfd.readouterr().err
    assert (tmp_path / "f").read_text() == "kept\n"


EXIT_CODES = {"ConfigError": 1, "NumericError": 3, "NormalizationError": 3,
              "FormatError": 2, "TruncationError": 2, "DataError": 2, "IoError": 2,
              "ShapeError": 2, "DegenerateGraphError": 2, "EmptyMaskError": 2,
              "EmptyBatchError": 2}


@pytest.mark.parametrize("kind", LangtailError.__subclasses__(), ids=lambda k: k.__name__)
def test_cli_exit_code_of_every_error(monkeypatch, caplog, kind):
    def fail(args):
        raise kind("refused")
    monkeypatch.setattr(cli, "cmd_report", fail)
    assert main(["report", "--pred", "p", "--gt", "g"]) == EXIT_CODES[kind.__name__]
    assert "refused" in caplog.text


def test_every_error_has_an_exit_code():
    assert {k.__name__ for k in LangtailError.__subclasses__()} == set(EXIT_CODES)
