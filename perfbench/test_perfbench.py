"""Self-test of the benchmark: tracer arithmetic, wrapper install and
restore, the calibration check, and a smoke run of every workload path at
tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import langtail  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_self_times_of_hand_built_tree():
    t = Tracer()
    root = t.record("root", 0.0, 10.0)
    a = t.record("a", 1.0, 4.0, parent=root)
    b = t.record("b", 5.0, 9.0, parent=root)
    t.record("b1", 6.0, 7.0, parent=b)
    t.record("b2", 7.5, 8.0, parent=b)
    t.record("a1", 2.0, 2.5, parent=a)
    assert t.self_times() == [3.0, 2.5, 2.5, 1.0, 0.5, 0.5]


def test_layer_metrics_count_setup_once_and_average_iterations():
    t = Tracer()
    t.record("synth.generate_corpus", 0.0, 2.0, tag="setup")
    for i in range(2):  # two identical timed iterations
        base = 10.0 * (i + 1)
        epoch = t.record("train.Trainer.train_epoch", base, base + 6.0, tag="timed")
        t.record("train.head_ce_loss", base + 1.0, base + 2.0, parent=epoch, tag="timed")
        t.record("train.head_ce_loss", base + 2.0, base + 4.0, parent=epoch, tag="timed")
        t.record("train.backbone_forward", base + 4.0, base + 5.0, parent=epoch,
                 work=100, tag="timed")
    m = layers.layer_metrics(t, n_iter=2)
    assert m["synth.generate_s"] == 2.0
    assert m["train.epoch_s"] == 6.0
    assert m["train.epoch_self_s"] == 2.0
    assert m["train.head_ce_s"] == 3.0
    assert m["train.head_ce_calls"] == 2.0
    assert m["train.forward_rows"] == 100.0
    assert m["cluster.ward_s"] == 0.0
    assert layers.top_self_times(t, 2)[0] == ("train.head_ce_loss", 3.0)


def test_nested_data_model_spans_count_once():
    t = Tracer()
    bank = t.record("data_model.write_entity_bank", 0.0, 4.0, work=300)
    t.record("data_model.write_feature_matrix", 1.0, 2.0, parent=bank, work=100)
    t.record("data_model.write_feature_matrix", 5.0, 6.0, work=50)
    m = layers.layer_metrics(t, n_iter=1)
    assert m["data_model.write_s"] == 5.0
    assert m["data_model.write_bytes"] == 350.0


def test_wrappers_sit_where_callers_look_up_and_are_restored():
    from langtail import bank, evaluation, spectral, train

    def lookup(module, attr):
        owner = getattr(langtail, module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner.__dict__[leaf] if path else getattr(owner, leaf)

    before = {(m, a): lookup(m, a) for m, a, _ in layers.WRAPS}
    original_step = train.AdamW.step
    t = Tracer()
    names = layers.install(t, langtail)
    try:
        assert len(names) == len(set(names)) == len(layers.WRAPS)
        assert train.align_gram is not bank.align_gram
        assert train.AdamW.step is not original_step
        b = train.init_backbone(3, [4], 2, seed=0)
        train.backbone_forward(b, [[1.0, 2.0, 3.0]])
        evaluation.hungarian([[1.0, 0.0], [0.0, 1.0]])
        spectral.kmeans([[0.0], [1.0]], 1)  # the name spectral looks up
    finally:
        t.restore()
    assert {s.name for s in t.spans} == {"train.backbone_forward", "evaluation.hungarian",
                                         "evaluation.linear_sum_assignment",
                                         "spectral.kmeans"}
    assert train.AdamW.step is original_step
    for (m, a), obj in before.items():
        assert lookup(m, a) is obj


def test_calibration_check_accepts_the_row_and_flags_a_departure():
    manifest = workloads.load_manifest(ROOT)
    row = manifest["calibration_sweep"]["rows"][0]
    wl = workloads.make("rescue", manifest, seed=row["seed"])
    assert wl.calibration == row

    def outcome(full_miou):
        return workloads.Outcome(
            wall_s=1.0, points=2 * wl.n_points, miou=full_miou, tail_iou=row["full_tail"],
            hashes={}, parts={"base_miou": row["base_miou"], "base_tail": row["base_tail"],
                              "tail_gain": row["full_tail"] - row["base_tail"]})

    assert wl.check(outcome(row["full_miou"] + 4e-5)) == []
    problems = wl.check(outcome(row["full_miou"] + 2e-4))
    assert len(problems) == 1 and problems[0].startswith("full_miou")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    spec = benchmark_spec()
    results = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], lines
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
        results[trace] = json.loads(lines[-2][len("detail "):])
    # a second process with tracing on writes the same artifacts
    assert results[0]["hashes"] == results[1]["hashes"]
    assert results[0]["hashes"]
    assert results[0]["setup_hashes"] == results[1]["setup_hashes"]
    assert bool(results[0]["setup_hashes"]) == (workload == "transfer")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = run_bench(tmp_path, "--workload", "rescue", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
