"""The benchmark's workloads: set-up, one timed iteration, and the checks
that decide whether an iteration's outputs are correct.

All three drive langtail only through its public functions. Sizes and
configs come from the frozen criterion-7 manifest in
tests/fixtures/longtail_manifest.json, so the benchmark follows the
experiment the acceptance suite judges.

- rescue: criterion 7 at one seed. The full pipeline and the lambda=0
  baseline on 10 scenes x 2000 points (~780 superpoints), then eval. Ward
  dominates, with head cross-entropy second.
- dense: 2 scenes x 10,000 points (~160 superpoints, ~120 points per
  superpoint against ~26 in rescue) with the paper's default backbone
  widths. The work moves into training; Ward is a small share, so a Ward
  change should show no change here.
- transfer: set-up trains a short rescue-shaped run; the timed part loads
  its checkpoint and prototypes, reads a much larger held-out corpus,
  labels every point by max-cosine prototype and scores it. This is the
  read path and a forward pass with no backward.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from langtail import data_model as dm
from langtail import evaluation as ev
from langtail import synth, train

MANIFEST = os.path.join("tests", "fixtures", "longtail_manifest.json")
HASHED = ("pred.ltlb", "prototypes.ltfm", "losses.tsv")
# Calibration rows are rounded to 4 decimals; their tail_gain is the
# difference of two rounded values, so it can be off by twice as much.
CALIBRATION_TOL = {"full_miou": 5e-5, "full_tail": 5e-5, "base_miou": 5e-5,
                   "base_tail": 5e-5, "tail_gain": 1e-4}
HELDOUT_SEED_OFFSET = 1_000_000

# Sizes for the benchmark's own smoke test; every workload path still runs.
TINY_SYNTH = dict(n_scenes=2, points_per_scene=400)
TINY_TRAIN = dict(epochs=2, recluster_every=1, granularities=(12, 8, 4), s_prime=8,
                  entity_batch=16, feat_dim=16, hidden_dim=16)


@dataclass
class Outcome:
    """What one timed iteration produced."""

    wall_s: float
    points: int  # points labelled and scored
    miou: float
    tail_iou: float
    hashes: dict[str, str]
    parts: dict[str, float] = field(default_factory=dict)  # other timings and scores


def load_manifest(root) -> dict:
    with open(os.path.join(root, MANIFEST)) as f:
        return json.load(f)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_tree(root) -> str:
    """One hash over every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(sha256(path).encode())
    return h.hexdigest()


def _hashes(run_dir, prefix="") -> dict[str, str]:
    return {prefix + name: sha256(os.path.join(run_dir, name)) for name in HASHED}


def score(pred_path, gt_path, n_gt: int, tail) -> tuple[float, float, int]:
    """Hungarian-matched mIoU, mean tail-class IoU and scored point count."""
    pred = dm.read_labels(pred_path)
    gt = dm.read_labels(gt_path)
    report = ev.match_and_score(ev.confusion(pred, gt, n_gt=n_gt))
    tail_iou = float(np.mean([r["iou"] for r in ev.tail_report(report)
                              if r["class"] in tail]))
    return report.miou, tail_iou, int(pred.size)


def _train_config(block: dict, seed: int, overrides: dict) -> train.TrainConfig:
    kw = dict(block, granularities=tuple(block["granularities"]))
    kw.update(overrides)
    return train.TrainConfig(seed=seed, **kw)


class PipelineWorkload:
    """rescue and dense: synth a corpus in set-up, then time the full
    pipeline (and, for rescue, the baseline) followed by eval."""

    def __init__(self, manifest, seed, synth_kw, full_kw, base_kw=None, calibration=None):
        self.synth_cfg = synth.SynthConfig(seed=seed, **dict(manifest["synth"], **synth_kw))
        self.full_cfg = _train_config(manifest["full_config"], seed, full_kw)
        self.base_cfg = (None if base_kw is None else
                         _train_config(manifest["baseline_config"], seed, base_kw))
        self.calibration = calibration
        self.tail = manifest["tail_classes"]
        self.n_points = self.synth_cfg.n_scenes * self.synth_cfg.points_per_scene

    def setup(self, d) -> None:
        synth.generate_corpus(self.synth_cfg, os.path.join(d, "corpus"))

    def iterate(self, d, out) -> Outcome:
        corpus = os.path.join(d, "corpus")
        gt = os.path.join(corpus, "labels.ltlb")
        n_gt = self.synth_cfg.n_classes
        full, base = os.path.join(out, "full"), os.path.join(out, "base")
        t0 = time.perf_counter()
        train.run_pipeline(self.full_cfg, corpus, full)
        t1 = time.perf_counter()
        parts = {"pipeline_s": t1 - t0}
        if self.base_cfg is not None:
            train.run_baseline(self.base_cfg, corpus, base)
            parts["baseline_s"] = time.perf_counter() - t1
        miou, tail_iou, points = score(os.path.join(full, "pred.ltlb"), gt, n_gt, self.tail)
        if self.base_cfg is not None:
            base_miou, base_tail, base_points = score(
                os.path.join(base, "pred.ltlb"), gt, n_gt, self.tail)
            points += base_points
            parts.update(base_miou=base_miou, base_tail=base_tail,
                         tail_gain=tail_iou - base_tail)
        wall = time.perf_counter() - t0
        hashes = _hashes(full)
        if self.base_cfg is not None:
            hashes.update(_hashes(base, "baseline/"))
        return Outcome(wall_s=wall, points=points, miou=miou, tail_iou=tail_iou,
                       hashes=hashes, parts=parts)

    def setup_hashes(self, d) -> dict[str, str]:
        return {}  # set-up writes only the corpus

    def check(self, o: Outcome) -> list[str]:
        runs = 1 if self.base_cfg is None else 2
        problems = _sanity(o, runs * self.n_points)
        if self.base_cfg is None:
            return problems
        if self.calibration is None:
            if not o.miou > o.parts["base_miou"]:
                problems.append(f"full mIoU {o.miou:.4f} <= baseline "
                                f"{o.parts['base_miou']:.4f}")
            return problems
        got = {"full_miou": o.miou, "full_tail": o.tail_iou,
               "base_miou": o.parts["base_miou"], "base_tail": o.parts["base_tail"],
               "tail_gain": o.parts["tail_gain"]}
        for key, value in got.items():
            want = self.calibration[key]
            if abs(value - want) > CALIBRATION_TOL[key] + 1e-12:
                problems.append(f"{key} {value:.6f} departs from calibration {want}")
        return problems


class TransferWorkload:
    """Set-up trains a short rescue-shaped run and synthesizes a larger
    held-out corpus; the timed part labels and scores the held-out points."""

    def __init__(self, manifest, seed, train_synth_kw, heldout_synth_kw, full_kw):
        base = manifest["synth"]
        self.train_synth = synth.SynthConfig(seed=seed, **dict(base, **train_synth_kw))
        self.heldout_synth = synth.SynthConfig(seed=seed + HELDOUT_SEED_OFFSET,
                                               **dict(base, **heldout_synth_kw))
        self.full_cfg = _train_config(manifest["full_config"], seed, full_kw)
        self.tail = manifest["tail_classes"]
        self.n_points = self.heldout_synth.n_scenes * self.heldout_synth.points_per_scene
        self.mean = self.std = None

    def setup(self, d) -> None:
        corpus = os.path.join(d, "train")
        synth.generate_corpus(self.train_synth, corpus)
        train.run_pipeline(self.full_cfg, corpus, os.path.join(d, "run"))
        # held-out points get the training corpus's standardization
        self.mean, self.std = train.standardize_scenes(synth.read_corpus(corpus)[0])
        synth.generate_corpus(self.heldout_synth, os.path.join(d, "heldout"))

    def iterate(self, d, out) -> Outcome:
        run, heldout = os.path.join(d, "run"), os.path.join(d, "heldout")
        pred_path = os.path.join(out, "pred.ltlb")
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        ck = train.load_checkpoint(os.path.join(run, "checkpoint.ltck"))
        depth = sum(1 for name in ck if name.startswith("backbone/") and
                    name.endswith("/weight"))
        backbone = train.Backbone(
            weights=[ck[f"backbone/layer{i}/weight"].astype(np.float64) for i in range(depth)],
            biases=[ck[f"backbone/layer{i}/bias"][0].astype(np.float64) for i in range(depth)],
        )
        protos = dm.read_feature_matrix(os.path.join(run, "prototypes.ltfm"))
        scenes, _ = synth.read_corpus(heldout)
        for s in scenes:
            s.points = (np.asarray(s.points, dtype=np.float64) - self.mean) / self.std
        dm.write_labels(pred_path, train.predict_labels(backbone, scenes, protos))
        miou, tail_iou, points = score(pred_path, os.path.join(heldout, "labels.ltlb"),
                                       self.heldout_synth.n_classes, self.tail)
        wall = time.perf_counter() - t0
        return Outcome(wall_s=wall, points=points, miou=miou, tail_iou=tail_iou,
                       hashes={"pred.ltlb": sha256(pred_path)})

    def setup_hashes(self, d) -> dict[str, str]:
        # written once by set-up and only read by the timed part
        return {name: sha256(os.path.join(d, "run", name)) for name in HASHED[1:]}

    def check(self, o: Outcome) -> list[str]:
        return _sanity(o, self.n_points)


def _sanity(o: Outcome, points: int) -> list[str]:
    problems = []
    if o.points != points:
        problems.append(f"scored {o.points} points, expected {points}")
    if not 0.0 < o.miou <= 1.0:
        problems.append(f"mIoU {o.miou} outside (0, 1]")
    if not 0.0 <= o.tail_iou <= 1.0:
        problems.append(f"tail IoU {o.tail_iou} outside [0, 1]")
    return problems


def make(name: str, manifest: dict, seed: int, tiny: bool = False):
    """Build a workload at its benchmark size, or at smoke-test size."""
    paper = train.TrainConfig()
    if name == "rescue":
        rows = {r["seed"]: r for r in manifest["calibration_sweep"]["rows"]}
        if tiny:
            return PipelineWorkload(manifest, seed, TINY_SYNTH, TINY_TRAIN,
                                    dict(TINY_TRAIN, granularities=(4,)))
        return PipelineWorkload(manifest, seed, {}, {}, {}, calibration=rows.get(seed))
    if name == "dense":
        if tiny:
            return PipelineWorkload(manifest, seed, dict(TINY_SYNTH, points_per_scene=800),
                                    TINY_TRAIN)
        return PipelineWorkload(manifest, seed, dict(n_scenes=2, points_per_scene=10_000),
                                dict(feat_dim=paper.feat_dim, hidden_dim=paper.hidden_dim,
                                     epochs=10))
    if name == "transfer":
        if tiny:
            return TransferWorkload(manifest, seed, TINY_SYNTH,
                                    dict(TINY_SYNTH, points_per_scene=2000), TINY_TRAIN)
        return TransferWorkload(manifest, seed, dict(n_scenes=5),
                                dict(n_scenes=20, points_per_scene=20_000), dict(epochs=10))
    raise ValueError(f"unknown workload {name!r}")
