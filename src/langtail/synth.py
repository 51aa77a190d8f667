"""Deterministic generator of long-tail synthetic scenes.

Geometry of a scene (input_dim-dimensional):
  - class c lives at c * class_separation along axis 0;
  - each class is split into instances (count proportional to its point
    budget), offset from the class center along axes >= 1 by up to
    instance_spread * class_separation;
  - each instance is split into 2-4 spatial sub-blobs, which become the
    superpoints;
  - points are sub-blob centers plus isotropic Gaussian noise.

Because instance and sub-blob offsets are orthogonal to the class axis,
cross-class point distances never drop below class_separation when
noise_sigma = 0. Head classes end up with many instances spread across a
region comparable to the class gap, which is precisely what lets a purely
visual clustering absorb the tail classes into neighbours.

Entity masks cover each instance; with probability entity_alias_rate a
second alias entity (distinct id and text, perturbed embedding) covers the
same mask.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import data_model as dm
from .errors import ConfigError, DataError, EmptyBatchError, ShapeError
from .rng import make_rng

TEXT_EMBED_DIM = 512
ALIAS_PERTURBATION = 0.05


@dataclass
class SynthConfig:
    n_classes: int = 8
    points_per_scene: int = 2000
    n_scenes: int = 10
    zipf_exponent: float = 1.2
    input_dim: int = 6
    class_separation: float = 4.0
    noise_sigma: float = 0.4
    entity_alias_rate: float = 0.25
    seed: int = 0
    # extra knobs, not part of the minimal surface; defaults match the fixtures
    instance_spread: float = 0.8
    distill_dim: int = 0  # 0 -> no distill targets

    def __post_init__(self):
        for name, low in (("n_classes", 2), ("n_scenes", 1), ("zipf_exponent", 0),
                          ("input_dim", 2), ("noise_sigma", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.points_per_scene < self.n_classes:
            raise ConfigError("points_per_scene must be >= n_classes")
        if self.class_separation <= 0:
            raise ConfigError("class_separation must be > 0")
        if not 0.0 <= self.entity_alias_rate <= 1.0:
            raise ConfigError("entity_alias_rate must be in [0, 1]")


def zipf_class_counts(n_classes: int, exponent: float, total: int) -> np.ndarray:
    """Integer class sizes summing to total with count_c proportional to (c+1)^-exponent.

    Largest-remainder rounding; every class gets at least one point.
    """
    if total < n_classes:
        raise ConfigError(f"total={total} < n_classes={n_classes}")
    weights = (np.arange(1, n_classes + 1, dtype=np.float64)) ** (-float(exponent))
    raw = total * weights / weights.sum()
    counts = np.floor(raw).astype(np.int64)
    frac = raw - counts
    # hand out the remainder by largest fractional part, ties to lower class index
    order = np.lexsort((np.arange(n_classes), -frac))
    for i in range(int(total - counts.sum())):
        counts[order[i]] += 1
    # enforce the >= 1 floor by taking from the largest classes
    while np.any(counts < 1):
        counts[np.argmin(counts)] += 1
        counts[np.argmax(counts)] -= 1
    return counts


def _unit_rows(cfg: SynthConfig, stream: str, dim: int) -> np.ndarray:
    """Fixed random unit vector per class, each drawn from (seed, stream, class)."""
    out = np.empty((cfg.n_classes, dim))
    for c in range(cfg.n_classes):
        rng = make_rng(cfg.seed, stream, c)
        v = rng.standard_normal(dim)
        out[c] = v / np.linalg.norm(v)
    return out


def _instance_counts(class_counts: np.ndarray) -> np.ndarray:
    """Instances per class: its point count over the rarest class's, at least 1."""
    return np.maximum(1, class_counts // int(class_counts.min())).astype(np.int64)


def generate_scene(cfg: SynthConfig, scene_index: int):
    """Build one scene plus its entity records, deterministic in (seed, scene_index)."""
    class_counts = zipf_class_counts(cfg.n_classes, cfg.zipf_exponent, cfg.points_per_scene)
    inst_counts = _instance_counts(class_counts)
    class_emb = _unit_rows(cfg, "class-embed", TEXT_EMBED_DIM)
    scene_id = f"scene{scene_index:04d}"

    rng = make_rng(cfg.seed, "scene", scene_index)
    points = np.zeros((cfg.points_per_scene, cfg.input_dim))
    superpoints = np.zeros(cfg.points_per_scene, dtype=np.int64)
    labels = np.zeros(cfg.points_per_scene, dtype=np.int64)
    entities: list[dm.EntityRecord] = []

    sep = cfg.class_separation
    cursor = 0
    sp_counter = 0
    for c in range(cfg.n_classes):
        center = np.zeros(cfg.input_dim)
        center[0] = c * sep
        # split the class budget across instances as evenly as possible
        per_inst = np.full(inst_counts[c], class_counts[c] // inst_counts[c], dtype=np.int64)
        per_inst[: class_counts[c] % inst_counts[c]] += 1
        for inst in range(inst_counts[c]):
            n_pts = int(per_inst[inst])
            offset = np.zeros(cfg.input_dim)
            offset[1:] = rng.uniform(-1.0, 1.0, cfg.input_dim - 1) * cfg.instance_spread * sep
            inst_center = center + offset

            n_blobs = min(int(rng.integers(2, 5)), n_pts)
            blob_of_point = np.sort(rng.integers(0, n_blobs, n_pts))
            # guarantee every sub-blob is non-empty
            blob_of_point[:n_blobs] = np.arange(n_blobs)
            blob_of_point = np.sort(blob_of_point)
            blob_centers = np.zeros((n_blobs, cfg.input_dim))
            blob_centers[:, 1:] = rng.uniform(-1.0, 1.0, (n_blobs, cfg.input_dim - 1)) * 0.1 * sep
            blob_centers += inst_center

            pts = blob_centers[blob_of_point]
            if cfg.noise_sigma > 0:
                pts = pts + rng.normal(0.0, cfg.noise_sigma, pts.shape)
            idx = np.arange(cursor, cursor + n_pts)
            points[idx] = pts
            superpoints[idx] = sp_counter + blob_of_point
            labels[idx] = c
            sp_counter += n_blobs
            cursor += n_pts

            named = [(f"class{c:02d} instance{inst}", class_emb[c])]
            if rng.uniform() < cfg.entity_alias_rate:
                pert = rng.standard_normal(TEXT_EMBED_DIM)
                pert *= ALIAS_PERTURBATION / np.linalg.norm(pert)
                named.append((f"class{c:02d} instance{inst} alias", class_emb[c] + pert))
            for text, embedding in named:
                entities.append(dm.EntityRecord(
                    entity_id=scene_index * 1_000_000 + len(entities), text=text,
                    text_embedding=embedding, masks=[(scene_id, idx)]))

    distill = None
    if cfg.distill_dim > 0:
        dirs = _unit_rows(cfg, "distill-dir", cfg.distill_dim)
        noise = make_rng(cfg.seed, "distill-noise", scene_index)
        distill = dirs[labels] + 0.05 * noise.standard_normal(
            (cfg.points_per_scene, cfg.distill_dim)
        )
        distill = distill.astype(np.float32)

    bundle = dm.SceneBundle(
        scene_id=scene_id,
        points=points.astype(np.float32),
        superpoints=superpoints,
        distill_targets=distill,
        gt_labels=labels,
    )
    return bundle, entities


def generate_corpus(cfg: SynthConfig, out_dir=None):
    """Generate all scenes and the consolidated entity bank inputs.

    When out_dir is given, writes the corpus directory layout:
      scenes/<id>/{points.ltfm, superpoints.ltsp, labels.ltlb[, distill.ltfm]},
      bank/{entities.tsv, embeddings.ltfm, masks/}, manifest.tsv,
      labels.ltlb (all scenes concatenated in manifest order).
    """
    scenes = []
    entities: list[dm.EntityRecord] = []
    for i in range(cfg.n_scenes):
        bundle, ents = generate_scene(cfg, i)
        scenes.append(bundle)
        entities.extend(ents)

    if out_dir is not None:
        write_corpus(out_dir, scenes, entities)
    return scenes, entities


def _write_optional(path, a, write) -> None:
    """write(path, a), or, when a is None, remove the file an earlier corpus
    left at path, which read_corpus would load."""
    if a is not None:
        write(path, a)
    elif os.path.exists(path):
        dm.remove(path)


def write_corpus(out_dir, scenes, entities) -> None:
    dm.make_dirs(os.path.join(out_dir, "scenes"))
    for s in scenes:
        sdir = os.path.join(out_dir, "scenes", s.scene_id)
        dm.make_dirs(sdir)
        dm.write_feature_matrix(os.path.join(sdir, "points.ltfm"), s.points)
        dm.write_superpoints(os.path.join(sdir, "superpoints.ltsp"), s.superpoints)
        _write_optional(os.path.join(sdir, "labels.ltlb"), s.gt_labels, dm.write_labels)
        _write_optional(os.path.join(sdir, "distill.ltfm"), s.distill_targets,
                        dm.write_feature_matrix)
    dm.write_entity_bank(os.path.join(out_dir, "bank"), entities)
    dm.write_tsv(os.path.join(out_dir, "manifest.tsv"), [[s.scene_id] for s in scenes])
    all_labels = np.concatenate(
        [s.gt_labels for s in scenes if s.gt_labels is not None] or [np.empty(0, np.int64)]
    )
    _write_optional(os.path.join(out_dir, "labels.ltlb"),
                    all_labels if all_labels.size else None, dm.write_labels)


def read_corpus(corpus_dir):
    """Load a corpus directory written by write_corpus."""
    rows = dm.read_tsv(os.path.join(corpus_dir, "manifest.tsv"), str)
    if not rows:
        raise EmptyBatchError(f"corpus manifest in {corpus_dir} lists no scenes")
    scenes = []
    for (sid,) in rows:
        if any(s.scene_id == sid for s in scenes):
            raise DataError(f"corpus manifest in {corpus_dir} lists scene {sid} more than once")
        sdir = os.path.join(corpus_dir, "scenes", sid)
        distill_path = os.path.join(sdir, "distill.ltfm")
        labels_path = os.path.join(sdir, "labels.ltlb")
        scenes.append(
            dm.SceneBundle(
                scene_id=sid,
                points=dm.read_feature_matrix(os.path.join(sdir, "points.ltfm")),
                superpoints=dm.read_superpoints(os.path.join(sdir, "superpoints.ltsp")),
                distill_targets=(
                    dm.read_feature_matrix(distill_path) if os.path.exists(distill_path) else None
                ),
                gt_labels=dm.read_labels(labels_path) if os.path.exists(labels_path) else None,
            )
        )
        if scenes[-1].points.shape[1] != scenes[0].points.shape[1]:
            raise ShapeError(f"scene {sid}: points.ltfm has {scenes[-1].points.shape[1]} columns, "
                             f"scene {scenes[0].scene_id}'s has {scenes[0].points.shape[1]}")
    return scenes, dm.read_entity_bank(os.path.join(corpus_dir, "bank"))
