"""Entity-level semantic bank: mask-guided feature aggregation, Gram-matrix
alignment against text-embedding geometry, and the class-balanced entity
contrastive loss.

The bank is built once, offline, and is immutable afterwards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import data_model as dm
from .errors import ConfigError, DataError, DivergenceError, EmptyMaskError, ShapeError
from .rng import make_rng


@dataclass
class SemanticBank:
    B: np.ndarray  # (T, C) aligned prototypes
    entity_ids: list[int]
    alignment_loss_trace: list[float] = field(default_factory=list)
    categories: np.ndarray | None = None  # (T,) entity category ids; derive_categories(B) if None

    def __post_init__(self):
        if self.categories is None:
            self.categories = derive_categories(self.B)


def derive_categories(B, threshold: float = 0.9) -> np.ndarray:
    """Greedy leader clustering of bank rows by cosine similarity.

    Entities whose prototypes are near-duplicates (aliases, co-named
    instances) share a category, which drives the balanced batch weights.
    """
    X = _l2_rows(B)
    leaders = []  # row index of each category leader
    cats = np.empty(X.shape[0], dtype=np.int64)
    for i in range(X.shape[0]):
        if leaders:
            sims = X[leaders] @ X[i]
            best = int(np.argmax(sims))
            if sims[best] >= threshold:
                cats[i] = best
                continue
        leaders.append(i)
        cats[i] = len(leaders) - 1
    return cats


def aggregate_entity_features(scenes, backbone_features, entities) -> np.ndarray:
    """Mask-guided double average: per entity, mean over scenes of the mean
    backbone feature over the entity's mask points.

    Only scenes where the entity has a non-empty mask enter the outer mean.
    """
    by_id = {s.scene_id: i for i, s in enumerate(scenes)}
    for s, f in zip(scenes, backbone_features):
        if f.shape[0] != s.n_points:
            raise ShapeError(f"scene {s.scene_id}: feature rows != point count")
    out = np.zeros((len(entities), backbone_features[0].shape[1]))
    for t, e in enumerate(entities):
        scene_means = []
        for sid, idx in e.masks:
            if sid not in by_id:
                continue
            feats = backbone_features[by_id[sid]]
            if idx.size == 0 or idx.max() >= feats.shape[0]:
                raise EmptyMaskError(
                    f"entity {e.entity_id}: invalid mask for scene {sid}"
                )
            scene_means.append(np.asarray(feats, dtype=np.float64)[idx].mean(axis=0))
        if not scene_means:
            raise EmptyMaskError(f"entity {e.entity_id}: no effective mask in any scene")
        out[t] = np.mean(scene_means, axis=0)
    return out


def gram(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return X @ X.T


def _l2_rows(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return np.divide(X, norms, out=X.copy(), where=norms > 0)


def align_gram_loss(F, G_target) -> tuple[float, np.ndarray]:
    """Squared-Frobenius Gram mismatch and its analytic gradient 4*(G(F)-G_t)*F."""
    diff = gram(F)
    diff -= G_target
    return float((diff * diff).sum()), 4.0 * (diff @ F)


def align_gram(F_m_init, F_e, entity_ids=None, steps: int = 500, lr: float = 1e-2) -> SemanticBank:
    """Fit prototypes whose Gram matrix matches the text-embedding Gram.

    Gradient descent with backtracking: the step halves on a loss increase
    and grows 1.1-fold, to at most 1.0, after an accepted step. Text rows
    are L2-normalized first so the target Gram holds cosine similarities.
    """
    F = np.asarray(F_m_init, dtype=np.float64).copy()
    F_e = np.asarray(F_e, dtype=np.float64)
    if F.shape[0] != F_e.shape[0]:
        raise ShapeError(f"row mismatch: {F.shape[0]} prototypes vs {F_e.shape[0]} embeddings")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    G_target = gram(_l2_rows(F_e))

    loss, grad = align_gram_loss(F, G_target)
    initial = loss if loss > 0 else 1.0
    trace = [loss]
    for _ in range(steps):
        accepted = False
        for _try in range(60):
            trial = F - lr * grad
            trial_loss, trial_grad = align_gram_loss(trial, G_target)
            if trial_loss <= loss:
                F, loss, grad = trial, trial_loss, trial_grad
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break  # step size underflow; F is at the best iterate found
        if loss > 1e3 * initial:
            raise DivergenceError(
                f"Gram alignment diverged (loss {loss:.3e} vs initial {initial:.3e}); "
                "use a smaller lr"
            )
        lr = min(lr * 1.1, 1.0)
        trace.append(loss)
    if entity_ids is None:
        entity_ids = list(range(F.shape[0]))
    return SemanticBank(B=F, entity_ids=list(entity_ids), alignment_loss_trace=trace)


def sample_entity_batch(bank: SemanticBank, batch_size: int, seed: int):
    """Uniform sample without replacement of batch_size bank rows. Returns
    (indices, rows, weights): the sorted bank indices, their L2-normalised
    rows, and per row 1 / sqrt(n_c), n_c the sampled entities of its category.
    """
    T = bank.B.shape[0]
    if batch_size < 1 or batch_size > T:
        raise ConfigError(f"batch_size={batch_size} out of range for {T} entities")
    rng = make_rng(seed, "entity-batch")
    idx = np.sort(rng.choice(T, size=batch_size, replace=False))
    cats = bank.categories[idx]
    return idx, _l2_rows(bank.B[idx]), 1.0 / np.sqrt(np.bincount(cats)[cats].astype(np.float64))


def entity_contrastive_loss(anchor_features, prototypes, weights,
                            tau: float = 0.07) -> tuple[float, np.ndarray]:
    """Weighted InfoNCE between anchors and prototypes, rows one-to-one:
    anchor i's positive is prototype i, its negatives the other prototypes,
    and weights[i] scales its term. Returns (loss, gradient w.r.t. the anchor
    rows).
    """
    if tau <= 0:
        raise ConfigError("tau must be > 0")
    X = np.asarray(anchor_features, dtype=np.float64)
    P = prototypes
    if X.shape != (P.shape[0], P.shape[1]):
        raise ShapeError(f"anchors {X.shape} do not match prototypes {P.shape}")
    A = X.shape[0]
    S = X @ P.T / tau
    S_max = S.max(axis=1, keepdims=True)
    logits = S - S_max
    lse = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    logp = logits[np.arange(A), np.arange(A)] - lse[:, 0]
    loss = float(np.mean(-weights * logp))
    softmax = np.exp(logits - lse)
    resid = softmax.copy()
    resid[np.arange(A), np.arange(A)] -= 1.0
    grad = (weights[:, None] * resid) @ P / (tau * A)
    return loss, grad


def save_bank(out_dir, bank: SemanticBank) -> None:
    """Persist bank_aligned.ltfm, trace.tsv, and an entities.tsv id copy."""
    os.makedirs(out_dir, exist_ok=True)
    dm.write_feature_matrix(os.path.join(out_dir, "bank_aligned.ltfm"),
                            bank.B.astype(np.float32))
    with dm.atomic_open(os.path.join(out_dir, "trace.tsv")) as f:
        for step, v in enumerate(bank.alignment_loss_trace):
            f.write(f"{step}\t{v:.10e}\n")
    with dm.atomic_open(os.path.join(out_dir, "entity_ids.tsv")) as f:
        for eid in bank.entity_ids:
            f.write(f"{eid}\n")


def load_bank(out_dir) -> SemanticBank:
    B = np.asarray(dm.read_feature_matrix(os.path.join(out_dir, "bank_aligned.ltfm")),
                   dtype=np.float64)
    ids = [eid for (eid,) in dm.read_tsv(os.path.join(out_dir, "entity_ids.tsv"), int)]
    trace = [v for _, v in dm.read_tsv(os.path.join(out_dir, "trace.tsv"), int, float)]
    if B.shape[0] != len(ids):
        raise DataError(f"{out_dir}: bank has {B.shape[0]} rows but {len(ids)} entity ids")
    return SemanticBank(B=B, entity_ids=ids, alignment_loss_trace=trace)
