"""Entity-level semantic bank: mask-guided feature aggregation, Gram-matrix
alignment against text-embedding geometry, and the class-balanced entity
contrastive loss.

The bank is built once, offline, in closed form, and is immutable afterwards:
its prototypes are the exact minimiser of the Gram mismatch with the text
embeddings (Eckart–Young) that lies nearest the pooled visual features
(orthogonal Procrustes, Schönemann 1966).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import data_model as dm
from .errors import ConfigError, DataError, EmptyMaskError, ShapeError
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


CATEGORY_COSINE = 0.9  # least cosine to a category's leader that joins the category


def derive_categories(B) -> np.ndarray:
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
            if sims[best] >= CATEGORY_COSINE:
                cats[i] = best
                continue
        leaders.append(i)
        cats[i] = len(leaders) - 1
    return cats


def mask_incidence(scenes, entities) -> list:
    """Each scene's entities x points incidence: a scipy.sparse CSR of ones, a
    row's entries its entity's mask points there in mask order (a point of two
    overlapping masks is two entries). The one reader of EntityRecord.masks
    outside data_model and synth."""
    by_id = {s.scene_id: j for j, s in enumerate(scenes)}
    cols = [[] for _ in scenes]  # per scene, mask points in entity, then mask, order
    sizes = np.zeros((len(scenes), len(entities) + 1), dtype=np.int64)
    for t, e in enumerate(entities):
        for sid, idx in [m for m in e.masks if m[0] in by_id]:
            n = scenes[by_id[sid]].n_points
            if idx[-1] >= n:  # masks are sorted (EntityRecord)
                raise DataError(f"entity {e.entity_id}: mask index {idx[-1]} out of range "
                                f"for scene {sid} of {n} points")
            cols[by_id[sid]].append(idx)
            sizes[by_id[sid], t + 1] += idx.size
    return [sparse.csr_array((np.ones(n[-1]), np.concatenate([np.zeros(0, np.int64)] + c), n),
                             shape=(len(entities), s.n_points))
            for s, c, n in zip(scenes, cols, sizes.cumsum(1))]


def aggregate_entity_features(incidence, backbone_features, entities) -> np.ndarray:
    """Each entity's dm.pool_masks of the scenes' backbone features, through
    incidence, the scenes' mask_incidence of entities; an entity with no mask
    point in these scenes is refused."""
    pooled, counts = dm.pool_masks(incidence, backbone_features)
    for e, n in zip(entities, counts.sum(0)):
        if n == 0:
            raise EmptyMaskError(f"entity {e.entity_id}: no effective mask in any scene")
    return pooled


def _l2_rows(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return np.divide(X, norms, out=X.copy(), where=norms > 0)


def align_gram(F_m_init, F_e, entity_ids) -> SemanticBank:
    """The prototypes nearest the pooled features F_m_init among those whose
    Gram matrix best matches G = X Xᵀ, X the L2-normalised text rows F_e (so
    G holds cosine similarities), in squared Frobenius norm.

    With X = U S Vᵀ its thin SVD and k = min(C, rank X), the best Gram of
    rank at most C is A Aᵀ, A = U_k S_k (Eckart–Young, 1936), and A W attains
    it for every k × C W with orthonormal rows. W = P Qᵀ from the thin SVD
    P Σ Qᵀ of Aᵀ F_m_init is the one nearest F_m_init (orthogonal
    Procrustes; Schönemann, Psychometrika 1966). No T × T array is formed.
    alignment_loss_trace is [loss(F_m_init), loss(B)]: the first is
    ‖F₀ᵀF₀‖² − 2‖F₀ᵀX‖² + Σ s⁴, the second G's discarded eigenvalues squared
    and summed, Σ_{i>k} s_i⁴.
    """
    F0 = np.asarray(F_m_init, dtype=np.float64)
    X = _l2_rows(F_e)
    if F0.shape[0] != X.shape[0]:
        raise ShapeError(f"row mismatch: {F0.shape[0]} prototypes vs {X.shape[0]} embeddings")
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    rank = int((s > s.max(initial=0.0) * max(X.shape) * np.finfo(np.float64).eps).sum())
    k = min(F0.shape[1], rank)
    A = U[:, :k] * s[:k]
    P, _, Qt = np.linalg.svd(A.T @ F0, full_matrices=False)
    s4 = s ** 4
    loss0 = float(np.sum((F0.T @ F0) ** 2) - 2.0 * np.sum((F0.T @ X) ** 2) + s4.sum())
    return SemanticBank(B=A @ (P @ Qt), entity_ids=list(entity_ids),
                        alignment_loss_trace=[loss0, float(s4[k:].sum())])


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
    """Persist bank_aligned.ltfm, trace.tsv, and an entity_ids.tsv id copy.
    trace.tsv's rows are the Gram mismatch of the pooled features (row 0) and
    of the aligned bank (row 1), as align_gram's alignment_loss_trace."""
    dm.make_dirs(out_dir)
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
