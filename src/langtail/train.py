"""Backbone, segmentation heads, losses, and the iterative
learning-by-clustering loop with distillation warmup.

The backbone is a small MLP (ReLU hidden layers, L2-normalized output rows)
with hand-written reverse-mode gradients; every loss here returns its
analytic gradient and is covered by finite-difference checks in the tests.

A training step scores every (branch, level) head of a scene in one
head_ce_loss call, which reuses one logits and gradient buffer for all heads
and adds each head's feature gradient straight into its branch's
accumulator. head_ce_loss computes in the dtype of its features. head_step
passes float32 features and centroids, so the head matmuls and the softmax's
one exp run in float32, while the softmax row sums, the losses and every
accumulator are float64; float64 inputs keep float64 arithmetic. Each head
runs its own matmuls, in the order and shapes of one call per head, so losses
and gradients are bit-identical to tests/oracle_heads.py, the
one-call-per-head loop. The backbone and prediction stay float64.

Per-scene work (forward, head cross-entropy, then backward, which first adds
the entity-anchor gradient into the scene's feature gradient) runs in
scene_map on the calling thread plus one pool thread per further CPU of the
affinity set, with no setting; results are reduced in scene order on the
calling thread, so outputs are byte-identical whatever the helper count (not
the BLAS thread count). predict_labels spreads scenes the same way: a
thread runs a scene's forward pass and scoring one fixed ROW_BLOCK-row block
at a time into the one output array, so its peak memory is one block of
activations and one block of logits, with no per-scene copy of the labels.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import data_model as dm
from . import spectral
from .bank import (
    SemanticBank,
    _l2_rows,
    aggregate_entity_features,
    align_gram,
    entity_contrastive_loss,
    load_bank,
    sample_entity_batch,
    save_bank,
)
from .cluster import (
    check_dense_budget,
    check_granularities,
    multi_granularity_labels,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyBatchError,
    FormatError,
    NormalizationError,
    NumericError,
    ShapeError,
)
from .evaluation import ROW_BLOCK
from .rng import make_rng, stream_key
from .synth import read_corpus

# peak resident n x n float64 arrays of spectral_pass, measured by ru_maxrss:
# one buffer (affinity, then L, then U) and dsyevd's 2n^2 workspace (3.1)
SPECTRAL_DENSE_ARRAYS = 3
LR_MIN, POLY_POWER = 1e-8, 0.9  # floor and power of poly_lr's learning-rate decay
SCENE_HELPERS = len(os.sched_getaffinity(0)) - 1  # pool threads beside the caller
_POOLS = {}  # one pool per process id: a forked child has none of its parent's threads


def scene_map(fn, *iterables):
    """[fn(*args) for args in zip(*iterables)] on the calling thread and up to
    SCENE_HELPERS pool threads taking items in order from one queue. After a
    raise no item starts; once all helpers stop, the first failed item's
    exception is raised, as a plain loop would. fn must not call scene_map."""
    items = list(zip(*iterables))
    queue = iter(range(len(items)))
    results = [None] * len(items)
    errors, lock = [], threading.Lock()

    def work():
        while not errors:
            with lock:
                i = next(queue, None)
            if i is None:
                return
            try:
                results[i] = fn(*items[i])
            except Exception as e:
                errors.append((i, e))

    n_helpers = min(SCENE_HELPERS, len(items) - 1)
    if n_helpers > 0 and os.getpid() not in _POOLS:
        _POOLS[os.getpid()] = ThreadPoolExecutor(SCENE_HELPERS, thread_name_prefix="langtail-scene")
    helpers = [_POOLS[os.getpid()].submit(work) for _ in range(n_helpers)]
    try:
        work()
    finally:
        for h in helpers:
            h.result()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


@dataclass
class Backbone:
    """MLP input_dim -> hidden... -> C with ReLU between layers and
    L2-normalized output rows."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]


@dataclass
class Head:
    """One linear segmentation head: a branch's Ward cut at k clusters, its
    centroids and the corpus superpoints' pseudo-labels."""

    branch: str  # "local" or "global"
    k: int
    centroids: np.ndarray
    sp_labels: np.ndarray


@dataclass
class TrainConfig:
    lambda_entity: float = 0.9
    granularities: tuple = (120, 80, 20)
    epochs: int = 200
    batch_scenes: int = 8
    lr0: float = 1e-4
    recluster_every: int = 10
    tau: float = 0.07
    seed: int = 0
    # architecture / plumbing knobs
    feat_dim: int = 384
    hidden_dim: int = 256
    warmup_epochs: int = 5
    s_prime: int = 64
    entity_batch: int = 64
    use_global: bool = True

    def __post_init__(self):
        if self.lambda_entity < 0:
            raise ConfigError("lambda must be >= 0")
        if not self.lr0 > LR_MIN:
            raise ConfigError(f"need lr0 > {LR_MIN}")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
        for name, low in (("epochs", 0), ("recluster_every", 1), ("batch_scenes", 1),
                          ("warmup_epochs", 0), ("feat_dim", 1), ("hidden_dim", 1),
                          ("s_prime", 1), ("entity_batch", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        self.granularities = tuple(check_granularities(self.granularities))


def init_backbone(input_dim: int, hidden_dims, out_dim: int, seed: int) -> Backbone:
    dims = [input_dim, *hidden_dims, out_dim]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        rng = make_rng(seed, "backbone-init", i)
        scale = np.sqrt(2.0 / dims[i])
        weights.append(rng.standard_normal((dims[i], dims[i + 1])) * scale)
        if i < len(dims) - 2:
            # small positive bias keeps ReLU units alive on centered inputs
            biases.append(np.full(dims[i + 1], 0.01))
        else:
            # nonzero output bias: rows can never be exactly zero before
            # normalization, and the net is not positively homogeneous
            biases.append(rng.standard_normal(dims[i + 1]) * 0.01)
    return Backbone(weights=weights, biases=biases)


def backbone_forward(b: Backbone, X):
    """Forward pass; returns (normalized output (N, C), cache for backward)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != b.weights[0].shape[0]:
        raise ShapeError(
            f"input has {X.shape[1]} columns, backbone expects {b.weights[0].shape[0]}"
        )
    acts = [X]  # every layer's input: all that backward reads
    h = X
    for i, (W, bias) in enumerate(zip(b.weights, b.biases)):
        h = h @ W
        h += bias
        if i < len(b.weights) - 1:
            np.maximum(h, 0.0, out=h)
            acts.append(h)
    norms = np.empty(len(h))  # row blocks: the same per-row sums, no n x C temporary
    for a in range(0, len(h), ROW_BLOCK):
        norms[a:a + ROW_BLOCK] = np.linalg.norm(h[a:a + ROW_BLOCK], axis=1)
    if np.any(norms < 1e-12):
        raise NormalizationError("backbone produced a (near-)zero output row")
    h /= norms[:, None]
    return h, {"acts": acts, "norms": norms, "Y": h}


def backbone_backward(b: Backbone, cache, grad_out):
    """Exact reverse-mode gradients, including the row-normalization Jacobian.

    Returns (grads_w, grads_b, grad_in).
    """
    acts = cache["acts"]
    norms = cache["norms"]
    Y = cache["Y"]
    g = np.asarray(grad_out, dtype=np.float64)
    # d/dz of z/||z||: (g - (g.y) y) / ||z||, in one buffer
    gz = g * Y
    np.multiply(gz.sum(axis=1, keepdims=True), Y, out=gz)
    np.subtract(g, gz, out=gz)
    gz /= norms[:, None]

    grads_w = [None] * len(b.weights)
    grads_b = [None] * len(b.biases)
    for i in reversed(range(len(b.weights))):
        h_in = acts[i]
        if i < len(b.weights) - 1:
            # acts[i+1] stores the post-ReLU value for hidden layers
            gz *= acts[i + 1] > 0
        grads_w[i] = h_in.T @ gz
        grads_b[i] = gz.sum(axis=0)
        gz = gz @ b.weights[i].T
    return grads_w, grads_b, gz


def head_ce_loss(features, mus, labels, grad_out, weight=1.0):
    """Cross-entropy of several linear heads on the same feature rows.

    Head h has logits features @ mus[h].T and labels[h]; its loss is the mean
    cross-entropy over the rows whose label is not -1, and those ignored rows
    must be the same for every head. weight * d loss_h / d features is added
    into grad_out[h]; heads may share an accumulator.

    The arithmetic runs in float32 for float32 features and in float64
    otherwise; mus take that dtype. The softmax is one exp of the logits less
    their row maximum, over float64 row sums; the losses are float64, and a
    float64 grad_out takes float32 gradients without a float64 copy. One
    buffer of n * (max k + C) elements, n the non-ignored rows, holds each
    head's logits in turn (the softmax overwrites them in place) and its
    feature gradient. Every head keeps its own matmuls, of the same shapes as
    a one-head call: a matmul against the stacked centroids of all heads
    rounds some slices differently, so the losses and gradients would depend
    on which heads share the call.

    Returns (per-head losses as floats, per-head grads w.r.t. mus in the dtype).
    """
    dtype = np.float32 if np.asarray(features).dtype == np.float32 else np.float64
    F = np.asarray(features, dtype=dtype)
    mus = [np.asarray(mu, dtype=dtype) for mu in mus]
    labels = [np.asarray(y, dtype=np.int64) for y in labels]
    if any(F.shape[0] != y.shape[0] for y in labels):
        raise ShapeError("feature rows and label count differ")
    if any(F.shape[1] != mu.shape[1] for mu in mus):
        raise ShapeError("feature dim and head dim differ")
    valid = labels[0] >= 0
    if any(not np.array_equal(y >= 0, valid) for y in labels[1:]):
        raise DataError("heads ignore different rows")
    n = int(valid.sum())
    if n == 0:
        raise EmptyBatchError("all labels are ignored")
    if n < F.shape[0]:
        F = F[valid]
        labels = [y[valid] for y in labels]
    k_max = max(mu.shape[0] for mu in mus)
    scratch = np.empty(n * (k_max + F.shape[1]), dtype)
    g = scratch[n * k_max:n * (k_max + F.shape[1])].reshape(F.shape)
    rows = np.arange(n)
    losses, grad_mus = [], []
    for mu, y, acc in zip(mus, labels, grad_out):
        S = np.matmul(F, mu.T, out=scratch[:n * mu.shape[0]].reshape(n, -1))
        picked = S[rows, y]
        m = S.max(axis=1)
        S -= m[:, None]
        np.exp(S, out=S)
        z = S.sum(axis=1, dtype=np.float64)
        losses.append(float(np.mean(m + np.log(z) - picked)))
        S /= z[:, None]
        S[rows, y] -= 1.0
        np.matmul(S, mu, out=g)
        scale = weight / n
        if scale != 1.0:  # head_step's weight is n: skip a pass that changes no bit
            g *= scale
        if n < valid.size:
            acc[valid] += g
        else:
            acc += g
        grad_mus.append(S.T @ F / n)
    return losses, grad_mus


def distill_warmup_loss(features, targets):
    """Mean (1 - cosine) between feature rows and target rows, with gradient."""
    F = np.asarray(features, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    if F.shape != T.shape:
        raise ShapeError(f"feature shape {F.shape} != target shape {T.shape}")
    t_norm = np.linalg.norm(T, axis=1)
    if np.any(t_norm < 1e-12):
        raise DataError("distill target row has zero norm")
    That = T / t_norm[:, None]
    f_norm = np.linalg.norm(F, axis=1)
    if np.any(f_norm < 1e-12):
        raise DataError("feature row has zero norm")
    cos = (F * That).sum(axis=1) / f_norm
    loss = float(np.mean(1.0 - cos))
    n = F.shape[0]
    grad = -(That / f_norm[:, None] - cos[:, None] * F / (f_norm ** 2)[:, None]) / n
    return loss, grad


def poly_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    frac = 1.0 - step / total_steps
    return max(LR_MIN, cfg.lr0 * frac ** POLY_POWER)


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer over a flat parameter list."""

    beta1 = 0.9
    beta2 = 0.999
    wd = 1e-4
    eps = 1e-8

    def __init__(self, params):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient in optimizer step")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p -= lr * (update + self.wd * p)


# ---------------------------------------------------------------------------
# Corpus plumbing


def standardize_scenes(scenes):
    """Per-axis z-scoring of point features over the whole corpus, in place.

    The backbone with zero-init biases is positively homogeneous, so without
    centering any two inputs that differ mainly by scale land on the same
    normalized output row. Returns (mean, std) for reuse on held-out data.
    """
    all_pts = np.concatenate(
        [np.asarray(s.points, dtype=np.float64) for s in scenes]
    )
    mu = all_pts.mean(axis=0)
    sd = all_pts.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    for s in scenes:
        s.points = (np.asarray(s.points, dtype=np.float64) - mu) / sd
    return mu, sd


def build_pseudo_labels(sp_features, spectral_features, granularities, seed: int) -> list[Head]:
    """Ward multi-granularity clustering of both branches' superpoint features.

    Returns the local heads in granularity order, then, unless
    spectral_features is None, the global ones. Global heads cluster the
    spectral features, but their centroids are pooled over sp_features: heads
    live in backbone feature space.
    """
    heads = [Head("local", k, cent, labels) for k, cent, labels in multi_granularity_labels(
        sp_features, granularities, seed=seed)]
    if spectral_features is not None:
        heads += [Head("global", k, dm.pool_by_superpoint(sp_features, labels), labels)
                  for k, _, labels in multi_granularity_labels(
                      spectral_features, granularities, seed=seed)]
    return heads


def spectral_pass(sp_features, cfg: TrainConfig) -> np.ndarray:
    """Affinity -> normalized Laplacian -> Fourier basis -> the refined
    patterns V, one row per superpoint."""
    check_dense_budget(sp_features.shape[0], SPECTRAL_DENSE_ARRAYS, "spectral_pass")
    A = spectral.build_affinity(sp_features)  # one n x n buffer: A, then L, then U
    _, U = spectral.eigendecompose(spectral.normalized_laplacian(A))
    F_feq = spectral.graph_fourier(U, sp_features)
    return spectral.group_patterns(U, F_feq, min(cfg.s_prime, len(U)), seed=cfg.seed)[0]


@dataclass
class EpochReport:
    local: float
    global_: float
    entity: float
    total: float
    lr: float


def _entity_anchor_grads(features_per_scene, bank_sample, entities,
                         scenes_in_batch, tau):
    """Pool current features over each sampled entity's mask points and run the
    contrastive loss; bank_sample is sample_entity_batch's (indices, prototypes,
    weights). Returns (loss, per-scene (sig, vecs), n_anchors), or
    (0.0, [], 0) if no entity has mask points here. Row r's gradient is
    vecs[sig[r]]: sig numbers the sets of masks a row lies in (0: none, vecs[0]
    is zero), each vector summing its masks' gradients from zero in entity order.
    """
    indices, P, w = bank_sample
    by_id = {s.scene_id: bi for bi, s in enumerate(scenes_in_batch)}
    pooled = []
    kept_hits = []  # per kept entity: its (batch scene index, mask indices) hits
    keep = []
    for row, ent_idx in enumerate(indices):
        e = entities[int(ent_idx)]
        hits = [(by_id[sid], idx) for sid, idx in e.masks if sid in by_id]
        if not hits:
            continue
        rows = (features_per_scene[hits[0][0]][hits[0][1]] if len(hits) == 1 else
                np.concatenate([features_per_scene[bi][idx] for bi, idx in hits]))
        pooled.append(rows.mean(axis=0))
        kept_hits.append(hits)
        keep.append(row)
    if not keep:
        return 0.0, [], 0
    keep = np.array(keep)
    Z = np.stack(pooled)
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms < 1e-12):
        raise NumericError("entity anchor collapsed to zero norm")
    anchors = Z / norms[:, None]

    loss, grad_anchor = entity_contrastive_loss(anchors, P[keep], w[keep], tau=tau)

    sigs = [np.zeros(len(f), np.int64) for f in features_per_scene]
    vecs = [[np.zeros(anchors.shape[1])] for _ in features_per_scene]
    for a, hits in enumerate(kept_hits):
        g = grad_anchor[a]
        gz = (g - (g @ anchors[a]) * anchors[a]) / norms[a]
        v = gz / sum(idx.size for _, idx in hits)
        for bi, idx in hits:
            # masks are sorted and unique (EntityRecord): each row takes v once
            old, inv = np.unique(sigs[bi][idx], return_inverse=True)
            sigs[bi][idx] = len(vecs[bi]) + inv
            vecs[bi] += [vecs[bi][o] + v for o in old]
    return loss, list(zip(sigs, vecs)), len(keep)


def head_step(feats, labels, mus, branches):
    """Head cross-entropy of one batch of scenes, one head_ce_loss call per scene.

    feats[j] are scene j's features and labels[j][h] its labels for head h;
    mus[h] are head h's centroids and branches[h] its branch (0 local, 1
    global). Losses and gradients are means over the batch's points, each
    scene's mean weighted by its point count. Returns (loss per branch, feature
    gradient per scene, centroid gradient per head). Each branch sums its
    heads' feature gradients in its own accumulator before the branches are
    added. The heads run in float32 (features cast inside each scene's work,
    centroids once per batch) into float64 accumulators. Scenes run through
    scene_map, and each scene's head_ce_loss call allocates its own logits
    and gradient buffer, freed when the call returns.
    """
    n_pts = sum(f.shape[0] for f in feats)
    n_branches = max(branches) + 1
    mus32 = [mu.astype(np.float32) for mu in mus]

    def scene(f, y):
        accs = [np.zeros(f.shape) for _ in range(n_branches)]
        losses, gmus = head_ce_loss(f.astype(np.float32), mus32, y,
                                    [accs[b] for b in branches], f.shape[0])
        for acc in accs:
            acc /= n_pts
        for acc in accs[1:]:
            accs[0] += acc
        return losses, gmus, accs[0]

    loss_sums = [0.0] * len(mus)
    head_grads = [np.zeros_like(mu) for mu in mus]
    grad_feats = []
    for f, (losses, gmus, gf) in zip(feats, scene_map(scene, feats, labels)):
        for h, (loss, gmu) in enumerate(zip(losses, gmus)):
            loss_sums[h] += loss * f.shape[0]
            head_grads[h] += gmu * f.shape[0]
        grad_feats.append(gf)
    for g in head_grads:
        g /= n_pts
    branch_losses = [0.0] * n_branches
    for b, s in zip(branches, loss_sums):
        branch_losses[b] += s / n_pts
    return branch_losses, grad_feats, head_grads


class Trainer:
    """Backbone, optimizer and the epochs of run_pipeline's training loop.
    sp_index[i] is the corpus-wide superpoint of each point of scene i."""

    def __init__(self, scenes, entities, cfg: TrainConfig, input_dim: int):
        self.scenes = scenes
        self.entities = entities
        self.cfg = cfg
        offsets = accumulate((s.n_superpoints for s in scenes), initial=0)
        self.sp_index = [off + s.superpoints for off, s in zip(offsets, scenes)]
        self.backbone = init_backbone(
            input_dim, [cfg.hidden_dim], cfg.feat_dim, cfg.seed
        )
        self.opt = AdamW(self.backbone.weights + self.backbone.biases)
        self.global_step = 0
        self.total_steps = cfg.epochs * len(self.scene_batches())

    def scene_batches(self, idxs=None):
        """idxs (default: every scene) in order, cfg.batch_scenes to a batch."""
        idxs = list(range(len(self.scenes))) if idxs is None else idxs
        bs = self.cfg.batch_scenes
        return [idxs[i:i + bs] for i in range(0, len(idxs), bs)]

    def forward_scenes(self, idxs):
        out = scene_map(lambda i: backbone_forward(self.backbone, self.scenes[i].points),
                        idxs)
        return [Y for Y, _ in out], [cache for _, cache in out]

    def superpoint_features(self, feats=None) -> np.ndarray:
        """Every scene's features (feats, else a forward pass) pooled per
        superpoint; no activations are kept."""
        return np.concatenate(scene_map(
            lambda s, f: dm.pool_by_superpoint(
                backbone_forward(self.backbone, s.points)[0] if f is None else f, s.superpoints),
            self.scenes, feats or [None] * len(self.scenes)))

    def apply_grads(self, caches, grad_feats, lr, entity=None):
        """Backward pass and optimizer step; entity (or None) is per scene the
        (sig, lambda * vecs) of _entity_anchor_grads, added inside its work."""
        def backward(c, g, ent):
            if ent is not None:  # g += lam_vecs[sig] in row blocks: no n x C temporary;
                sig, lam_vecs = ent  # lam_vecs[0] is zero, so an uncovered row gains +0.0
                for a in range(0, len(g), ROW_BLOCK):
                    g[a:a + ROW_BLOCK] += lam_vecs[sig[a:a + ROW_BLOCK]]
            return backbone_backward(self.backbone, c, g)

        gw = [np.zeros_like(w) for w in self.backbone.weights]
        gb = [np.zeros_like(b) for b in self.backbone.biases]
        for w, b, _ in scene_map(backward, caches, grad_feats, entity or [None] * len(caches)):
            for acc, g in zip(gw, w):
                acc += g
            for acc, g in zip(gb, b):
                acc += g
        self.opt.step(gw + gb, lr)

    def train_epoch(self, heads, bank, head_opt, epoch: int) -> EpochReport:
        """One pass over the corpus; returns the batch-averaged loss report."""
        cfg = self.cfg
        sums = np.zeros(3)
        batches = self.scene_batches()
        lr = cfg.lr0
        for step, idxs in enumerate(batches):
            lr = poly_lr(self.global_step, self.total_steps, cfg)
            feats, caches = self.forward_scenes(idxs)
            branch_losses, grad_feats, head_grads = head_step(
                feats,
                [[h.sp_labels[self.sp_index[i]] for h in heads] for i in idxs],
                [h.centroids for h in heads],
                [int(h.branch == "global") for h in heads],
            )
            l_local, l_global = (*branch_losses, 0.0)[:2]

            l_entity, entity = 0.0, None
            if bank is not None and cfg.lambda_entity > 0:
                bsz = min(cfg.entity_batch, bank.B.shape[0])
                sample = sample_entity_batch(
                    bank, bsz, stream_key(cfg.seed, "entity", epoch, step))
                l_entity, ent, _ = _entity_anchor_grads(
                    feats, sample, self.entities, [self.scenes[i] for i in idxs], cfg.tau)
                entity = [(sig, cfg.lambda_entity * np.array(vecs)) for sig, vecs in ent]

            total = l_local + l_global + cfg.lambda_entity * l_entity
            if not np.isfinite(total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    f"local={l_local} global={l_global} entity={l_entity}"
                )
            self.apply_grads(caches, grad_feats, lr, entity=entity)
            head_opt.step(head_grads, lr)
            sums += (l_local, l_global, l_entity)
            self.global_step += 1
        avg = sums / len(batches)
        return EpochReport(
            local=float(avg[0]), global_=float(avg[1]), entity=float(avg[2]),
            total=float(avg[0] + avg[1] + cfg.lambda_entity * avg[2]), lr=lr,
        )

    def warmup(self) -> list[float]:
        """Distillation-only epochs on scenes that carry distill targets."""
        cfg = self.cfg
        idxs = [i for i, s in enumerate(self.scenes)
                if s.distill_targets is not None]
        losses = []
        if not idxs or cfg.warmup_epochs < 1:
            return losses
        for _ in range(cfg.warmup_epochs):
            epoch_loss = 0.0
            for batch in self.scene_batches(idxs):
                feats, caches = self.forward_scenes(batch)
                out = [distill_warmup_loss(f, self.scenes[i].distill_targets)
                       for f, i in zip(feats, batch)]
                self.apply_grads(caches, [g for _, g in out], cfg.lr0)
                epoch_loss += sum(loss for loss, _ in out) / len(batch)
            losses.append(epoch_loss)
        return losses


def concat_prototypes(heads) -> np.ndarray:
    if not heads:
        raise ConfigError("no heads to concatenate")
    return np.concatenate([h.centroids for h in heads], axis=0, dtype=np.float64)


def start_run(cfg: TrainConfig, corpus_dir) -> Trainer:
    """Read and standardise a corpus and set a Trainer on it, not yet warmed
    up. run_pipeline and `langtail bank` start here."""
    scenes, entities = read_corpus(corpus_dir)
    standardize_scenes(scenes)
    return Trainer(scenes, entities, cfg, scenes[0].points.shape[1])


def run_pipeline(cfg: TrainConfig, corpus_dir, out_dir, bank_dir=None):
    """Full iterative pipeline: warmup -> (recluster -> train)* -> persist.

    Returns (backbone, heads, reports).
    """
    trainer = start_run(cfg, corpus_dir)
    bank_obj = feats = None
    if cfg.lambda_entity > 0 and bank_dir is not None:  # refused before the warm-up
        bank_obj = load_bank(bank_dir)
        if bank_obj.entity_ids != [e.entity_id for e in trainer.entities]:
            raise DataError(f"{bank_dir}: the bank's entities are not the corpus's")
    warmup_losses = trainer.warmup()
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)

    if cfg.lambda_entity > 0 and bank_obj is None:
        # no step comes before round 0: its features are the bank's, forwarded once
        feats = scene_map(lambda s: backbone_forward(trainer.backbone, s.points)[0],
                          trainer.scenes)
        bank_obj = build_bank(trainer.backbone, trainer.scenes, trainer.entities, feats)
        save_bank(os.path.join(out_dir, "bank"), bank_obj)

    reports = []
    for round_idx, start in enumerate(range(0, max(cfg.epochs, 1), cfg.recluster_every)):
        sp_feats, feats = trainer.superpoint_features(feats), None
        spectral_feats = spectral_pass(sp_feats, cfg) if cfg.use_global else None
        heads = build_pseudo_labels(sp_feats, spectral_feats, cfg.granularities, cfg.seed)
        save_checkpoint(
            os.path.join(out_dir, "checkpoints", f"round_{round_idx:03d}.ltck"),
            trainer.backbone, heads,
        )
        head_opt = AdamW([h.centroids for h in heads])
        for epoch in range(start, min(start + cfg.recluster_every, cfg.epochs)):
            reports.append(trainer.train_epoch(heads, bank_obj, head_opt, epoch))

    if warmup_losses:
        with dm.atomic_open(os.path.join(out_dir, "warmup.tsv")) as f:
            for i, v in enumerate(warmup_losses):
                f.write(f"{i}\t{v:.10e}\n")
    _write_outputs(out_dir, trainer, heads, reports)
    return trainer.backbone, heads, reports


def run_baseline(cfg: TrainConfig, corpus_dir, out_dir):
    """Learning-by-clustering baseline: run_pipeline at the primitive
    granularity only, with no warmup, entity loss or global branch, whatever
    cfg says."""
    return run_pipeline(replace(cfg, granularities=cfg.granularities[-1:], lambda_entity=0.0,
                                use_global=False, warmup_epochs=0), corpus_dir, out_dir)


def build_bank(backbone, scenes, entities, feats=None) -> SemanticBank:
    """Offline bank pass: aggregate masked features (feats, the scenes'
    backbone outputs, else a forward pass), then Gram-align them to the
    text-embedding geometry."""
    if feats is None:
        feats = scene_map(lambda s: backbone_forward(backbone, s.points)[0], scenes)
    F_m = aggregate_entity_features(scenes, feats, entities)
    F_e = np.stack([e.text_embedding for e in entities])
    return align_gram(F_m, F_e, entity_ids=[e.entity_id for e in entities])


def predict_labels(backbone, scenes, prototypes) -> np.ndarray:
    """Assign every point of every scene to its max-cosine prototype. Scenes
    run through scene_map; a thread runs a scene's forward pass and scoring
    one ROW_BLOCK-row block at a time into the one output array, so it holds
    one block of activations and one ROW_BLOCK x prototypes block of logits
    (1.8 MB at 440 prototypes, in a core's L2) whatever the scene size. A
    matmul row does not depend on the rows sharing its call: the labels are
    those of whole-scene passes."""
    if not scenes:
        raise EmptyBatchError("no scenes to label")
    P = _l2_rows(prototypes)
    if P.shape[1] != backbone.out_dim:
        raise ShapeError(f"prototype dim {P.shape[1]} != backbone output dim {backbone.out_dim}")
    starts = [0, *accumulate(s.n_points for s in scenes)]
    labels = np.empty(starts[-1], np.intp)

    def label_scene(s, start):
        for a in range(0, s.n_points, ROW_BLOCK):
            Y = backbone_forward(backbone, s.points[a:a + ROW_BLOCK])[0]
            np.argmax(Y @ P.T, axis=1, out=labels[start + a:start + a + len(Y)])

    scene_map(label_scene, scenes, starts)
    return labels


def _write_outputs(out_dir, trainer, heads, reports):
    """checkpoint.ltck, losses.tsv, prototypes.ltfm and pred.ltlb of a run."""
    save_checkpoint(os.path.join(out_dir, "checkpoint.ltck"), trainer.backbone, heads)
    with dm.atomic_open(os.path.join(out_dir, "losses.tsv")) as f:
        f.write("epoch\tlocal\tglobal\tentity\ttotal\tlr\n")
        for i, r in enumerate(reports):
            f.write(f"{i}\t{r.local:.10e}\t{r.global_:.10e}\t{r.entity:.10e}"
                    f"\t{r.total:.10e}\t{r.lr:.10e}\n")
    protos = concat_prototypes(heads)
    dm.write_feature_matrix(os.path.join(out_dir, "prototypes.ltfm"),
                            protos.astype(np.float32))
    pred = predict_labels(trainer.backbone, trainer.scenes, protos)
    dm.write_labels(os.path.join(out_dir, "pred.ltlb"), pred)


# ---------------------------------------------------------------------------
# Checkpoints (LTCK; the layout is in data_model)


def save_checkpoint(path, backbone: Backbone, heads=()) -> None:
    """The backbone's layers, then each head's centroids and superpoint
    labels, in list order."""
    named = []
    for i, (w, b) in enumerate(zip(backbone.weights, backbone.biases)):
        named += [(f"backbone/layer{i}/weight", w), (f"backbone/layer{i}/bias", b[None, :])]
    for h in heads:
        named += [(f"{h.branch}/k{h.k}/centroids", h.centroids),
                  (f"{h.branch}/k{h.k}/sp_labels", h.sp_labels[None, :])]
    with dm.writing(path, dm.CHECKPOINT_MAGIC) as f:
        dm.put(f, len(named), "<u8")
        for name, tensor in named:
            dm.put(f, np.frombuffer(name.encode(), "u1"), "u1")
            dm.put(f, np.atleast_2d(tensor), "<f4")


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as a name -> float32 array mapping."""
    out = {}
    with dm.reading(path, dm.CHECKPOINT_MAGIC) as f:
        for _ in range(int(dm.take(f, "<u8", 0))):
            raw = dm.take(f, "u1", 1).tobytes()
            try:
                name = raw.decode()
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: tensor name is not UTF-8: {raw!r}") from e
            out[name] = dm.take(f, "<f4", 2).copy()
    return out
