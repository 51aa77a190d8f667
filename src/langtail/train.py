"""Backbone, segmentation heads, losses, and the iterative
learning-by-clustering loop with distillation warmup. A round reclusters
(Trainer.recluster) and trains; the Trainer carries the state between rounds.

The backbone is a small MLP (ReLU hidden layers, L2-normalized output rows)
with hand-written reverse-mode gradients; every loss here returns its
analytic gradient and is covered by finite-difference checks in the tests.

A training step scores every (branch, level) head of a scene in one
head_ce_loss call; every point carries a label of every head (the heads'
Ward cuts label every superpoint), and head_ce_loss refuses one outside
its head's range. Every head's logits and centroid gradients are one
matmul each against the stacked centroids, and the feature gradient one per
row block, so losses and gradients are bit-identical to
tests/oracle_heads.py's scene-by-scene loop, which takes the same products.

Precision. backbone_forward, backbone_backward and head_ce_loss compute in
work_dtype of their input; float64 input keeps float64 bits. A training step,
warm-up or epoch, runs in float32 over float64 master weights: forward_scenes
casts the weights once per step and forwards the Trainer's float32 points; the
warm-up's distill targets are float32 unit rows, normalised once per run by
Trainer.__init__. Losses, gradient blocks and gradient sums are float64 (see
each function), and AdamW's weights and moments stay float64; a scene's heads
sum their feature gradients inside one float32 matmul, so one head keeps the
one-head reference's bits and several round once more. The bank pass, the
reclustering forwards (Ward's inputs) and predict_labels stay float64 and keep
no cache, so they forward one row_blocks block at a time (the first two through
backbone_features) and hold one block of hidden activations whatever the scene
size; only a training step, whose backward pass reads them, keeps a whole
scene's. A run trains on its bank as save_bank stores it (float32), as a run
given that bank does.

Every group mean is data_model.pool_masks: superpoint features, head
centroids and, through the Trainer's one mask_incidence M per scene, the
bank's and every step's entity features; a step's anchor gradient is
M.T @ (lambda * V), V indexed by corpus entity and scaled once per step,
added from Trainer.mask_rows (M.T's row blocks, split once per run) with a
point's entries summed in entity order.

Trainer.step is the one training step, of the warm-up and of every epoch: two
scene_map passes. The first forwards each scene, and the calling thread then
finds the entity anchors' gradients from those features (epochs only). The
second runs each scene's loss (head_ce_loss in an epoch, distill_warmup_loss in
the warm-up) and then its backward pass, which forms the feature gradient one
row block at a time (the loss's rows, the anchors' rows, the normalisation
Jacobian written over the forward features), so no n x C gradient is made.
scene_map runs on the calling thread plus one pool thread per further CPU of
the affinity set, with no setting; results are reduced in scene order on the
calling thread, so outputs are byte-identical whatever the helper count (not
the BLAS thread count). predict_labels spreads scenes the same way: a thread
forwards and scores a scene one row_blocks block at a time into the one output
array; its labels are those of whole-scene passes at the widths that
row_blocks names.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import data_model as dm
from . import spectral
from .bank import (
    BANK_FILES,
    SemanticBank,
    _l2_rows,
    aggregate_entity_features,
    align_gram,
    entity_contrastive_loss,
    load_bank,
    mask_incidence,
    sample_entity_batch,
    save_bank,
)
from .cluster import _sq_dists, check_dense_budget, check_granularities, multi_granularity_labels
from .errors import (
    ConfigError,
    DataError,
    EmptyBatchError,
    FormatError,
    NormalizationError,
    NumericError,
    ShapeError,
)
from .evaluation import row_blocks
from .rng import make_rng, stream_key
from .synth import read_corpus

# peak resident n x n float64 arrays of spectral_pass, by VmHWM: one buffer
# (affinity, then L, then U) and dsyevd's 2n^2 workspace (3.1)
SPECTRAL_DENSE_ARRAYS = 3
# superpoints one round clusters: 8192^2 * 8 B * 3 = 1.5 GiB fits DENSE_BUDGET_BYTES
SAMPLE_CAP = 8192
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


def work_dtype(x):
    """The dtype a kernel here computes in: float32 for float32 input, else float64."""
    return np.float32 if np.asarray(x).dtype == np.float32 else np.float64


def backbone_forward(b: Backbone, X):
    """Forward pass; returns (normalized output (N, C), cache for backward).
    Runs in work_dtype(X), the weights cast to it (no copy if they have it).
    backbone_backward writes over the output and the hidden activations."""
    dtype = work_dtype(X)
    X = np.asarray(X, dtype=dtype)
    if X.shape[1] != b.weights[0].shape[0]:
        raise ShapeError(f"input has {X.shape[1]} columns, backbone expects {len(b.weights[0])}")
    acts = [X]  # every layer's input: all that backward reads
    h = X
    for i, (W, bias) in enumerate(zip(b.weights, b.biases)):
        h = h @ np.asarray(W, dtype)
        h += np.asarray(bias, dtype)
        if i < len(b.weights) - 1:
            np.maximum(h, 0.0, out=h)
            acts.append(h)
    norms = np.empty(len(h), dtype)  # row blocks: the same per-row sums, no n x C temporary
    for lo, hi in row_blocks(len(h)):
        norms[lo:hi] = np.linalg.norm(h[lo:hi], axis=1)
    if np.any(norms < 1e-12):
        raise NormalizationError("backbone produced a (near-)zero output row")
    h /= norms[:, None]
    return h, {"acts": acts, "norms": norms, "Y": h}


def backbone_features(b: Backbone, X) -> np.ndarray:
    """backbone_forward(b, X)'s output, forwarded one row_blocks block at a
    time into one n x C array, so a pass that keeps no cache holds one block
    of hidden activations whatever the scene size. Its rows are a whole
    pass's at the widths that row_blocks names."""
    out = np.empty((len(X), b.out_dim), work_dtype(X))
    for lo, hi in row_blocks(len(X)):
        out[lo:hi] = backbone_forward(b, X[lo:hi])[0]
    return out


def backbone_backward(b: Backbone, cache, grad_out):
    """Exact reverse-mode gradients, including the row-normalization Jacobian.

    grad_out, the (N, C) output gradient, is only read: an array, or a
    function returning its rows lo:hi, called once per row_blocks block in
    order. Consumes cache (run it once per forward pass): the Jacobian is
    formed in row blocks over cache["Y"], the forward pass's features, and
    each hidden layer's input gradient is written over its activations once
    its ReLU mask is taken. Runs in the forward pass's dtype: grad_out's
    blocks and the weights are cast to it, and the bias gradients are summed
    over the rows in float64.

    Returns (grads_w, grads_b, grad_in).
    """
    acts = cache["acts"]
    norms = cache["norms"]
    gz = cache["Y"]
    dtype = gz.dtype
    # d/dz of z/||z||: (g - (g.y) y) / ||z||
    for lo, hi in row_blocks(len(gz)):
        y = gz[lo:hi]
        gy = np.asarray(grad_out(lo, hi) if callable(grad_out) else grad_out[lo:hi], dtype)
        np.multiply((gy * y).sum(axis=1, keepdims=True), y, out=y)
        np.subtract(gy, y, out=y)
        y /= norms[lo:hi, None]

    weights = [np.asarray(W, dtype) for W in b.weights]
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in reversed(range(1, len(weights))):
        grads_w[i] = acts[i].T @ gz
        grads_b[i] = gz.sum(axis=0, dtype=np.float64)
        mask = acts[i] > 0  # acts[i] is hidden layer i's post-ReLU output
        gz = np.matmul(gz, weights[i].T, out=acts[i])
        gz *= mask
    grads_w[0] = acts[0].T @ gz
    grads_b[0] = gz.sum(axis=0, dtype=np.float64)
    return grads_w, grads_b, gz @ weights[0].T


def head_ce_loss(features, mus, labels, n_pts=1):
    """Cross-entropy of several linear heads on the same feature rows: one
    scene's head work.

    Head h has logits features @ mus[h].T and labels[h] in [0, len(mus[h]))
    for every row; its loss is the mean cross-entropy over the rows. The
    centroids are stacked into one MU, so one matmul writes every head's
    logits into one n x (the summed k) buffer, and each head's softmax runs
    on its columns: one exp of the logits less their row maximum, over
    float64 row sums. S, that buffer of every head's softmax less its one-hot
    labels, gives the centroid gradients as one S.T @ features / n, split by
    head, and the float64 feature gradient as (S @ MU) / n_pts: the gradient
    of the heads' summed-over-rows losses over n_pts.

    The arithmetic runs in work_dtype(features); mus take that dtype, and
    the losses are float64. The features are not read after the centroid
    gradients. The feature gradient is returned as grad(lo, hi), its rows
    lo:hi for a row_blocks block: one matmul in the dtype, divided in float64
    into one block that the next call writes over, so no n x C array is
    made. With one head the losses and gradients are those of
    tests/oracle_heads.py's one-head reference, bit for bit, where a row
    block's matmul rows round as the whole product's (as at every training
    width the workloads use); with several, each head's loss and softmax
    keep those bits, and the heads' feature gradients are summed inside the
    one matmul.

    Returns (per-head losses as floats, per-head grads w.r.t. mus in the
    dtype, grad).
    """
    dtype = work_dtype(features)
    F = np.asarray(features, dtype=dtype)
    labels = [np.asarray(y, dtype=np.int64) for y in labels]
    if any(F.shape[0] != y.shape[0] for y in labels):
        raise ShapeError("feature rows and label count differ")
    if any(F.shape[1] != np.shape(mu)[1] for mu in mus):
        raise ShapeError("feature dim and head dim differ")
    n = F.shape[0]
    if n == 0:
        raise EmptyBatchError("no feature rows")
    ks = [len(mu) for mu in mus]
    for y, k in zip(labels, ks):
        if y.min() < 0 or y.max() >= k:
            raise DataError(f"a label outside [0, {k}) for a head of {k} centroids")
    offs = list(accumulate(ks, initial=0))
    MU = np.concatenate(mus, dtype=dtype)
    S = F @ MU.T
    rows = np.arange(n)
    cols = [off + y for off, y in zip(offs, labels)]
    picked = [S[rows, c] for c in cols]
    m = np.maximum.reduceat(S, offs[:-1], axis=1)
    for lo, hi in row_blocks(n):  # less each head's row maximum, over its columns
        S[lo:hi] -= np.repeat(m[lo:hi], ks, axis=1)
    np.exp(S, out=S)
    heads = list(zip(offs, offs[1:]))
    z = np.stack([S[:, a:b].sum(axis=1, dtype=np.float64) for a, b in heads], axis=1)
    losses = [float(np.mean(m[:, i] + np.log(z[:, i]) - p)) for i, p in enumerate(picked)]
    for lo, hi in row_blocks(n):  # head by head: 512 x 440 repeated float64 sums are 1.8 MB
        for i, (a, b) in enumerate(heads):
            S[lo:hi, a:b] /= z[lo:hi, i, None]
    for c in cols:
        S[rows, c] -= 1.0
    grad_mus = np.split(S.T @ F / n, offs[1:-1])
    block = np.empty((max(hi - lo for lo, hi in row_blocks(n)), F.shape[1]))
    prod = np.empty(block.shape, dtype)

    def grad(lo, hi):
        np.matmul(S[lo:hi], MU, out=prod[:hi - lo])
        return np.divide(prod[:hi - lo], n_pts, out=block[:hi - lo], dtype=np.float64)

    return losses, grad_mus, grad


def distill_warmup_loss(features, targets, n_pts=1):
    """Mean over rows of 1 - f.t (1 - cosine: features and targets are unit rows), summed in
    float64; its gradient, as head_ce_loss's, is grad(lo, hi), rows lo:hi of -targets / n_pts."""
    if np.shape(features) != np.shape(targets):
        raise ShapeError(f"feature shape {np.shape(features)} != target shape {np.shape(targets)}")
    cos = np.einsum("ij,ij->i", features, targets, dtype=np.float64)
    return (float(np.mean(1.0 - cos)),
            lambda lo, hi: np.divide(targets[lo:hi], -n_pts, dtype=np.float64))


def poly_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    frac = 1.0 - step / total_steps
    return max(LR_MIN, cfg.lr0 * frac ** POLY_POWER)


def check_finite(grads) -> None:
    """Raise NumericError if any gradient holds a NaN or an infinity."""
    if not all(np.all(np.isfinite(g)) for g in grads):
        raise NumericError("non-finite gradient in optimizer step")


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
        """One update; a non-finite gradient raises before anything moves."""
        check_finite(grads)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
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
    all_pts = np.concatenate([np.asarray(s.points, dtype=np.float64) for s in scenes])
    mu = all_pts.mean(axis=0)
    sd = all_pts.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    for s in scenes:
        s.points = (np.asarray(s.points, dtype=np.float64) - mu) / sd
    return mu, sd


def build_pseudo_labels(sp_features, spectral_features, granularities, sample) -> list[Head]:
    """Ward multi-granularity heads of both branches: the local ones in
    granularity order, then, unless spectral_features is None, the global ones.
    Ward clusters the superpoints `sample` (spectral_features holds only their
    rows), the others take the nearest centroid of the sample's sp_features,
    and every head's centroids are pooled over all of sp_features."""
    S = sp_features[sample]

    def fill(cut):  # the sample's cut, every other row at its nearest sample centroid
        labels = np.argmin(_sq_dists(sp_features, dm.pool_by_superpoint(S, cut)), axis=1)
        labels[sample] = cut
        return labels

    return [Head(branch, k, dm.pool_by_superpoint(sp_features, labels), labels)
            for branch, X in (("local", S), ("global", spectral_features)) if X is not None
            for k, labels in zip(granularities,
                                 map(fill, multi_granularity_labels(X, granularities)))]


def spectral_pass(sp_features, cfg: TrainConfig) -> np.ndarray:
    """Affinity -> normalized Laplacian -> Fourier basis -> the refined
    patterns V, one row per row of sp_features (a round's sample)."""
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


def _entity_anchor_grads(features_per_scene, bank_sample, incidence, tau):
    """Contrastive loss of the sampled entities' pool_masks anchors; incidence[j]
    is scene j's mask_incidence, bank_sample sample_entity_batch's (indices,
    prototypes, weights). Returns (loss, V, n_anchors), or (0.0, None, 0) if no
    anchor has mask points here. V is scenes x corpus entities x C: V[j, t] is
    sampled entity t's anchor gradient over its scenes and its entries in scene
    j, zero if t is unsampled or not there, so M.T @ V[j] is scene j's feature
    gradient."""
    indices, P, w = bank_sample
    sampled = [M[indices] for M in incidence]
    pooled, counts = dm.pool_masks(sampled, features_per_scene)
    n_scenes = (counts > 0).sum(0)
    keep = n_scenes > 0
    if not keep.any():
        return 0.0, None, 0
    norms = np.linalg.norm(pooled[keep], axis=1)
    if np.any(norms < 1e-12):
        raise NumericError("entity anchor collapsed to zero norm")
    anchors = pooled[keep] / norms[:, None]
    loss, grad_anchor = entity_contrastive_loss(anchors, P[keep], w[keep], tau=tau)
    gz = np.zeros_like(pooled)
    gz[keep] = [(g - (g @ z) * z) / n for g, z, n in zip(grad_anchor, anchors, norms)]
    d = (n_scenes * counts)[:, :, None]
    V = np.zeros((len(incidence), incidence[0].shape[0], gz.shape[1]))
    V[:, indices] = np.divide(gz, d, out=np.zeros((len(incidence), *gz.shape)), where=d > 0)
    return loss, V, len(anchors)


class Trainer:
    """The run's whole carried state. Heads and their AdamW are rebuilt each
    round, a step's lr is poly_lr of (epoch, step), and every draw comes from a
    stateless stream_key, so a round hands the next only backbone, opt and bank
    (None unless lambda_entity > 0). No method but __init__ sets an attribute.
    sp_index[i] is the corpus superpoint of each point of scene i, and
    points32[i] scene i's standardised points in float32, the training
    steps' input."""

    def __init__(self, scenes, entities, cfg: TrainConfig):
        self.scenes = scenes
        self.entities = entities
        self.cfg = cfg
        for s in scenes if cfg.warmup_epochs > 0 else ():  # refused before any work
            width = None if s.distill_targets is None else s.distill_targets.shape[1]
            if width not in (None, cfg.feat_dim):
                raise ShapeError(f"scene {s.scene_id}: distill.ltfm is {width} columns wide, "
                                 f"feat_dim {cfg.feat_dim}")
            if width:  # unit rows, normalised once per run, in place
                T = s.distill_targets = np.asarray(s.distill_targets, np.float32)
                norms = np.sqrt(np.einsum("ij,ij->i", T, T, dtype=np.float64))
                if np.any(norms < 1e-12):
                    raise DataError(f"scene {s.scene_id}: distill.ltfm has a zero row")
                T /= norms[:, None]
        offsets = accumulate((s.n_superpoints for s in scenes), initial=0)
        self.sp_index = [off + s.superpoints for off, s in zip(offsets, scenes)]
        self.points32 = [s.points.astype(np.float32) for s in scenes]
        self.incidence = mask_incidence(scenes, entities)
        # each scene's points x entities CSR, split once per run into row_blocks blocks
        self.mask_rows = [{(lo, hi): MT[lo:hi] for lo, hi in row_blocks(MT.shape[0])}
                          for MT in (M.T.tocsr() for M in self.incidence)]
        self.backbone = init_backbone(scenes[0].points.shape[1], [cfg.hidden_dim],
                                      cfg.feat_dim, cfg.seed)
        self.opt = AdamW(self.backbone.weights + self.backbone.biases)
        self.bank = None

    def scene_batches(self, idxs=None):
        """idxs (default: every scene) in order, cfg.batch_scenes to a batch."""
        idxs = list(range(len(self.scenes))) if idxs is None else idxs
        bs = self.cfg.batch_scenes
        return [idxs[i:i + bs] for i in range(0, len(idxs), bs)]

    def forward_scenes(self, idxs):
        """A training step's forward pass: the backbone cast to float32 once,
        then scenes idxs' points32 through it. Returns (that backbone, each
        scene's features, each scene's cache), all float32."""
        b = Backbone([w.astype(np.float32) for w in self.backbone.weights],
                     [v.astype(np.float32) for v in self.backbone.biases])
        out = scene_map(lambda i: backbone_forward(b, self.points32[i]), idxs)
        return b, [Y for Y, _ in out], [cache for _, cache in out]

    def step(self, idxs, scene, sample=None):
        """The one training step, of the warm-up and of every epoch, on scenes
        idxs: forward_scenes, then, given sample (sample_entity_batch's), the
        entity anchors' gradients V on this thread, scaled by lambda_entity once.
        One scene_map item per scene i runs scene(i, features, n_pts) ->
        (losses, arrays, grad), n_pts the batch's point count, then
        backbone_backward on grad's rows plus mask_rows[i] @ V[j] in each row
        block, j the scene's place in idxs.

        Returns (the point-weighted mean of each loss and of each array, the
        entity loss, each scene's backward result). A mean is one left fold in
        scene order, each scene's value times its point count, from 0.0 or
        float64 zeros, over n_pts; not sum(), which compensates from 3.12."""
        b, feats, caches = self.forward_scenes(idxs)
        n_pts = sum(len(f) for f in feats)
        l_entity, V = 0.0, None
        if sample is not None:
            l_entity, V, _ = _entity_anchor_grads(
                feats, sample, [self.incidence[i] for i in idxs], self.cfg.tau)
            if V is not None:
                V = self.cfg.lambda_entity * V  # scaled once, not in every row block

        def item(j, i, f, cache):
            losses, arrays, grad = scene(i, f, n_pts)

            def grad_out(lo, hi):  # plus M.T @ (lambda * V[j]) in rows lo:hi
                g = grad(lo, hi)
                if V is not None:
                    g += self.mask_rows[i][lo, hi] @ V[j]
                return g

            return losses, arrays, backbone_backward(b, cache, grad_out)

        out = scene_map(item, range(len(idxs)), idxs, feats, caches)
        losses, arrays = [0.0] * len(out[0][0]), [np.zeros(a.shape) for a in out[0][1]]
        for f, (scene_losses, scene_arrays, _) in zip(feats, out):
            for h, loss in enumerate(scene_losses):
                losses[h] += loss * len(f)
            for total, a in zip(arrays, scene_arrays):
                total += a * len(f)
        for total in arrays:
            total /= n_pts
        return [s / n_pts for s in losses], arrays, l_entity, [g for _, _, g in out]

    def recluster(self, feats=None) -> list[Head]:
        """A round's heads: every scene's features (feats, else
        backbone_features) pooled per superpoint, and one sorted sample of at
        most SAMPLE_CAP of them (all, at or below it) that every n x n stage
        clusters: the spectral pass if use_global is set, then build_pseudo_labels."""
        sp_feats = np.concatenate(scene_map(
            lambda s, f: dm.pool_by_superpoint(
                backbone_features(self.backbone, s.points) if f is None else f, s.superpoints),
            self.scenes, feats or [None] * len(self.scenes)))
        cfg, n = self.cfg, len(sp_feats)
        sample = np.sort(make_rng(cfg.seed, "ward-subsample").choice(
            n, size=min(n, SAMPLE_CAP), replace=False))
        spectral_feats = spectral_pass(sp_feats[sample], cfg) if cfg.use_global else None
        return build_pseudo_labels(sp_feats, spectral_feats, cfg.granularities, sample)

    def apply_grads(self, grads, lr):
        """Optimizer step on the scenes' backbone_backward results, each
        parameter's gradients cast to float64 and summed from zero in scene
        order: the float64 master weights and moments take float64 sums."""
        gw, gb, _ = zip(*grads)
        self.opt.step([sum(x.astype(np.float64) for x in g) for g in (*zip(*gw), *zip(*gb))],
                      lr)

    def train_epoch(self, heads, head_opt, epoch: int) -> EpochReport:
        """One pass over the corpus, step s of n at poly_lr(epoch * n + s, epochs * n),
        with the entity loss if self.bank is set; returns the batch-averaged
        loss report, whose lr is the last step's. Each step is a Trainer.step
        of every head's head_ce_loss, the heads' losses and centroid gradients
        its means; neither optimizer moves before the step's loss and both
        optimizers' gradients are known to be finite."""
        cfg, bank = self.cfg, self.bank
        sums = np.zeros(3)
        batches = self.scene_batches()
        mus = [h.centroids for h in heads]

        def scene(i, f, n_pts):
            return head_ce_loss(f, mus, [h.sp_labels[self.sp_index[i]] for h in heads], n_pts)

        for step, idxs in enumerate(batches):
            lr = poly_lr(epoch * len(batches) + step, cfg.epochs * len(batches), cfg)
            sample = None if bank is None else sample_entity_batch(
                bank, min(cfg.entity_batch, bank.B.shape[0]),
                stream_key(cfg.seed, "entity", epoch, step))
            losses, head_grads, l_entity, grads = self.step(idxs, scene, sample)
            branch = {"local": 0.0, "global": 0.0}  # not sum(): 3.12+ sum() compensates
            for h, loss in zip(heads, losses):
                branch[h.branch] += loss
            l_local, l_global = branch["local"], branch["global"]
            total = l_local + l_global + cfg.lambda_entity * l_entity
            if not np.isfinite(total):
                raise NumericError(f"non-finite loss at epoch {epoch} step {step}: "
                                   f"local={l_local} global={l_global} entity={l_entity}")
            check_finite(head_grads)  # the backbone's are checked before it moves
            self.apply_grads(grads, lr)
            head_opt.step(head_grads, lr)
            sums += (l_local, l_global, l_entity)
        avg = sums / len(batches)
        return EpochReport(local=float(avg[0]), global_=float(avg[1]), entity=float(avg[2]),
                           total=float(avg[0] + avg[1] + cfg.lambda_entity * avg[2]), lr=lr)

    def warmup(self) -> list[float]:
        """Distillation-only epochs on the scenes with distill targets, each
        step a Trainer.step of distill_warmup_loss at lr0; an epoch's loss is
        its batches' mean."""
        cfg = self.cfg
        batches = self.scene_batches([i for i, s in enumerate(self.scenes)
                                      if s.distill_targets is not None])

        def scene(i, f, n_pts):
            loss, grad = distill_warmup_loss(f, self.scenes[i].distill_targets, n_pts)
            return [loss], [], grad

        losses = []
        for _ in range(cfg.warmup_epochs if batches else 0):
            epoch_loss = 0.0
            for batch in batches:
                (loss,), _, _, grads = self.step(batch, scene)
                self.apply_grads(grads, cfg.lr0)
                epoch_loss += loss
            losses.append(epoch_loss / len(batches))
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
    return Trainer(scenes, entities, cfg)


def run_pipeline(cfg: TrainConfig, corpus_dir, out_dir, bank_dir=None):
    """Full iterative pipeline: warmup -> (recluster -> train)* -> persist.

    Returns (backbone, heads, reports).
    """
    trainer = start_run(cfg, corpus_dir)
    n_sp = sum(s.n_superpoints for s in trainer.scenes)
    if max(cfg.granularities) > min(n_sp, SAMPLE_CAP):  # refused before anything is written
        raise ConfigError(f"granularity {max(cfg.granularities)} exceeds the corpus's "
                          f"{n_sp} superpoints or the {SAMPLE_CAP} that a round clusters")
    if cfg.lambda_entity > 0 and bank_dir is not None:  # refused before the warm-up
        trainer.bank = bank = load_bank(bank_dir)
        if bank.entity_ids != [e.entity_id for e in trainer.entities]:
            raise DataError(f"{bank_dir}: the bank's entities are not the corpus's")
        if bank.B.shape[1] != cfg.feat_dim:
            raise ShapeError(f"{bank_dir}: the bank's prototypes have {bank.B.shape[1]} "
                             f"columns, the backbone's features {cfg.feat_dim}")
    warmup_losses = trainer.warmup()
    ckpt_dir, bank_out = os.path.join(out_dir, "checkpoints"), os.path.join(out_dir, "bank")
    dm.make_dirs(ckpt_dir)
    # a file an earlier run left in out_dir that this run does not write goes;
    # a --bank that names <out>/bank is this run's input and stays
    rounds = range(0, max(cfg.epochs, 1), cfg.recluster_every)
    dm.write_optional(os.path.join(out_dir, "warmup.tsv"),
                      [(i, f"{v:.10e}") for i, v in enumerate(warmup_losses)] or None,
                      dm.write_tsv)
    for name in os.listdir(ckpt_dir):  # a round_NNN.ltck past this run's last round
        if re.fullmatch(r"round_\d{3,}\.ltck", name) and int(name[6:-5]) >= len(rounds):
            dm.remove(os.path.join(ckpt_dir, name))
    if (cfg.lambda_entity == 0 or bank_dir is not None) and (
            os.path.realpath(bank_dir or out_dir) != os.path.realpath(bank_out)):
        for name in BANK_FILES:
            dm.write_optional(os.path.join(bank_out, name), None, None)

    feats = None
    if cfg.lambda_entity > 0 and trainer.bank is None:
        # no step comes before round 0: its features are the bank's, forwarded
        # once. Training reads the bank back as saved (float32 prototypes), so
        # a --bank run on this bank trains as this run does.
        bank, feats = build_bank(trainer)
        save_bank(bank_out, bank)
        trainer.bank = load_bank(bank_out)

    reports = []
    for round_idx, start in enumerate(rounds):
        heads, feats = trainer.recluster(feats), None
        save_checkpoint(os.path.join(ckpt_dir, f"round_{round_idx:03d}.ltck"),
                        trainer.backbone, heads)
        head_opt = AdamW([h.centroids for h in heads])
        for epoch in range(start, min(start + cfg.recluster_every, cfg.epochs)):
            reports.append(trainer.train_epoch(heads, head_opt, epoch))

    _write_outputs(out_dir, trainer, heads, reports)
    return trainer.backbone, heads, reports


def run_baseline(cfg: TrainConfig, corpus_dir, out_dir):
    """Learning-by-clustering baseline: run_pipeline at the primitive
    granularity only, with no warmup, entity loss or global branch, whatever
    cfg says."""
    return run_pipeline(replace(cfg, granularities=cfg.granularities[-1:], lambda_entity=0.0,
                                use_global=False, warmup_epochs=0), corpus_dir, out_dir)


def build_bank(trainer: Trainer) -> tuple[SemanticBank, list]:
    """Offline bank pass: forward every scene once (backbone_features), pool
    its features over trainer.incidence, then Gram-align them to the
    text-embedding geometry. Returns (bank, each scene's features)."""
    feats = scene_map(lambda s: backbone_features(trainer.backbone, s.points), trainer.scenes)
    F_m = aggregate_entity_features(trainer.incidence, feats, trainer.entities)
    F_e = np.stack([e.text_embedding for e in trainer.entities])
    return align_gram(F_m, F_e, entity_ids=[e.entity_id for e in trainer.entities]), feats


def predict_labels(backbone, scenes, prototypes) -> np.ndarray:
    """Assign every point of every scene to its max-cosine prototype. Scenes
    run through scene_map; a thread runs a scene's forward pass and scoring
    one row_blocks block at a time into the one output array, so it holds one
    block of activations and one block x prototypes of logits (1.8 MB at 440
    prototypes, in a core's L2) whatever the scene size. The labels are those
    of whole-scene passes at the widths that row_blocks names."""
    if not scenes:
        raise EmptyBatchError("no scenes to label")
    P = _l2_rows(prototypes)
    if P.shape[1] != backbone.out_dim:
        raise ShapeError(f"prototype dim {P.shape[1]} != backbone output dim {backbone.out_dim}")
    starts = [0, *accumulate(s.n_points for s in scenes)]
    labels = np.empty(starts[-1], np.intp)

    def label_scene(s, start):
        for lo, hi in row_blocks(s.n_points):
            Y = backbone_forward(backbone, s.points[lo:hi])[0]
            np.argmax(Y @ P.T, axis=1, out=labels[start + lo:start + hi])

    scene_map(label_scene, scenes, starts)
    return labels


def _write_outputs(out_dir, trainer, heads, reports):
    """checkpoint.ltck, losses.tsv, prototypes.ltfm and pred.ltlb of a run."""
    save_checkpoint(os.path.join(out_dir, "checkpoint.ltck"), trainer.backbone, heads)
    dm.write_tsv(os.path.join(out_dir, "losses.tsv"), [
        ("epoch", "local", "global", "entity", "total", "lr"),
        *((i, *(f"{v:.10e}" for v in (r.local, r.global_, r.entity, r.total, r.lr)))
          for i, r in enumerate(reports))])
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
            if name in out:
                raise FormatError(f"{path}: tensor {name!r} is listed twice")
            out[name] = dm.take(f, "<f4", 2).copy()
    return out
