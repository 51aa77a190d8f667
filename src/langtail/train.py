"""Backbone, segmentation heads, losses, and the iterative
learning-by-clustering loop with distillation warmup.

The backbone is a small MLP (ReLU hidden layers, L2-normalized output rows)
with hand-written reverse-mode gradients; every loss here returns its
analytic gradient and is covered by finite-difference checks in the tests.

A training step scores every (branch, level) head of a scene in one
head_ce_loss call, which reuses one logits and one gradient buffer per
batch and adds each head's feature gradient straight into its branch's
accumulator. Each head still runs its own matmuls, in the order and shapes
of one call per head, so losses and gradients stay bit-identical to
tests/oracle_heads.py, the one-call-per-head loop.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import data_model as dm
from . import spectral
from .bank import (
    SemanticBank,
    aggregate_entity_features,
    align_gram,
    entity_contrastive_loss,
    load_bank,
    sample_entity_batch,
    save_bank,
)
from .cluster import (
    DEFAULT_SAMPLE_CAP,
    check_dense_budget,
    check_granularities,
    cluster_means,
    multi_granularity_labels,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyBatchError,
    FormatError,
    IoError,
    NormalizationError,
    NumericError,
    ShapeError,
)
from .rng import make_rng, stream_key

CHECKPOINT_MAGIC = b"LTCK"
# peak resident n x n float64 arrays of spectral_pass, measured: affinity,
# Laplacian, eigenvectors and the eigensolver's workspace
SPECTRAL_DENSE_ARRAYS = 7


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
class ClusterModel:
    """Per-branch linear segmentation heads: one centroid matrix per level."""

    branch: str
    levels: list[int]
    centroids: dict[int, np.ndarray]
    sp_labels: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class TrainConfig:
    lambda_entity: float = 0.9
    granularities: tuple = (120, 80, 20)
    epochs: int = 200
    batch_scenes: int = 8
    lr0: float = 1e-4
    lr_min: float = 1e-8
    poly_power: float = 0.9
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
    freeze_spectral: bool = False
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    align_steps: int = 500
    align_lr: float = 1e-2
    sample_cap: int = DEFAULT_SAMPLE_CAP
    dump_spectral: bool = False

    def __post_init__(self):
        if self.lambda_entity < 0:
            raise ConfigError("lambda must be >= 0")
        if not (self.lr0 > self.lr_min > 0):
            raise ConfigError("need lr0 > lr_min > 0")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
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
    acts = [X]
    h = X
    for i, (W, bias) in enumerate(zip(b.weights, b.biases)):
        h = h @ W + bias
        if i < len(b.weights) - 1:
            h = np.maximum(h, 0.0)
        acts.append(h)
    z = acts[-1]
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms < 1e-12):
        raise NormalizationError("backbone produced a (near-)zero output row")
    Y = z / norms[:, None]
    cache = {"acts": acts, "norms": norms, "Y": Y}
    return Y, cache


def backbone_backward(b: Backbone, cache, grad_out):
    """Exact reverse-mode gradients, including the row-normalization Jacobian.

    Returns (grads_w, grads_b, grad_in).
    """
    acts = cache["acts"]
    norms = cache["norms"]
    Y = cache["Y"]
    g = np.asarray(grad_out, dtype=np.float64)
    # d/dz of z/||z||: (g - (g.y) y) / ||z||
    gz = (g - (g * Y).sum(axis=1, keepdims=True) * Y) / norms[:, None]

    grads_w = [None] * len(b.weights)
    grads_b = [None] * len(b.biases)
    for i in reversed(range(len(b.weights))):
        h_in = acts[i]
        if i < len(b.weights) - 1:
            # acts[i+1] stores the post-ReLU value for hidden layers
            gz = gz * (acts[i + 1] > 0)
        grads_w[i] = h_in.T @ gz
        grads_b[i] = gz.sum(axis=0)
        gz = gz @ b.weights[i].T
    return grads_w, grads_b, gz


def head_ce_loss(features, mus, labels, grad_out, weight=1.0, scratch=None):
    """Cross-entropy of several linear heads on the same feature rows.

    Head h has logits features @ mus[h].T and labels[h]; its loss is the mean
    cross-entropy over the rows whose label is not -1, and those ignored rows
    must be the same for every head. weight * d loss_h / d features is added
    into grad_out[h]; heads may share an accumulator.

    scratch is an optional float64 buffer of at least n * (max k + C)
    elements, n the non-ignored rows, that holds each head's logits (the
    softmax overwrites them in place) and feature gradient, so a caller that
    passes the same buffer to every call allocates them once. Every head keeps
    its own matmuls, of the same shapes as a one-head call: a matmul against
    the stacked centroids of all heads rounds some slices differently, so the
    losses and gradients would depend on which heads share the call.

    Returns (per-head losses, per-head grads w.r.t. mus).
    """
    F = np.asarray(features, dtype=np.float64)
    mus = [np.asarray(mu, dtype=np.float64) for mu in mus]
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
    if scratch is None:
        scratch = np.empty(n * (k_max + F.shape[1]))
    g = scratch[n * k_max:n * (k_max + F.shape[1])].reshape(F.shape)
    rows = np.arange(n)
    losses, grad_mus = [], []
    for mu, y, acc in zip(mus, labels, grad_out):
        S = np.matmul(F, mu.T, out=scratch[:n * mu.shape[0]].reshape(n, -1))
        picked = S[rows, y]
        m = S.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(S - m).sum(axis=1))
        losses.append(float(np.mean(lse - picked)))
        np.subtract(S, lse[:, None], out=S)
        np.exp(S, out=S)
        S[rows, y] -= 1.0
        np.matmul(S, mu, out=g)
        g /= n
        g *= weight
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
    if total_steps <= 0:
        return cfg.lr0
    frac = 1.0 - step / total_steps
    return max(cfg.lr_min, cfg.lr0 * frac ** cfg.poly_power)


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer over a flat parameter list."""

    def __init__(self, params, cfg: TrainConfig, eps: float = 1e-8):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self.beta1 = cfg.beta1
        self.beta2 = cfg.beta2
        self.wd = cfg.weight_decay
        self.eps = eps

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


class CorpusState:
    """Loaded corpus with global superpoint indexing across scenes."""

    def __init__(self, scenes):
        self.scenes = scenes
        self.sp_offsets = []
        off = 0
        for s in scenes:
            self.sp_offsets.append(off)
            off += s.n_superpoints
        self.total_superpoints = off

    def pooled_superpoint_features(self, features_per_scene) -> np.ndarray:
        pooled = [
            dm.pool_by_superpoint(f, s.superpoints)
            for s, f in zip(self.scenes, features_per_scene)
        ]
        return np.concatenate(pooled, axis=0)

    def broadcast(self, sp_labels, scene_index: int) -> np.ndarray:
        s = self.scenes[scene_index]
        off = self.sp_offsets[scene_index]
        return sp_labels[off + s.superpoints]


def build_pseudo_labels(sp_features, spectral_features, granularities, seed: int,
                        use_global: bool = True,
                        sample_cap: int = DEFAULT_SAMPLE_CAP):
    """Ward multi-granularity clustering of both branches' superpoint features.

    Returns (local ClusterModel, global ClusterModel | None); centroids become
    the linear segmentation heads, labels are superpoint-level pseudo-labels.
    """
    local = ClusterModel(branch="local", levels=list(granularities), centroids={})
    for k, cent, labels in multi_granularity_labels(
        sp_features, granularities, seed=seed, sample_cap=sample_cap
    ):
        local.centroids[k] = cent
        local.sp_labels[k] = labels
    if not use_global:
        return local, None
    glob = ClusterModel(branch="global", levels=list(granularities), centroids={})
    for k, cent, labels in multi_granularity_labels(
        spectral_features, granularities, seed=seed, sample_cap=sample_cap
    ):
        # heads must live in backbone feature space: centroids over sp_features
        glob.sp_labels[k] = labels
        glob.centroids[k] = cluster_means(sp_features, labels, k)
    return local, glob


def spectral_pass(sp_features, cfg: TrainConfig):
    """Affinity -> normalized Laplacian -> Fourier basis -> refined patterns."""
    check_dense_budget(sp_features.shape[0], SPECTRAL_DENSE_ARRAYS, "spectral_pass")
    A = spectral.build_affinity(sp_features)
    L = spectral.normalized_laplacian(A)
    basis = spectral.eigendecompose(L)
    F_feq = spectral.graph_fourier(basis, sp_features)
    s_prime = min(cfg.s_prime, sp_features.shape[0])
    patterns = spectral.group_patterns(basis, F_feq, s_prime, seed=cfg.seed)
    return basis, patterns


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
    contrastive loss; returns (loss, per-scene feature gradients, n_anchors).

    Entities without mask points in the current scenes are skipped.
    """
    by_id = {s.scene_id: bi for bi, s in enumerate(scenes_in_batch)}
    pooled = []
    pooled_rows = []  # list of (batch scene index, mask indices, weight vector len)
    keep = []
    for row, ent_idx in enumerate(bank_sample.entity_indices):
        e = entities[int(ent_idx)]
        hits = [(by_id[sid], idx) for sid, idx in e.masks if sid in by_id]
        if not hits:
            continue
        rows = np.concatenate([features_per_scene[bi][idx] for bi, idx in hits])
        pooled.append(rows.mean(axis=0))
        pooled_rows.append(hits)
        keep.append(row)
    if not keep:
        return 0.0, None, 0
    keep = np.array(keep)
    Z = np.stack(pooled)
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms < 1e-12):
        raise NumericError("entity anchor collapsed to zero norm")
    anchors = Z / norms[:, None]

    sub = type(bank_sample)(
        entity_indices=bank_sample.entity_indices[keep],
        prototypes=bank_sample.prototypes[keep],
        weights=bank_sample.weights[keep],
    )
    loss, grad_anchor = entity_contrastive_loss(anchors, sub, tau=tau)

    grads = [np.zeros_like(f) for f in features_per_scene]
    for a, hits in enumerate(pooled_rows):
        g = grad_anchor[a]
        gz = (g - (g @ anchors[a]) * anchors[a]) / norms[a]
        n_mask = sum(idx.size for _, idx in hits)
        for bi, idx in hits:
            # masks are sorted and unique (EntityRecord), so this adds once per row
            grads[bi][idx] += gz / n_mask
    return loss, grads, len(keep)


def head_step(feats, labels, mus, branches):
    """Head cross-entropy of one batch of scenes, one head_ce_loss call per scene.

    feats[j] are scene j's features and labels[j][h] its labels for head h;
    mus[h] are head h's centroids and branches[h] its branch (0 local, 1
    global). Losses and gradients are means over the batch's points, each
    scene's mean weighted by its point count. Returns (loss per branch, feature
    gradient per scene, centroid gradient per head). Each branch sums its
    heads' feature gradients in its own accumulator before the branches are
    added, and the logits and gradient buffers are freed on return, before the
    backward pass.
    """
    n_pts = sum(f.shape[0] for f in feats)
    n_branches = max(branches) + 1
    scratch = np.empty(max(f.shape[0] for f in feats)
                       * (max(mu.shape[0] for mu in mus) + feats[0].shape[1]))
    loss_sums = [0.0] * len(mus)
    head_grads = [np.zeros_like(mu) for mu in mus]
    grad_feats = []
    for f, y in zip(feats, labels):
        n = f.shape[0]
        accs = [np.zeros_like(f) for _ in range(n_branches)]
        losses, gmus = head_ce_loss(f, mus, y, [accs[b] for b in branches], n, scratch)
        for h, (loss, gmu) in enumerate(zip(losses, gmus)):
            loss_sums[h] += loss * n
            head_grads[h] += gmu * n
        for acc in accs:
            acc /= n_pts
        for acc in accs[1:]:
            accs[0] += acc
        grad_feats.append(accs[0])
    for g in head_grads:
        g /= n_pts
    branch_losses = [0.0] * n_branches
    for b, s in zip(branches, loss_sums):
        branch_losses[b] += s / n_pts
    return branch_losses, grad_feats, head_grads


class Trainer:
    """Shared machinery for the full pipeline and the degenerate baseline."""

    def __init__(self, corpus: CorpusState, entities, cfg: TrainConfig, input_dim: int):
        self.corpus = corpus
        self.entities = entities
        self.cfg = cfg
        self.backbone = init_backbone(
            input_dim, [cfg.hidden_dim], cfg.feat_dim, cfg.seed
        )
        self.opt = AdamW(self.backbone.weights + self.backbone.biases, cfg)
        self.global_step = 0
        self.total_steps = 0

    def scene_batches(self):
        n = len(self.corpus.scenes)
        bs = max(1, self.cfg.batch_scenes)
        return [list(range(i, min(i + bs, n))) for i in range(0, n, bs)]

    def forward_scenes(self, idxs):
        feats, caches = [], []
        for i in idxs:
            Y, cache = backbone_forward(self.backbone, self.corpus.scenes[i].points)
            feats.append(Y)
            caches.append(cache)
        return feats, caches

    def apply_grads(self, idxs, caches, grad_feats, lr, head_opt=None, head_grads=None):
        gw = [np.zeros_like(w) for w in self.backbone.weights]
        gb = [np.zeros_like(b) for b in self.backbone.biases]
        for cache, gf in zip(caches, grad_feats):
            w, b, _ = backbone_backward(self.backbone, cache, gf)
            for acc, g in zip(gw, w):
                acc += g
            for acc, g in zip(gb, b):
                acc += g
        self.opt.step(gw + gb, lr)
        if head_opt is not None:
            head_opt.step(head_grads, lr)

    def train_epoch(self, models, bank, head_opt, epoch: int) -> EpochReport:
        """One pass over the corpus; returns the batch-averaged loss report."""
        cfg = self.cfg
        heads = [(b, m, k) for b, m in enumerate(models) if m is not None for k in m.levels]
        sums = np.zeros(3)
        n_batches = 0
        lr = cfg.lr0
        for step, idxs in enumerate(self.scene_batches()):
            lr = poly_lr(self.global_step, self.total_steps, cfg)
            feats, caches = self.forward_scenes(idxs)
            branch_losses, grad_feats, head_grads = head_step(
                feats,
                [[self.corpus.broadcast(m.sp_labels[k], i) for _, m, k in heads]
                 for i in idxs],
                [m.centroids[k] for _, m, k in heads],
                [b for b, _, _ in heads],
            )
            l_local, l_global = (*branch_losses, 0.0)[:2]

            l_entity = 0.0
            if bank is not None and cfg.lambda_entity > 0:
                bsz = min(cfg.entity_batch, bank.B.shape[0])
                sample = sample_entity_batch(
                    bank, bsz, stream_key(cfg.seed, "entity", epoch, step),
                    class_hint=bank.categories,
                )
                scenes_in_batch = [self.corpus.scenes[i] for i in idxs]
                l_entity, ent_grads, _ = _entity_anchor_grads(
                    feats, sample, self.entities, scenes_in_batch, cfg.tau
                )
                if ent_grads is not None:
                    for j in range(len(idxs)):
                        grad_feats[j] += cfg.lambda_entity * ent_grads[j]

            total = l_local + l_global + cfg.lambda_entity * l_entity
            if not np.isfinite(total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    f"local={l_local} global={l_global} entity={l_entity}"
                )
            self.apply_grads(idxs, caches, grad_feats, lr,
                             head_opt=head_opt, head_grads=head_grads)
            sums += (l_local, l_global, l_entity)
            n_batches += 1
            self.global_step += 1
        avg = sums / n_batches
        return EpochReport(
            local=float(avg[0]), global_=float(avg[1]), entity=float(avg[2]),
            total=float(avg[0] + avg[1] + cfg.lambda_entity * avg[2]), lr=lr,
        )

    def warmup(self) -> list[float]:
        """Distillation-only epochs on scenes that carry distill targets."""
        cfg = self.cfg
        idxs = [i for i, s in enumerate(self.corpus.scenes)
                if s.distill_targets is not None]
        losses = []
        if not idxs or cfg.warmup_epochs < 1:
            return losses
        for _ in range(cfg.warmup_epochs):
            epoch_loss = 0.0
            for batch in [idxs[i:i + cfg.batch_scenes]
                          for i in range(0, len(idxs), cfg.batch_scenes)]:
                feats, caches = self.forward_scenes(batch)
                grad_feats = []
                batch_loss = 0.0
                for j, i in enumerate(batch):
                    loss, gf = distill_warmup_loss(
                        feats[j], self.corpus.scenes[i].distill_targets
                    )
                    batch_loss += loss
                    grad_feats.append(gf)
                self.apply_grads(batch, caches, grad_feats, cfg.lr0)
                epoch_loss += batch_loss / len(batch)
            losses.append(epoch_loss)
        return losses


def _flatten_heads(models):
    """Deterministic parameter order: local levels in config order, then global."""
    local_model, global_model = models
    params = [local_model.centroids[k] for k in local_model.levels]
    if global_model is not None:
        params += [global_model.centroids[k] for k in global_model.levels]
    return params


def concat_prototypes(models) -> np.ndarray:
    mats = []
    for m in models:
        if m is None:
            continue
        for k in m.levels:
            mats.append(np.asarray(m.centroids[k], dtype=np.float64))
    if not mats:
        raise ConfigError("no cluster models to concatenate")
    return np.concatenate(mats, axis=0)


def run_pipeline(cfg: TrainConfig, corpus_dir, out_dir, bank_dir=None):
    """Full iterative pipeline: warmup -> (recluster -> train)* -> persist.

    Returns (backbone, (local, global) models, reports).
    """
    from .synth import read_corpus  # local import to avoid a cycle

    scenes, entities = read_corpus(corpus_dir)
    standardize_scenes(scenes)
    corpus = CorpusState(scenes)
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)

    trainer = Trainer(corpus, entities, cfg, scenes[0].points.shape[1])
    warmup_losses = trainer.warmup()

    bank_obj = None
    if cfg.lambda_entity > 0:
        bank_obj = _load_or_build_bank(trainer, corpus, entities, cfg, bank_dir, out_dir)

    n_batches = len(trainer.scene_batches())
    trainer.total_steps = cfg.epochs * n_batches

    reports = []
    models = (None, None)
    spectral_feats = None
    epoch = 0
    round_idx = 0
    while epoch < cfg.epochs or epoch == 0:
        feats, _ = trainer.forward_scenes(range(len(scenes)))
        sp_feats = corpus.pooled_superpoint_features(feats)
        if cfg.use_global and (spectral_feats is None or not cfg.freeze_spectral):
            basis, patterns = spectral_pass(sp_feats, cfg)
            spectral_feats = spectral.global_superpoint_features(patterns)
            if cfg.dump_spectral:
                spec_dir = os.path.join(out_dir, "spectral")
                os.makedirs(spec_dir, exist_ok=True)
                dm.write_feature_matrix(
                    os.path.join(spec_dir, f"round_{round_idx:03d}_lambda.ltfm"),
                    basis.lam[None, :].astype(np.float32))
                dm.write_feature_matrix(
                    os.path.join(spec_dir, f"round_{round_idx:03d}_V.ltfm"),
                    patterns.V.astype(np.float32))
        models = build_pseudo_labels(
            sp_feats, spectral_feats, cfg.granularities, cfg.seed,
            use_global=cfg.use_global, sample_cap=cfg.sample_cap,
        )
        save_checkpoint(
            os.path.join(out_dir, "checkpoints", f"round_{round_idx:03d}.ltck"),
            trainer.backbone, models,
        )
        if cfg.epochs == 0:
            break
        head_opt = AdamW(_flatten_heads(models), cfg)
        for _ in range(min(cfg.recluster_every, cfg.epochs - epoch)):
            reports.append(trainer.train_epoch(models, bank_obj, head_opt, epoch))
            epoch += 1
        round_idx += 1

    save_checkpoint(os.path.join(out_dir, "checkpoint.ltck"), trainer.backbone, models)
    _write_losses(os.path.join(out_dir, "losses.tsv"), reports)
    if warmup_losses:
        with open(os.path.join(out_dir, "warmup.tsv"), "w") as f:
            for i, v in enumerate(warmup_losses):
                f.write(f"{i}\t{v:.10e}\n")
    protos = concat_prototypes(models)
    dm.write_feature_matrix(os.path.join(out_dir, "prototypes.ltfm"),
                            protos.astype(np.float32))
    _write_predictions(trainer, corpus, protos, out_dir)
    return trainer.backbone, models, reports


def run_baseline(cfg: TrainConfig, corpus_dir, out_dir):
    """Learning-by-clustering baseline: cluster superpoint features at the
    primitive granularity, train the backbone and head with plain batch-mean
    cross-entropy, recluster, repeat. No warmup, entity loss, global branch
    or multi-granularity heads, whatever cfg says."""
    from .synth import read_corpus

    scenes, entities = read_corpus(corpus_dir)
    standardize_scenes(scenes)
    corpus = CorpusState(scenes)
    os.makedirs(out_dir, exist_ok=True)

    k_prim = int(cfg.granularities[-1])
    trainer = Trainer(corpus, entities, cfg, scenes[0].points.shape[1])
    trainer.total_steps = cfg.epochs * len(trainer.scene_batches())
    reports = []
    models = (None, None)
    epoch = 0
    while epoch < cfg.epochs or epoch == 0:
        # recluster: forward everything, pool per superpoint, one Ward cut
        feats, _ = trainer.forward_scenes(range(len(scenes)))
        sp_feats = corpus.pooled_superpoint_features(feats)
        ((_, mu, sp_labels),) = multi_granularity_labels(
            sp_feats, (k_prim,), seed=cfg.seed, sample_cap=cfg.sample_cap
        )
        local = ClusterModel(branch="local", levels=[k_prim],
                             centroids={k_prim: mu}, sp_labels={k_prim: sp_labels})
        models = (local, None)
        if cfg.epochs == 0:
            break
        head_opt = AdamW([mu], cfg)
        for _ in range(min(cfg.recluster_every, cfg.epochs - epoch)):
            reports.append(trainer.train_epoch(models, None, head_opt, epoch))
            epoch += 1

    save_checkpoint(os.path.join(out_dir, "checkpoint.ltck"), trainer.backbone, models)
    _write_losses(os.path.join(out_dir, "losses.tsv"), reports)
    protos = concat_prototypes(models)
    dm.write_feature_matrix(os.path.join(out_dir, "prototypes.ltfm"),
                            protos.astype(np.float32))
    _write_predictions(trainer, corpus, protos, out_dir)
    return trainer.backbone, models, reports


def _load_or_build_bank(trainer, corpus, entities, cfg, bank_dir, out_dir):
    if bank_dir is not None and os.path.exists(
        os.path.join(bank_dir, "bank_aligned.ltfm")
    ):
        return load_bank(bank_dir)
    bank_obj = build_bank(trainer.backbone, corpus.scenes, entities, cfg)
    save_bank(os.path.join(out_dir, "bank"), bank_obj)
    return bank_obj


def build_bank(backbone, scenes, entities, cfg: TrainConfig) -> SemanticBank:
    """Offline bank pass: aggregate masked features, then Gram-align them to
    the text-embedding geometry."""
    feats = [backbone_forward(backbone, s.points)[0] for s in scenes]
    F_m = aggregate_entity_features(scenes, feats, entities)
    F_e = np.stack([e.text_embedding for e in entities])
    return align_gram(F_m, F_e, entity_ids=[e.entity_id for e in entities],
                      steps=cfg.align_steps, lr=cfg.align_lr)


def predict_labels(backbone, scenes, prototypes) -> np.ndarray:
    """Assign every point of every scene to its max-cosine prototype."""
    P = np.asarray(prototypes, dtype=np.float64)
    norms = np.linalg.norm(P, axis=1, keepdims=True)
    P = np.divide(P, norms, out=P.copy(), where=norms > 0)
    out = []
    for s in scenes:
        Y, _ = backbone_forward(backbone, s.points)
        out.append(np.argmax(Y @ P.T, axis=1))
    return np.concatenate(out)


def _write_predictions(trainer, corpus, protos, out_dir):
    pred = predict_labels(trainer.backbone, corpus.scenes, protos)
    dm.write_labels(os.path.join(out_dir, "pred.ltlb"), pred)


def _write_losses(path, reports):
    with open(path, "w") as f:
        f.write("epoch\tlocal\tglobal\tentity\ttotal\tlr\n")
        for i, r in enumerate(reports):
            f.write(f"{i}\t{r.local:.10e}\t{r.global_:.10e}\t{r.entity:.10e}"
                    f"\t{r.total:.10e}\t{r.lr:.10e}\n")


# ---------------------------------------------------------------------------
# Checkpoints: magic "LTCK", u32 version, u64 n_tensors, then per tensor a
# length-prefixed name and an embedded LTFM block.


def _named_tensors(backbone: Backbone, models):
    named = []
    for i, (w, b) in enumerate(zip(backbone.weights, backbone.biases)):
        named.append((f"backbone/layer{i}/weight", w))
        named.append((f"backbone/layer{i}/bias", b[None, :]))
    for m in models:
        if m is None:
            continue
        for k in m.levels:
            named.append((f"{m.branch}/k{k}/centroids", m.centroids[k]))
            if k in m.sp_labels:
                named.append((f"{m.branch}/k{k}/sp_labels",
                              m.sp_labels[k][None, :].astype(np.float64)))
    return named


def save_checkpoint(path, backbone: Backbone, models=(None, None)) -> None:
    named = _named_tensors(backbone, models)
    try:
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<IQ", 1, len(named)))
            for name, tensor in named:
                nb = name.encode()
                f.write(struct.pack("<Q", len(nb)))
                f.write(nb)
                t = np.atleast_2d(np.asarray(tensor, dtype="<f4"))
                f.write(struct.pack("<QQ", t.shape[0], t.shape[1]))
                f.write(np.ascontiguousarray(t).tobytes())
    except OSError as e:
        raise IoError(f"cannot write checkpoint {path}: {e}") from e


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as a name -> float32 array mapping."""
    try:
        with open(path, "rb") as f:
            magic = dm._read_exact(f, 4, f"{path} magic")
            if magic != CHECKPOINT_MAGIC:
                raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
            version, n = struct.unpack("<IQ", dm._read_exact(f, 12, f"{path} header"))
            if version != 1:
                raise FormatError(f"{path}: unsupported checkpoint version {version}")
            out = {}
            for _ in range(n):
                (ln,) = struct.unpack("<Q", dm._read_exact(f, 8, f"{path} name length"))
                raw = dm._read_exact(f, ln, f"{path} tensor name")
                try:
                    name = raw.decode()
                except UnicodeDecodeError as e:
                    raise FormatError(f"{path}: tensor name is not UTF-8: {raw!r}") from e
                dims = dm._read_exact(f, 16, f"{path} {name} dims")
                rows, cols = struct.unpack("<QQ", dims)
                buf = dm._read_exact(f, rows * cols * 4, f"{path} tensor {name}")
                out[name] = np.frombuffer(buf, dtype="<f4").reshape(rows, cols).copy()
    except OSError as e:
        raise IoError(f"cannot read checkpoint {path}: {e}") from e
    return out
