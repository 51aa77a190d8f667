"""Backbone gradients, optimizer, schedule, and the training loop."""

import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    append_mask_index,
    assert_grad_close,
    central_diff,
    count_incidence_builds,
    whole_grad,
)
from langtail import cluster as cl
from langtail import data_model as dm
from langtail import evaluation as ev
from langtail import train as tr
from langtail.bank import (
    SemanticBank,
    _l2_rows,
    entity_contrastive_loss,
    mask_incidence,
    sample_entity_batch,
)
from langtail.data_model import EntityRecord, SceneBundle
from langtail.errors import (
    ConfigError,
    DataError,
    EmptyBatchError,
    FormatError,
    LangtailError,
    NormalizationError,
    NumericError,
    ShapeError,
    TruncationError,
)
from langtail.rng import make_rng
from langtail.synth import SynthConfig, generate_corpus
from oracle_baseline import reference_baseline
from oracle_entity import reference_entity_anchor_grads
from oracle_heads import reference_head_ce, reference_head_step

B = ev.ROW_BLOCK  # boundary sizes of the row-block tests follow the block size


def small_cfg(**kw):
    base = dict(lambda_entity=0.0, granularities=(4,), epochs=2,
                recluster_every=2, use_global=False, feat_dim=8, hidden_dim=8,
                batch_scenes=2, seed=0, warmup_epochs=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def test_train_config_defaults_and_validation():
    cfg = tr.TrainConfig()
    assert cfg.lambda_entity == 0.9
    assert cfg.granularities == (120, 80, 20)
    assert cfg.lr0 == 1e-4
    assert cfg.tau == 0.07
    with pytest.raises(ConfigError):
        tr.TrainConfig(lambda_entity=-0.1)
    with pytest.raises(ConfigError, match="lr0"):
        tr.TrainConfig(lr0=1e-9)  # below poly_lr's floor, LR_MIN = 1e-8
    with pytest.raises(ConfigError):
        tr.TrainConfig(granularities=(20, 80))
    # loop counters that would hang (a zero step, negative epochs) or crash
    with pytest.raises(ConfigError, match="epochs"):
        tr.TrainConfig(epochs=-1)
    with pytest.raises(ConfigError, match="recluster_every"):
        tr.TrainConfig(recluster_every=0)
    with pytest.raises(ConfigError, match="batch_scenes"):
        tr.TrainConfig(batch_scenes=0)


@pytest.mark.parametrize("name,low", [("warmup_epochs", 0), ("feat_dim", 1), ("hidden_dim", 1),
                                      ("s_prime", 1), ("entity_batch", 1)])
def test_train_config_refuses_small_sizes(name, low):
    tr.TrainConfig(**{name: low})
    with pytest.raises(ConfigError, match=f"{name} must be >= {low}"):
        tr.TrainConfig(**{name: low - 1})


def test_spectral_pass_checks_memory_before_allocating():
    # 20000 superpoints would need 3 dense 20000 x 20000 arrays (9.6 GB)
    with pytest.raises(ConfigError, match="spectral_pass"):
        tr.spectral_pass(np.ones((20000, 2)), tr.TrainConfig())
    # 9,459 is the largest graph that the budget allows, and Trainer.recluster
    # hands spectral_pass at most SAMPLE_CAP (8,192) rows
    for n in (6237, 9459):
        cl.check_dense_budget(n, tr.SPECTRAL_DENSE_ARRAYS, "spectral_pass")
    with pytest.raises(ConfigError, match="spectral_pass"):
        cl.check_dense_budget(9460, tr.SPECTRAL_DENSE_ARRAYS, "spectral_pass")


@pytest.mark.parametrize("stage,arrays", [("spectral_pass", tr.SPECTRAL_DENSE_ARRAYS),
                                          ("ward_tree", cl.WARD_DENSE_ARRAYS)])
def test_a_round_of_sample_cap_superpoints_fits_every_dense_stage(stage, arrays):
    # so no corpus is refused for its size: a round clusters at most SAMPLE_CAP
    cl.check_dense_budget(tr.SAMPLE_CAP, arrays, stage)


PEAK_SCRIPT = """
import sys
import numpy as np
from langtail import cluster, train

def status(field):  # kB
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))

stage, n = sys.argv[1], int(sys.argv[2])
run = {"spectral_pass": lambda X: train.spectral_pass(X, train.TrainConfig()),
       "ward_tree": cluster.ward_tree}[stage]
rng = np.random.default_rng(0)
run(rng.normal(size=(n // 2, 16)))  # load LAPACK and touch the BLAS buffers first
X = rng.normal(size=(n, 16))
resident = status("VmRSS")
run(X)
print((status("VmHWM") - resident) * 1024 / (n * n * 8))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the resident set from /proc")
@pytest.mark.parametrize("stage,arrays", [("spectral_pass", 3), ("ward_tree", 1)])
def test_dense_stage_peak_memory(stage, arrays):
    """One call on 1,500 rows in a fresh process raises its peak resident set
    by more than arrays - 1 and less than arrays + 1/2 dense n x n float64
    arrays, and the budget constant is `arrays`. The peak is VmHWM, the
    process's own part of ru_maxrss: on Linux ru_maxrss also keeps the peak of
    the process that started it, here pytest's. glibc maps every block of
    1 MiB or more on its own, as it always does above 32 MiB (the sizes the
    budget is for), so freed blocks leave the resident set instead of staying
    in its heap."""
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(1 << 20),
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, stage, "1500"], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert arrays - 1 < float(out) < arrays + 0.5
    assert {"spectral_pass": tr.SPECTRAL_DENSE_ARRAYS,
            "ward_tree": cl.WARD_DENSE_ARRAYS}[stage] == arrays


def test_init_backbone_deterministic():
    a = tr.init_backbone(6, [16], 8, seed=3)
    b = tr.init_backbone(6, [16], 8, seed=3)
    c = tr.init_backbone(6, [16], 8, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not np.array_equal(a.weights[0], c.weights[0])
    assert a.out_dim == 8


def test_backbone_forward_unit_rows():
    b = tr.init_backbone(5, [12], 7, seed=0)
    X = np.random.default_rng(0).normal(size=(20, 5))
    Y, _ = tr.backbone_forward(b, X)
    assert Y.shape == (20, 7)
    assert np.allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ShapeError):
        tr.backbone_forward(b, np.ones((3, 4)))


# around one block: a row short, exact, a one-row tail, two blocks and a
# one-row tail; then scenes of many blocks
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1, 4095, 4096, 4097, 9000])
@pytest.mark.parametrize("dims", [(6, [64], 32), (5, [16, 9], 1), (3, [8], 440)])
def test_backbone_forward_matches_whole_array_reference(n, dims):
    # the in-place bias and ReLU and the row-block norms give the bits of the
    # plain expressions on the whole array
    b = tr.init_backbone(*dims, seed=n)
    X = np.random.default_rng(n).normal(size=(n, dims[0]))
    h = X
    for i, (W, bias) in enumerate(zip(b.weights, b.biases)):
        h = h @ W + bias
        if i < len(b.weights) - 1:
            h = np.maximum(h, 0.0)
    want = h / np.linalg.norm(h, axis=1)[:, None]
    assert np.array_equal(tr.backbone_forward(b, X)[0], want)


@pytest.mark.parametrize("n", [1, B - 1, B + 1, 2 * B + 1])
@pytest.mark.parametrize("dims", [(6, [64], 32), (5, [16, 9], 1), (4, [], 3)])
def test_backbone_backward_matches_whole_array_reference(n, dims):
    # the row-block Jacobian written over Y and the gradients written over the
    # activations give the bits of the plain expressions on whole arrays;
    # grad_out is only read, as the finite-difference tests reuse it
    b = tr.init_backbone(*dims, seed=n)
    rng = np.random.default_rng(n)
    G = rng.normal(size=(n, dims[2]))
    Y, cache = tr.backbone_forward(b, rng.normal(size=(n, dims[0])))
    acts = [a.copy() for a in cache["acts"]]
    gz = (G - (G * Y).sum(axis=1, keepdims=True) * Y) / cache["norms"][:, None]
    want_w, want_b = [None] * len(b.weights), [None] * len(b.weights)
    for i in reversed(range(len(b.weights))):
        if i < len(b.weights) - 1:
            gz = gz * (acts[i + 1] > 0)
        want_w[i], want_b[i] = acts[i].T @ gz, gz.sum(axis=0)
        gz = gz @ b.weights[i].T
    before = G.tobytes()
    gw, gb, gx = tr.backbone_backward(b, cache, G)
    assert G.tobytes() == before
    for g, w in zip(gw + gb + [gx], want_w + want_b + [gz]):
        assert np.array_equal(g, w)


def test_backbone_backward_peak_memory():
    # 4,000 rows, 256 hidden units, 384 outputs. Beside the weight gradients
    # (0.07 n x C float64 arrays) the pass allocates one 512-row block (0.13),
    # the ReLU mask (n x 256 bool, 0.08) and the input gradient: about 0.2.
    # A whole n x C temporary (+1) or a new hidden-layer gradient (+0.67)
    # exceeds 0.5.
    b = tr.init_backbone(6, [256], 384, seed=0)
    rng = np.random.default_rng(0)
    Y, cache = tr.backbone_forward(b, rng.normal(size=(4000, 6)))
    G = rng.normal(size=Y.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr.backbone_backward(b, cache, G)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * G.nbytes, f"{peak / 2**20:.2f} MiB"


def test_backbone_rejects_zero_row():
    b = tr.Backbone(weights=[np.zeros((2, 3))], biases=[np.zeros(3)])
    with pytest.raises(NormalizationError):
        tr.backbone_forward(b, np.ones((1, 2)))


def test_backbone_gradient_fd():
    rng = np.random.default_rng(5)
    for _ in range(3):
        b = tr.init_backbone(4, [6], 5, seed=int(rng.integers(100)))
        X = rng.normal(size=(7, 4))
        R = rng.normal(size=(7, 5))  # random linear readout as the scalar loss

        def loss_of_weights(w0, layer, kind):
            bb = tr.Backbone([w.copy() for w in b.weights],
                             [x.copy() for x in b.biases])
            if kind == "w":
                bb.weights[layer] = w0
            else:
                bb.biases[layer] = w0
            Y, _ = tr.backbone_forward(bb, X)
            return float((Y * R).sum())

        Y, cache = tr.backbone_forward(b, X)
        gw, gb, gx = tr.backbone_backward(b, cache, R)
        for i in range(2):
            assert_grad_close(gw[i], central_diff(
                lambda w, i=i: loss_of_weights(w, i, "w"), b.weights[i]))
            assert_grad_close(gb[i], central_diff(
                lambda v, i=i: loss_of_weights(v, i, "b"), b.biases[i]))
        num_x = central_diff(
            lambda x: float((tr.backbone_forward(b, x)[0] * R).sum()), X)
        assert_grad_close(gx, num_x)


def _float32(b):
    """The backbone's weights and biases cast to float32, as a training step casts them."""
    return tr.Backbone([w.astype(np.float32) for w in b.weights],
                       [v.astype(np.float32) for v in b.biases])


@pytest.mark.parametrize("n", [1, B + 1, 3000])
def test_float32_step_matches_float64_reference(n):
    # the float32 forward and backward at the paper's widths against the
    # float64 reference on the same weights and inputs. Output rows are unit
    # vectors, so their error is absolute: at most 1e-6 (measured up to
    # 1.6e-7 at 1 to 10,000 rows). Each gradient is within 1e-5 of the
    # reference's largest entry (measured up to 5e-7; the weight gradients'
    # row sums run in float32 inside the BLAS, the bias sums in float64).
    b = tr.init_backbone(6, [256], 384, seed=n)
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 6))
    G = rng.normal(size=(n, 384)) / 4000  # head gradients are divided by the batch's points
    Y64, cache64 = tr.backbone_forward(b, X)
    Y32, cache32 = tr.backbone_forward(_float32(b), X.astype(np.float32))
    assert Y32.dtype == np.float32 and all(a.dtype == np.float32 for a in cache32["acts"])
    assert np.abs(Y32 - Y64).max() <= 1e-6
    gw64, gb64, gx64 = tr.backbone_backward(b, cache64, G)
    gw32, gb32, gx32 = tr.backbone_backward(_float32(b), cache32, G)
    assert [g.dtype for g in gw32 + [gx32]] == [np.float32] * 3
    assert [g.dtype for g in gb32] == [np.float64] * 2  # bias sums run in float64
    for g32, g64 in zip(gw32 + gb32 + [gx32], gw64 + gb64 + [gx64]):
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


def test_backbone_computes_in_its_inputs_dtype():
    # float32 input through float64 weights computes in float32 (the weights
    # cast), as through float32 weights; float64 input keeps float64
    b = tr.init_backbone(5, [12], 7, seed=0)
    X = np.random.default_rng(0).normal(size=(20, 5))
    Y32, cache = tr.backbone_forward(b, X.astype(np.float32))
    assert np.array_equal(Y32, tr.backbone_forward(_float32(b), X.astype(np.float32))[0])
    assert cache["norms"].dtype == np.float32
    assert tr.backbone_forward(b, X)[0].dtype == np.float64
    gw, _, gx = tr.backbone_backward(b, cache, np.ones((20, 7)))
    assert gw[0].dtype == gx.dtype == np.float32


def head_ce(F, mus, labels):
    """head_ce_loss with n_pts its rows, so the feature gradient is that of
    the heads' summed losses: (losses, feature grad, mu grads)."""
    losses, gmus, grad = tr.head_ce_loss(F, mus, labels, len(F))
    return losses, whole_grad(grad, len(F)), gmus


def test_head_ce_gradient_fd():
    rng = np.random.default_rng(6)
    F = rng.normal(size=(9, 4))
    mu = rng.normal(size=(3, 4))
    labels = rng.integers(0, 3, size=9)
    (loss,), gf, (gmu,) = head_ce(F, [mu], [labels])
    assert loss > 0
    assert_grad_close(gf, central_diff(
        lambda x: head_ce(x, [mu], [labels])[0][0], F))
    assert_grad_close(gmu, central_diff(
        lambda m: head_ce(F, [m], [labels])[0][0], mu))


def test_head_ce_several_heads_fd():
    # three heads; the k=1 head has zero loss and gradients, and the feature
    # gradient sums every head's over n_pts
    rng = np.random.default_rng(8)
    F = rng.normal(size=(11, 5))
    mus = [rng.normal(size=(k, 5)) for k in (3, 1, 4)]
    labels = [rng.integers(0, k, size=11) for k in (3, 1, 4)]
    losses, gmus, grad = tr.head_ce_loss(F, mus, labels, n_pts=4)
    grad = whole_grad(grad, len(F))
    assert losses[1] == 0.0 and not gmus[1].any()
    assert not whole_grad(tr.head_ce_loss(F, mus[1:2], labels[1:2])[2], len(F)).any()

    def total(x):
        return 11 / 4 * sum(head_ce(x, mus, labels)[0])

    assert_grad_close(grad, central_diff(total, F))
    for h in (0, 2):
        assert_grad_close(gmus[h], central_diff(
            lambda m, h=h: head_ce(F, mus[:h] + [m] + mus[h + 1:], labels)[0][h], mus[h]))


def test_head_ce_float32_gradient_fd():
    # the trainer's float32 path against a float64 central difference of the
    # float64 path on the same values; the k=1 head has zero loss and gradients
    rng = np.random.default_rng(9)
    F = rng.normal(size=(12, 5)).astype(np.float32)
    mus = [rng.normal(size=(k, 5)).astype(np.float32) for k in (4, 1, 3)]
    labels = [rng.integers(0, k, size=12) for k in (4, 1, 3)]
    losses, gmus, grad = tr.head_ce_loss(F, mus, labels, n_pts=8)
    grad = whole_grad(grad, len(F))
    assert losses[1] == 0.0 and not gmus[1].any()
    assert not whole_grad(tr.head_ce_loss(F, mus[1:2], labels[1:2])[2], len(F)).any()
    assert grad.dtype == np.float64
    F64, mus64 = F.astype(np.float64), [mu.astype(np.float64) for mu in mus]
    assert_grad_close(grad, central_diff(
        lambda x: 12 / 8 * sum(head_ce(x, mus64, labels)[0]), F64), rtol=1e-3, atol=1e-5)
    for h in (0, 2):
        assert_grad_close(gmus[h], central_diff(
            lambda m, h=h: head_ce(F64, mus64[:h] + [m] + mus64[h + 1:], labels)[0][h],
            mus64[h]), rtol=1e-3, atol=1e-5)


def test_head_ce_dtype_follows_features():
    rng = np.random.default_rng(10)
    F = rng.normal(size=(7, 3))
    mus = [rng.normal(size=(k, 3)) for k in (2, 4)]
    labels = [rng.integers(0, k, size=7) for k in (2, 4)]
    for dtype in (np.float64, np.float32):
        losses, grad, gmus = head_ce(F.astype(dtype), mus, labels)
        assert all(type(loss) is float for loss in losses)
        assert all(g.dtype == dtype for g in gmus)
        assert grad.dtype == np.float64 and grad.any()
    # float64 centroids do not lift float32 features, and int features are float64
    assert head_ce(F.astype(np.int64), mus, labels)[2][0].dtype == np.float64


def test_head_step_peak_memory(monkeypatch):
    # 2 scenes x 4,000 x 384, heads 120/80/20 on both branches, run serially,
    # each scene's gradient left unread. The peak measured 1.48 n x C float64
    # arrays: scene 1's float32 features (0.5), every head's softmax (n x 440
    # float32, 0.57), the one float64 gradient block and the float32 product
    # (0.19), and the stacked float32 centroids, their gradients and the
    # float64 sums (0.2). Holding scene 0's softmaxes (+0.57) or an n x C
    # float32 buffer (+0.5) exceeds 1.8.
    monkeypatch.setattr(tr, "SCENE_HELPERS", 0)
    ks = (120, 80, 20, 120, 80, 20)
    feats, labels, mus = _head_case(4, (4000, 4000), 384, ks, 0.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr.head_step(feats, labels, mus, lambda j, grad: None)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * feats[0].nbytes, f"{peak / 2**20:.1f} MiB"


def test_scene_step_peak_memory(monkeypatch):
    # one scene's float32 training step at the paper's widths: 4,000 rows,
    # 256 hidden units, 384 outputs, heads 120/80/20 on both branches,
    # head_step into backbone_backward. The peak measured 1.05 n x C float64
    # arrays: every head's softmax (n x 440 float32, 0.57), the one float64
    # gradient block and the float32 product (0.19), a block's float32 cast
    # (0.06), the ReLU mask (0.08) and the centroids' copies and gradients.
    # head_ce_loss takes the forward pass's float32 rows with no copy, so a
    # copy of the features (+0.5), a whole n x C float32 gradient (+0.5) or a
    # second float64 gradient block (+0.13) exceeds 1.15.
    monkeypatch.setattr(tr, "SCENE_HELPERS", 0)
    ks = (120, 80, 20, 120, 80, 20)
    b = _float32(tr.init_backbone(6, [256], 384, seed=0))
    rng = np.random.default_rng(0)
    Y, cache = tr.backbone_forward(b, rng.normal(size=(4000, 6)).astype(np.float32))
    labels = [rng.integers(0, k, size=len(Y)) for k in ks]
    mus = [rng.normal(size=(k, 384)) for k in ks]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr.head_step([Y], [labels], mus, lambda j, grad: tr.backbone_backward(b, cache, grad))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * Y.size * 8, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("bad", [-1, 2])
def test_head_ce_refuses_a_label_outside_its_head(bad):
    # a head of k = 2 centroids takes labels 0 and 1 only, in any head of the call
    with pytest.raises(DataError):
        head_ce(np.ones((2, 2)), [np.ones((2, 2))], [np.array([0, bad])])
    with pytest.raises(DataError):
        head_ce(np.ones((2, 2)), [np.ones((3, 2)), np.ones((2, 2))],
                [np.array([0, 2]), np.array([bad, 1])])


def test_head_ce_refuses_no_rows_and_mismatched_shapes():
    with pytest.raises(EmptyBatchError):
        head_ce(np.ones((0, 2)), [np.ones((2, 2))], [np.zeros(0, np.int64)])
    with pytest.raises(ShapeError):
        head_ce(np.ones((2, 2)), [np.ones((2, 3))], [np.array([0, 1])])


def _head_case(seed, sizes, dim, ks, skew):
    """Unit feature rows and uniform labels, except that a share skew of each
    scene's rows takes label 0 in every head: a long-tailed label mix."""
    rng = np.random.default_rng(seed)
    feats = []
    for n in sizes:
        f = rng.normal(size=(n, dim))
        feats.append(f / np.linalg.norm(f, axis=1, keepdims=True))
    mus = [rng.normal(size=(k, dim)) for k in ks]
    labels = []
    for n in sizes:
        common = rng.random(n) < skew
        scene = [rng.integers(0, k, size=n) for k in ks]
        for y in scene:
            y[common] = 0
        labels.append(scene)
    return feats, labels, mus


HEAD_CASES = [
    ((50, 31), 8, (4, 1, 3), (0, 0, 1), 0.0),
    ((50, 31, 7), 8, (4, 1, 3), (0, 0, 1), 0.2),
    ((600, 300, 2000), 40, (20, 12, 1, 20, 12, 1), (0, 0, 0, 1, 1, 1), 0.1),
    ((40,), 6, (1,), (0,), 0.0),
    ((900, 1100), 24, (20,), (0,), 0.3),
    # the rescue workload's shapes: 2000 points per scene, 32-dim features
    ((2000, 2000), 32, (120, 80, 20, 120, 80, 20), (0, 0, 0, 1, 1, 1), 0.0),
    # the dense workload's: 10,000 points per scene, 384-dim features
    pytest.param((10000, 10000), 384, (120, 80, 20, 120, 80, 20), (0, 0, 0, 1, 1, 1), 0.0,
                 marks=pytest.mark.slow),
]


@pytest.mark.parametrize("sizes,dim,ks,branches,skew", HEAD_CASES)
def test_head_step_matches_per_head_reference(sizes, dim, ks, branches, skew):
    # branches names each head's branch, as the ids show; head_step's losses
    # are per head, and train_epoch sums a branch's in head order
    feats, labels, mus = _head_case(len(sizes) * 7 + dim, sizes, dim, ks, skew)
    got = tr.head_step(feats, labels, mus, lambda j, grad: whole_grad(grad, sizes[j]))
    want = reference_head_step(feats, labels, mus)
    assert got[0] == want[0] and len(got[0]) == len(branches)
    for g, w in zip(got[1] + got[2], want[1] + want[2]):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("sizes,dim,ks,branches,skew", HEAD_CASES[:-1])
def test_head_step_in_7_row_blocks_matches_per_head_reference(monkeypatch, sizes, dim, ks,
                                                              branches, skew):
    # many blocks per scene, short last blocks and one-row tails (50 rows)
    # joined to the block before
    monkeypatch.setattr(ev, "ROW_BLOCK", 7)
    test_head_step_matches_per_head_reference(sizes, dim, ks, branches, skew)


@pytest.mark.parametrize("row_block", [None, 7])
@pytest.mark.parametrize("sizes,dim,k", [((40,), 6, 1), ((900, 1100), 24, 20),
                                         ((2000, 2000, 513), 32, 20)])
def test_one_head_step_is_the_one_head_reference(monkeypatch, row_block, sizes, dim, k):
    # the baseline's path: with one head, head_step's losses and gradients are
    # reference_head_ce's of each scene, weighted by its point count, bit for bit
    if row_block:
        monkeypatch.setattr(ev, "ROW_BLOCK", row_block)
    feats, labels, mus = _head_case(k, sizes, dim, (k,), 0.2)
    got = tr.head_step(feats, labels, mus, lambda j, grad: whole_grad(grad, sizes[j]))
    n_pts = sum(sizes)
    loss, gmu = 0.0, np.zeros_like(mus[0])
    for j, f in enumerate(feats):
        l, gf, g = reference_head_ce(f.astype(np.float32), mus[0].astype(np.float32),
                                     labels[j][0])
        loss += l * len(f)
        gmu += g * len(f)
        assert np.array_equal(got[1][j], gf.astype(np.float64) / n_pts)
    assert got[0] == [loss / n_pts]
    assert np.array_equal(got[2][0], gmu / n_pts)


def _entity_feature_grads(incidence, V):
    """Each scene's feature gradient M.T @ V[j]; none if no anchor has a mask point."""
    return [] if V is None else [M.T @ v for M, v in zip(incidence, V)]


def test_entity_anchor_grads_match_add_at():
    rng = np.random.default_rng(3)
    scenes = [SceneBundle(f"s{i}", np.zeros((n, 2)), np.zeros(n, dtype=np.int64))
              for i, n in enumerate((30, 25))]
    feats = [rng.normal(size=(s.n_points, 6)) for s in scenes]
    # masks overlap within a scene and across entities, and one entity spans both scenes
    masks = [[("s0", [0, 1, 2, 3, 4])], [("s0", [3, 4, 5, 9]), ("s1", [0, 2])],
             [("s1", [2, 3, 4, 20])], [("s0", [4, 9, 29])]]
    entities = [EntityRecord(e, f"e{e}", rng.normal(size=4), masks=m)
                for e, m in enumerate(masks)]
    bank = SemanticBank(B=rng.normal(size=(4, 6)), entity_ids=list(range(4)),
                        categories=np.array([0, 0, 1, 1]))
    batch = sample_entity_batch(bank, 4, seed=1)
    incidence = mask_incidence(scenes, entities)
    loss, V, n_anchors = tr._entity_anchor_grads(feats, batch, incidence, tau=0.2)

    by_id = {s.scene_id: j for j, s in enumerate(scenes)}
    order, P, w = batch
    # the mean over an entity's scenes of its mean feature over its mask rows there
    pooled = [np.mean([feats[by_id[sid]][idx].mean(0) for sid, idx in entities[e].masks], axis=0)
              for e in order]
    norms = np.linalg.norm(pooled, axis=1)
    anchors = np.stack(pooled) / norms[:, None]
    want_loss, grad_anchor = entity_contrastive_loss(anchors, P, w, tau=0.2)
    want = [np.zeros_like(f) for f in feats]
    for a, e in enumerate(order):
        g = grad_anchor[a]
        gz = (g - (g @ anchors[a]) * anchors[a]) / norms[a]
        hits = entities[e].masks
        for sid, idx in hits:
            np.add.at(want[by_id[sid]], idx, gz[None, :] / (len(hits) * idx.size))
    assert n_anchors == 4 and loss == want_loss
    for got, w in zip(_entity_feature_grads(incidence, V), want):
        assert np.array_equal(got, w)


NO_HIT = [("elsewhere", np.arange(3))]  # a mask in a scene outside the batch


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_entity_anchor_grads_match_scatter_oracle(seed, no_hit):
    """M.T @ V gives the row-scatter oracle's gradient bits on random,
    alias, two-scene, two-masks-in-one-scene and whole-scene masks (so scenes
    are covered in part and in full), and on a batch where no entity hits.
    The draws come in any order; both sum a point's entries in entity order."""
    rng = np.random.default_rng(seed)
    sizes = [int(n) for n in rng.integers(1, 40, size=rng.integers(1, 4))]
    scenes = [SceneBundle(f"s{i}", np.zeros((n, 2)), np.zeros(n, dtype=np.int64))
              for i, n in enumerate(sizes)]
    dim = int(rng.integers(2, 7))
    feats = [rng.normal(size=(n, dim)) for n in sizes]

    def mask(j, full=False):
        n = sizes[j]
        return f"s{j}", np.arange(n) if full else rng.choice(n, rng.integers(1, n + 1), False)

    def pick():
        return int(rng.integers(len(sizes)))

    masks = []
    for kind in rng.permutation(np.repeat(np.arange(6), rng.integers(1, 3, size=6))):
        j = pick()
        masks.append([[mask(j)],  # random rows, overlapping the others
                      list(masks[-1]) if masks else [mask(j)],  # alias: the same masks again
                      [mask(0), mask(len(sizes) - 1)],  # two scenes when there are two
                      [mask(j, full=True)],  # the whole scene
                      [mask(j), mask(j)],  # two masks in one scene
                      NO_HIT][kind])
    if no_hit:
        masks = [NO_HIT] * len(masks)
    entities = [EntityRecord(e, f"e{e}", rng.normal(size=4), masks=m)
                for e, m in enumerate(masks)]
    order = rng.permutation(len(entities))[:rng.integers(1, len(entities) + 1)]
    batch = (order, _l2_rows(rng.normal(size=(order.size, dim))),
             rng.uniform(0.5, 2.0, order.size))

    incidence = mask_incidence(scenes, entities)
    loss, V, n_anchors = tr._entity_anchor_grads(feats, batch, incidence, tau=0.1)
    want_loss, want, want_n = reference_entity_anchor_grads(feats, batch, entities, scenes, 0.1)
    grads = _entity_feature_grads(incidence, V)
    assert loss == want_loss and n_anchors == want_n and len(grads) == len(want)
    assert (n_anchors == 0) == all(sid == "elsewhere" for e in order for sid, _ in masks[e])
    for got, (rows, g), f in zip(grads, want, feats):
        full = np.zeros_like(f)
        full[rows] = g
        assert np.array_equal(got, full)


def test_mask_rows_add_sums_in_entity_order(monkeypatch):
    # a step's entity add, Trainer.mask_rows[i][lo, hi] @ (lam * V)[j] into
    # each head-gradient block, sums a point's scaled entries from zero in
    # entity order
    monkeypatch.setattr(ev, "ROW_BLOCK", 4)  # a whole-scene add in 3 blocks, the last short
    rng = np.random.default_rng(5)
    scenes = [SceneBundle(f"s{i}", np.zeros((n, 3)), np.zeros(n, dtype=np.int64))
              for i, n in enumerate((10, 9, 5))]
    # scenes covered in full, in part (an entity in two scenes, one with two
    # overlapping masks in one scene, aliases), and by no mask
    masks = [[("s0", np.arange(10))], [("s0", [2, 5, 7]), ("s1", [1, 3, 4])],
             [("s1", [3, 4, 6]), ("s1", [4, 8])], [("s1", [3, 4, 6]), ("s1", [4, 8])]]
    entities = [EntityRecord(e, f"e{e}", np.ones(4), masks=m) for e, m in enumerate(masks)]
    lam = 0.3
    trainer = tr.Trainer(scenes, entities, small_cfg(lambda_entity=lam))
    assert not trainer.incidence[2].nnz
    # a draw out of entity order that leaves entity 2 out: it adds +0.0
    indices = np.array([3, 0, 1])
    for j, (s, M) in enumerate(zip(scenes, trainer.incidence)):
        g = rng.normal(size=(s.n_points, 3))
        V = np.zeros((len(entities), 3))  # indexed by corpus entity
        V[indices] = rng.normal(size=(len(indices), 3))
        assert sorted(trainer.mask_rows[j]) == list(ev.row_blocks(s.n_points))
        got = g.copy()
        for (lo, hi), rows in trainer.mask_rows[j].items():
            got[lo:hi] += rows @ (lam * V)
        want = g.copy()
        entries = M.toarray()  # a point of two overlapping masks counts twice
        for r in np.flatnonzero(entries.sum(0)):
            acc = np.zeros(3)  # scaled entries, summed from zero in entity order
            for t in range(len(entities)):
                for _ in range(int(entries[t, r])):
                    acc = acc + (lam * V[t] if t in indices else 0.0)
            want[r] += acc
        assert np.array_equal(got, want)
        # rows that no mask covers keep their bits
        assert got[entries.sum(0) == 0].tobytes() == g[entries.sum(0) == 0].tobytes()


def _recorded_step(monkeypatch, trainer):
    """Run one train_epoch of one step; returns (each scene's head gradient,
    the gradient its backward pass received, both keyed by scene size, and the
    step's (sampled indices, V))."""
    heads = trainer.recluster()
    head_grads, seen, drawn = {}, {}, []
    head_ce_loss, anchor_grads, backward = (
        tr.head_ce_loss, tr._entity_anchor_grads, tr.backbone_backward)

    def recording_head_ce(F, *args):
        losses, gmus, grad = head_ce_loss(F, *args)
        head_grads[len(F)] = whole_grad(grad, len(F))
        return losses, gmus, grad

    def recording_anchors(feats, sample, *args):
        out = anchor_grads(feats, sample, *args)
        drawn.append((sample[0], out[1]))
        return out

    def recording_backward(b, cache, grad):
        n = len(cache["norms"])
        seen[n] = whole_grad(grad, n)
        return backward(b, cache, seen[n])

    monkeypatch.setattr(tr, "head_ce_loss", recording_head_ce)
    monkeypatch.setattr(tr, "_entity_anchor_grads", recording_anchors)
    monkeypatch.setattr(tr, "backbone_backward", recording_backward)
    trainer.train_epoch(heads, tr.AdamW([h.centroids for h in heads]), 0)
    return head_grads, seen, drawn


@pytest.mark.parametrize("helpers", [0, 1])
def test_apply_grads_adds_entity_part_in_scene_work(monkeypatch, helpers):
    # a training step hands each scene's backward pass, in the scene's own
    # work, its head gradient plus M.T @ (lambda_entity * V), summed in entity order
    monkeypatch.setattr(tr, "SCENE_HELPERS", helpers)
    monkeypatch.setattr(ev, "ROW_BLOCK", 4)  # a whole-scene add in 3 blocks, the last short
    rng = np.random.default_rng(5)
    scenes = [SceneBundle(f"s{i}", rng.normal(size=(n, 3)), np.arange(n) % 3)
              for i, n in enumerate((10, 9, 5))]
    # scenes covered in full, in part (an entity in two scenes, one with two
    # overlapping masks in one scene, aliases), and by no mask
    masks = [[("s0", np.arange(10))], [("s0", [2, 5, 7]), ("s1", [1, 3, 4])],
             [("s1", [3, 4, 6]), ("s1", [4, 8])], [("s1", [3, 4, 6]), ("s1", [4, 8])]]
    entities = [EntityRecord(e, f"e{e}", np.ones(4), masks=m) for e, m in enumerate(masks)]
    lam = 0.3
    cfg = small_cfg(lambda_entity=lam, batch_scenes=3, entity_batch=3)  # one entity unsampled
    trainer = tr.Trainer(scenes, entities, cfg)
    trainer.bank = SemanticBank(B=rng.normal(size=(4, cfg.feat_dim)),
                                entity_ids=list(range(4)), categories=np.array([0, 0, 1, 1]))
    head_grads, seen, drawn = _recorded_step(monkeypatch, trainer)
    [(indices, vs)] = drawn
    assert len(indices) == 3 and len(vs) == len(scenes)
    for s, v, M in zip(scenes, vs, trainer.incidence):
        g = head_grads[s.n_points]
        want = g.copy()
        entries = M.toarray()  # a point of two overlapping masks counts twice
        for r in np.flatnonzero(entries.sum(0)):
            acc = np.zeros(g.shape[1])  # scaled entries, summed from zero in entity order
            for t in range(len(entities)):
                for _ in range(int(entries[t, r])):
                    acc = acc + (lam * v[t] if t in indices else 0.0)
            want[r] += acc
        assert np.array_equal(seen[s.n_points], want)
        # rows that no mask covers keep their bits
        assert seen[s.n_points][entries.sum(0) == 0].tobytes() == \
            g[entries.sum(0) == 0].tobytes()


def test_step_without_anchors_hands_backward_the_head_gradient(monkeypatch):
    # no sampled entity has a mask point in the batch: V is None, and each
    # scene's backward pass receives its head gradient's bits
    monkeypatch.setattr(ev, "ROW_BLOCK", 4)
    rng = np.random.default_rng(6)
    scenes = [SceneBundle(f"s{i}", rng.normal(size=(n, 3)), np.arange(n) % 3)
              for i, n in enumerate((10, 9))]
    entities = [EntityRecord(e, f"e{e}", np.ones(4), masks=NO_HIT) for e in range(2)]
    cfg = small_cfg(lambda_entity=0.3, entity_batch=2)
    trainer = tr.Trainer(scenes, entities, cfg)
    trainer.bank = SemanticBank(B=rng.normal(size=(2, cfg.feat_dim)),
                                entity_ids=[0, 1], categories=np.array([0, 1]))
    head_grads, seen, drawn = _recorded_step(monkeypatch, trainer)
    assert [v for _, v in drawn] == [None] and sorted(seen) == [9, 10]
    for n, g in head_grads.items():
        assert seen[n].tobytes() == g.tobytes()


def test_start_run_refuses_mask_index_past_scene(tmp_path):
    # Trainer's mask_incidence is the one check, before anything is written
    generate_corpus(SynthConfig(n_classes=3, points_per_scene=120, n_scenes=2, seed=8),
                    tmp_path / "c")
    append_mask_index(tmp_path / "c", "scene0001", 120)
    with pytest.raises(DataError, match="mask index 120 out of range for scene scene0001"):
        tr.start_run(small_cfg(), tmp_path / "c")


@pytest.mark.parametrize("where", ["head", "entity"])
def test_non_finite_loss_raises_before_any_optimizer_moves(tmp_path, where):
    # the backward passes run before the loss is summed, but neither AdamW
    # steps: the backbone, the centroids, both optimizers' moments and t stay
    _mini_corpus(tmp_path)
    trainer = tr.start_run(small_cfg(lambda_entity=0.5, use_global=True, s_prime=4),
                           tmp_path / "corpus")
    trainer.bank, feats = tr.build_bank(trainer)
    heads = trainer.recluster(feats)
    head_opt = tr.AdamW([h.centroids for h in heads])
    trainer.train_epoch(heads, head_opt, 0)  # moments and t that are not zero
    if where == "head":
        heads[1].centroids[0, 0] = np.nan
    else:
        trainer.bank.B[:] = np.nan

    def state():
        return [a.copy() for opt in (trainer.opt, head_opt) for a in opt.params + opt.m + opt.v]

    before, ts = state(), (trainer.opt.t, head_opt.t)
    with pytest.raises(NumericError, match="non-finite loss at epoch 1 step 0"):
        trainer.train_epoch(heads, head_opt, 1)
    assert (trainer.opt.t, head_opt.t) == ts == (2, 2)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(state(), before))


def test_non_finite_head_gradient_moves_nothing(tmp_path, monkeypatch):
    # the step's loss is finite but a head-centroid gradient is not: neither
    # optimizer moves, though the backbone's gradients are finite
    _mini_corpus(tmp_path)
    trainer = tr.start_run(small_cfg(lambda_entity=0.5, use_global=True, s_prime=4),
                           tmp_path / "corpus")
    trainer.bank, feats = tr.build_bank(trainer)
    heads = trainer.recluster(feats)
    head_opt = tr.AdamW([h.centroids for h in heads])
    trainer.train_epoch(heads, head_opt, 0)  # moments and t that are not zero
    head_ce_loss = tr.head_ce_loss

    def nan_centroid_grad(*args):
        losses, gmus, grad = head_ce_loss(*args)
        gmus[1][0, 0] = np.nan
        return losses, gmus, grad

    monkeypatch.setattr(tr, "head_ce_loss", nan_centroid_grad)

    def state():
        return [a.copy() for opt in (trainer.opt, head_opt) for a in opt.params + opt.m + opt.v]

    before, ts = state(), (trainer.opt.t, head_opt.t)
    with pytest.raises(NumericError, match="non-finite gradient"):
        trainer.train_epoch(heads, head_opt, 1)
    assert (trainer.opt.t, head_opt.t) == ts == (2, 2)
    assert [a.tobytes() for a in state()] == [a.tobytes() for a in before]
    assert trainer.backbone.weights[0] is trainer.opt.params[0]  # the state compared is the model's


def _call_site():
    """The training function that a backbone pass runs for: the innermost
    caller of these names on this thread's stack."""
    frame = sys._getframe(2)
    while frame.f_code.co_name not in ("build_bank", "recluster", "train_epoch", "warmup",
                                       "predict_labels"):
        frame = frame.f_back
    return frame.f_code.co_name


def test_each_backbone_pass_runs_in_its_call_sites_dtype(tmp_path, monkeypatch):
    # a training step (warm-up and epochs) forwards and back-propagates in
    # float32 and hands head_ce_loss the forward pass's rows with no copy; the
    # bank pass, the reclustering forwards and prediction stay float64
    monkeypatch.setattr(tr, "SCENE_HELPERS", 0)  # every call on this thread
    _mini_corpus(tmp_path, distill_dim=8)
    seen, step_rows, uncopied = set(), [], []
    forward, backward, head_ce_loss = tr.backbone_forward, tr.backbone_backward, tr.head_ce_loss

    def recording_forward(b, X):
        Y, cache = forward(b, X)
        seen.add(("forward", _call_site(), X.dtype.name, Y.dtype.name))
        step_rows.append(Y)
        return Y, cache

    def recording_backward(b, cache, grad):
        seen.add(("backward", _call_site(), cache["Y"].dtype.name))
        return backward(b, cache, grad)

    def recording_head_ce(F, *args):
        uncopied.append(any(F is Y for Y in step_rows))
        return head_ce_loss(F, *args)

    monkeypatch.setattr(tr, "backbone_forward", recording_forward)
    monkeypatch.setattr(tr, "backbone_backward", recording_backward)
    monkeypatch.setattr(tr, "head_ce_loss", recording_head_ce)
    tr.run_pipeline(small_cfg(lambda_entity=0.5, epochs=3, recluster_every=2, warmup_epochs=1),
                    tmp_path / "corpus", tmp_path / "run")
    assert seen == {
        ("forward", "warmup", "float32", "float32"), ("backward", "warmup", "float32"),
        ("forward", "build_bank", "float64", "float64"),
        ("forward", "recluster", "float64", "float64"),  # round 1; round 0 pools the bank's
        ("forward", "train_epoch", "float32", "float32"), ("backward", "train_epoch", "float32"),
        ("forward", "predict_labels", "float64", "float64")}
    assert len(uncopied) == 9 and all(uncopied)  # 3 epochs of 3 scenes


def test_pipeline_forwards_once_for_bank_and_round_0(tmp_path, monkeypatch):
    _mini_corpus(tmp_path, distill_dim=8)
    cfg = small_cfg(lambda_entity=0.5, epochs=2, warmup_epochs=1)
    rows = []
    forward = tr.backbone_forward

    def counting_forward(b, X):
        rows.append(len(X))
        return forward(b, X)

    monkeypatch.setattr(tr, "backbone_forward", counting_forward)
    tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "once")
    # warmup 1 + bank 1 + 2 epochs + prediction 1; round 0 pools the bank's pass
    assert sum(rows) == 5 * 450
    # recomputing round 0's features instead changes no byte
    recluster = tr.Trainer.recluster
    monkeypatch.setattr(tr.Trainer, "recluster", lambda self, feats=None: recluster(self))
    tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "twice")
    assert sum(rows) == 5 * 450 + 6 * 450
    for rel in ["checkpoint.ltck", "losses.tsv", "prototypes.ltfm", "pred.ltlb",
                "bank/bank_aligned.ltfm", "checkpoints/round_000.ltck"]:
        assert (tmp_path / "once" / rel).read_bytes() == (tmp_path / "twice" / rel).read_bytes()


def test_pipeline_builds_each_incidence_once(tmp_path, monkeypatch):
    # the bank pass pools over the Trainer's incidence matrices
    _mini_corpus(tmp_path)
    calls = count_incidence_builds(monkeypatch)
    tr.run_pipeline(small_cfg(lambda_entity=0.5, epochs=1), tmp_path / "corpus", tmp_path / "run")
    assert len(calls) == 1


def test_scene_map_returns_results_in_input_order(monkeypatch):
    monkeypatch.setattr(tr, "SCENE_HELPERS", 1)
    both_running = threading.Barrier(2, timeout=10)  # the first two items run at once
    threads = set()

    def fn(i, x):
        threads.add(threading.get_ident())
        if i < 2:
            both_running.wait()
        time.sleep(0.01 * (i % 3))  # later items may finish first
        return i, x * x

    assert tr.scene_map(fn, range(7), [3, 1, 4, 1, 5, 9, 2]) == \
        [(0, 9), (1, 1), (2, 16), (3, 1), (4, 25), (5, 81), (6, 4)]
    assert len(threads) == 2 and threading.get_ident() in threads
    assert tr.scene_map(fn, []) == []


def test_scene_map_stress_takes_each_item_once(monkeypatch):
    monkeypatch.setattr(tr, "SCENE_HELPERS", 7)  # more threads than cores
    monkeypatch.setattr(tr, "_POOLS", {})  # a fresh pool of that size
    calls = []

    def fn(i):
        calls.append(i)
        if i in fail_at:
            raise ValueError(i)
        return -i

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fail_at = ()
        for n in (0, 1, 2, 50, 500):
            calls.clear()
            assert tr.scene_map(fn, range(n)) == [-i for i in range(n)]
            assert sorted(calls) == list(range(n))  # a lost update repeats or drops one
        fail_at = (37, 80)
        for _ in range(5):
            calls.clear()
            with pytest.raises(ValueError) as err:
                tr.scene_map(fn, range(500))
            assert err.value.args == (37,)  # the first failed item, as a loop raises
            assert set(range(38)) <= set(calls) and len(calls) == len(set(calls))
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("helpers", [0, 1])
def test_forward_scenes_error_waits_for_every_helper(monkeypatch, helpers):
    monkeypatch.setattr(tr, "SCENE_HELPERS", helpers)
    rng = np.random.default_rng(0)
    points = [rng.normal(size=(20, 3)), np.zeros((20, 3)), rng.normal(size=(20, 3)),
              np.zeros((20, 3))]
    scenes = [SceneBundle(f"s{i}", p, np.arange(20) % 4) for i, p in enumerate(points)]
    trainer = tr.Trainer(scenes, [], small_cfg())
    # one linear layer with zero bias: the all-zero scenes 1 and 3 give zero output rows
    trainer.backbone = tr.Backbone([rng.normal(size=(3, 5))], [np.zeros(5)])
    running, started = [], []
    forward = tr.backbone_forward

    def slow_forward(b, X):
        running.append(1)
        started.append(X)
        try:
            time.sleep(0.05)
            return forward(b, X)
        finally:
            running.pop()

    monkeypatch.setattr(tr, "backbone_forward", slow_forward)
    with pytest.raises(NormalizationError):
        trainer.forward_scenes([0, 1, 2, 3])
    assert running == []  # every call that started has returned
    assert len(started) <= 3  # scene 3 never starts: no item starts after a raise
    monkeypatch.setattr(tr, "backbone_forward", forward)
    # a step forwards the float32 points through the float32 weights
    b, feats, _ = trainer.forward_scenes([2, 0])
    assert all(np.array_equal(w32, w.astype(np.float32))
               for w32, w in zip(b.weights + b.biases,
                                 trainer.backbone.weights + trainer.backbone.biases))
    assert np.array_equal(feats[0], forward(b, points[2].astype(np.float32))[0])


@pytest.mark.parametrize("run", ["pipeline", "baseline"])
def test_outputs_do_not_depend_on_helper_threads(tmp_path, monkeypatch, run):
    _mini_corpus(tmp_path, n_scenes=5, distill_dim=8)
    cfg = small_cfg(lambda_entity=0.5, use_global=True, epochs=3, recluster_every=2,
                    s_prime=8, granularities=(6, 3), warmup_epochs=1)
    train_fn = tr.run_pipeline if run == "pipeline" else tr.run_baseline
    for helpers in (0, 1):
        monkeypatch.setattr(tr, "SCENE_HELPERS", helpers)
        train_fn(cfg, tmp_path / "corpus", tmp_path / f"h{helpers}")
    rels = ["checkpoint.ltck", "losses.tsv", "prototypes.ltfm", "pred.ltlb"]
    if run == "pipeline":
        rels += ["bank/bank_aligned.ltfm", "bank/trace.tsv"]
    for rel in rels:
        assert (tmp_path / "h0" / rel).read_bytes() == (tmp_path / "h1" / rel).read_bytes(), rel


def test_distill_gradient_fd():
    rng = np.random.default_rng(7)
    F = rng.normal(size=(6, 5))
    T = rng.normal(size=(6, 5))
    loss, grad = tr.distill_warmup_loss(F, T)
    assert 0.0 <= loss <= 2.0
    assert_grad_close(grad, central_diff(
        lambda x: tr.distill_warmup_loss(x, T)[0], F))
    # perfectly aligned rows give zero loss
    l0, _ = tr.distill_warmup_loss(T * 3.0, T)
    assert l0 == pytest.approx(0.0, abs=1e-12)


def test_poly_lr_schedule():
    cfg = tr.TrainConfig()
    assert tr.poly_lr(0, 100, cfg) == pytest.approx(1e-4)
    assert tr.poly_lr(50, 100, cfg) == pytest.approx(1e-4 * 0.5 ** 0.9)
    assert tr.poly_lr(100, 100, cfg) == pytest.approx(1e-8)  # floor


@pytest.mark.parametrize("run", [tr.run_pipeline, tr.run_baseline], ids=["pipeline", "baseline"])
def test_losses_lr_follows_the_poly_schedule_across_rounds(tmp_path, monkeypatch, run):
    # 3 scenes, 2 to a batch: nb = 2 steps an epoch, 5 epochs in 3 rounds, after
    # 2 warm-up epochs (the baseline skips them) that must not move the schedule
    _mini_corpus(tmp_path, distill_dim=8)
    cfg = small_cfg(epochs=5, recluster_every=2, warmup_epochs=2, lambda_entity=0.5)
    nb, lrs = 2, []
    apply_grads = tr.Trainer.apply_grads

    def recording(self, grads, lr):
        lrs.append(lr)
        return apply_grads(self, grads, lr)

    monkeypatch.setattr(tr.Trainer, "apply_grads", recording)
    run(cfg, tmp_path / "corpus", tmp_path / "run")
    warm = 2 * nb if run is tr.run_pipeline else 0
    assert lrs == [cfg.lr0] * warm + [tr.poly_lr(s, cfg.epochs * nb, cfg)
                                      for s in range(cfg.epochs * nb)]
    rows = (tmp_path / "run" / "losses.tsv").read_text().splitlines()[1:]
    assert [r.split("\t")[-1] for r in rows] == [
        f"{tr.poly_lr((e + 1) * nb - 1, cfg.epochs * nb, cfg):.10e}" for e in range(cfg.epochs)]
    assert len(list((tmp_path / "run" / "checkpoints").iterdir())) == 3


def test_adamw_single_step_hand_computed():
    p = np.array([1.0])
    opt = tr.AdamW([p])
    opt.wd = 0.1
    g = np.array([2.0])
    opt.step([g], lr=0.01)
    # m=0.2, v=0.004; bias-corrected m=2, v=4; update=2/(2+1e-8)
    want = 1.0 - 0.01 * (2.0 / (2.0 + 1e-8) + 0.1 * 1.0)
    assert p[0] == pytest.approx(want, rel=1e-12)


def test_adamw_decoupled_decay_without_gradient():
    p = np.array([4.0])
    opt = tr.AdamW([p])
    opt.wd = 0.5
    opt.step([np.zeros(1)], lr=0.1)
    assert p[0] == pytest.approx(4.0 - 0.1 * 0.5 * 4.0)


def test_adamw_non_finite_gradient_moves_nothing():
    # the second gradient is not finite: the first parameter, the moments and
    # t stay as they were, though the first gradient comes before it
    params = [np.ones(2), np.zeros(2)]
    opt = tr.AdamW(params)
    opt.step([np.full(2, 0.5), np.ones(2)], 0.1)
    before = [a.copy() for a in params + opt.m + opt.v]
    with pytest.raises(NumericError, match="non-finite gradient"):
        opt.step([np.ones(2), np.array([np.nan, 0.0])], 0.1)
    assert opt.t == 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params + opt.m + opt.v, before))


def _mini_corpus(tmp_path, **kw):
    base = dict(n_classes=3, points_per_scene=150, n_scenes=3, seed=21)
    base.update(kw)
    return generate_corpus(SynthConfig(**base), str(tmp_path / "corpus"))


def test_trainer_sp_index_offsets(tmp_path):
    scenes, _ = _mini_corpus(tmp_path)
    trainer = tr.Trainer(scenes, [], small_cfg())
    n_sp = [s.n_superpoints for s in scenes]
    assert np.array_equal(trainer.sp_index[0], scenes[0].superpoints)
    assert np.array_equal(trainer.sp_index[1], n_sp[0] + scenes[1].superpoints)
    assert np.array_equal(trainer.sp_index[2], n_sp[0] + n_sp[1] + scenes[2].superpoints)
    # every corpus superpoint is some point's, and no index reaches past the total
    assert np.array_equal(np.unique(np.concatenate(trainer.sp_index)), np.arange(sum(n_sp)))


def test_build_pseudo_labels_shapes(tmp_path):
    scenes, _ = _mini_corpus(tmp_path)
    n_sp = sum(s.n_superpoints for s in scenes)
    rng = np.random.default_rng(0)
    sp = rng.normal(size=(n_sp, 8))
    spec = rng.normal(size=(n_sp, 5))
    heads = tr.build_pseudo_labels(sp, spec, (10, 4), np.arange(n_sp))
    assert [(h.branch, h.k) for h in heads] == [
        ("local", 10), ("local", 4), ("global", 10), ("global", 4)]
    for h in heads:
        assert h.centroids.shape == (h.k, 8)
        assert h.sp_labels.shape == (n_sp,)
        assert len(set(h.sp_labels)) == h.k
    # global branch clusters in spectral space but its heads live in sp space
    glob = heads[2]
    want = np.stack([
        sp[glob.sp_labels == c].mean(axis=0) for c in range(glob.k)
    ])
    assert np.allclose(glob.centroids, want)
    local_only = tr.build_pseudo_labels(sp, None, (4,), np.arange(n_sp))
    assert [(h.branch, h.k) for h in local_only] == [("local", 4)]


@pytest.mark.parametrize("n_sample", [60, 25], ids=["full", "subsample"])
def test_build_pseudo_labels_pools_every_head_over_sp_features(n_sample):
    # local and global heads alike take their centroids from the backbone
    # superpoint features under their final labels, also where Ward clustered
    # a sample and the other rows joined the nearest centroid of the sample's
    # backbone features, in either branch
    rng = np.random.default_rng(4)
    sample = np.sort(rng.choice(60, n_sample, replace=False))
    sp, spec = rng.normal(size=(60, 8)), rng.normal(size=(n_sample, 5))
    heads = tr.build_pseudo_labels(sp, spec, (10, 4), sample)
    assert [(h.branch, h.k) for h in heads] == [
        ("local", 10), ("local", 4), ("global", 10), ("global", 4)]
    held_out = np.setdiff1d(np.arange(60), sample)
    for h, X in zip(heads, (sp[sample], sp[sample], spec, spec)):
        cut = cl.multi_granularity_labels(X, (h.k,))[0]
        assert np.array_equal(h.sp_labels[sample], cut)
        mus = np.stack([sp[sample][cut == c].mean(axis=0) for c in range(h.k)])
        d2 = ((sp[held_out, None, :] - mus[None]) ** 2).sum(axis=2)
        assert np.array_equal(h.sp_labels[held_out], d2.argmin(axis=1))
        want = dm.pool_by_superpoint(sp, h.sp_labels)
        assert h.centroids.tobytes() == want.tobytes()


def test_recluster_clusters_one_sample_of_at_most_sample_cap(tmp_path, monkeypatch):
    # above SAMPLE_CAP a round draws one sample of the superpoints, and the
    # spectral pass and both branches' Ward trees cluster it; the local heads
    # keep the rule of the Ward-only subsample that came before (its stream,
    # then each other row at the nearest centroid of the sample's cut)
    scenes, _ = _mini_corpus(tmp_path)
    n = sum(s.n_superpoints for s in scenes)
    assert n > 25
    monkeypatch.setattr(tr, "SAMPLE_CAP", 25)
    rows = {"spectral_pass": [], "ward_tree": []}
    spectral_pass, ward_tree = tr.spectral_pass, cl.ward_tree
    monkeypatch.setattr(tr, "spectral_pass", lambda X, cfg: (
        rows["spectral_pass"].append(len(X)) or spectral_pass(X, cfg)))
    monkeypatch.setattr(cl, "ward_tree", lambda X: rows["ward_tree"].append(len(X)) or ward_tree(X))
    cfg = small_cfg(granularities=(10, 4), use_global=True, s_prime=8, epochs=1)
    trainer = tr.Trainer(scenes, [], cfg)
    heads = trainer.recluster()
    assert rows == {"spectral_pass": [25], "ward_tree": [25, 25]}
    assert [(h.branch, h.k) for h in heads] == [
        ("local", 10), ("local", 4), ("global", 10), ("global", 4)]
    sp = np.concatenate([dm.pool_by_superpoint(tr.backbone_forward(trainer.backbone, s.points)[0],
                                               s.superpoints) for s in scenes])
    sample = np.sort(make_rng(cfg.seed, "ward-subsample").choice(n, size=25, replace=False))
    tree = ward_tree(sp[sample])
    for h in heads:
        assert h.sp_labels.shape == (n,)
        if h.branch == "local":
            cut = cl.cut_tree(tree, h.k)
            mus = np.stack([sp[sample][cut == c].mean(axis=0) for c in range(h.k)])
            want = ((sp[:, None, :] - mus[None]) ** 2).sum(axis=2).argmin(axis=1)
            want[sample] = cut
            assert np.array_equal(h.sp_labels, want)
        assert h.centroids.tobytes() == dm.pool_by_superpoint(sp, h.sp_labels).tobytes()
    # and a round of the global branch trains on the held-out rows' labels
    _, heads, reports = tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    assert len(heads) == 4 and len(reports) == 1 and np.isfinite(reports[0].total)
    assert (tmp_path / "out" / "pred.ltlb").exists()


def test_pipeline_epochs_zero(tmp_path):
    _mini_corpus(tmp_path)
    cfg = small_cfg(epochs=0)
    _, heads, reports = tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    assert reports == []
    assert [(h.branch, h.k) for h in heads] == [("local", 4)]
    assert os.path.exists(tmp_path / "out" / "checkpoint.ltck")
    assert os.path.exists(tmp_path / "out" / "prototypes.ltfm")


def test_pipeline_report_additivity(tmp_path):
    _mini_corpus(tmp_path)
    cfg = small_cfg(lambda_entity=0.5, use_global=True, epochs=2, s_prime=8)
    _, _, reports = tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    for r in reports:
        assert r.total == pytest.approx(r.local + r.global_ + 0.5 * r.entity)
        assert r.entity > 0.0
        assert r.global_ > 0.0


def test_pipeline_loss_descends(tmp_path):
    _mini_corpus(tmp_path)
    cfg = small_cfg(epochs=6, recluster_every=6, lr0=1e-2)
    _, _, reports = tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    assert reports[-1].local < reports[0].local


def test_pipeline_deterministic(tmp_path):
    _mini_corpus(tmp_path)
    cfg = small_cfg(lambda_entity=0.5, use_global=True, epochs=2, s_prime=8)
    tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "a")
    tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "b")
    for rel in ("checkpoint.ltck", "losses.tsv", "prototypes.ltfm", "pred.ltlb"):
        fa = (tmp_path / "a" / rel).read_bytes()
        fb = (tmp_path / "b" / rel).read_bytes()
        assert fa == fb, rel


def test_warmup_uses_distill_targets(tmp_path):
    _mini_corpus(tmp_path, distill_dim=8)  # must match feat_dim
    cfg = small_cfg(warmup_epochs=3, lr0=1e-2, epochs=0)
    tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    lines = (tmp_path / "out" / "warmup.tsv").read_text().strip().splitlines()
    assert len(lines) == 3
    vals = [float(l.split("\t")[1]) for l in lines]
    assert vals[-1] < vals[0]


def test_baseline_matches_degenerate_pipeline(tmp_path):
    # run_baseline is run_pipeline with four settings overridden; the reference
    # is the baseline's own loop, fed a config in which every one of them is on
    _mini_corpus(tmp_path, distill_dim=8)
    for epochs in (0, 4, 3):
        cfg = small_cfg(lambda_entity=0.5, use_global=True, granularities=(6, 3), s_prime=8,
                        epochs=epochs, recluster_every=2, warmup_epochs=2)
        ref, got = tmp_path / f"r{epochs}", tmp_path / f"b{epochs}"
        _, _, rr = reference_baseline(cfg, tmp_path / "corpus", ref)
        _, heads, rb = tr.run_baseline(cfg, tmp_path / "corpus", got)
        assert rr == rb
        assert [(h.branch, h.k) for h in heads] == [("local", 3)]
        for rel in ("checkpoint.ltck", "losses.tsv", "prototypes.ltfm", "pred.ltlb"):
            assert (ref / rel).read_bytes() == (got / rel).read_bytes(), (epochs, rel)
        rounds = sorted(os.listdir(got / "checkpoints"))
        assert rounds == [f"round_{i:03d}.ltck" for i in range(max(1, -(-epochs // 2)))]
        assert not (got / "warmup.tsv").exists()
        assert not (got / "bank").exists()


def test_head_order_of_checkpoints_and_prototypes(tmp_path):
    # one flat head list sets the order of checkpoint tensors and prototype rows
    _mini_corpus(tmp_path)
    levels = (6, 4, 3)
    cfg = small_cfg(use_global=True, granularities=levels, s_prime=8, epochs=3,
                    recluster_every=2)
    _, heads, _ = tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    order = [(b, k) for b in ("local", "global") for k in levels]
    assert [(h.branch, h.k) for h in heads] == order
    want = [f"backbone/layer{i}/{p}" for i in range(2) for p in ("weight", "bias")]
    want += [f"{b}/k{k}/{t}" for b, k in order for t in ("centroids", "sp_labels")]
    out = tmp_path / "out"
    for rel in ("checkpoint.ltck", "checkpoints/round_000.ltck", "checkpoints/round_001.ltck"):
        assert list(tr.load_checkpoint(out / rel)) == want, rel
    ck = tr.load_checkpoint(out / "checkpoint.ltck")
    protos = dm.read_feature_matrix(out / "prototypes.ltfm")
    assert protos.shape == (2 * sum(levels), cfg.feat_dim)
    assert np.array_equal(protos, np.concatenate([ck[f"{b}/k{k}/centroids"] for b, k in order]))


def test_checkpoint_round_trip(tmp_path):
    b = tr.init_backbone(4, [6], 5, seed=1)
    rng = np.random.default_rng(2)
    local = tr.Head("local", 3, rng.normal(size=(3, 5)), np.array([0, 1, 2, 0]))
    path = tmp_path / "c.ltck"
    tr.save_checkpoint(path, b, [local])
    back = tr.load_checkpoint(path)
    assert np.allclose(back["backbone/layer0/weight"], b.weights[0], atol=1e-6)
    assert np.allclose(back["local/k3/centroids"], local.centroids, atol=1e-6)
    assert np.array_equal(back["local/k3/sp_labels"][0], [0, 1, 2, 0])


def _saved_checkpoint(tmp_path):
    path = tmp_path / "c.ltck"
    tr.save_checkpoint(path, tr.init_backbone(4, [6], 5, seed=1))
    return path, path.read_bytes()


def test_checkpoint_write_interrupted_midway_keeps_previous(tmp_path):
    class Unwritable:  # fails when its turn comes, after the backbone tensors
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("interrupted")

    b = tr.init_backbone(3, [4], 5, seed=0)
    path = tmp_path / "c.ltck"
    tr.save_checkpoint(path, b)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        tr.save_checkpoint(path, b, [tr.Head("local", 2, Unwritable(), np.zeros(1, np.int64))])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["c.ltck"]


def test_checkpoint_truncation_is_typed(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    # header (16 bytes), then the first entry: name length, name, dims, payload
    (name_len,) = np.frombuffer(data[16:24], dtype="<u8")
    first_entry_end = 24 + int(name_len) + 16 + 4 * 6 * 4
    for cut in range(first_entry_end + 1):
        path.write_bytes(data[:cut])
        with pytest.raises(TruncationError):
            tr.load_checkpoint(path)


def test_checkpoint_huge_name_length_is_truncation(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    path.write_bytes(data[:16] + struct.pack("<Q", 2 ** 62) + data[24:])
    with pytest.raises(TruncationError, match="bytes needed"):
        tr.load_checkpoint(path)


def test_checkpoint_bad_name_utf8(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    path.write_bytes(data[:24] + b"\xff" + data[25:])
    with pytest.raises(FormatError, match="UTF-8"):
        tr.load_checkpoint(path)


def test_predict_labels_shape(tmp_path):
    scenes, _ = _mini_corpus(tmp_path)
    b = tr.init_backbone(scenes[0].points.shape[1], [8], 8, seed=0)
    protos = np.random.default_rng(0).normal(size=(5, 8))
    pred = tr.predict_labels(b, scenes, protos)
    assert pred.shape == (sum(s.n_points for s in scenes),)
    assert pred.min() >= 0
    assert pred.max() < 5


def _unequal_scenes(sizes, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return [SceneBundle(f"s{i}", rng.normal(size=(n, dim)), np.arange(n) % 4)
            for i, n in enumerate(sizes)]


@pytest.mark.parametrize("helpers", [0, 1])
@pytest.mark.parametrize("sizes", [[57], [30, 91, 5, 64], [64, 1, 64],
                                   [B - 1, B, 1, B + 1, 2 * B + 1]])
def test_predict_labels_matches_serial_reference(monkeypatch, helpers, sizes):
    # scenes of up to ROW_BLOCK rows are one matmul; larger ones are scored in
    # blocks, with a one-row tail joined to the block before at B + 1 and 2B + 1 rows
    monkeypatch.setattr(tr, "SCENE_HELPERS", helpers)
    scenes = _unequal_scenes(sizes)
    b = tr.init_backbone(3, [16], 6, seed=1)
    protos = np.random.default_rng(2).normal(size=(11, 6))
    P = protos / np.linalg.norm(protos, axis=1, keepdims=True)
    want = np.concatenate([np.argmax(tr.backbone_forward(b, s.points)[0] @ P.T, axis=1)
                           for s in scenes])
    assert np.array_equal(tr.predict_labels(b, scenes, protos), want)


def test_predict_labels_peak_memory(monkeypatch):
    # one 20,000-row scene, 440 prototypes: 4 MiB hold one 512-row block of
    # activations and of logits (1.8 MB), but not the whole scene's
    # activations (hidden and output layers, 20,000 x 32 x 8 B each)
    # beside a block of logits
    monkeypatch.setattr(tr, "SCENE_HELPERS", 0)
    scenes = _unequal_scenes([20000], dim=6)
    b = tr.init_backbone(6, [32], 32, seed=0)
    protos = np.random.default_rng(1).normal(size=(440, 32))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr.predict_labels(b, scenes, protos)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_row_blocks_tile_rows_with_no_one_row_tail(monkeypatch):
    for block in (ev.ROW_BLOCK, 1, 2, 7):
        monkeypatch.setattr(ev, "ROW_BLOCK", block)
        for n in sorted({1, 2, B - 1, B, B + 1, B + 2, 2 * B, 2 * B + 1}):
            blocks = ev.row_blocks(n)
            assert [lo for lo, _ in blocks] == [0, *(hi for _, hi in blocks[:-1])]
            assert blocks[-1][1] == n
            assert all(hi - lo == block for lo, hi in blocks[:-1]), (block, n)
            assert min(n, 2) <= blocks[-1][1] - blocks[-1][0] <= block + 1, (block, n)
    assert ev.row_blocks(0) == []


def test_blocked_passes_score_no_one_row_block(monkeypatch):
    # at B + 1 and 2B + 1 rows a one-row last block would be a gemv call,
    # which rounds differently from a row of the whole-scene matmul
    rows = []
    forward, l2_rows = tr.backbone_forward, ev._l2_rows

    def counting_forward(b, X):
        rows.append(len(X))
        return forward(b, X)

    def counting_l2_rows(X):
        rows.append(len(X))
        return l2_rows(X)

    monkeypatch.setattr(tr, "backbone_forward", counting_forward)
    monkeypatch.setattr(ev, "_l2_rows", counting_l2_rows)
    scenes = _unequal_scenes([B + 1, 2 * B + 1])
    b = tr.init_backbone(3, [16], 6, seed=1)
    protos = np.random.default_rng(2).normal(size=(11, 6))
    tr.predict_labels(b, scenes, protos)
    assert sorted(rows) == [B, B + 1, B + 1]  # B + 1 rows: one block; 2B + 1: B, then B + 1
    rows.clear()
    F = np.random.default_rng(3).normal(size=(2 * B + 1, 6))
    ev.max_cosine_labels(F, protos)
    assert sorted(rows) == [11, B, B + 1]  # the prototypes, then the feature blocks


def test_labels_do_not_depend_on_row_block(monkeypatch):
    # prototypes 10 + j and 16 + j are exact duplicates of point rows[j], one on
    # each side of a block boundary at 7, 512 and 4,096 rows: the lowest index
    # must win there, and every label must be the same at every block size
    rows = [6, 7, 511, 512, 4095, 4096]
    rng = np.random.default_rng(7)
    scene = _unequal_scenes([4097])[0]
    b = tr.init_backbone(3, [16], 6, seed=1)
    Y = tr.backbone_forward(b, scene.points)[0]
    F = rng.normal(size=(4097, 6)).astype(np.float32)
    protos = [np.vstack([rng.normal(size=(10, 6)), X[rows], X[rows]]) for X in (Y, F)]
    want = None
    for block in (1, 7, 512, 4096):
        monkeypatch.setattr(ev, "ROW_BLOCK", block)
        got = [tr.predict_labels(b, [scene], protos[0]), ev.max_cosine_labels(F, protos[1])]
        for labels in got:
            assert labels[rows].tolist() == list(range(10, 16)), block
        want = got if want is None else want
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), block


@pytest.mark.parametrize("helpers", [0, 1])
def test_predict_labels_error_waits_for_the_helper(monkeypatch, helpers):
    monkeypatch.setattr(tr, "SCENE_HELPERS", helpers)
    scenes = _unequal_scenes([20, 20, 20, 20])
    scenes[1].points[:] = 0.0  # zero bias below: scene 1 gives zero output rows
    b = tr.Backbone([np.random.default_rng(0).normal(size=(3, 5))], [np.zeros(5)])
    running, started = [], []
    forward = tr.backbone_forward

    def slow_forward(backbone, X):
        running.append(1)
        started.append(X)
        try:
            time.sleep(0.05)
            return forward(backbone, X)
        finally:
            running.pop()

    monkeypatch.setattr(tr, "backbone_forward", slow_forward)
    with pytest.raises(NormalizationError):
        tr.predict_labels(b, scenes, np.eye(5))
    assert running == []  # every call that started has returned
    # scene 3 never starts: no item starts after a raise; with a helper the
    # caller may take scene 2 before scene 1's raise is recorded
    assert len(started) == 2 if helpers == 0 else len(started) <= 3


def test_predict_labels_rejects_no_scenes_and_wrong_prototype_dim():
    b = tr.init_backbone(3, [4], 5, seed=0)
    with pytest.raises(LangtailError):
        tr.predict_labels(b, [], np.eye(5))
    with pytest.raises(ShapeError):
        tr.predict_labels(b, _unequal_scenes([4, 4]), np.eye(4))
