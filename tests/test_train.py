"""Backbone gradients, optimizer, schedule, and the training loop."""

import os
import struct

import numpy as np
import pytest

from conftest import assert_grad_close, central_diff
from langtail import train as tr
from langtail.bank import SemanticBank, entity_contrastive_loss, sample_entity_batch
from langtail.data_model import EntityRecord, SceneBundle
from langtail.errors import (
    ConfigError,
    DataError,
    EmptyBatchError,
    FormatError,
    NormalizationError,
    ShapeError,
    TruncationError,
)
from langtail.synth import SynthConfig, generate_corpus
from oracle_heads import reference_head_step


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
    assert cfg.lr_min == 1e-8
    assert cfg.poly_power == 0.9
    assert cfg.tau == 0.07
    with pytest.raises(ConfigError):
        tr.TrainConfig(lambda_entity=-0.1)
    with pytest.raises(ConfigError):
        tr.TrainConfig(lr0=1e-9, lr_min=1e-8)
    with pytest.raises(ConfigError):
        tr.TrainConfig(granularities=(20, 80))


def test_spectral_pass_checks_memory_before_allocating():
    # 20000 superpoints would need 7 dense 20000 x 20000 arrays (22 GB)
    with pytest.raises(ConfigError, match="spectral_pass"):
        tr.spectral_pass(np.ones((20000, 2)), tr.TrainConfig())


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


def head_ce(F, mus, labels, weight=1.0):
    """head_ce_loss with fresh accumulators: (losses, feature grads, mu grads)."""
    grads = [np.zeros_like(F) for _ in mus]
    losses, gmus = tr.head_ce_loss(F, mus, labels, grads, weight)
    return losses, grads, gmus


def test_head_ce_gradient_fd():
    rng = np.random.default_rng(6)
    F = rng.normal(size=(9, 4))
    mu = rng.normal(size=(3, 4))
    labels = rng.integers(0, 3, size=9)
    labels[2] = -1  # ignored
    (loss,), (gf,), (gmu,) = head_ce(F, [mu], [labels])
    assert loss > 0
    assert np.allclose(gf[2], 0.0)
    assert_grad_close(gf, central_diff(
        lambda x: head_ce(x, [mu], [labels])[0][0], F))
    assert_grad_close(gmu, central_diff(
        lambda m: head_ce(F, [m], [labels])[0][0], mu))


def test_head_ce_several_heads_fd():
    # heads 0 and 2 share one accumulator; the k=1 head has zero loss and gradients
    rng = np.random.default_rng(8)
    F = rng.normal(size=(11, 5))
    mus = [rng.normal(size=(k, 5)) for k in (3, 1, 4)]
    labels = [rng.integers(0, k, size=11) for k in (3, 1, 4)]
    for y in labels:
        y[[0, 7]] = -1
    shared, alone = np.zeros_like(F), np.zeros_like(F)
    losses, gmus = tr.head_ce_loss(F, mus, labels, [shared, alone, shared], weight=2.5)
    assert losses[1] == 0.0 and not alone.any() and not gmus[1].any()
    assert not shared[[0, 7]].any()

    def total(x, heads=(0, 2)):
        return 2.5 * sum(head_ce(x, mus, labels)[0][h] for h in heads)

    assert_grad_close(shared, central_diff(total, F))
    for h in (0, 2):
        assert_grad_close(gmus[h], central_diff(
            lambda m, h=h: head_ce(F, mus[:h] + [m] + mus[h + 1:], labels)[0][h], mus[h]))


def test_head_ce_all_ignored():
    with pytest.raises(EmptyBatchError):
        head_ce(np.ones((2, 2)), [np.ones((2, 2))], [np.array([-1, -1])])


def test_head_ce_rejects_heads_ignoring_different_rows():
    with pytest.raises(DataError):
        head_ce(np.ones((2, 2)), [np.ones((2, 2))] * 2, [np.array([0, -1]), np.array([0, 1])])
    with pytest.raises(ShapeError):
        head_ce(np.ones((2, 2)), [np.ones((2, 3))], [np.array([0, 1])])


def _head_case(seed, sizes, dim, ks, ignore):
    rng = np.random.default_rng(seed)
    feats = []
    for n in sizes:
        f = rng.normal(size=(n, dim))
        feats.append(f / np.linalg.norm(f, axis=1, keepdims=True))
    mus = [rng.normal(size=(k, dim)) for k in ks]
    labels = []
    for n in sizes:
        dropped = rng.random(n) < ignore
        scene = [rng.integers(0, k, size=n) for k in ks]
        for y in scene:
            y[dropped] = -1
        labels.append(scene)
    return feats, labels, mus


@pytest.mark.parametrize("sizes,dim,ks,branches,ignore", [
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
])
def test_head_step_matches_per_head_reference(sizes, dim, ks, branches, ignore):
    feats, labels, mus = _head_case(len(sizes) * 7 + dim, sizes, dim, ks, ignore)
    got = tr.head_step(feats, labels, mus, list(branches))
    want = reference_head_step(feats, labels, mus, list(branches))
    assert got[0] == want[0]
    for g, w in zip(got[1] + got[2], want[1] + want[2]):
        assert np.array_equal(g, w)


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
    sample = SemanticBank(B=rng.normal(size=(4, 6)), entity_ids=list(range(4)),
                          F_e=np.zeros((4, 1)))
    batch = sample_entity_batch(sample, 4, seed=1, class_hint=np.array([0, 0, 1, 1]))
    loss, grads, n_anchors = tr._entity_anchor_grads(feats, batch, entities, scenes, tau=0.2)

    by_id = {s.scene_id: j for j, s in enumerate(scenes)}
    pooled = [np.concatenate([feats[by_id[sid]][idx] for sid, idx in entities[e].masks]).mean(0)
              for e in batch.entity_indices]
    norms = np.linalg.norm(pooled, axis=1)
    anchors = np.stack(pooled) / norms[:, None]
    want_loss, grad_anchor = entity_contrastive_loss(anchors, batch, tau=0.2)
    want = [np.zeros_like(f) for f in feats]
    for a, e in enumerate(batch.entity_indices):
        g = grad_anchor[a]
        gz = (g - (g @ anchors[a]) * anchors[a]) / norms[a]
        hits = entities[e].masks
        for sid, idx in hits:
            np.add.at(want[by_id[sid]], idx, gz[None, :] / sum(i.size for _, i in hits))
    assert n_anchors == 4 and loss == want_loss
    for g, w in zip(grads, want):
        assert np.array_equal(g, w)


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
    assert tr.poly_lr(5, 0, cfg) == pytest.approx(1e-4)


def test_adamw_single_step_hand_computed():
    cfg = tr.TrainConfig(weight_decay=0.1, beta1=0.9, beta2=0.999)
    p = np.array([1.0])
    opt = tr.AdamW([p], cfg, eps=1e-8)
    g = np.array([2.0])
    opt.step([g], lr=0.01)
    # m=0.2, v=0.004; bias-corrected m=2, v=4; update=2/(2+1e-8)
    want = 1.0 - 0.01 * (2.0 / (2.0 + 1e-8) + 0.1 * 1.0)
    assert p[0] == pytest.approx(want, rel=1e-12)


def test_adamw_decoupled_decay_without_gradient():
    cfg = tr.TrainConfig(weight_decay=0.5)
    p = np.array([4.0])
    opt = tr.AdamW([p], cfg)
    opt.step([np.zeros(1)], lr=0.1)
    assert p[0] == pytest.approx(4.0 - 0.1 * 0.5 * 4.0)


def _mini_corpus(tmp_path, **kw):
    base = dict(n_classes=3, points_per_scene=150, n_scenes=3, seed=21)
    base.update(kw)
    return generate_corpus(SynthConfig(**base), str(tmp_path / "corpus"))


def test_corpus_state_offsets_and_broadcast(tmp_path):
    scenes, _ = _mini_corpus(tmp_path)
    cs = tr.CorpusState(scenes)
    assert cs.sp_offsets[0] == 0
    assert cs.sp_offsets[1] == scenes[0].n_superpoints
    assert cs.total_superpoints == sum(s.n_superpoints for s in scenes)
    sp_labels = np.arange(cs.total_superpoints)
    got = cs.broadcast(sp_labels, 1)
    assert np.array_equal(got, cs.sp_offsets[1] + scenes[1].superpoints)


def test_build_pseudo_labels_shapes(tmp_path):
    scenes, _ = _mini_corpus(tmp_path)
    cs = tr.CorpusState(scenes)
    rng = np.random.default_rng(0)
    sp = rng.normal(size=(cs.total_superpoints, 8))
    spec = rng.normal(size=(cs.total_superpoints, 5))
    local, glob = tr.build_pseudo_labels(sp, spec, (10, 4), seed=0)
    for model, space_dim in ((local, 8), (glob, 8)):
        assert model.levels == [10, 4]
        for k in (10, 4):
            assert model.centroids[k].shape == (k, space_dim)
            assert model.sp_labels[k].shape == (cs.total_superpoints,)
            assert len(set(model.sp_labels[k])) == k
    # global branch clusters in spectral space but its heads live in sp space
    k = 10
    want = np.stack([
        sp[glob.sp_labels[k] == c].mean(axis=0) for c in range(k)
    ])
    assert np.allclose(glob.centroids[k], want)
    local_only, none = tr.build_pseudo_labels(sp, None, (4,), 0, use_global=False)
    assert none is None


def test_pipeline_epochs_zero(tmp_path):
    _mini_corpus(tmp_path)
    cfg = small_cfg(epochs=0)
    _, models, reports = tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    assert reports == []
    assert models[0] is not None
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
    cfg = small_cfg(epochs=6, recluster_every=6, lr0=1e-2, lr_min=1e-9)
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
    cfg = small_cfg(warmup_epochs=3, lr0=1e-2, lr_min=1e-9, epochs=0)
    tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "out")
    lines = (tmp_path / "out" / "warmup.tsv").read_text().strip().splitlines()
    assert len(lines) == 3
    vals = [float(l.split("\t")[1]) for l in lines]
    assert vals[-1] < vals[0]


def test_baseline_matches_degenerate_pipeline(tmp_path):
    _mini_corpus(tmp_path)
    cfg = small_cfg(epochs=4, recluster_every=2)
    _, _, rp = tr.run_pipeline(cfg, tmp_path / "corpus", tmp_path / "p")
    _, _, rb = tr.run_baseline(cfg, tmp_path / "corpus", tmp_path / "b")
    assert rp == rb
    assert (tmp_path / "p" / "losses.tsv").read_bytes() == \
        (tmp_path / "b" / "losses.tsv").read_bytes()


def test_checkpoint_round_trip(tmp_path):
    b = tr.init_backbone(4, [6], 5, seed=1)
    rng = np.random.default_rng(2)
    local = tr.ClusterModel("local", [3], {3: rng.normal(size=(3, 5))},
                            {3: np.array([0, 1, 2, 0])})
    path = tmp_path / "c.ltck"
    tr.save_checkpoint(path, b, (local, None))
    back = tr.load_checkpoint(path)
    assert np.allclose(back["backbone/layer0/weight"], b.weights[0], atol=1e-6)
    assert np.allclose(back["local/k3/centroids"], local.centroids[3], atol=1e-6)
    assert np.array_equal(back["local/k3/sp_labels"][0], [0, 1, 2, 0])


def _saved_checkpoint(tmp_path):
    path = tmp_path / "c.ltck"
    tr.save_checkpoint(path, tr.init_backbone(4, [6], 5, seed=1))
    return path, path.read_bytes()


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
