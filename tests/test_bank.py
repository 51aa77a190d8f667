"""Entity bank: masked aggregation, Gram alignment, contrastive loss."""

import numpy as np
import pytest

from conftest import assert_grad_close, central_diff
from langtail import bank as bank_mod
from langtail import data_model as dm
from langtail import train as tr
from langtail.bank import (
    SemanticBank,
    _l2_rows,
    aggregate_entity_features,
    align_gram,
    align_gram_loss,
    derive_categories,
    entity_contrastive_loss,
    gram,
    load_bank,
    mask_incidence,
    sample_entity_batch,
    save_bank,
)
from langtail.errors import (
    ConfigError,
    DataError,
    EmptyMaskError,
    FormatError,
    IoError,
    ShapeError,
)


def _scene(scene_id, n, d=3):
    return dm.SceneBundle(scene_id, np.zeros((n, d), dtype=np.float32),
                          np.zeros(n, dtype=np.int64))


def test_aggregate_double_average():
    scenes = [_scene("a", 4), _scene("b", 3)]
    fa = np.array([[0.0, 0], [2, 2], [4, 0], [9, 9]])
    fb = np.array([[10.0, 0], [0, 0], [20, 10]])
    e = dm.EntityRecord(1, "x", np.ones(4),
                        masks=[("a", np.array([0, 1, 2])), ("b", np.array([0, 2]))])
    # two overlapping masks in one scene pool as one mask of 5 entries, so
    # point 1 counts twice
    twice = dm.EntityRecord(2, "y", np.ones(4),
                            masks=[("a", np.array([0, 1, 2])), ("a", np.array([1, 3])),
                                   ("b", np.array([1]))])
    M = mask_incidence(scenes, [e, twice])
    out = aggregate_entity_features(M, [fa, fb], [e, twice])
    # scene means (2, 2/3) and (15, 5); entity mean (8.5, 17/6)
    assert np.allclose(out[0], [8.5, 17.0 / 6.0])
    # scene means (17/5, 13/5) and (0, 0); entity mean (1.7, 1.3)
    assert np.allclose(out[1], [1.7, 1.3])

    # the training anchors pool by the same rule: the entity loss of a step
    # is the contrastive loss of the L2-normalised bank features
    rng = np.random.default_rng(0)
    P, w = _l2_rows(rng.normal(size=(2, 2))), np.array([1.0, 0.5])
    loss, _, n_anchors = tr._entity_anchor_grads([fa, fb], (np.array([0, 1]), P, w), M, tau=0.5)
    assert n_anchors == 2
    assert loss == entity_contrastive_loss(_l2_rows(out), P, w, tau=0.5)[0]


def test_aggregate_skips_absent_scenes():
    scenes = [_scene("a", 2)]
    fa = np.array([[1.0, 1], [3, 3]])
    e = dm.EntityRecord(1, "x", np.ones(4),
                        masks=[("a", np.array([0])), ("zzz", np.array([0]))])
    out = aggregate_entity_features(mask_incidence(scenes, [e]), [fa], [e])
    assert np.allclose(out[0], [1.0, 1.0])


def test_aggregate_errors():
    scenes = [_scene("a", 2)]
    fa = np.ones((2, 2))
    orphan = dm.EntityRecord(1, "x", np.ones(4), masks=[("zzz", np.array([0]))])
    with pytest.raises(EmptyMaskError):
        aggregate_entity_features(mask_incidence(scenes, [orphan]), [fa], [orphan])
    out_of_range = dm.EntityRecord(2, "y", np.ones(4), masks=[("a", np.array([5]))])
    with pytest.raises(DataError, match="mask index 5 out of range for scene a of 2 points"):
        mask_incidence(scenes, [out_of_range])
    with pytest.raises(ShapeError):
        aggregate_entity_features(mask_incidence(scenes, [orphan]), [np.ones((3, 2))], [orphan])


def test_gram():
    X = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(gram(X), [[1.0, 1.0], [1.0, 2.0]])


def test_align_gram_loss_gradient_fd():
    rng = np.random.default_rng(0)
    F = rng.normal(size=(5, 3))
    G_t = gram(rng.normal(size=(5, 3)))
    _, grad = align_gram_loss(F, G_t)
    num = central_diff(lambda x: align_gram_loss(x, G_t)[0], F)
    assert_grad_close(grad, num)


def test_align_gram_fixed_point(monkeypatch):
    monkeypatch.setattr(bank_mod, "ALIGN_STEPS", 5)
    rng = np.random.default_rng(1)
    F = rng.normal(size=(4, 4))
    F = F / np.linalg.norm(F, axis=1, keepdims=True)
    bank = align_gram(F, F, range(4))
    assert bank.alignment_loss_trace[0] == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(bank.B, F)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("steps", [1, 5, 8000])
def test_align_gram_stays_at_an_exact_fixed_point(monkeypatch, steps):
    # unit basis rows: _l2_rows changes no bit, so the Gram loss is exactly 0;
    # every step is accepted, and the growing step size must stay finite
    monkeypatch.setattr(bank_mod, "ALIGN_STEPS", steps)
    F = np.eye(5)[[3, 0, 4]]
    bank = align_gram(F, F, [7, 8, 9])
    assert bank.alignment_loss_trace == [0.0] * (steps + 1)
    assert bank.B.tobytes() == F.tobytes()


def test_align_gram_converges():
    rng = np.random.default_rng(2)
    F_e = rng.normal(size=(20, 64))
    # feature dim must cover the target Gram rank or the loss floor is nonzero
    F_m = rng.normal(size=(20, 32)) * 0.1
    assert (bank_mod.ALIGN_STEPS, bank_mod.ALIGN_LR) == (500, 1e-2)
    bank = align_gram(F_m, F_e, range(20))
    trace = bank.alignment_loss_trace
    assert trace[-1] <= 1e-3 * trace[0]
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_align_gram_orthogonal_invariance():
    rng = np.random.default_rng(3)
    F = rng.normal(size=(6, 4))
    G_t = gram(rng.normal(size=(6, 4)))
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    l1, _ = align_gram_loss(F, G_t)
    l2, _ = align_gram_loss(F @ Q, G_t)
    assert abs(l1 - l2) <= 1e-10 * max(1.0, abs(l1))


def test_align_gram_row_mismatch():
    with pytest.raises(ShapeError):
        align_gram(np.ones((3, 2)), np.ones((4, 2)), range(3))


def _bank(T=10, C=4, seed=0, categories=None):
    rng = np.random.default_rng(seed)
    return SemanticBank(B=rng.normal(size=(T, C)), entity_ids=list(range(T)),
                        categories=categories)


def test_sample_entity_batch_deterministic():
    bank = _bank()
    s1 = sample_entity_batch(bank, 5, seed=123)
    s2 = sample_entity_batch(bank, 5, seed=123)
    assert all(np.array_equal(a, b) for a, b in zip(s1, s2))
    idx, P, _ = s1
    # sorted, unique, L2-normalised rows of the bank
    assert np.all(np.diff(idx) > 0)
    assert np.array_equal(P, _l2_rows(bank.B[idx]))


@pytest.mark.parametrize("batch_size", [1, 5, 9, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_weights_are_per_category_scalars(batch_size, seed):
    # categories of 5, 4, 1 and 2 entities: a sample holds mixed counts
    cats = np.array([0, 1, 0, 2, 0, 1, 3, 0, 1, 3, 0, 1])
    idx, _, w = sample_entity_batch(_bank(T=12, categories=cats), batch_size, seed=seed)
    n_of = {c: list(cats[idx]).count(c) for c in set(cats[idx])}
    assert w.dtype == np.float64
    assert [float(x) for x in w] == [1.0 / np.sqrt(float(n_of[c])) for c in cats[idx]]


def test_bank_without_categories_derives_them():
    rng = np.random.default_rng(6)
    B = rng.normal(size=(8, 5))
    B[5] = 2.0 * B[1]  # an alias of row 1 shares its category
    bank = SemanticBank(B=B, entity_ids=list(range(8)))
    assert np.array_equal(bank.categories, derive_categories(B))
    assert bank.categories[5] == bank.categories[1]
    given = np.arange(8)[::-1]
    assert SemanticBank(B=B, entity_ids=list(range(8)), categories=given).categories is given


def test_sample_entity_batch_range_check():
    with pytest.raises(ConfigError):
        sample_entity_batch(_bank(T=3), 4, seed=0)


def test_contrastive_loss_hand_case():
    # anchors identical to prototypes, two orthogonal entries, tau=1:
    # logits row [1, 0], loss = log(1 + e^-1)
    P = np.eye(2)
    loss, _ = entity_contrastive_loss(P, P, np.ones(2), tau=1.0)
    assert loss == pytest.approx(np.log(1.0 + np.exp(-1.0)))


def test_contrastive_loss_weighting():
    P = np.eye(2)
    l1, g1 = entity_contrastive_loss(P, P, np.ones(2), tau=1.0)
    l2, g2 = entity_contrastive_loss(P, P, 2.0 * np.ones(2), tau=1.0)
    assert l2 == pytest.approx(2.0 * l1)
    assert np.allclose(g2, 2.0 * g1)


def test_contrastive_loss_gradient_fd():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A, C = 6, 3
        P = rng.normal(size=(A, C))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        w = rng.uniform(0.5, 2.0, size=A)
        X = rng.normal(size=(A, C))
        _, grad = entity_contrastive_loss(X, P, w, tau=0.3)
        num = central_diff(lambda x: entity_contrastive_loss(x, P, w, tau=0.3)[0], X)
        assert_grad_close(grad, num)


def test_contrastive_loss_validation():
    P = np.eye(2)
    with pytest.raises(ConfigError):
        entity_contrastive_loss(P, P, np.ones(2), tau=0.0)
    with pytest.raises(ShapeError):
        entity_contrastive_loss(np.ones((3, 2)), P, np.ones(2))


def test_bank_save_load_round_trip(tmp_path):
    bank = _bank(T=5, C=3)
    bank.alignment_loss_trace = [3.0, 1.0, 0.5]
    save_bank(tmp_path / "bank", bank)
    back = load_bank(tmp_path / "bank")
    assert np.allclose(back.B, bank.B, atol=1e-6)  # f32 on disk
    assert back.entity_ids == bank.entity_ids
    assert np.allclose(back.alignment_loss_trace, bank.alignment_loss_trace)


@pytest.mark.parametrize("name, text, lineno", [
    ("entity_ids.tsv", "0\n1\nthree\n", 3),
    ("entity_ids.tsv", "0\n1\t1\n", 2),
    ("trace.tsv", "0\t3.0\n1\n", 2),
    ("trace.tsv", "0\tnan?\n", 1),
])
def test_load_bank_bad_text_row_is_format_error(tmp_path, name, text, lineno):
    save_bank(tmp_path / "bank", _bank(T=5, C=3))
    (tmp_path / "bank" / name).write_text(text)
    with pytest.raises(FormatError, match=rf"{name.replace('.', '[.]')}:{lineno}: "):
        load_bank(tmp_path / "bank")


@pytest.mark.parametrize("name", ["bank_aligned.ltfm", "entity_ids.tsv", "trace.tsv"])
def test_load_bank_missing_file_is_io_error(tmp_path, name):
    save_bank(tmp_path / "bank", _bank(T=5, C=3))
    (tmp_path / "bank" / name).unlink()
    with pytest.raises(IoError, match=name.replace(".", "[.]")):
        load_bank(tmp_path / "bank")


def test_load_bank_rows_must_match_entity_ids(tmp_path):
    save_bank(tmp_path / "bank", _bank(T=5, C=3))
    (tmp_path / "bank" / "entity_ids.tsv").write_text("0\n1\n")
    with pytest.raises(DataError, match="5 rows but 2 entity ids"):
        load_bank(tmp_path / "bank")
