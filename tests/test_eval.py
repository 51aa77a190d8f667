"""Confusion, matching, metrics, prototype counts, and the tail report."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from langtail import data_model as dm
from langtail import evaluation as ev
from langtail import train as tr
from langtail.errors import ConfigError, DataError, EmptyBatchError, ShapeError
from oracle_hungarian import reference_hungarian


def test_confusion_hand_tally():
    pred = np.array([0, 0, 1, 1, 1])
    gt = np.array([0, 1, 1, 1, -1])
    cm = ev.confusion(pred, gt)
    assert cm.dtype == np.int64 and cm.tolist() == [[1, 1], [0, 2]]


def test_confusion_shape_mismatch():
    with pytest.raises(ShapeError):
        ev.confusion(np.zeros(3), np.zeros(4))


def test_confusion_matches_add_at():
    rng = np.random.default_rng(5)
    for n_pred, n_gt, n in [(1, 1, 1), (3, 5, 40), (9, 4, 500), (40, 8, 2000)]:
        pred = rng.integers(0, n_pred, size=n)
        gt = rng.integers(-1, n_gt, size=n)
        want = np.zeros((pred.max() + 1, n_gt), dtype=np.int64)
        keep = gt >= 0
        np.add.at(want, (pred[keep], gt[keep]), 1)
        got = ev.confusion(pred, gt, n_gt=n_gt)
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("pred,gt,sizes", [
    ([0, -1, 1], [0, 1, 1], {}),  # the -1 once landed in the last row
    ([0, -1, 1], [0, 1, -1], {}),  # also once the unlabelled points are dropped
    ([0, 1, 1], [0, 2, 1], dict(n_gt=2)),
    ([0, 1, 1], [-1, 2, 1], dict(n_gt=2)),
])
def test_confusion_out_of_range_label_is_data_error(pred, gt, sizes):
    with pytest.raises(DataError):
        ev.confusion(pred, gt, **sizes)


def test_confusion_ignores_any_prediction_on_unlabelled_points():
    cm = ev.confusion([5, -1, 1], [-1, -1, 1], n_gt=2)
    assert cm.tolist() == [[0, 0], [0, 1]] + [[0, 0]] * 4


def test_confusion_peak_memory_without_ignored_labels():
    # 10^6 int64 labels, none -1: the codes are one n x 8-byte array, with no
    # copy of pred or gt (copying both took the peak to about 3 x n x 8 bytes)
    n = 10**6
    rng = np.random.default_rng(8)
    pred, gt = rng.integers(0, 440, size=n), rng.integers(0, 8, size=n)
    want = np.bincount(pred * 8 + gt, minlength=440 * 8).reshape(440, 8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cm = ev.confusion(pred, gt, n_gt=8)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 8, f"{peak / (n * 8):.2f} x n x 8 bytes"
    assert np.array_equal(cm, want)


def test_hungarian_hand_cases():
    assert ev.hungarian([[1.0, 2.0], [2.0, 1.0]]) == [(0, 0), (1, 1)]
    assert ev.hungarian([[2.0, 1.0], [1.0, 2.0]]) == [(0, 1), (1, 0)]
    # all ties: lexicographically smallest optimal assignment
    assert ev.hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
    # rectangular, more rows than columns: injective over the smaller side
    got = ev.hungarian([[0.0, 9.0], [9.0, 0.0], [5.0, 5.0]])
    assert got == [(0, 0), (1, 1)]


def test_hungarian_tie_break_lexicographic():
    # two optimal assignments, pick the one with the smaller column for row 0
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert ev.hungarian(cost) == [(0, 0), (1, 1)]
    cost = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    assert ev.hungarian(cost) == [(0, 0), (1, 1), (2, 2)]


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        C = rng.normal(size=(n, m))
        got = ev.hungarian(C)
        rows = min(n, m)
        best = min(
            sum(C[list(r), list(c)])
            for r in itertools.combinations(range(n), rows)
            for c in itertools.permutations(range(m), rows)
        )
        assert sum(C[p, g] for p, g in got) == pytest.approx(best, abs=1e-9)


def _assignment_cases(rng):
    """Cost matrices of both orientations, 1 x m and n x 1 included: integers
    with many ties, normal floats and negated Zipf counts (confusion-like)."""
    shapes = [(1, 1), (1, 6), (6, 1), (2, 9), (9, 2)]
    shapes += [tuple(int(x) for x in rng.integers(1, 14, size=2)) for _ in range(95)]
    for n, m in shapes:
        yield rng.integers(0, 3, size=(n, m)).astype(np.float64)
        yield rng.normal(size=(n, m))
        yield -np.minimum(rng.zipf(1.5, size=(n, m)), 10**6).astype(np.float64)


def test_hungarian_matches_unpruned_reference():
    rng = np.random.default_rng(23)
    for C in _assignment_cases(rng):
        assert ev.hungarian(C) == reference_hungarian(C), C


def test_hungarian_prunes_columns(monkeypatch):
    # a diagonal-heavy confusion matrix, as evaluation sees it: one solve for
    # the optimum and at most one per row of the smaller side
    calls = []

    def counting(C):
        calls.append(C.shape)
        return linear_sum_assignment(C)

    monkeypatch.setattr(ev, "linear_sum_assignment", counting)
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 40, size=(12, 8))
    counts[np.arange(8), np.arange(8)] += 1000
    cost = -counts.astype(np.float64)
    assert ev.hungarian(cost) == reference_hungarian(cost)
    assert len(calls) <= 1 + 8


def test_hungarian_rejects_bad_input():
    with pytest.raises(ShapeError):
        ev.hungarian(np.ones(3))
    with pytest.raises(DataError):
        ev.hungarian(np.array([[np.nan]]))


def test_match_and_score_hand_case():
    r = ev.match_and_score(np.array([[5, 0], [2, 3]]))
    assert r.mapping.tolist() == [0, 1]
    assert r.oa == pytest.approx(0.8)
    assert r.macc == pytest.approx((5 / 7 + 1.0) / 2)
    assert r.miou == pytest.approx((5 / 7 + 3 / 5) / 2)
    assert r.per_class_count.tolist() == [7, 3]


def test_match_and_score_merge_vs_drop():
    # pseudo class 2 is unmatched; merge folds it into gt 0, drop discards it
    cm = np.array([[4, 0], [0, 4], [2, 1]])
    merged = ev.match_and_score(cm, unmatched="merge")
    dropped = ev.match_and_score(cm, unmatched="drop")
    assert merged.mapping.tolist() == [0, 1, 0]
    assert dropped.mapping.tolist() == [0, 1, -1]
    assert merged.oa == pytest.approx(10 / 11)
    assert dropped.oa == pytest.approx(8 / 11)
    assert merged.oa >= dropped.oa


def test_match_and_score_validation():
    with pytest.raises(EmptyBatchError):
        ev.match_and_score(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ConfigError):
        ev.match_and_score(np.eye(2, dtype=np.int64), unmatched="banana")


def test_metrics_invariant_under_pseudo_relabel():
    rng = np.random.default_rng(3)
    gt = rng.integers(0, 4, size=500)
    pred = rng.integers(0, 9, size=500)
    perm = rng.permutation(9)
    r1 = ev.match_and_score(ev.confusion(pred, gt, n_gt=4))
    r2 = ev.match_and_score(ev.confusion(perm[pred], gt, n_gt=4))
    assert r1.oa == pytest.approx(r2.oa)
    assert r1.macc == pytest.approx(r2.macc)
    assert r1.miou == pytest.approx(r2.miou)


def _heads(levels, C=4):
    rng = np.random.default_rng(0)
    return [tr.Head(branch, k, rng.normal(size=(k, C)), np.zeros(0, np.int64))
            for branch in ("local", "global") for k in levels]


@pytest.mark.parametrize("levels,total", [
    ((120, 80, 20), 440),
    ((120, 80, 12), 424),
    ((120, 40, 12), 344),
    ((120, 40, 16), 352),
])
def test_prototype_totals(levels, total):
    protos = tr.concat_prototypes(_heads(levels))
    assert protos.shape[0] == total


def test_prototype_transfer_is_max_cosine():
    heads = _heads((5, 3), C=4)
    rng = np.random.default_rng(1)
    F = rng.normal(size=(40, 4))
    P = tr.concat_prototypes(heads)
    got = ev.max_cosine_labels(F, P)
    Pn = P / np.linalg.norm(P, axis=1, keepdims=True)
    Fn = F / np.linalg.norm(F, axis=1, keepdims=True)
    assert np.array_equal(got, np.argmax(Fn @ Pn.T, axis=1))
    with pytest.raises(ShapeError):
        ev.max_cosine_labels(np.ones((3, 7)), P)


def test_max_cosine_labels_in_row_blocks():
    # a full ROW_BLOCK block, then a one-row tail joined to the block before
    rng = np.random.default_rng(3)
    F = rng.normal(size=(2 * ev.ROW_BLOCK + 1, 16))
    P = rng.normal(size=(50, 16))
    Fn = F / np.linalg.norm(F, axis=1, keepdims=True)
    Pn = P / np.linalg.norm(P, axis=1, keepdims=True)
    assert np.array_equal(ev.max_cosine_labels(F, P), np.argmax(Fn @ Pn.T, axis=1))


def test_max_cosine_labels_peak_memory(tmp_path):
    # a float32 feature file of 200,000 x 32: normalising it whole made two
    # float64 copies (51 MB each); normalised block by block the peak stays
    # below one
    path = tmp_path / "features.ltfm"
    rng = np.random.default_rng(4)
    dm.write_feature_matrix(path, rng.standard_normal((200_000, 32), dtype=np.float32))
    F = dm.read_feature_matrix(path)
    P = rng.normal(size=(440, 32))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        labels = ev.max_cosine_labels(F, P)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < F.size * 8, f"{peak / 2**20:.1f} MiB"
    Fn = F[:1000] / np.linalg.norm(F[:1000].astype(np.float64), axis=1, keepdims=True)
    Pn = P / np.linalg.norm(P, axis=1, keepdims=True)
    assert np.array_equal(labels[:1000], np.argmax(Fn @ Pn.T, axis=1))


def test_tail_report_ordering_and_absorption():
    r = ev.EvalReport(
        mapping=np.arange(3), oa=0.5, macc=0.5, miou=0.5,
        per_class_iou=np.array([0.9, 0.01, 0.4]),
        per_class_recall=np.array([0.9, 0.0, 0.5]),
        per_class_count=np.array([100, 5, 20]),
    )
    rows = ev.tail_report(r)
    assert [x["class"] for x in rows] == [0, 2, 1]
    assert [x["absorbed"] for x in rows] == [False, False, True]


def test_write_report(tmp_path):
    # the whole text: a header, one row per class, the summary as a last row
    r = ev.match_and_score(np.array([[5, 0, 1], [2, 3, 0], [0, 1, 4]]))
    ev.write_report(tmp_path / "report.tsv", r)
    assert (tmp_path / "report.tsv").read_text() == (
        "class\tcount\tiou\trecall\n"
        "0\t7\t0.625000\t0.714286\n"
        "1\t4\t0.500000\t0.750000\n"
        "2\t5\t0.666667\t0.800000\n"
        "# OA=0.750000\tmAcc=0.754762\tmIoU=0.597222\n")
