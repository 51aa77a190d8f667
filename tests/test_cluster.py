"""K-means, Ward tree, and multi-granularity cuts against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtail.cluster import (
    _symmetrize,
    check_dense_budget,
    check_granularities,
    cut_tree,
    kmeans,
    multi_granularity_labels,
    ward_tree,
)
from langtail.errors import ConfigError, DataError

from oracle_ward import (
    greedy_ward_excess,
    labels_to_partition,
    oracle_agglomerate,
    reference_ward_centroid_scan,
    reference_ward_scan,
    tree_merges,
    ward_cost,
)


def test_check_granularities():
    assert check_granularities((120, 80, 20)) == [120, 80, 20]
    with pytest.raises(ConfigError):
        check_granularities(())
    with pytest.raises(ConfigError):
        check_granularities((80, 80))
    with pytest.raises(ConfigError):
        check_granularities((20, 80))
    with pytest.raises(ConfigError):
        check_granularities((5, 0))


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(0, 0.1, (30, 2)), rng.normal(10, 0.1, (20, 2))])
    _, assign, hist = kmeans(X, 2, seed=1)
    assert len(set(assign[:30])) == 1
    assert len(set(assign[30:])) == 1
    assert assign[0] != assign[-1]
    assert hist[-1] < 5.0


def test_kmeans_inertia_monotone():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 3))
    _, _, hist = kmeans(X, 5, seed=0)
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_k_equals_n():
    X = np.arange(8.0).reshape(4, 2)
    _, assign, hist = kmeans(X, 4, seed=0)
    assert sorted(assign) == [0, 1, 2, 3]
    assert hist[-1] == 0.0


def test_kmeans_stops_when_no_point_can_fill_an_empty_cluster():
    # two distinct rows for three clusters: re-seeding cannot fill the third,
    # so k-means stops at once with the distinct rows apart, and its
    # centroids are the means of that assignment (zero for the empty one)
    X = np.array([[5.0, 5.0], [5.0, 5.0], [1.0, 0.0], [1.0, 0.0]])
    centroids, assign, hist = kmeans(X, 3, seed=0)
    assert len(hist) == 1 and hist[-1] == 0.0
    assert assign[0] == assign[1] != assign[2] == assign[3]
    assert np.array_equal(centroids[assign], X)
    empty = sorted(set(range(3)) - set(assign.tolist()))
    assert len(empty) == 1 and not centroids[empty].any()


def test_kmeans_validation():
    X = np.ones((3, 2))
    with pytest.raises(ConfigError):
        kmeans(X, 0)
    with pytest.raises(ConfigError):
        kmeans(X, 4)


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 4))
    c1, a1, _ = kmeans(X, 6, seed=42)
    c2, a2, _ = kmeans(X, 6, seed=42)
    assert np.array_equal(c1, c2)
    assert np.array_equal(a1, a2)


def test_ward_cost_formula():
    # 1*2/(1+2) * ||0 - 3||^2 = 6
    assert ward_cost(1, np.array([0.0]), 2, np.array([3.0])) == pytest.approx(6.0)


def test_ward_tree_hand_case():
    d = ward_tree(np.array([[0.0], [1.0], [10.0], [11.0]]))
    merges = tree_merges(d)
    assert merges[0] == (0, 1, 0.5, 2)
    assert merges[1] == (2, 3, 0.5, 2)
    left, right, cost, size = merges[2]
    assert (left, right, size) == (4, 5, 4)
    assert cost == pytest.approx(100.0)
    assert cut_tree(d, 2).tolist() == [0, 0, 1, 1]
    assert cut_tree(d, 1).tolist() == [0, 0, 0, 0]
    assert cut_tree(d, 4).tolist() == [0, 1, 2, 3]


def test_ward_tie_break_lexicographic():
    # three equidistant-cost pairs; smallest (left, right) node pair must win
    merges = tree_merges(ward_tree(np.array([[0.0], [2.0], [4.0], [6.0]])))
    assert merges[0][:2] == (0, 1)
    assert merges[1][:2] == (2, 3)


def test_ward_matches_oracle_random():
    rng = np.random.default_rng(12345)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        want_merges, want_parts = oracle_agglomerate(X)
        tree = ward_tree(X)
        for (l1, r1, c1, s1), (l2, r2, c2, s2) in zip(tree_merges(tree), want_merges):
            assert (l1, r1, s1) == (l2, r2, s2)
            assert c1 == pytest.approx(c2, rel=1e-8, abs=1e-10)
        for k in range(1, n + 1):
            assert labels_to_partition(cut_tree(tree, k)) == want_parts[k]


def test_ward_matches_oracle_with_exact_ties():
    # dyadic spacings keep every mean and cost exact in binary, so both the
    # oracle and the implementation see identical ties
    X = np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0], [30.0], [31.0]])
    want_merges, want_parts = oracle_agglomerate(X)
    tree = ward_tree(X)
    merges = tree_merges(tree)
    assert [(l, r, s) for l, r, _, s in merges] == [
        (l, r, s) for l, r, _, s in want_merges
    ]
    for k in range(1, 9):
        assert labels_to_partition(cut_tree(tree, k)) == want_parts[k]
    # four tied singleton merges resolve left to right
    assert [m[:2] for m in merges[:4]] == [(0, 1), (2, 3), (4, 5), (6, 7)]
    # then three tied pair merges (cost 100 each), again smallest ids first
    assert merges[4][:2] == (8, 9)


@pytest.mark.slow
@pytest.mark.parametrize("n", [2, 3, 17, 64, 150, 300])
@pytest.mark.parametrize("kind", ["normal", "grid", "lattice"])
def test_ward_matches_full_scan_reference(kind, n):
    # "normal" inputs have no ties: the merges equal the full rescan's, costs
    # to rounding. Integer grids are full of exact ties whose order is not
    # pinned ("grid" draws with repeats, so zero-cost ties; "lattice" distinct
    # points of a 20^d grid): there each merge must be a minimum-cost merge of
    # the partition at its step
    rng = np.random.default_rng(n)
    for d in (2, 3):
        if kind == "normal":
            X = rng.normal(size=(n, d))
        elif kind == "grid":
            X = rng.integers(0, 8, size=(n, d)).astype(np.float64)
        else:
            cells = rng.choice(20 ** d, size=n, replace=False)
            X = np.stack(np.unravel_index(cells, (20,) * d), axis=1).astype(np.float64)
        got = tree_merges(ward_tree(X))
        top = max(c for _, _, c, _ in got)
        if kind == "normal":
            want = reference_ward_scan(X)
            assert [(l, r, s) for l, r, _, s in got] == [(l, r, s) for l, r, _, s in want]
            for (_, _, c1, _), (_, _, c2, _) in zip(got, want):
                assert c1 == pytest.approx(c2, rel=1e-12, abs=1e-12 * top)
        else:
            assert greedy_ward_excess(X, got).max() <= 1e-12 * top


@pytest.mark.parametrize("n", [
    2, 17, 150, 300,
    pytest.param(800, marks=pytest.mark.slow),
])
@pytest.mark.parametrize("d", [2, 3, 32])
def test_ward_recurrence_matches_centroid_scan(d, n):
    # recurrence costs round differently from costs recomputed from the
    # centroids; on inputs without exact ties the merges must agree. scipy's
    # recurrence runs on distances, so a small cost keeps fewer relative
    # digits: it is held to rounding of the tree's largest cost
    X = np.random.default_rng(1000 * d + n).normal(size=(n, d))
    got = tree_merges(ward_tree(X))
    want = reference_ward_centroid_scan(X)
    assert [(l, r, s) for l, r, _, s in got] == [(l, r, s) for l, r, _, s in want]
    top = max(c for _, _, c, _ in want)
    for (_, _, c1, _), (_, _, c2, _) in zip(got, want):
        assert c1 == pytest.approx(c2, rel=1e-12, abs=1e-12 * top)


def test_dense_budget_checked_before_allocating():
    with pytest.raises(ConfigError, match="budget"):
        check_dense_budget(10 ** 6, 1, "test")
    with pytest.raises(ConfigError, match="ward_tree"):
        ward_tree(np.zeros((20000, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ward_tree_rejects_non_finite_input(bad):
    X = np.random.default_rng(0).normal(size=(6, 2))
    X[3, 1] = bad
    with pytest.raises(DataError, match="ward_tree"):
        ward_tree(X)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_symmetrize_matches_the_transpose_formula(n):
    M = np.random.default_rng(n).normal(size=(n, n))
    for op in (np.minimum, lambda a, b: 0.5 * (a + b)):
        want = op(M, M.T)
        got = _symmetrize(M.copy(), op)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_cut_labels_smallest_leaf_order():
    # cluster containing leaf 0 gets label 0, and so on by smallest member
    d = ward_tree(np.array([[0.0], [10.0], [0.1], [10.1]]))
    labels = cut_tree(d, 2)
    assert labels[0] == 0
    assert labels[1] == 1
    assert labels[2] == 0
    assert labels[3] == 1


def test_cut_tree_range_checks():
    d = ward_tree(np.eye(3))
    with pytest.raises(ConfigError):
        cut_tree(d, 0)
    with pytest.raises(ConfigError):
        cut_tree(d, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 20), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_cut_partition_sizes_and_nesting(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    tree = ward_tree(X)
    prev = None
    for k in range(n, 0, -1):
        labels = cut_tree(tree, k)
        # labels 0, 1, 2, ... first appear in that order by leaf index
        values, first = np.unique(labels, return_index=True)
        assert np.array_equal(values, np.arange(k)) and np.all(np.diff(first) > 0)
        if prev is not None:
            # coarser cut only merges: each fine cluster maps into one coarse one
            for v in set(prev):
                assert len(set(labels[prev == v])) == 1
        prev = labels


def test_multi_granularity_consistent_with_single_tree():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    out = multi_granularity_labels(X, (10, 4, 2))
    tree = ward_tree(X)
    assert len(out) == 3
    for k, labels in zip((10, 4, 2), out):
        assert np.array_equal(labels, cut_tree(tree, k))


def test_multi_granularity_rejects_oversized_level():
    with pytest.raises(ConfigError):
        multi_granularity_labels(np.eye(3), (4,))
