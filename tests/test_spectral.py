"""Affinity graph, normalized Laplacian, Fourier basis, pattern grouping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_dense
import oracle_pool
from langtail.cluster import _sq_dists
from langtail.errors import ConfigError, DegenerateGraphError, ShapeError
from langtail.spectral import (
    build_affinity,
    eigendecompose,
    graph_fourier,
    group_patterns,
    normalized_laplacian,
)


def test_affinity_known_value():
    # rows normalize to (1, 0) and (0, 1): squared distance 2
    A = build_affinity(np.array([[1.0, 0.0], [0.0, 3.0]]))
    assert A[0, 1] == pytest.approx(np.exp(-2.0))
    assert A[0, 0] == 0.0
    assert np.allclose(A, A.T)


def test_affinity_row_normalization():
    # after row normalization the two rows coincide, distance 0, affinity 1
    A = build_affinity(np.array([[0.0, 1.0], [0.0, 5.0]]))
    assert A[0, 1] == pytest.approx(1.0)


def test_affinity_needs_two_rows():
    with pytest.raises(ConfigError):
        build_affinity(np.ones((1, 3)))


def test_laplacian_two_node():
    L = normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
    lam = np.linalg.eigvalsh(L)
    assert abs(lam[0] - 0.0) < 1e-10
    assert abs(lam[1] - 2.0) < 1e-10


def test_laplacian_complete_graph_spectrum():
    # K3 with unit weights: normalized Laplacian eigenvalues {0, 3/2, 3/2}
    A = np.ones((3, 3)) - np.eye(3)
    lam = np.linalg.eigvalsh(normalized_laplacian(A))
    assert np.allclose(lam, [0.0, 1.5, 1.5], atol=1e-10)


def test_laplacian_rejects_isolated_node():
    with pytest.raises(DegenerateGraphError):
        normalized_laplacian(np.array([[0.0, 0.0], [0.0, 0.0]]))


def test_laplacian_rejects_non_square():
    with pytest.raises(ShapeError):
        normalized_laplacian(np.ones((2, 3)))


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(0)
    F = rng.normal(size=(30, 4))
    L = normalized_laplacian(build_affinity(F))
    lam, U = eigendecompose(L.copy())
    recon = U @ np.diag(lam) @ U.T
    rel = np.linalg.norm(recon - L) / np.linalg.norm(L)
    assert rel < 1e-8
    assert np.all(np.diff(lam) >= -1e-12)
    # sign convention: largest-magnitude entry of each column is positive
    pivots = np.argmax(np.abs(U), axis=0)
    assert np.all(U[pivots, np.arange(30)] >= 0)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ShapeError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_graph_fourier_parseval():
    rng = np.random.default_rng(1)
    F = rng.normal(size=(25, 6))
    _, U = eigendecompose(normalized_laplacian(build_affinity(F)))
    F_feq = graph_fourier(U, F)
    assert np.linalg.norm(F_feq) == pytest.approx(np.linalg.norm(F), rel=1e-8)
    # inverse transform recovers the signal
    assert np.allclose(U @ F_feq, F, atol=1e-8)


def test_graph_fourier_shape_check():
    _, U = eigendecompose(np.eye(3))
    with pytest.raises(ShapeError):
        graph_fourier(U, np.ones((4, 2)))


def test_fiedler_recovers_planted_blobs():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(50):
        n1, n2 = int(rng.integers(5, 15)), int(rng.integers(5, 15))
        F = np.concatenate([
            rng.normal(0.0, 0.05, (n1, 3)) + np.array([1.0, 0.0, 0.0]),
            rng.normal(0.0, 0.05, (n2, 3)) + np.array([0.0, 1.0, 0.0]),
        ])
        _, U = eigendecompose(normalized_laplacian(build_affinity(F)))
        fiedler = U[:, 1]
        side = fiedler >= 0
        if len(set(side[:n1])) == 1 and len(set(side[n1:])) == 1 \
                and side[0] != side[-1]:
            hits += 1
    assert hits == 50


def test_group_patterns_hand_case():
    # two identical frequency rows cluster together; V column is their mean
    _, U = eigendecompose(np.diag([0.0, 1.0, 2.0]))
    F_feq = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    V, assign = group_patterns(U, F_feq, 2, seed=0)
    assert len(set(assign[:2])) == 1
    assert assign[2] != assign[0]
    assert np.allclose(V[:, assign[0]], U[:, :2].mean(axis=1))
    assert np.allclose(V[:, assign[2]], U[:, 2])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 60), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_group_patterns_has_the_bits_of_the_per_column_mean(n, d, seed):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, d))
    _, U = eigendecompose(normalized_laplacian(build_affinity(F)))
    assert U.flags.f_contiguous  # eigh's layout, which the reference needs
    s_prime = int(rng.integers(1, n + 1))
    V, assign = group_patterns(U, graph_fourier(U, F), s_prime, seed=seed)
    assert np.array_equal(V, oracle_pool.pattern_means(U, assign, s_prime))


def test_group_patterns_gives_a_starved_pattern_a_zero_column():
    # two distinct frequency rows cannot fill three patterns: k-means re-seeds
    # its empty clusters in vain, and a pattern with no eigenvector is zero
    _, U = eigendecompose(np.diag([0.0, 1.0, 2.0, 3.0]))
    F_feq = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    V, assign = group_patterns(U, F_feq, 3, seed=0)
    starved = sorted(set(range(3)) - set(assign.tolist()))
    assert starved
    assert not V[:, starved].any()
    assert np.array_equal(V, oracle_pool.pattern_means(U, assign, 3))


def test_group_patterns_rejects_oversized():
    _, U = eigendecompose(np.eye(3))
    with pytest.raises(ConfigError):
        group_patterns(U, np.ones((3, 2)), 4)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 40, 256, 257, 600])
def test_in_place_stages_match_out_of_place_oracles(n):
    # each stage reuses one n x n buffer; the values must be the plain
    # formulas' bit for bit, a duplicate row (distance 0) included
    rng = np.random.default_rng(n)
    F = rng.normal(size=(n, 6))
    F[n // 2] = F[0]
    C = rng.normal(size=(5, 6))
    assert_same_bits(_sq_dists(F, C), oracle_dense.sq_dists(F, C))
    assert_same_bits(_sq_dists(F, F), oracle_dense.sq_dists(F, F))
    A, want_A = build_affinity(F), oracle_dense.affinity(F)
    assert_same_bits(A, want_A)
    L, want_L = normalized_laplacian(A), oracle_dense.laplacian(want_A)
    assert L is A
    assert_same_bits(L, want_L)
    lam, U = eigendecompose(L)
    want_lam, want_U = oracle_dense.eigendecompose(want_L)
    assert np.shares_memory(U, L)
    assert_same_bits(lam, want_lam)
    assert_same_bits(U, want_U)


def test_eigendecompose_keeps_an_f_ordered_input():
    # dsyevd overwrites only a C-ordered L (handed over as L.T); any other
    # input is copied first and gives the same basis
    L = normalized_laplacian(build_affinity(np.random.default_rng(3).normal(size=(20, 4))))
    L_f = np.asfortranarray(L)
    lam_f, U_f = eigendecompose(L_f)
    assert np.array_equal(L_f, L)
    lam, U = eigendecompose(L)
    assert_same_bits(lam_f, lam)
    assert_same_bits(U_f, U)
