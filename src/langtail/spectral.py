"""Superpoint affinity graph, normalized Laplacian, and frequency-domain
pattern grouping for the global branch.

The graph spans a round's sample of at most train.SAMPLE_CAP superpoints
(Trainer.recluster's). Each eigenvector's largest-magnitude entry is made
positive, or pattern grouping would not be deterministic. LAPACK failing to
converge is a NumericError (exit 3).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .bank import _l2_rows
from .cluster import _sq_dists, _symmetrize, kmeans
from .data_model import group_incidence, pool_masks
from .errors import ConfigError, DegenerateGraphError, NumericError, ShapeError


def build_affinity(F) -> np.ndarray:
    """Dense affinity a_ij = exp(-||f_i - f_j||^2) with zero diagonal.

    Rows are L2-normalized first so the squared distances stay in [0, 4] and
    the exponential does not collapse to zero.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] < 2:
        raise ConfigError("affinity graph needs at least 2 superpoints")
    F = _l2_rows(F)
    A = _sq_dists(F, F)
    np.exp(np.negative(A, out=A), out=A)
    np.fill_diagonal(A, 0.0)
    return A


def normalized_laplacian(A) -> np.ndarray:
    """L = D^{-1/2} (D - A) D^{-1/2}; symmetric, eigenvalues in [0, 2]. A
    float64 A is overwritten: L is built in its memory."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"affinity must be square, got {A.shape}")
    deg = A.sum(axis=1)
    if np.any(deg <= 0):
        raise DegenerateGraphError("graph has an isolated node (zero degree)")
    d = 1.0 / np.sqrt(deg)
    A *= -d[:, None]  # -(A d_i) is (-A) d_i exactly
    A *= d[None, :]
    np.fill_diagonal(A, np.diag(A) + 1.0)
    return _symmetrize(A, lambda a, b: 0.5 * (a + b))


def eigendecompose(L) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition: (lam, U), lam ascending and column
    U[:, s] its eigenvector, whose largest-magnitude entry is positive. dsyevd
    writes U over a C-ordered float64 L, passed as L.T: L in Fortran order."""
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ShapeError(f"matrix must be square, got {L.shape}")
    strips = range(0, L.shape[0], 256)  # strips of rows, not n x n temporaries
    if not all(np.allclose(L[i:i + 256], L[:, i:i + 256].T, atol=1e-10) for i in strips):
        raise ShapeError("matrix is not symmetric")
    try:
        lam, U = scipy.linalg.eigh(L.T, driver="evd", overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigendecompose: no convergence on {len(L)} nodes ({e})") from e
    pivots = np.concatenate([np.argmax(np.abs(U[:, i:i + 256]), axis=0) for i in strips])
    U *= np.where(U[pivots, np.arange(U.shape[1])] < 0, -1.0, 1.0)
    return lam, U


def graph_fourier(U, F) -> np.ndarray:
    """Project features into the graph frequency domain of the eigenvectors
    U: row s is the frequency response of pattern U[:, s]."""
    F = np.asarray(F, dtype=np.float64)
    if U.shape[0] != F.shape[0]:
        raise ShapeError(f"basis has {U.shape[0]} nodes but features have {F.shape[0]} rows")
    return U.T @ F


def group_patterns(U, F_feq, s_prime: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """K-means over frequency rows, then average the eigenvectors of each
    cluster into a refined global pattern. Returns (V, assignment): V is
    (n, s_prime), column s the mean of the eigenvectors with assignment s (zero
    if duplicate rows starved cluster s despite k-means' re-seeding)."""
    F_feq = np.asarray(F_feq, dtype=np.float64)
    n = U.shape[0]
    if F_feq.shape[0] != n:
        raise ShapeError("frequency feature rows must match basis size")
    if s_prime > n:
        raise ConfigError(f"s_prime={s_prime} exceeds {n} patterns")
    _, assign, _ = kmeans(F_feq, s_prime, seed=seed)
    return pool_masks([group_incidence(assign, s_prime)], [U.T])[0].T, assign
