"""K-means and Ward agglomerative clustering with multi-granularity truncation.

Conventions pinned here (and by the oracle tests):
  - The Ward tree is scipy's linkage(X, "ward") matrix (Muellner's
    nearest-neighbour chain in C); its row i merges two nodes into n_leaves + i.
  - With exact ties every merge is still a minimum-cost merge of the partition
    at that step, but which tied pair goes first follows scipy's chain.
  - Ward clusters every row given; a round's sample is Trainer.recluster's.
  - k-means uses greedy farthest-point seeding from a seeded PRNG; empty
    clusters are re-seeded at the point farthest from its centroid, and once
    every point sits on its centroid, k-means stops with the empty clusters.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import linkage

from .data_model import group_incidence, pool_by_superpoint, pool_masks
from .errors import ConfigError, DataError
from .rng import make_rng

# Largest total size of the dense n x n float64 arrays one step may hold at
# once. The reference machine has 7 GB of RAM; the rest is left for the corpus,
# the backbone and the other arrays of a run.
DENSE_BUDGET_BYTES = 2 << 30
# peak resident n x n float64 arrays of ward_tree, by VmHWM: scipy's condensed
# distances and nn_chain's copy of them, n(n - 1)/2 each (0.99)
WARD_DENSE_ARRAYS = 1


def check_dense_budget(n: int, arrays: int, what: str) -> None:
    """Raise ConfigError before allocating `arrays` dense n x n float64 arrays
    that would not fit DENSE_BUDGET_BYTES."""
    need = n * n * 8 * arrays
    if need > DENSE_BUDGET_BYTES:
        raise ConfigError(
            f"{what} on {n} rows needs {need / 2**30:.1f} GiB for {arrays} dense "
            f"{n}x{n} arrays, over the {DENSE_BUDGET_BYTES / 2**30:.0f} GiB budget"
        )


def check_granularities(levels) -> list[int]:
    levels = [int(k) for k in levels]
    if not levels:
        raise ConfigError("granularity set is empty")
    if any(k < 1 for k in levels):
        raise ConfigError(f"granularities must be >= 1, got {levels}")
    if any(a >= b for a, b in zip(levels[1:], levels)):
        raise ConfigError(f"granularities must be strictly descending, got {levels}")
    return levels


KMEANS_MAX_ITERS = 100


def kmeans(X, k: int, seed: int = 0):
    """Lloyd's algorithm with farthest-point init, at most KMEANS_MAX_ITERS rounds.

    Returns (centroids (k, C), assignments (n,), inertia_history). Rows with
    fewer distinct values than k leave clusters empty: their centroid rows
    are zero, the others the means of their points.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1 or k > n:
        raise ConfigError(f"k={k} out of range for {n} rows")

    centroids = X[_farthest_point_seeds(X, k, seed)].copy()
    assign = np.zeros(n, dtype=np.int64)
    history = []
    for _ in range(KMEANS_MAX_ITERS):
        d2 = _sq_dists(X, centroids)
        new_assign = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), new_assign].sum())
        history.append(inertia)

        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            # re-seed each empty cluster at the currently worst-fit point
            worst = d2[np.arange(n), new_assign]
            if not worst.max() > 0:  # no point to re-seed on: every one sits on its centroid
                return pool_masks([group_incidence(new_assign, k)], [X])[0], new_assign, history
            for c in np.flatnonzero(counts == 0):
                far = int(np.argmax(worst))
                centroids[c] = X[far]
                worst[far] = -1.0
            continue

        if history[:-1] and np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
        centroids = pool_by_superpoint(X, assign)  # every cluster has a point
    return centroids, assign, history


def _farthest_point_seeds(X, k, seed):
    rng = make_rng(seed, "kmeans-init")
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    min_d2 = _sq_dists(X, X[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        min_d2 = np.minimum(min_d2, _sq_dists(X, X[nxt][None, :])[:, 0])
    return np.array(chosen, dtype=np.int64)


def _sq_dists(X, C):
    """||x_i - c_j||^2 clipped at 0, built in the one array (2X)C^T."""
    d2 = (2.0 * X) @ C.T
    np.subtract((X * X).sum(axis=1)[:, None], d2, out=d2)
    d2 += (C * C).sum(axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _symmetrize(M, op):
    """M[i, j] = op(M[i, j], M[j, i]) in place, a strip of 256 rows at a time."""
    for i in range(0, M.shape[0], 256):
        upper, lower = M[i:i + 256, i:], M[i:, i:i + 256].T
        upper[...], lower[...] = op(upper, lower), op(lower, upper)
    return M


def ward_tree(X) -> np.ndarray:
    """Ward agglomeration of the rows of X: scipy's (n - 1, 4) linkage matrix."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ConfigError(f"ward_tree needs >= 2 rows, got {n}")
    if not np.isfinite(X).all():
        raise DataError("ward_tree input holds NaN or inf")
    check_dense_budget(n, WARD_DENSE_ARRAYS, "ward_tree")
    return linkage(X, "ward")


def cut_tree(Z, k: int) -> np.ndarray:
    """The k clusters left by undoing the last k-1 merges of linkage matrix Z,
    labelled 0, 1, ... in order of each cluster's smallest leaf."""
    n = len(Z) + 1
    if k < 1 or k > n:
        raise ConfigError(f"k={k} out of range for {n} leaves")
    pairs = Z[:n - k, :2].astype(np.int64).tolist()
    root = np.arange(2 * n - 1, dtype=np.int64)
    for step in range(n - k - 1, -1, -1):  # a node's root is set before its children's
        left, right = pairs[step]
        root[left] = root[right] = root[n + step]
    _, first, labels = np.unique(root[:n], return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[labels]


def multi_granularity_labels(X, levels):
    """Cut one Ward tree of the rows of X at every granularity level.

    Returns one label array (n,) per level, in the given level order.
    """
    levels = check_granularities(levels)
    if max(levels) > len(X):
        raise ConfigError(f"granularity {max(levels)} exceeds {len(X)} rows")
    tree = ward_tree(X)
    return [cut_tree(tree, k) for k in levels]
