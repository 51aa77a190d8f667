"""K-means and Ward agglomerative clustering with multi-granularity truncation.

Conventions pinned here (and by the oracle tests):
  - Ward merge cost is the raw ESS increase
    delta(a, b) = n_a * n_b / (n_a + n_b) * ||mu_a - mu_b||^2 (no square root),
    updated after each merge by the Lance-Williams recurrence, not from centroids.
  - Ties break on the smallest (left_node, right_node) id pair, left < right,
    with new nodes numbered n_leaves + merge_index.
  - k-means uses greedy farthest-point seeding from a seeded PRNG; empty
    clusters are re-seeded at the point farthest from its centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import pool_by_superpoint
from .errors import ConfigError, ShapeError
from .rng import make_rng

# Largest total size of the dense n x n float64 arrays one step may hold at
# once. The reference machine has 7 GB of RAM; the rest is left for the corpus,
# the backbone and the other arrays of a run.
DENSE_BUDGET_BYTES = 2 << 30
# peak resident n x n float64 arrays of ward_tree, by ru_maxrss (cost + 2 strips: 1.35)
WARD_DENSE_ARRAYS = 2
# Ward input rows above which a subsample is clustered; 8192^2 * 8 B * 2 = 1 GiB
DEFAULT_SAMPLE_CAP = 8192


def check_dense_budget(n: int, arrays: int, what: str) -> None:
    """Raise ConfigError before allocating `arrays` dense n x n float64 arrays
    that would not fit DENSE_BUDGET_BYTES."""
    need = n * n * 8 * arrays
    if need > DENSE_BUDGET_BYTES:
        raise ConfigError(
            f"{what} on {n} rows needs {need / 2**30:.1f} GiB for {arrays} dense "
            f"{n}x{n} arrays, over the {DENSE_BUDGET_BYTES / 2**30:.0f} GiB budget"
        )


@dataclass
class Dendrogram:
    """Ward merge tree: leaves are 0..n-1, merge i creates node n_leaves + i."""

    n_leaves: int
    merges: list[tuple[int, int, float, int]]

    def __post_init__(self):
        if len(self.merges) != self.n_leaves - 1:
            raise ShapeError(
                f"dendrogram with {self.n_leaves} leaves needs {self.n_leaves - 1} merges, "
                f"got {len(self.merges)}"
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


def kmeans(X, k: int, seed: int = 0, max_iters: int = 100):
    """Lloyd's algorithm with farthest-point init.

    Returns (centroids (k, C), assignments (n,), inertia_history).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1 or k > n:
        raise ConfigError(f"k={k} out of range for {n} rows")
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")

    centroids = X[_farthest_point_seeds(X, k, seed)].copy()
    assign = np.zeros(n, dtype=np.int64)
    history = []
    for _ in range(max_iters):
        d2 = _sq_dists(X, centroids)
        new_assign = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), new_assign].sum())
        history.append(inertia)

        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            # re-seed each empty cluster at the currently worst-fit point
            worst = d2[np.arange(n), new_assign]
            for c in np.flatnonzero(counts == 0):
                far = int(np.argmax(worst))
                centroids[c] = X[far]
                worst[far] = -1.0
            continue

        if history[:-1] and np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
        for c in range(k):
            centroids[c] = X[assign == c].mean(axis=0)
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


def _ward_costs(X):
    """Ward costs of singleton rows, 1 * 1 / (1 + 1) * ||x_i - x_j||^2; inf diagonal."""
    cost = _sq_dists(X, X)
    cost *= 0.5
    _symmetrize(cost, np.minimum)  # summation order skews the triangles by 1 ulp
    np.fill_diagonal(cost, np.inf)
    return cost


def ward_tree(X) -> Dendrogram:
    """Greedy Ward agglomeration with the documented lexicographic tie-break.

    O(n^2) memory and O(n^2) total work for typical inputs: a merge derives
    its costs from the two merged rows (Lance-Williams), and each row's minimum
    cost is cached, so a merge rescans only the rows whose minimum it may have
    removed instead of the whole cost matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ConfigError(f"ward_tree needs >= 2 rows, got {n}")
    check_dense_budget(n, WARD_DENSE_ARRAYS, "ward_tree")

    sizes = np.ones(n, dtype=np.float64)
    node_ids = np.arange(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)

    cost = _ward_costs(X)
    row_min = cost.min(axis=1)

    merges = []
    for step in range(n - 1):
        best = row_min.min()
        # cost stays symmetric, so the rows holding the global minimum carry
        # every tied pair; pick the lexicographic smallest (min id, max id)
        rows = np.flatnonzero(row_min == best)
        if rows.size == 2:  # a unique minimum: its two rows are the pair
            a, b = rows
        else:
            ii, jj = np.nonzero(cost[rows] == best)
            ii = rows[ii]
            first = np.lexsort((np.maximum(node_ids[ii], node_ids[jj]),
                                np.minimum(node_ids[ii], node_ids[jj])))[0]
            a, b = ii[first], jj[first]
        if node_ids[a] > node_ids[b]:
            a, b = b, a
        left, right = node_ids[a], node_ids[b]

        sa, sb = sizes[a], sizes[b]
        new_size = sa + sb
        merges.append((int(left), int(right), float(best), int(new_size)))
        # Lance-Williams; the inf of dead slots and of the diagonal carries through
        c = ((sizes + sa) * cost[a] + (sizes + sb) * cost[b] - sizes * best) / (sizes + new_size)

        # slot a becomes the merged cluster, slot b dies
        sizes[a] = new_size
        node_ids[a] = n + step
        active[b] = False
        # a live row whose minimum sat in column a or b (row a's always did) is
        # rescanned; any other row keeps its minimum unless column a undercuts it
        stale = ((row_min == cost[a]) | (row_min == cost[b])) & active
        cost[a, :] = c
        cost[:, a] = c
        cost[b, :] = np.inf
        cost[:, b] = np.inf
        np.minimum(row_min, c, out=row_min)
        row_min[b] = np.inf
        rescan = np.flatnonzero(stale)
        row_min[rescan] = cost[rescan].min(axis=1)
    return Dendrogram(n_leaves=n, merges=merges)


def cut_tree(d: Dendrogram, k: int) -> np.ndarray:
    """Partition into exactly k clusters by undoing the last k-1 merges.

    Labels are densified to [0, k) in order of each cluster's smallest leaf.
    """
    if k < 1 or k > d.n_leaves:
        raise ConfigError(f"k={k} out of range for {d.n_leaves} leaves")
    parent = np.arange(d.n_leaves + len(d.merges), dtype=np.int64)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(d.n_leaves - k):
        left, right, _, _ = d.merges[step]
        new = d.n_leaves + step
        parent[find(left)] = new
        parent[find(right)] = new

    roots = np.array([find(i) for i in range(d.n_leaves)])
    labels = np.empty(d.n_leaves, dtype=np.int64)
    seen = {}
    for i, r in enumerate(roots):
        if r not in seen:
            seen[r] = len(seen)
        labels[i] = seen[r]
    return labels


def multi_granularity_labels(X, levels, seed: int = 0,
                             sample_cap: int = DEFAULT_SAMPLE_CAP):
    """Cut one Ward tree at every granularity level.

    Returns a list of (k, centroids (k, C), labels (n,)) in the given level
    order. Above sample_cap rows, the tree is built on a uniform subsample and
    held-out rows are assigned to the nearest cut-level centroid.
    """
    X = np.asarray(X, dtype=np.float64)
    levels = check_granularities(levels)
    n = X.shape[0]
    if max(levels) > n:
        raise ConfigError(f"granularity {max(levels)} exceeds {n} rows")

    if n > sample_cap:
        rng = make_rng(seed, "ward-subsample")
        sampled = np.sort(rng.choice(n, size=sample_cap, replace=False))
    else:
        sampled = np.arange(n)

    tree = ward_tree(X[sampled])
    out = []
    for k in levels:
        sub_labels = cut_tree(tree, k)
        centroids = pool_by_superpoint(X[sampled], sub_labels)
        if sampled.size == n:
            labels = sub_labels
        else:
            labels = np.argmin(_sq_dists(X, centroids), axis=1)
            labels[sampled] = sub_labels
        out.append((k, centroids, labels))
    return out
