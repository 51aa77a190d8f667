"""Agglomeration oracles used by the clustering tests.

A merge is (left id, right id, cost, size): leaves are 0..n-1, merge i creates
node n + i, and the cost is the raw increase in within-cluster sum of squares,
delta(a, b) = n_a * n_b / (n_a + n_b) * ||mu_a - mu_b||^2. tree_merges reads
these rows from a scipy linkage matrix, whose height is h = sqrt(2 * delta).

oracle_agglomerate is an independent brute-force oracle: cost is computed
from the raw points each step as the increase in total within-cluster sum of
squares, not via any recurrence, so it shares no arithmetic shortcuts with the
implementation under test.

reference_ward_scan is the plain greedy Ward loop that rescans the whole cost
matrix on every merge, with the (left id, right id) tie-break: initial costs
from the pairwise formula, then the Lance-Williams recurrence. Where no two
costs tie, ward_tree must reproduce its merges, costs to rounding.

reference_ward_centroid_scan is the same greedy loop, but it recomputes the
merged cluster's cost to every other cluster from their centroids. It judges
the recurrence: on inputs without near-ties the merge pairs must agree, with
costs equal to rounding.

greedy_ward_excess judges a tree where costs tie exactly and the tie order is
not pinned: each merge must cost no more than the cheapest merge of the
partition at its step, costs taken from centroids.
"""

import numpy as np

from oracle_dense import ward_costs


def tree_merges(Z):
    """(left, right, cost, size) per row of linkage matrix Z, cost = 0.5 * h^2."""
    return [(int(left), int(right), 0.5 * h * h, int(size))
            for left, right, h, size in np.asarray(Z).tolist()]


def ward_cost(size_a, mu_a, size_b, mu_b) -> float:
    """Ward merge cost of two clusters from their sizes and means."""
    diff = np.asarray(mu_a, dtype=np.float64) - np.asarray(mu_b, dtype=np.float64)
    return float(size_a * size_b / (size_a + size_b) * (diff @ diff))


def ess(points):
    mu = points.mean(axis=0)
    return float(((points - mu) ** 2).sum())


def oracle_agglomerate(X):
    """Returns (merges, partitions) where partitions[k] is the set of
    frozensets of leaf indices when k clusters remain."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    clusters = [(i, frozenset([i])) for i in range(n)]
    merges = []
    partitions = {n: {c for _, c in clusters}}
    next_id = n
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                ia, ca = clusters[a]
                ib, cb = clusters[b]
                union = sorted(ca | cb)
                cost = ess(X[union]) - ess(X[sorted(ca)]) - ess(X[sorted(cb)])
                key = (cost, min(ia, ib), max(ia, ib))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (cost, left, right), a, b = best
        ia, ca = clusters[a]
        ib, cb = clusters[b]
        merged = ca | cb
        merges.append((left, right, cost, len(merged)))
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
        clusters.append((next_id, merged))
        next_id += 1
        partitions[len(clusters)] = {c for _, c in clusters}
    return merges, partitions


def labels_to_partition(labels):
    labels = np.asarray(labels)
    return {frozenset(np.flatnonzero(labels == v).tolist()) for v in set(labels)}


def reference_ward_scan(X):
    """Greedy Ward with the (left id, right id) tie-break; O(n^2) per merge.

    Costs after a merge come from the Lance-Williams recurrence."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    sizes = np.ones(n, dtype=np.float64)
    node_ids = np.arange(n, dtype=np.int64)

    cost = ward_costs(X)

    merges = []
    for step in range(n - 1):
        best = np.min(cost)
        left, right, a, b = _smallest_tied_pair(cost, best, node_ids)

        sa, sb = sizes[a], sizes[b]
        new_size = sa + sb
        merges.append((int(left), int(right), float(best), int(new_size)))
        c = ((sizes + sa) * cost[a] + (sizes + sb) * cost[b] - sizes * best) / (sizes + new_size)

        sizes[a] = new_size
        node_ids[a] = n + step
        cost[a, :] = c
        cost[:, a] = c
        cost[b, :] = np.inf
        cost[:, b] = np.inf
    return merges


def _smallest_tied_pair(cost, best, node_ids):
    """(left id, right id, slot of left, slot of right) of the smallest id pair
    among the cells holding `best`."""
    ii, jj = np.nonzero(cost == best)
    pairs = sorted({
        (min(node_ids[a], node_ids[b]), max(node_ids[a], node_ids[b]),
         min(a, b), max(a, b))
        for a, b in zip(ii, jj)
    })
    left, right, a, b = pairs[0]
    if node_ids[a] != left:
        a, b = b, a
    return left, right, a, b


def reference_ward_centroid_scan(X):
    """Greedy Ward with the (left id, right id) tie-break; O(n^2) per merge.

    Costs after a merge are recomputed from the centroids."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    mus = X.copy()
    sizes = np.ones(n, dtype=np.float64)
    node_ids = np.arange(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)

    cost = ward_costs(mus)

    merges = []
    for step in range(n - 1):
        best = np.min(cost)
        left, right, a, b = _smallest_tied_pair(cost, best, node_ids)

        new_size = sizes[a] + sizes[b]
        new_mu = (sizes[a] * mus[a] + sizes[b] * mus[b]) / new_size
        merges.append((int(left), int(right), float(best), int(new_size)))

        mus[a] = new_mu
        sizes[a] = new_size
        node_ids[a] = n + step
        active[b] = False
        cost[b, :] = np.inf
        cost[:, b] = np.inf

        others = np.flatnonzero(active)
        others = others[others != a]
        if others.size:
            diff = mus[others] - new_mu
            d2 = (diff * diff).sum(axis=1)
            c = sizes[others] * new_size / (sizes[others] + new_size) * d2
            cost[a, others] = c
            cost[others, a] = c
        cost[a, a] = np.inf
    return merges


def greedy_ward_excess(X, merges):
    """Per merge, its cost less the least cost of any pair of the partition at
    that step, both from centroids: at most rounding for a greedy Ward tree."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    mus = {i: X[i] for i in range(n)}
    sizes = {i: 1.0 for i in range(n)}
    excess = []
    for step, (left, right, _, size) in enumerate(merges):
        ids = list(mus)
        M = np.array([mus[i] for i in ids])
        s = np.array([sizes[i] for i in ids])
        diff = M[:, None, :] - M[None, :, :]
        cost = s[:, None] * s[None, :] / (s[:, None] + s[None, :]) * (diff * diff).sum(axis=2)
        np.fill_diagonal(cost, np.inf)
        excess.append(cost[ids.index(left), ids.index(right)] - cost.min())
        sa, sb = sizes.pop(left), sizes.pop(right)
        assert sa + sb == size
        mus[n + step] = (sa * mus.pop(left) + sb * mus.pop(right)) / size
        sizes[n + step] = size
    return np.array(excess)
