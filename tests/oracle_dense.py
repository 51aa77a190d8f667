"""Out-of-place oracles for the dense n x n stages.

langtail builds its squared distances, affinity, Laplacian and eigenbasis in
one buffer each. These are the plain formulas those stages evaluate, one
temporary per operation, with numpy's eigh; the in-place code must reproduce
them bit for bit. ward_costs gives the reference Ward scans their initial
costs.
"""

import numpy as np

from langtail.bank import _l2_rows


def sq_dists(X, C):
    d2 = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * X @ C.T
        + (C * C).sum(axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def affinity(F):
    F = _l2_rows(F)
    A = np.exp(-sq_dists(F, F))
    np.fill_diagonal(A, 0.0)
    return A


def laplacian(A):
    d = 1.0 / np.sqrt(A.sum(axis=1))
    L = -A * d[:, None] * d[None, :]
    np.fill_diagonal(L, np.diag(L) + 1.0)
    return 0.5 * (L + L.T)


def eigendecompose(L):
    lam, U = np.linalg.eigh(L)
    U = U.copy()
    pivots = np.argmax(np.abs(U), axis=0)
    flip = U[pivots, np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    return lam, U


def pairwise_ward_costs(mus, sizes):
    d2 = sq_dists(mus, mus)
    w = sizes[:, None] * sizes[None, :] / (sizes[:, None] + sizes[None, :])
    return w * d2


def ward_costs(X):
    """Initial Ward costs of n singletons: symmetric, infinite diagonal."""
    cost = pairwise_ward_costs(X, np.ones(X.shape[0]))
    cost = np.minimum(cost, cost.T)
    np.fill_diagonal(cost, np.inf)
    return cost
