"""Reference forms of the group means that langtail.data_model.pool_masks
now computes for the whole package.

Each sums a group's rows from zero, in ascending row order, and divides by
the group's size, as pool_masks does, so their results must agree with it
bit for bit:
  - pool_add_at: np.add.at scatter of float64 rows, then a bincount divide
    (superpoint pooling);
  - kmeans_update: the boolean-mask mean of each cluster (the k-means
    centroid update). NumPy reduces axis 0 of a C-ordered array row by row
    only when it has two or more columns: a single column is one contiguous
    run, which it sums pairwise, so the rows must have at least two columns;
  - pattern_means: the per-column mean of U's columns in each pattern, a zero
    column for an empty one (the refined global patterns). U must be
    Fortran-ordered, as eigh returns it, so each column mean is a sum of
    whole columns in order.
"""

import numpy as np


def pool_add_at(points, assignment):
    n_groups = int(assignment.max()) + 1
    sums = np.zeros((n_groups, points.shape[1]))
    np.add.at(sums, assignment, np.asarray(points, dtype=np.float64))
    return sums / np.bincount(assignment, minlength=n_groups).astype(np.float64)[:, None]


def kmeans_update(X, assign, k):
    centroids = np.empty((k, X.shape[1]))
    for c in range(k):
        centroids[c] = X[assign == c].mean(axis=0)
    return centroids


def pattern_means(U, assign, s_prime):
    V = np.zeros((U.shape[0], s_prime))
    for s in range(s_prime):
        members = np.flatnonzero(assign == s)
        if members.size:
            V[:, s] = U[:, members].mean(axis=1)
    return V
