"""Assignment oracle used by the evaluation tests.

reference_hungarian is the unpruned tie-break loop: for each row of the
smaller side, in order, it tries every free column in ascending order and
solves the remaining rows exactly (one linear_sum_assignment per try) to see
whether an optimal completion still exists. langtail.evaluation.hungarian
skips columns that a lower bound already rules out, and must return exactly
the same assignment.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment


def reference_hungarian(cost) -> list[tuple[int, int]]:
    cost = np.asarray(cost, dtype=np.float64)
    transposed = cost.shape[0] > cost.shape[1]
    C = cost.T if transposed else cost
    n_rows, n_cols = C.shape

    ri, ci = linear_sum_assignment(C)
    best = float(C[ri, ci].sum())
    tol = 1e-9 * max(1.0, float(np.abs(C).max())) * n_rows

    free_cols = list(range(n_cols))
    chosen = []
    remaining = best
    for r in range(n_rows):
        rest_rows = np.arange(r + 1, n_rows)
        for j in free_cols:
            rest_cols = [c for c in free_cols if c != j]
            if rest_rows.size:
                sub = C[np.ix_(rest_rows, rest_cols)]
                si, sj = linear_sum_assignment(sub)
                completion = float(sub[si, sj].sum())
            else:
                completion = 0.0
            if C[r, j] + completion <= remaining + tol:
                chosen.append((r, j))
                free_cols.remove(j)
                remaining -= float(C[r, j])
                break
        else:
            j = free_cols.pop(0)
            chosen.append((r, j))
            remaining -= float(C[r, j])
    if transposed:
        chosen = sorted((j, r) for r, j in chosen)
    return chosen
