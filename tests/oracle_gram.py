"""The n x n judge of langtail.bank.align_gram.

align_gram builds the bank in closed form from thin SVDs and never forms a
T x T array. These are the dense T x T forms: gram, the Gram matrix of a row
set, and align_gram_loss, the squared-Frobenius mismatch ||F F^T - G||^2 with
its analytic gradient. The tests judge the closed form's minimum and its
reported losses with them, and check the gradient by finite differences.

eckart_young_floor is the least value of that mismatch over T x C matrices F:
the sum of squares of G's eigenvalues beyond its C largest.
"""

import numpy as np


def gram(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return X @ X.T


def align_gram_loss(F, G_target) -> tuple[float, np.ndarray]:
    """Squared-Frobenius Gram mismatch and its analytic gradient 4*(G(F)-G_t)*F."""
    diff = gram(F)
    diff -= G_target
    return float((diff * diff).sum()), 4.0 * (diff @ F)


def eckart_young_floor(G_target, C: int) -> float:
    """min over T x C matrices F of ||F F^T - G_target||^2, for a positive
    semi-definite G_target: its eigenvalues beyond the C largest, squared and
    summed."""
    w = np.linalg.eigvalsh(G_target)  # ascending
    return float((w[:max(len(w) - C, 0)] ** 2).sum())
