"""Reference for the fused head cross-entropy step.

reference_head_ce is a one-head cross-entropy; reference_head_step the
training step's head work written out whole, scene by scene: the centroids
stacked into one matrix, one matmul for every head's logits, each head's
softmax on its own columns, then one centroid-gradient product per scene
and one feature-gradient product per row block. Both follow langtail.train's
arithmetic: the dtype follows the features (float32 stays float32, anything
else is float64), the softmax is one exp of the logits less their row
maximum divided by float64 row sums, and the step casts features and
centroids to float32 and divides the feature gradient in float64.
langtail.train.head_step must reproduce reference_head_step's losses and
gradients exactly, and with one head those of reference_head_ce.
"""

import numpy as np

from langtail.errors import EmptyBatchError, ShapeError
from langtail.evaluation import row_blocks


def reference_head_ce(features, mu, labels):
    """Mean cross-entropy of logits = features @ mu.T over every row.

    Returns (loss, the gradient of the summed-over-rows loss w.r.t. features,
    grad w.r.t. mu).
    """
    dtype = np.float32 if np.asarray(features).dtype == np.float32 else np.float64
    F = np.asarray(features, dtype=dtype)
    mu = np.asarray(mu, dtype=dtype)
    labels = np.asarray(labels, dtype=np.int64)
    if F.shape[0] != labels.shape[0]:
        raise ShapeError("feature rows and label count differ")
    if F.shape[1] != mu.shape[1]:
        raise ShapeError("feature dim and head dim differ")
    n = F.shape[0]
    if n == 0:
        raise EmptyBatchError("no feature rows")
    logits = F @ mu.T
    m = logits.max(axis=1)
    e = np.exp(logits - m[:, None])
    z = e.sum(axis=1, dtype=np.float64)
    loss = float(np.mean(m + np.log(z) - logits[np.arange(n), labels]))
    softmax = (e / z[:, None]).astype(dtype)
    softmax[np.arange(n), labels] -= 1.0
    return loss, softmax @ mu, softmax.T @ F / n


def reference_head_step(feats, labels, mus):
    """Same contract as langtail.train.head_step, one whole scene at a time."""
    n_pts = sum(f.shape[0] for f in feats)
    MU = np.concatenate([mu.astype(np.float32) for mu in mus])
    starts = np.cumsum([0] + [len(mu) for mu in mus])
    loss_sums = [0.0] * len(mus)
    G = np.zeros(MU.shape)
    grad_feats = []
    for f, ys in zip(feats, labels):
        F = f.astype(np.float32)
        n = len(F)
        logits = F @ MU.T
        S = np.empty_like(logits)
        for h, y in enumerate(ys):
            L = logits[:, starts[h]:starts[h + 1]]
            m = L.max(axis=1)
            e = np.exp(L - m[:, None])
            z = e.sum(axis=1, dtype=np.float64)
            loss_sums[h] += float(np.mean(m + np.log(z) - L[np.arange(n), y])) * n
            softmax = (e / z[:, None]).astype(np.float32)
            softmax[np.arange(n), y] -= 1.0
            S[:, starts[h]:starts[h + 1]] = softmax
        scene_mean = S.T @ F / n  # each scene's mean, weighted by its point count
        G += scene_mean * n
        # float32 matmul rounds a row by the product's row count at some shapes
        # (features 40 wide against 66 centroids, say), so the feature
        # gradient's product runs over head_ce_loss's row blocks
        grad_feats.append(np.concatenate([(S[lo:hi] @ MU).astype(np.float64) / n_pts
                                          for lo, hi in row_blocks(n)]))
    head_grads = [g / n_pts for g in np.split(G, starts[1:-1])]
    return [s / n_pts for s in loss_sums], grad_feats, head_grads
