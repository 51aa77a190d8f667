"""Per-head reference for the fused head cross-entropy step.

reference_head_ce is a one-head cross-entropy and reference_head_step the
training loop that calls it once per head and per scene: local heads first,
then global heads, each branch accumulated in its own per-scene arrays in
this order. Both follow langtail.train's arithmetic: the dtype follows the
features (float32 stays float32, anything else is float64), the softmax is
one exp of the logits less their row maximum divided by float64 row sums,
and the step casts features and centroids to float32 and accumulates in
float64. The fused langtail.train.head_step must reproduce these losses and
gradients exactly.
"""

import numpy as np

from langtail.errors import EmptyBatchError, ShapeError


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


def reference_head_step(feats, labels, mus, branches):
    """Same contract as langtail.train.head_step, one head and scene at a time."""
    n_pts = sum(f.shape[0] for f in feats)
    head_grads = [np.zeros_like(mu) for mu in mus]
    grad_feats = None
    branch_losses = []
    for b in range(max(branches) + 1):
        acc = [np.zeros(f.shape) for f in feats]
        l_branch = 0.0
        for h in [h for h, hb in enumerate(branches) if hb == b]:
            loss_k = 0.0
            for j, f in enumerate(feats):
                loss, gf, gmu = reference_head_ce(f.astype(np.float32),
                                                  mus[h].astype(np.float32),
                                                  labels[j][h])
                loss_k += loss * f.shape[0]
                acc[j] += gf
                head_grads[h] += gmu * f.shape[0]
            l_branch += loss_k / n_pts
            head_grads[h] /= n_pts
        branch_losses.append(l_branch)
        if grad_feats is None:
            grad_feats = acc
            for j in range(len(feats)):
                grad_feats[j] /= n_pts
        else:
            for j in range(len(feats)):
                grad_feats[j] += acc[j] / n_pts
    return branch_losses, grad_feats, head_grads
