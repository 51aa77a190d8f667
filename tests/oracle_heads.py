"""Per-head reference for the fused head cross-entropy step.

reference_head_ce is the one-head cross-entropy that langtail.train used
before all heads of a scene shared one call, and reference_head_step is the
training loop that called it once per head and per scene: local heads first,
then global heads, each branch accumulated in its own per-scene arrays in
this order. The fused langtail.train.head_step keeps this arithmetic, so it
must reproduce these losses and gradients exactly.
"""

import numpy as np

from langtail.errors import EmptyBatchError, ShapeError


def reference_head_ce(features, mu, labels):
    """Mean cross-entropy of logits = features @ mu.T over non-ignored items.

    Returns (loss, grad w.r.t. features, grad w.r.t. mu).
    """
    F = np.asarray(features, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if F.shape[0] != labels.shape[0]:
        raise ShapeError("feature rows and label count differ")
    if F.shape[1] != mu.shape[1]:
        raise ShapeError("feature dim and head dim differ")
    valid = labels >= 0
    n = int(valid.sum())
    if n == 0:
        raise EmptyBatchError("all labels are ignored")
    Fv = F[valid]
    yv = labels[valid]
    logits = Fv @ mu.T
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), yv]))
    softmax = np.exp(logits - lse[:, None])
    softmax[np.arange(n), yv] -= 1.0
    grad_f = np.zeros_like(F)
    grad_f[valid] = softmax @ mu / n
    grad_mu = softmax.T @ Fv / n
    return loss, grad_f, grad_mu


def reference_head_step(feats, labels, mus, branches):
    """Same contract as langtail.train.head_step, one head and scene at a time."""
    n_pts = sum(f.shape[0] for f in feats)
    head_grads = [np.zeros_like(mu) for mu in mus]
    grad_feats = None
    branch_losses = []
    for b in range(max(branches) + 1):
        acc = [np.zeros_like(f) for f in feats]
        l_branch = 0.0
        for h in [h for h, hb in enumerate(branches) if hb == b]:
            loss_k = 0.0
            for j, f in enumerate(feats):
                loss, gf, gmu = reference_head_ce(f, mus[h], labels[j][h])
                loss_k += loss * f.shape[0]
                acc[j] += gf * f.shape[0]
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
