"""Row-scatter reference for the entity-anchor gradient of a training step.

reference_entity_anchor_grads pools the current features over each sampled
entity's mask rows scene by scene (the mean of each scene's concatenated
mask rows, then the mean over the scenes), runs the contrastive loss, and
scatters every anchor's feature gradient into a zero buffer over the sorted
union of each scene's mask rows, one `+= gz / (n_scenes * n_rows)` per mask
(n_rows: the entity's mask rows in that scene), in ascending entity order
whatever the order of the sample.
langtail.train._entity_anchor_grads must give the same loss and anchor count
and, row for row, the same gradient bits.
"""

import numpy as np

from langtail.bank import entity_contrastive_loss
from langtail.errors import NumericError


def reference_entity_anchor_grads(features_per_scene, bank_sample, entities,
                                  scenes_in_batch, tau):
    """Pool current features over each sampled entity's mask points, per scene
    and then over scenes, and run the contrastive loss; bank_sample is
    sample_entity_batch's (indices, prototypes, weights). Returns (loss,
    per-scene (rows, gradient), n_anchors), where rows is the sorted union of
    the scene's masks and gradient covers those rows.

    Entities without mask points in the current scenes are skipped.
    """
    indices, prototypes, weights = bank_sample
    by_id = {s.scene_id: bi for bi, s in enumerate(scenes_in_batch)}
    pooled = []
    pooled_rows = []  # per kept entity: its (batch scene index, mask indices) hits
    keep = []
    for row, ent_idx in enumerate(indices):
        e = entities[int(ent_idx)]
        hits = [(by_id[sid], idx) for sid, idx in e.masks if sid in by_id]
        if not hits:
            continue
        scene_means = [
            np.concatenate([features_per_scene[bi][idx] for b, idx in hits if b == bi]).mean(0)
            for bi in sorted({b for b, _ in hits})]
        pooled.append(np.mean(scene_means, axis=0))
        pooled_rows.append(hits)
        keep.append(row)
    if not keep:
        return 0.0, [], 0
    keep = np.array(keep)
    Z = np.stack(pooled)
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms < 1e-12):
        raise NumericError("entity anchor collapsed to zero norm")
    anchors = Z / norms[:, None]

    loss, grad_anchor = entity_contrastive_loss(anchors, prototypes[keep], weights[keep],
                                                tau=tau)

    rows = [np.unique(np.concatenate([np.zeros(0, np.int64)] + [
        idx for hits in pooled_rows for b, idx in hits if b == bi]))
        for bi in range(len(features_per_scene))]
    grads = [np.zeros((r.size, anchors.shape[1])) for r in rows]
    for a in np.argsort(indices[keep]):  # entity order
        hits = pooled_rows[a]
        g = grad_anchor[a]
        gz = (g - (g @ anchors[a]) * anchors[a]) / norms[a]
        n_scenes = len({bi for bi, _ in hits})
        for bi, idx in hits:
            n_rows = sum(i.size for b, i in hits if b == bi)
            # masks are sorted and unique (EntityRecord), so this adds once per row
            grads[bi][np.searchsorted(rows[bi], idx)] += gz / (n_scenes * n_rows)
    return loss, list(zip(rows, grads)), len(keep)
