"""Hungarian-matched evaluation and long-tail reporting.

Matching protocol: pseudo classes are assigned to ground-truth classes by
minimum-cost assignment on the negated confusion counts; with more pseudo
classes than ground-truth classes the leftover pseudo classes are merged
into their plurality ground-truth class (or dropped, on request).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .bank import _l2_rows
from .data_model import atomic_open
from .errors import ConfigError, DataError, EmptyBatchError, ShapeError

# rows per block wherever a row-wise pass over a whole scene or feature file
# would otherwise build an n x k temporary; 512 rows x 440 prototypes of
# float64 logits is 1.8 MB, which stays in one core's L2 cache
ROW_BLOCK = 512
UNMATCHED_MODES = ("merge", "drop")


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (n_pred, n_gt) non-negative integers

    @property
    def n_pred(self) -> int:
        return self.counts.shape[0]

    @property
    def n_gt(self) -> int:
        return self.counts.shape[1]


@dataclass
class EvalReport:
    mapping: np.ndarray  # (n_pred,) gt class per pseudo class, -1 = dropped
    oa: float
    macc: float
    miou: float
    per_class_iou: np.ndarray  # (n_gt,)
    per_class_recall: np.ndarray  # (n_gt,)
    per_class_count: np.ndarray  # (n_gt,) gt point counts


def confusion(pred, gt, n_pred=None, n_gt=None) -> ConfusionMatrix:
    """counts[p][g] = number of points with prediction p and label g != -1."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred length {pred.shape} != gt length {gt.shape}")
    keep = gt >= 0
    p, g = pred[keep], gt[keep]
    n_pred = int(n_pred if n_pred is not None else (pred.max() + 1 if pred.size else 1))
    n_gt = int(n_gt if n_gt is not None else (g.max() + 1 if g.size else 1))
    if p.size and (p.min() < 0 or p.max() >= n_pred or g.max() >= n_gt):
        raise DataError(f"labelled point with prediction outside [0, {n_pred}) or label >= {n_gt}")
    counts = np.bincount(p * n_gt + g, minlength=n_pred * n_gt).reshape(n_pred, n_gt)
    return ConfusionMatrix(counts=counts.astype(np.int64, copy=False))


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost injective assignment from the smaller side of a
    rectangular cost matrix.

    Among all optimal assignments, returns the lexicographically smallest
    one (rows of the smaller side in ascending order, each taking the
    smallest column that still admits an optimal completion).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ShapeError(f"cost matrix must be 2-D and non-empty, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise DataError("cost matrix contains non-finite entries")
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
        # a completion of the later rows costs at least their cheapest free
        # columns; both float sums round by far less than tol, so with the
        # extra tol a column skipped here is one the solve below rejects
        bound = float(C[r + 1:, free_cols].min(axis=1).sum()) if rest_rows.size else 0.0
        for j in free_cols:
            if C[r, j] + bound > remaining + 2 * tol:
                continue
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
        else:  # numerically impossible, but never return a partial matching
            j = free_cols.pop(0)
            chosen.append((r, j))
            remaining -= float(C[r, j])
    if transposed:
        chosen = sorted((j, r) for r, j in chosen)
    return chosen


def match_and_score(cm: ConfusionMatrix, unmatched: str = "merge") -> EvalReport:
    """Hungarian-match pseudo classes to ground truth, then score OA/mAcc/mIoU.

    unmatched = "merge": leftover pseudo classes go to their plurality gt
    class; "drop": their points count as errors for every class.
    """
    counts = np.asarray(cm.counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        raise EmptyBatchError("confusion matrix is empty")
    if unmatched not in UNMATCHED_MODES:
        raise ConfigError(f"unknown unmatched mode {unmatched!r}")
    n_pred, n_gt = counts.shape

    assignment = hungarian(-counts.astype(np.float64))
    mapping = np.full(n_pred, -1, dtype=np.int64)
    for p, g in assignment:
        mapping[p] = g
    if unmatched == "merge":
        for p in range(n_pred):
            if mapping[p] < 0:
                mapping[p] = int(np.argmax(counts[p]))

    merged = np.zeros((n_gt, n_gt), dtype=np.int64)
    dropped = np.zeros(n_gt, dtype=np.int64)
    for p in range(n_pred):
        if mapping[p] >= 0:
            merged[mapping[p]] += counts[p]
        else:
            dropped += counts[p]

    gt_totals = counts.sum(axis=0)
    tp = np.diag(merged).astype(np.float64)
    fp = merged.sum(axis=1) - tp
    fn = gt_totals - tp

    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(tp + fp + fn > 0, tp / (tp + fp + fn), 0.0)
        recall = np.where(gt_totals > 0, tp / gt_totals, 0.0)
    present = gt_totals > 0
    return EvalReport(
        mapping=mapping,
        oa=float(tp.sum() / total),
        macc=float(recall[present].mean()),
        miou=float(iou[present].mean()),
        per_class_iou=iou,
        per_class_recall=recall,
        per_class_count=gt_totals,
    )


def argmax_scores(Y, P, normalise=False) -> np.ndarray:
    """np.argmax(Y @ P.T, axis=1), one ROW_BLOCK-row matmul at a time into one
    block buffer that the argmax reads back from cache; normalise L2-normalises
    each block of Y just before its matmul, so no copy of Y is built."""
    n = len(Y)
    labels = np.empty(n, np.intp)
    buf = np.empty((min(n, ROW_BLOCK), len(P)), np.result_type(Y, P))
    for a in range(0, n, ROW_BLOCK):
        b = min(a + ROW_BLOCK, n)
        y = _l2_rows(Y[a:b]) if normalise else Y[a:b]
        np.argmax(np.matmul(y, P.T, out=buf[:b - a]), axis=1, out=labels[a:b])
    return labels


def max_cosine_labels(features, protos) -> np.ndarray:
    """Index of the max-cosine prototype row for every feature row; features
    are normalised one row block at a time, in float64 whatever their dtype."""
    F, P = np.asarray(features), _l2_rows(protos)
    if F.shape[1] != P.shape[1]:
        raise ShapeError(f"feature dim {F.shape[1]} != prototype dim {P.shape[1]}")
    return argmax_scores(F, P, normalise=True)


ABSORBED_IOU_THRESHOLD = 0.05


def tail_report(report: EvalReport):
    """(class, point_count, iou, absorbed) rows sorted by count descending."""
    order = np.argsort(-report.per_class_count, kind="stable")
    rows = []
    for c in order:
        rows.append({
            "class": int(c),
            "count": int(report.per_class_count[c]),
            "iou": float(report.per_class_iou[c]),
            "recall": float(report.per_class_recall[c]),
            "absorbed": bool(report.per_class_iou[c] < ABSORBED_IOU_THRESHOLD
                             and report.per_class_count[c] > 0),
        })
    return rows


def write_report(path, report: EvalReport) -> None:
    """report.tsv: class, count, iou, recall rows plus a summary line."""
    with atomic_open(path) as f:
        f.write("class\tcount\tiou\trecall\n")
        for c in range(report.per_class_iou.shape[0]):
            f.write(f"{c}\t{int(report.per_class_count[c])}"
                    f"\t{report.per_class_iou[c]:.6f}"
                    f"\t{report.per_class_recall[c]:.6f}\n")
        f.write(f"# OA={report.oa:.6f}\tmAcc={report.macc:.6f}\tmIoU={report.miou:.6f}\n")
