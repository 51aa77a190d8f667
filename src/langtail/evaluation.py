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
from .data_model import write_tsv
from .errors import ConfigError, DataError, EmptyBatchError, ShapeError

# rows per block wherever a row-wise pass over a whole scene or feature file
# would otherwise build an n x k temporary; 512 rows x 440 prototypes of
# float64 logits is 1.8 MB, which stays in one core's L2 cache
ROW_BLOCK = 512
UNMATCHED_MODES = ("merge", "drop")


def row_blocks(n):
    """(start, stop) of each ROW_BLOCK-row block of n rows, in order. A
    one-row last block joins the block before it, so numpy never takes gemv,
    which rounds unlike a row of a longer product. Blocked rows then equal a
    whole pass's at the widths the workloads and exact tests use (32 and 384
    wide, 440 prototypes), not at every shape (README, Threads)."""
    stops = [*range(ROW_BLOCK, n - 1, ROW_BLOCK), n] if n else []
    return list(zip([0, *stops], stops))


@dataclass
class EvalReport:
    mapping: np.ndarray  # (n_pred,) gt class per pseudo class, -1 = dropped
    oa: float
    macc: float
    miou: float
    per_class_iou: np.ndarray  # (n_gt,)
    per_class_recall: np.ndarray  # (n_gt,)
    per_class_count: np.ndarray  # (n_gt,) gt point counts


def confusion(pred, gt, n_gt=None) -> np.ndarray:
    """The (n_pred, n_gt) int64 counts: [p, g] is the number of points with
    prediction p and label g != -1, n_pred the largest prediction + 1. The
    pred * n_gt + gt codes are built in one int64 array, and pred and gt are
    copied only to drop -1 labels."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred length {pred.shape} != gt length {gt.shape}")
    n_pred = int(pred.max() + 1 if pred.size else 1)
    keep = gt >= 0
    if not keep.all():
        pred, gt = pred[keep], gt[keep]
    n_gt = int(n_gt if n_gt is not None else (gt.max() + 1 if gt.size else 1))
    if pred.size and (pred.min() < 0 or gt.max() >= n_gt):
        raise DataError(f"labelled point with negative prediction or label >= {n_gt}")
    codes = pred * n_gt
    codes += gt
    counts = np.bincount(codes, minlength=n_pred * n_gt).reshape(n_pred, n_gt)
    return counts.astype(np.int64, copy=False)


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


def match_and_score(counts, unmatched: str = "merge") -> EvalReport:
    """Hungarian-match pseudo classes to ground truth on confusion's
    (n_pred, n_gt) counts, then score OA/mAcc/mIoU.

    unmatched = "merge": leftover pseudo classes go to their plurality gt
    class; "drop": their points count as errors for every class.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        raise EmptyBatchError("confusion matrix is empty")
    if unmatched not in UNMATCHED_MODES:
        raise ConfigError(f"unknown unmatched mode {unmatched!r}")
    n_pred, n_gt = counts.shape

    p, g = np.array(hungarian(-counts.astype(np.float64)), np.int64).T
    mapping = np.full(n_pred, -1, dtype=np.int64)
    mapping[p] = g
    if unmatched == "merge":
        mapping = np.where(mapping < 0, counts.argmax(axis=1), mapping)

    kept = mapping >= 0
    merged = np.zeros((n_gt, n_gt), dtype=np.int64)
    np.add.at(merged, mapping[kept], counts[kept])

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


def max_cosine_labels(features, protos) -> np.ndarray:
    """Index of the max-cosine prototype row of each feature row. Features are
    L2-normalised in float64 and scored one row_blocks block at a time into
    one block of logits that the argmax reads back from cache, so no copy of
    the features is built; row_blocks says when that equals one whole pass."""
    F, P = np.asarray(features), _l2_rows(protos)
    if F.shape[1] != P.shape[1]:
        raise ShapeError(f"feature dim {F.shape[1]} != prototype dim {P.shape[1]}")
    blocks = row_blocks(len(F))
    labels = np.empty(len(F), np.intp)
    buf = np.empty((max((hi - lo for lo, hi in blocks), default=0), len(P)))
    for lo, hi in blocks:
        y = _l2_rows(F[lo:hi])
        np.argmax(np.matmul(y, P.T, out=buf[:hi - lo]), axis=1, out=labels[lo:hi])
    return labels


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
    """report.tsv: class, count, iou, recall rows plus a "# OA=" summary row."""
    rows = [(c, int(report.per_class_count[c]), f"{report.per_class_iou[c]:.6f}",
             f"{report.per_class_recall[c]:.6f}") for c in range(len(report.per_class_iou))]
    summary = (f"# OA={report.oa:.6f}", f"mAcc={report.macc:.6f}", f"mIoU={report.miou:.6f}")
    write_tsv(path, [("class", "count", "iou", "recall"), *rows, summary])
