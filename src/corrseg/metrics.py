"""Panoptic quality (PQ = SQ x RQ) with things/stuff splits.

Segments are (category, instance-id) regions; stuff uses instance id 0.
A prediction matches a ground-truth segment of the same category iff their
IoU is strictly above 0.5, which makes matches unique.  Per class:

    SQ = mean IoU of matched pairs (0 if none)
    RQ = TP / (TP + FP/2 + FN/2)
    PQ = SQ * RQ

Aggregates average over classes that have at least one GT or predicted
segment.  `PqAccumulator` pools TP/FP/FN/IoU across scenes so a dataset
gets a single PQ rather than a mean of per-scene PQs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import ShapeError
from .postprocess import PanopticSegmentation
from .synth import THING_CLASSES

_VOID = -1


@dataclass
class ClassPq:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou_sum: float = 0.0

    @property
    def sq(self) -> float:
        return self.iou_sum / self.tp if self.tp else 0.0

    @property
    def rq(self) -> float:
        denom = self.tp + 0.5 * self.fp + 0.5 * self.fn
        return self.tp / denom if denom else 0.0

    @property
    def pq(self) -> float:
        return self.sq * self.rq


@dataclass
class PQResult:
    pq: float
    sq: float
    rq: float
    pq_things: float
    pq_stuff: float
    per_class: Dict[int, ClassPq]


def _unique(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True, return_counts=True)`` for 1-D
    int64 keys.  When the keys span no more values than there are keys,
    as a labeling with dense ids does, a count over that range replaces
    the sort; sparse keys (ids far beyond the pixel count) are sorted."""
    lo = int(keys.min(initial=0))
    span = int(keys.max(initial=0)) - lo + 1
    if span > keys.size:
        return np.unique(keys, return_inverse=True, return_counts=True)
    offsets = keys - lo
    counts = np.bincount(offsets)
    rank = np.cumsum(counts > 0) - 1
    present = np.flatnonzero(counts)
    return present + lo, rank[offsets], counts[present]


def _segments(pan: PanopticSegmentation
              ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Dense segment id per pixel, plus each segment's category and area.

    Each pixel's (category + 1, instance) pair is packed into one int64
    key, so finding the segments is a pass over 1-D keys, not over rows.
    Segments come in ascending (category, instance) order.
    """
    category = pan.category.reshape(-1).astype(np.int64)
    instance = pan.instance.reshape(-1).astype(np.int64)
    lo = int(instance.min(initial=0))
    span = int(instance.max(initial=0)) - lo + 1
    keys = (category + 1) * span + (instance - lo)
    uniq, ids, area = _unique(keys)
    return ids, uniq // span - 1, area.tolist()


class PqAccumulator:
    """Pools match statistics over many (pred, gt) pairs."""

    def __init__(self) -> None:
        self.stats: Dict[int, ClassPq] = {}

    def _cls(self, category: int) -> ClassPq:
        return self.stats.setdefault(category, ClassPq())

    def add(self, pred: PanopticSegmentation, gt: PanopticSegmentation) -> None:
        if pred.category.shape != gt.category.shape:
            raise ShapeError(
                f"prediction {pred.category.shape} does not match "
                f"ground truth {gt.category.shape}"
            )
        gt_ids, gt_cat, gt_area = _segments(gt)
        pred_ids, pred_cat, pred_area = _segments(pred)

        # Intersection area of every overlapping (gt, pred) segment pair.
        n_pred = len(pred_area)
        pairs, _, inters = _unique(gt_ids * n_pred + pred_ids)
        pair_gt, pair_pred = np.divmod(pairs, n_pred)
        same = (gt_cat[pair_gt] == pred_cat[pair_pred]) & (gt_cat[pair_gt] != _VOID)

        # IoU per same-category (gt segment, pred segment) pair, then sort
        # descending so floating-point sums are order-independent.
        per_class_ious: Dict[int, List[float]] = {}
        matched_gt = set()
        matched_pred = set()
        for g, p, inter in zip(pair_gt[same].tolist(), pair_pred[same].tolist(),
                               inters[same].tolist()):
            union = gt_area[g] + pred_area[p] - inter
            iou = inter / union
            if iou > 0.5:
                assert g not in matched_gt and p not in matched_pred
                matched_gt.add(g)
                matched_pred.add(p)
                per_class_ious.setdefault(int(gt_cat[g]), []).append(iou)

        for category, ious in per_class_ious.items():
            cls = self._cls(category)
            cls.tp += len(ious)
            cls.iou_sum += sum(sorted(ious, reverse=True))
        for seg, category in enumerate(gt_cat.tolist()):
            if category != _VOID and seg not in matched_gt:
                self._cls(category).fn += 1
        for seg, category in enumerate(pred_cat.tolist()):
            if category != _VOID and seg not in matched_pred:
                self._cls(category).fp += 1

    def result(self) -> PQResult:
        counted = {
            c: s
            for c, s in sorted(self.stats.items())
            if s.tp + s.fp + s.fn > 0
        }

        def mean(values: List[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        things = [s.pq for c, s in counted.items() if c < THING_CLASSES]
        stuff = [s.pq for c, s in counted.items() if c >= THING_CLASSES]
        return PQResult(
            pq=mean([s.pq for s in counted.values()]),
            sq=mean([s.sq for s in counted.values()]),
            rq=mean([s.rq for s in counted.values()]),
            pq_things=mean(things),
            pq_stuff=mean(stuff),
            per_class=counted,
        )
