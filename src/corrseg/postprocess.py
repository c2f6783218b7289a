"""Instance de-duplication and panoptic fusion.

Both steps read the decoder's (n, H, W) bool mask stack as it is; masks
were thresholded once, at decode.  Matrix NMS rescales scores in one
shot instead of dropping masks: each mask's score is multiplied by a
gaussian decay driven by its worst overlap with any higher-scored mask
of the same category, compensated by how much that suppressor is itself
suppressed.  Fusion then paints kept instances in score order onto an
empty canvas, fills the rest from the semantic argmax, and voids out
tiny stuff regions and leftover thing-class pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import InstancePrediction, ModelConfig


@dataclass
class PanopticSegmentation:
    """Per-pixel category (-1 for void) and instance id (0 for stuff/void)."""

    category: np.ndarray
    instance: np.ndarray

    def __post_init__(self) -> None:
        if self.category.shape != self.instance.shape:
            raise ShapeError(
                f"category {self.category.shape} does not match "
                f"instance {self.instance.shape}"
            )


def matrix_nms(pred: InstancePrediction) -> InstancePrediction:
    """Return predictions sorted by incoming score with decayed scores.

    decay_j = min_i exp(-(iou_ij^2 - cmax_i^2) / sigma) over higher-scored
    masks i of the same category, where cmax_i is the worst overlap i has
    with anything above it and sigma is ``ModelConfig.nms_sigma``.
    Scores never increase.
    """
    if len(pred) == 0:
        return pred

    order = np.argsort(-pred.scores, kind="stable")
    masks = pred.masks[order]
    cats = pred.categories[order]

    flat = masks.reshape(len(masks), -1).astype(float)
    inter = flat @ flat.T
    areas = np.diag(inter)
    union = areas[:, None] + areas[None, :] - inter
    iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)

    same_class = cats[:, None] == cats[None, :]
    pair = np.triu(np.where(same_class, iou, 0.0), k=1)
    cmax = pair.max(axis=0)
    active = np.triu(same_class, k=1)
    decay_pairs = np.where(
        active, np.exp(-(pair**2 - cmax[:, None] ** 2) / ModelConfig.nms_sigma), 1.0
    )
    decay = decay_pairs.min(axis=0)

    return InstancePrediction(masks=masks, categories=cats,
                              scores=pred.scores[order] * decay)


def fuse_panoptic(
    pred: InstancePrediction, semantic: np.ndarray, cfg: ModelConfig
) -> PanopticSegmentation:
    """Combine instance masks and a semantic argmax map into one labeling."""
    if semantic.ndim != 2:
        raise ShapeError(f"semantic map must be 2D, got {semantic.shape}")
    h, w = semantic.shape
    if pred.masks.shape[1:] != (h, w):
        raise ShapeError(
            f"masks {pred.masks.shape[1:]} do not match semantic map {(h, w)}"
        )
    category = np.full((h, w), -1, dtype=np.int64)
    instance = np.zeros((h, w), dtype=np.int64)
    claimed = np.zeros((h, w), dtype=bool)

    keep = np.flatnonzero(pred.scores > cfg.post_nms_score)
    keep = keep[np.argsort(-pred.scores[keep], kind="stable")]

    next_id = 0
    for i in keep:
        claim = pred.masks[i] & ~claimed
        if not claim.any():
            continue
        next_id += 1
        category[claim] = pred.categories[i]
        instance[claim] = next_id
        claimed |= claim

    unclaimed = ~claimed
    stuff = unclaimed & (semantic >= cfg.k_thing)
    category[stuff] = semantic[stuff]
    # thing-class pixels no instance claimed stay void (-1)

    min_area = cfg.stuff_min_area * h * w
    for cls in range(cfg.k_thing, cfg.k_total):
        region = category == cls
        if 0 < region.sum() < min_area:
            category[region] = -1

    return PanopticSegmentation(category=category, instance=instance)
