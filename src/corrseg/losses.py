"""Training losses: dice for masks, focal for categories, CE for semantics.

The total is  L = L_mask + L_cate + lambda * L_sem.

Ground truth arrives at image resolution; targets are pooled down to the
feature grid here (block-mean > 0.5 for masks, block-center sampling for
the semantic map).  Each instance is assigned to the grid cell containing
its mask centroid; when two instances land in the same cell the earlier
one keeps it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import STRIDE, ModelConfig, ModelOutputs
from .synth import SyntheticScene

def dice_loss(pred: Tensor, target: np.ndarray, eps: float = 1.0) -> Tensor:
    """1 - soft dice overlap over the last two axes; 0 when prediction
    equals a binary target.  A stack of (..., H, W) masks gives one term
    per mask."""
    t = target.astype(float)
    inter = ad.tsum(ad.mul(pred, Tensor(t)), axis=(-2, -1))
    denom = ad.tsum(ad.mul(pred, pred), axis=(-2, -1)) + Tensor((t * t).sum(axis=(-2, -1)))
    return 1.0 - (inter * 2.0 + eps) / (denom + eps)


def _log_sigmoid(z: Tensor) -> Tensor:
    # log sigmoid(z) = -relu(-z) - log(1 + exp(-|z|)), exact for any z
    mag = ad.relu(z) + ad.relu(-z)
    return -(ad.relu(-z) + ad.log(ad.exp(-mag) + 1.0))


def focal_loss(logits: Tensor, target_onehot: np.ndarray, alpha: float = 0.25) -> Tensor:
    """Sigmoid focal loss with gamma fixed at 2, summed over entries and
    normalized by the positive count (at least 1).

    log-probabilities come from the stable log-sigmoid identity rather
    than log(p), so confident mistakes keep a useful gradient instead of
    hitting a clamped epsilon.
    """
    y = target_onehot.astype(float)
    p = ad.sigmoid(logits)
    q = ad.sigmoid(-logits)
    pt_complement = ad.mul(q, Tensor(y)) + ad.mul(p, Tensor(1.0 - y))
    log_pt = (
        ad.mul(_log_sigmoid(logits), Tensor(y))
        + ad.mul(_log_sigmoid(-logits), Tensor(1.0 - y))
    )
    alpha_t = Tensor(alpha * y + (1.0 - alpha) * (1.0 - y))
    focus = ad.mul(pt_complement, pt_complement)
    total = ad.tsum(ad.mul(alpha_t, ad.mul(focus, -log_pt)))
    return total / max(1.0, float(y.sum()))


def cross_entropy(logits: Tensor, target_ids: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; logits (..., K), integer targets (...)."""
    k = logits.shape[-1]
    flat = ad.reshape(logits, (-1, k))
    ids = target_ids.reshape(-1)
    onehot = np.zeros((ids.size, k))
    onehot[np.arange(ids.size), ids] = 1.0
    picked = ad.tsum(ad.mul(ad.log_softmax(flat, axis=-1), Tensor(onehot)))
    return picked * (-1.0 / ids.size)


def downsample_mask(mask: np.ndarray, factor: int = STRIDE) -> np.ndarray:
    h, w = mask.shape
    blocks = mask.astype(float).reshape(h // factor, factor, w // factor, factor)
    return blocks.mean(axis=(1, 3)) > 0.5


def downsample_semantic(semantic: np.ndarray, factor: int = STRIDE) -> np.ndarray:
    off = factor // 2
    return semantic[off::factor, off::factor]


def _instance_geometry(mask: np.ndarray):
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return None
    cy, cx = ys.mean(), xs.mean()
    half_h = (ys.max() - ys.min() + 1) / 2.0
    half_w = (xs.max() - xs.min() + 1) / 2.0
    return cy, cx, half_h, half_w


Assignment = List[Tuple[int, int, np.ndarray]]


def assign_instances_to_cells(scene: SyntheticScene, grid_size: int) -> Assignment:
    """(cell index, category, feature-scale target mask) per assigned pair.

    Centroid cells are claimed first (first come, first served), so every
    instance keeps at least one kernel even in crowded scenes.  A second
    pass then hands out the remaining cells whose centers fall inside an
    instance's center region, giving nearby kernels training signal too.
    """
    taken = set()
    assigned = []
    cell_h = scene.height / grid_size
    cell_w = scene.width / grid_size
    geoms = []
    for mask, category in scene.instances:
        geom = _instance_geometry(mask)
        if geom is None:
            continue
        cy, cx, half_h, half_w = geom
        row_c = min(int(cy / cell_h), grid_size - 1)
        col_c = min(int(cx / cell_w), grid_size - 1)
        cell = row_c * grid_size + col_c
        target = downsample_mask(mask)
        geoms.append((geom, category, target))
        if cell not in taken:
            taken.add(cell)
            assigned.append((cell, category, target))
    for (cy, cx, half_h, half_w), category, target in geoms:
        for row in range(grid_size):
            if abs((row + 0.5) * cell_h - cy) > half_h:
                continue
            for col in range(grid_size):
                if abs((col + 0.5) * cell_w - cx) > half_w:
                    continue
                cell = row * grid_size + col
                if cell not in taken:
                    taken.add(cell)
                    assigned.append((cell, category, target))
    return assigned


def mask_loss(mask_logits: Tensor, assigned: Assignment) -> Tensor:
    """Mean dice loss of the assigned cells' masks, one batched term."""
    if not assigned:
        return Tensor(0.0)
    cells = np.array([cell for cell, _, _ in assigned])
    targets = np.stack([target for _, _, target in assigned])
    dice = dice_loss(ad.sigmoid(mask_logits[cells]), targets)
    return ad.tsum(dice) * (1.0 / len(assigned))


def cate_loss(cate_logits: Tensor, assigned: Assignment) -> Tensor:
    g, _, k_thing = cate_logits.shape
    onehot = np.zeros((g * g, k_thing))
    for cell, category, _ in assigned:
        onehot[cell, category] = 1.0
    return focal_loss(ad.reshape(cate_logits, (g * g, k_thing)), onehot)


def sem_loss(outputs: ModelOutputs, scene: SyntheticScene) -> Tensor:
    target = downsample_semantic(scene.semantic)
    if target.shape != outputs.sem_logits.shape[:2]:
        raise ValueError(
            f"semantic target {target.shape} does not match logits "
            f"{outputs.sem_logits.shape[:2]}"
        )
    return cross_entropy(outputs.sem_logits, target)


def total_loss(outputs: ModelOutputs, scene: SyntheticScene, cfg: ModelConfig) -> Tensor:
    assigned = assign_instances_to_cells(scene, cfg.grid_size)
    parts = mask_loss(outputs.mask_logits, assigned) + cate_loss(outputs.cate_logits, assigned)
    if cfg.lambda_sem != 0.0:
        parts = parts + sem_loss(outputs, scene) * cfg.lambda_sem
    return parts
