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

DICE_EPS = 1.0  # smoothing of the dice ratio's numerator and denominator
FOCAL_ALPHA = 0.25  # focal loss weight of the positive entries


def dice_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """1 - soft dice overlap over the last two axes; 0 when prediction
    equals a binary target.  A stack of (..., H, W) masks gives one term
    per mask.

    One graph node.  With I the intersection and D the denominator of a
    mask, dL/dpred = [2 pred (2I + eps) - 2t (D + eps)] / (D + eps)^2 with
    eps = DICE_EPS.
    """
    t = target.astype(float)
    inter = (pred.data * t).sum(axis=(-2, -1))
    denom = (pred.data * pred.data).sum(axis=(-2, -1)) + (t * t).sum(axis=(-2, -1))
    num, den = inter * 2.0 + DICE_EPS, denom + DICE_EPS
    out = (num / den) * -1.0 + 1.0

    def grad_fn(g):
        n, d = num[..., None, None], den[..., None, None]
        pred._accum(2.0 * (pred.data * n - t * d) * (g[..., None, None] / (d * d)),
                    owned=True)

    return ad.make_node(out, (pred,), grad_fn, pred.requires_grad)


def focal_loss(logits: Tensor, target_onehot: np.ndarray) -> Tensor:
    """Sigmoid focal loss with gamma fixed at 2, summed over entries and
    normalized by the positive count n (at least 1).

    log-probabilities come from the stable identity
    log sigmoid(z) = -relu(-z) - log(1 + exp(-|z|)) rather than log(p),
    so confident mistakes keep a useful gradient instead of hitting a
    clamped epsilon.

    One graph node.  With p = sigmoid(z), q = sigmoid(-z), p_t the
    probability of the target class and c = 1 - p_t = q y + p (1 - y):
    dL/dz = alpha_t [2 c p q (1 - 2y) (-log p_t) - c^2 (y q - (1 - y) p)] / n,
    where y q - (1 - y) p is y - p written so that neither side cancels.
    """
    z = logits.data
    y = target_onehot.astype(float)
    p = ad.stable_sigmoid(z)
    q = ad.stable_sigmoid(z * -1.0)
    pt_complement = q * y + p * (1.0 - y)
    pos, neg = np.maximum(z, 0.0), np.maximum(z * -1.0, 0.0)
    tail = np.log(np.exp((pos + neg) * -1.0) + 1.0)
    log_pt = ((neg + tail) * -1.0) * y + ((pos + tail) * -1.0) * (1.0 - y)
    nll = log_pt * -1.0
    alpha_t = FOCAL_ALPHA * y + (1.0 - FOCAL_ALPHA) * (1.0 - y)
    scale = 1.0 / max(1.0, float(y.sum()))
    total = (alpha_t * ((pt_complement * pt_complement) * nll)).sum()

    def grad_fn(g):
        dlog_pt = y * q - (1.0 - y) * p
        dz = 2.0 * pt_complement * p * q * (1.0 - 2.0 * y) * nll
        dz -= pt_complement * pt_complement * dlog_pt
        logits._accum(dz * (alpha_t * (g * scale)), owned=True)

    return ad.make_node(total * scale, (logits,), grad_fn, logits.requires_grad)


def cross_entropy(logits: Tensor, target_ids: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; logits (..., K), integer targets (...).

    One graph node: over N targets, dL/dlogits = (softmax - onehot) / N.
    """
    k = logits.shape[-1]
    flat = logits.data.reshape(-1, k)
    ids = target_ids.reshape(-1)
    onehot = np.zeros((ids.size, k))
    onehot[np.arange(ids.size), ids] = 1.0
    shifted = flat - flat.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    scale = -1.0 / ids.size

    def grad_fn(g):
        dflat = (onehot - np.exp(log_probs)) * (g * scale)
        logits._accum(dflat.reshape(logits.shape), owned=True)

    return ad.make_node((log_probs * onehot).sum() * scale, (logits,), grad_fn,
                        logits.requires_grad)


def downsample_mask(mask: np.ndarray) -> np.ndarray:
    h, w = mask.shape
    blocks = mask.astype(float).reshape(h // STRIDE, STRIDE, w // STRIDE, STRIDE)
    return blocks.mean(axis=(1, 3)) > 0.5


def downsample_semantic(semantic: np.ndarray) -> np.ndarray:
    off = STRIDE // 2
    return semantic[off::STRIDE, off::STRIDE]


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
    return parts + sem_loss(outputs, scene) * cfg.lambda_sem
