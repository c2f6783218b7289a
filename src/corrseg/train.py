"""The training schedule and scene-level evaluation helpers.

Plain SGD (momentum 0.9, weight decay 1e-4) over scenes in a fixed order,
one scene per step; ``fit`` is the one schedule that ``corrseg train``
and every ablation variant run.  Each step runs in ``train_step``, whose
frame is the only holder of the step's graph, so training holds one
graph at a time: a step's graph is freed before the next step's forward,
also when a spike rejects its update.  A non-finite loss aborts with
NumericsError so the caller keeps the last finished epoch's checkpoint.
``score_scenes`` is the one scoring loop, for a model and for the
ground-truth oracle alike.  It runs one inference per scene and uses it
twice: the fused labeling feeds the PQ accumulator, and the post-NMS
instances of each twin scene decide whether both twins were found, which
gives the twin rate alongside PQ.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import SGD, Tensor
from .errors import NumericsError
from .losses import total_loss
from .metrics import PqAccumulator, PQResult
from .model import (
    STRIDE,
    InstancePrediction,
    ModelConfig,
    PanopticModel,
    decode_instances,
    upsample_nearest,
)
from .postprocess import PanopticSegmentation, fuse_panoptic, matrix_nms
from .rng import SplitMix64
from .synth import SyntheticScene

MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
MAX_GRAD_NORM = 5.0
LR_DECAY_FACTOR = 0.3
LR_DECAY_POINT = 0.75
# A step is rejected when its loss exceeds SPIKE_FACTOR times the
# previous epoch's mean.  The first epoch rejects nothing: there is
# nothing to compare against, and an untrained model is uniformly
# mediocre anyway.
SPIKE_FACTOR = 10.0


def make_optimizer(model: PanopticModel, lr: float) -> SGD:
    return SGD(model.parameters(), lr=lr, momentum=MOMENTUM,
               weight_decay=WEIGHT_DECAY)


def clip_gradients(params) -> float:
    """Scale all gradients so their global L2 norm is at most MAX_GRAD_NORM.

    Per-scene steps occasionally spike; without the cap a single bad step
    can saturate the heads and stall the rest of the run.
    """
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None]
    for g in grads:
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > MAX_GRAD_NORM:
        scale = MAX_GRAD_NORM / norm
        for g in grads:
            g *= scale
    return norm


def scene_image(scene: SyntheticScene) -> Tensor:
    return Tensor(scene.image)


def flip_scene(scene: SyntheticScene, horizontal: bool, vertical: bool) -> SyntheticScene:
    """Mirror a scene; flips leave the band/shape structure valid."""
    if not horizontal and not vertical:
        return scene
    sel_y = slice(None, None, -1) if vertical else slice(None)
    sel_x = slice(None, None, -1) if horizontal else slice(None)
    return SyntheticScene(
        image=scene.image[sel_y, sel_x].copy(),
        semantic=scene.semantic[sel_y, sel_x].copy(),
        instances=[(m[sel_y, sel_x].copy(), c) for m, c in scene.instances],
        meta=dict(scene.meta),
    )


def scene_to_panoptic(scene: SyntheticScene) -> PanopticSegmentation:
    """Ground-truth labeling: instance ids 1..n in scene order, stuff id 0."""
    instance = np.zeros((scene.height, scene.width), dtype=np.int64)
    for k, (mask, _) in enumerate(scene.instances):
        instance[mask] = k + 1
    return PanopticSegmentation(category=scene.semantic.copy(), instance=instance)


def train_step(
    model: PanopticModel,
    optimizer: SGD,
    scene: SyntheticScene,
    skip_above: Optional[float] = None,
) -> float:
    """Forward, loss and, unless the loss exceeds ``skip_above``, one SGD
    update on one scene; returns the loss.

    The step's graph is referenced only from this frame, so it is freed
    when the step returns and the next step's forward never overlaps it.
    """
    outputs = model.forward(scene_image(scene))
    loss = total_loss(outputs, scene, model.cfg)
    value = loss.item()
    if not math.isfinite(value):
        raise NumericsError(f"non-finite loss {value!r} during training")
    if skip_above is None or value <= skip_above:
        optimizer.zero_grad()
        loss.backward()
        clip_gradients(optimizer.params)
        optimizer.step()
    return value


def train_epoch(
    model: PanopticModel,
    optimizer: SGD,
    scenes: Iterable[SyntheticScene],
    augment_rng=None,
    skip_above: Optional[float] = None,
) -> float:
    """One pass over the scenes, iterated once; returns the mean loss.

    With an ``augment_rng`` each scene is independently mirrored left-right
    and top-bottom with probability 1/2, a cheap way to stretch a small
    fixed dataset without touching its labels.

    ``skip_above`` rejects outlier steps: a scene whose loss exceeds it
    still counts toward the epoch mean, but its update is dropped.  Norm
    clipping alone bounds each step, not a burst of them; one pathological
    scene can otherwise kick the weights into a saturated basin that the
    rest of the run never escapes.
    """
    losses: List[float] = []
    for scene in scenes:
        if augment_rng is not None:
            scene = flip_scene(scene,
                               horizontal=augment_rng.next_double() < 0.5,
                               vertical=augment_rng.next_double() < 0.5)
        losses.append(train_step(model, optimizer, scene, skip_above))
        del scene  # freed before the next scene is read, so the two never overlap
    if not losses:
        raise ValueError("no scenes to train on")
    return float(np.mean(losses))


def fit(
    model: PanopticModel,
    scenes: Iterable[SyntheticScene],
    epochs: int,
    lr: float,
    seed: int,
    on_epoch: Optional[Callable[[int, float], None]] = None,
) -> List[float]:
    """Train ``model`` for ``epochs`` passes; returns each epoch's mean loss.

    ``scenes`` is iterated once per epoch, so it must be re-iterable: a
    list, or a source that reads the same scenes in the same order on each
    pass and so holds one scene, and its flipped copy, at a time.  A
    one-shot iterator raises TypeError before any training.

    SGD starts at ``lr`` and drops by LR_DECAY_FACTOR from epoch
    ``int(epochs * LR_DECAY_POINT)`` on.  Flip augmentation draws from one
    ``SplitMix64(seed + 1)`` stream that runs on across epochs, so runs
    with the same seed train on the exact same sequence of augmented
    scenes.  ``on_epoch(epoch, mean_loss)`` runs after each epoch; a
    NumericsError propagates after the finished epochs have reached it.
    """
    if iter(scenes) is scenes:
        raise TypeError("fit iterates its scenes once per epoch; pass a re-iterable "
                        "such as a list, not a one-shot iterator")
    optimizer = make_optimizer(model, lr)
    augment_rng = SplitMix64(seed + 1)
    decay_epoch = int(epochs * LR_DECAY_POINT)
    losses: List[float] = []
    for epoch in range(epochs):
        if epoch == decay_epoch:
            optimizer.lr = lr * LR_DECAY_FACTOR
        skip_above = SPIKE_FACTOR * losses[-1] if losses else None
        mean_loss = train_epoch(model, optimizer, scenes,
                                augment_rng=augment_rng, skip_above=skip_above)
        losses.append(mean_loss)
        if on_epoch is not None:
            on_epoch(epoch, mean_loss)
    return losses


def infer_panoptic(
    model: PanopticModel, scene: SyntheticScene
) -> Tuple[PanopticSegmentation, InstancePrediction]:
    """One forward pass -> (fused panoptic labeling, post-NMS instances)."""
    cfg = model.cfg
    with ad.no_grad():
        outputs = model.forward(scene_image(scene))
    pred = decode_instances(outputs.cate_logits.data, outputs.mask_logits.data, cfg)
    pred = matrix_nms(pred)
    semantic = upsample_nearest(np.argmax(outputs.sem_logits.data, axis=-1), STRIDE)
    return fuse_panoptic(pred, semantic, cfg), pred


def score_scenes(
    scenes: Iterable[SyntheticScene],
    infer: Callable[[SyntheticScene], Tuple[PanopticSegmentation, InstancePrediction]],
) -> Tuple[PQResult, float]:
    """PQ over all scenes, and the twin rate: the fraction of twin scenes
    whose twins were both found.

    ``infer(scene)`` runs once per scene and returns the fused labeling,
    which feeds the PQ accumulator, and the post-NMS instances, which
    feed ``twins_covered``.  Twin scenes are those ``is_twin_scene``
    accepts; the twin rate is NaN when there are none.
    """
    acc = PqAccumulator()
    covered: List[bool] = []
    for scene in scenes:
        fused, pred = infer(scene)
        acc.add(fused, scene_to_panoptic(scene))
        if is_twin_scene(scene):
            covered.append(_twins_covered(pred, scene))
    rate = sum(covered) / len(covered) if covered else float("nan")
    return acc.result(), rate


def evaluate_scenes(
    model: PanopticModel, scenes: Iterable[SyntheticScene]
) -> Tuple[PQResult, float]:
    """``score_scenes`` with one ``infer_panoptic`` pass of ``model`` per scene."""
    return score_scenes(scenes, lambda scene: infer_panoptic(model, scene))


def _cropped(mask: np.ndarray) -> np.ndarray:
    """The mask cut to its bounding box."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return mask[:0, :0]
    return mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


def is_twin_scene(scene: SyntheticScene) -> bool:
    """A twin-mode scene whose first two instances are its twin pair: the
    same category, and masks equal up to translation.  When the second
    twin finds no room, generation goes on placing other things, so a
    twin-mode scene can lack the pair."""
    if scene.meta.get("twin_mode") != "1" or len(scene.instances) < 2:
        return False
    (mask_a, category_a), (mask_b, category_b) = scene.instances[:2]
    return category_a == category_b and np.array_equal(_cropped(mask_a), _cropped(mask_b))


def twins_covered(pred: InstancePrediction, scene: SyntheticScene) -> bool:
    """True when every ground-truth twin mask is covered by some kept
    prediction (score above ``post_nms_score``) at IoU > 0.5, regardless
    of the predicted class."""
    if not is_twin_scene(scene):
        raise ValueError("scene has no twin pair")
    return _twins_covered(pred, scene)


def _twins_covered(pred: InstancePrediction, scene: SyntheticScene) -> bool:
    """``twins_covered`` for a scene already known to be a twin scene."""
    kept = pred.masks[pred.scores > ModelConfig.post_nms_score]
    twins = np.stack([mask for mask, _ in scene.instances[:2]])
    inter = (twins[:, None] & kept[None]).sum(axis=(2, 3))  # (2, n_kept)
    union = twins.sum(axis=(1, 2))[:, None] + kept.sum(axis=(1, 2)) - inter
    # IoU > 0.5 without dividing: an empty union has inter 0 and fails
    return bool((2 * inter > union).any(axis=1).all())
