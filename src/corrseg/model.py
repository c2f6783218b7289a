"""Toy one-stage panoptic model.

A two-stage strided backbone maps an (H, W, 3) image to (H/4, W/4, C)
features.  The semantic branch (optionally enhanced by the semantic
correlation module) stacks four 3x3 convolutions and emits per-pixel
class logits.  The instance branch (optionally enhanced by the instance
correlation module or a comparator positional encoder) follows the
dynamic-kernel grid design: a G-by-G grid of cells, each predicting
per-class scores and a 1x1 kernel that is applied to a shared mask
feature map.

All learned state lives in plain Tensor dataclass fields so the
parameter dict is flat, checkpointable, and order-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from . import autodiff as ad
from . import icm as icm_mod
from . import scm as scm_mod
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .rng import SplitMix64
from .synth import STUFF_CLASSES, THING_CLASSES

STRIDE = 4  # backbone downsampling factor

# Category-head bias prior: sigmoid(-4.59) is about 0.01, so an untrained
# model scores every cell-class pair below the pre-NMS threshold and
# predicts no instances.
CATE_BIAS_INIT = -4.59

# Upper limits keep building one model bounded in memory: channels sizes
# every feature map and kernel, n_fourier every correlation profile, and
# the mask head emits grid_size^2 full feature maps per scene.
MAX_CHANNELS = 256
MAX_FOURIER = 64
MAX_GRID_SIZE = 64


@dataclass
class ModelConfig:
    # Every field is architecture that a checkpoint must match.  The class
    # counts belong to the scene generator's label set, and the loss weight
    # and post-processing settings are fixed, so they are constants.
    k_thing: ClassVar[int] = THING_CLASSES
    k_stuff: ClassVar[int] = STUFF_CLASSES
    k_total: ClassVar[int] = THING_CLASSES + STUFF_CLASSES
    lambda_sem: ClassVar[float] = 0.5  # semantic loss weight
    pre_nms_score: ClassVar[float] = 0.1
    post_nms_score: ClassVar[float] = 0.3
    stuff_min_area: ClassVar[float] = 4096.0 / (640.0 * 640.0)  # of the image
    nms_sigma: ClassVar[float] = 2.0

    n_fourier: int = 3
    s_ref: int = 4
    channels: int = 16
    grid_size: int = 4
    use_scm: bool = False
    use_icm: bool = False
    scm_mode: str = "axial"

    def __post_init__(self):
        for name, low, high in (("channels", 1, MAX_CHANNELS),
                                ("n_fourier", 0, MAX_FOURIER),
                                ("grid_size", 1, MAX_GRID_SIZE)):
            value = getattr(self, name)
            if not low <= value <= high:
                raise ConfigError(f"{name} must be in [{low}, {high}], got {value}")
        if self.s_ref < 1:
            raise ConfigError(f"s_ref must be >= 1, got {self.s_ref}")
        if self.scm_mode not in scm_mod.AGGREGATORS:
            raise ConfigError(f"scm_mode must be one of {', '.join(scm_mod.AGGREGATORS)}, "
                              f"got {self.scm_mode!r}")


def check_scene_size(cfg: ModelConfig, height: int, width: int) -> None:
    """Raise ConfigError unless a height x width scene fits ``cfg``.

    Both sides must be divisible by STRIDE and ``grid_size`` must divide
    the feature map; ICM's reference grid and global-mode SCM's size
    limit are checked by their own modules.
    """
    if height % STRIDE or width % STRIDE:
        raise ConfigError(f"scene sides must be divisible by {STRIDE}, got {height}x{width}")
    hf, wf = height // STRIDE, width // STRIDE
    if hf % cfg.grid_size or wf % cfg.grid_size:
        raise ConfigError(
            f"grid_size={cfg.grid_size} does not divide the {hf}x{wf} feature map "
            f"of {height}x{width} scenes"
        )
    if cfg.use_icm:
        icm_mod.make_reference_grid(hf, wf, cfg.s_ref)
    if cfg.use_scm and cfg.scm_mode == "global":
        scm_mod.check_global_size(hf, wf)


@dataclass
class InstancePrediction:
    """Candidate instances: (n, H, W) bool masks, (n,) categories, (n,) scores."""

    masks: np.ndarray
    categories: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        if not (len(self.masks) == len(self.categories) == len(self.scores)):
            raise ShapeError(
                f"prediction lengths differ: {len(self.masks)} masks, "
                f"{len(self.categories)} categories, {len(self.scores)} scores"
            )

    def __len__(self) -> int:
        return len(self.masks)


@dataclass
class ModelOutputs:
    sem_logits: Tensor   # (Hf, Wf, K_total)
    cate_logits: Tensor  # (G, G, K_thing)
    mask_logits: Tensor  # (G*G, Hf, Wf)


def _conv_block(channels_in: int, channels_out: int, rng: SplitMix64, k: int = 3):
    kernel = ad.init_parameter((k, k, channels_in, channels_out), k * k * channels_in, rng)
    bias = ad.zeros_parameter((channels_out,))
    return kernel, bias


class PanopticModel:
    def __init__(self, cfg: ModelConfig, rng: SplitMix64,
                 instance_encoder: Optional[object] = None):
        self.cfg = cfg
        c = cfg.channels
        self.stem1, self.stem1_bias = _conv_block(3, c, rng)
        self.stem2, self.stem2_bias = _conv_block(c, c, rng)
        self.sem_convs = [_conv_block(c, c, rng) for _ in range(4)]
        self.sem_out, self.sem_out_bias = _conv_block(c, cfg.k_total, rng, k=1)
        self.mask_convs = [_conv_block(c, c, rng) for _ in range(2)]
        self.tower_conv, self.tower_bias = _conv_block(c, c, rng)
        self.cate_head, self.cate_bias = _conv_block(c, cfg.k_thing, rng, k=1)
        self.cate_bias.data[...] = CATE_BIAS_INIT
        self.kernel_head, self.kernel_bias = _conv_block(c, c, rng, k=1)
        self.scm_weights = (
            scm_mod.ScmWeights.init(c, cfg.n_fourier, rng) if cfg.use_scm else None
        )
        if instance_encoder is not None:
            self.instance_encoder = instance_encoder
        elif cfg.use_icm:
            self.instance_encoder = icm_mod.IcmWeights.init(c, cfg.n_fourier, cfg.s_ref, rng)
        else:
            self.instance_encoder = None

    # -- parameters -----------------------------------------------------

    def parameters(self) -> Dict[str, Tensor]:
        params: Dict[str, Tensor] = {
            "stem1": self.stem1, "stem1_bias": self.stem1_bias,
            "stem2": self.stem2, "stem2_bias": self.stem2_bias,
            "sem_out": self.sem_out, "sem_out_bias": self.sem_out_bias,
            "tower_conv": self.tower_conv, "tower_bias": self.tower_bias,
            "cate_head": self.cate_head, "cate_bias": self.cate_bias,
            "kernel_head": self.kernel_head, "kernel_bias": self.kernel_bias,
        }
        for i, (kernel, bias) in enumerate(self.sem_convs):
            params[f"sem_conv{i}"] = kernel
            params[f"sem_conv{i}_bias"] = bias
        for i, (kernel, bias) in enumerate(self.mask_convs):
            params[f"mask_conv{i}"] = kernel
            params[f"mask_conv{i}_bias"] = bias
        if self.scm_weights is not None:
            params.update(self.scm_weights.parameters("scm"))
        if self.instance_encoder is not None:
            params.update(self.instance_encoder.parameters())
        return params

    # -- forward pieces ---------------------------------------------------

    def backbone(self, image: Tensor) -> Tensor:
        h, w = image.shape[0], image.shape[1]
        if h % STRIDE or w % STRIDE:
            raise ShapeError(f"image dims must be divisible by {STRIDE}, got {h}x{w}")
        x = ad.relu(ad.conv2d(image, self.stem1, stride=2) + self.stem1_bias)
        return ad.relu(ad.conv2d(x, self.stem2, stride=2) + self.stem2_bias)

    def semantic_logits(self, features: Tensor) -> Tensor:
        x = features
        if self.scm_weights is not None:
            x = scm_mod.scm_forward(x, self.scm_weights, mode=self.cfg.scm_mode)
        for kernel, bias in self.sem_convs:
            x = ad.relu(ad.conv2d(x, kernel) + bias)
        return ad.conv2d(x, self.sem_out) + self.sem_out_bias

    def instance_maps(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        """Category logits and mask logits from the dynamic-kernel grid."""
        cfg = self.cfg
        x = features
        if self.instance_encoder is not None:
            x = self.instance_encoder.encode(x)
        hf, wf, c = x.shape
        g = cfg.grid_size
        if hf % g or wf % g:
            raise ShapeError(
                f"feature map {hf}x{wf} not divisible by grid size {g}"
            )
        mask_feat = x
        for kernel, bias in self.mask_convs:
            mask_feat = ad.relu(ad.conv2d(mask_feat, kernel) + bias)
        tower = ad.relu(ad.conv2d(x, self.tower_conv) + self.tower_bias)
        hb, wb = hf // g, wf // g
        pooled = ad.reshape(tower, (g, hb, g, wb, c))
        pooled = ad.tsum(ad.tsum(pooled, axis=3), axis=1) * (1.0 / (hb * wb))
        cate_logits = ad.conv2d(pooled, self.cate_head) + self.cate_bias
        kernels = ad.conv2d(pooled, self.kernel_head) + self.kernel_bias
        flat_feat = ad.transpose(ad.reshape(mask_feat, (hf * wf, c)), (1, 0))
        mask_logits = ad.reshape(kernels, (g * g, c)) @ flat_feat
        return cate_logits, ad.reshape(mask_logits, (g * g, hf, wf))

    def forward(self, image: Tensor) -> ModelOutputs:
        features = self.backbone(image)
        sem_logits = self.semantic_logits(features)
        cate_logits, mask_logits = self.instance_maps(features)
        return ModelOutputs(sem_logits=sem_logits, cate_logits=cate_logits,
                            mask_logits=mask_logits)


def decode_instances(
    cate_logits: np.ndarray, mask_logits: np.ndarray, cfg: ModelConfig
) -> InstancePrediction:
    """Turn raw head outputs into thresholded per-cell predictions.

    This is the one place masks are binarized: each candidate's sigmoid
    probabilities are upsampled (bilinear) to image size and cut at 0.5,
    which places the boundary between feature cells instead of snapping
    it to 4-pixel blocks.  Candidates are the (cell, class) pairs scoring
    above ``pre_nms_score``, ordered by descending score, then grid cell,
    then class.
    """
    cate = ad.stable_sigmoid(cate_logits).reshape(cfg.grid_size ** 2, cfg.k_thing)
    cells, classes = np.nonzero(cate > cfg.pre_nms_score)
    scores = cate[cells, classes]
    order = np.lexsort((classes, cells, -scores))
    cells, classes, scores = cells[order], classes[order], scores[order]
    probs = upsample_bilinear(ad.stable_sigmoid(mask_logits[cells]), STRIDE)
    return InstancePrediction(masks=probs > 0.5, categories=classes, scores=scores)


def upsample_nearest(arr: np.ndarray, factor: int) -> np.ndarray:
    return np.repeat(np.repeat(arr, factor, axis=0), factor, axis=1)


def upsample_bilinear(arr: np.ndarray, factor: int) -> np.ndarray:
    """Half-pixel-aligned bilinear upscale with edge clamping.

    Scales the last two axes, so an (n, h, w) stack is upsampled in one
    call, slice by slice.
    """
    h, w = arr.shape[-2:]
    ys = (np.arange(h * factor) + 0.5) / factor - 0.5
    xs = (np.arange(w * factor) + 0.5) / factor - 0.5
    y0f = np.floor(ys)
    x0f = np.floor(xs)
    wy = (ys - y0f)[:, None]
    wx = (xs - x0f)[None, :]
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    # Interpolate along x on the h input rows first; picking rows y0 and
    # y1 afterwards gives the same per-pixel arithmetic on 1/factor of
    # the rows.
    cols = arr[..., x0] * (1.0 - wx) + arr[..., x1] * wx
    return cols[..., y0, :] * (1.0 - wy) + cols[..., y1, :] * wy
