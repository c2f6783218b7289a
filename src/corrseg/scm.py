"""Semantic correlation module.

Predicts per-location correlation-function parameters from the feature
map (one shared 3x3 convolution, then a 1x1 head per axis) and uses the
resulting correlations as aggregation weights in place of dot-product
attention.  Two aggregation modes:

- global: softmax over all H*W locations of the separable 2D correlation,
  cost O((HW)^2 C).  Each location's logits are the outer product of its
  vertical and horizontal profiles, so the softmax and the weighted sum
  are one ``autodiff.outer_softmax_matmul`` node that takes the two
  profiles.  It keeps one (HW, HW) buffer of softmax weights, and its
  backward builds the logits' gradient a block of rows at a time, so
  neither the (HW)^2 logits nor their gradient becomes a graph tensor
  or a second (HW, HW) array.  Feature maps above
  ``MAX_GLOBAL_LOCATIONS`` locations are refused;
- axial (default): independent softmaxes along the row and the column of
  each location, summed, cost O(HW (H+W) C).  Each softmax and the
  weighted sum it feeds are one ``autodiff.softmax_matmul`` node, which
  keeps only the softmax weights for the backward pass.

Counting only the weighted feature sums, the dominant term of each mode,
one aggregation takes exactly (HW)^2 C (global) or HW (H+W) C (axial)
multiply-accumulates.

The output is added to the input features (residual).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corrfn import CorrParamField, field_profiles
from .errors import ConfigError, ShapeError
from .rng import SplitMix64

# Global mode holds one (HW, HW) float64 buffer per aggregation: 4096
# locations is 128 MiB, reached by 256x256 scenes at the backbone's
# stride of 4.
MAX_GLOBAL_LOCATIONS = 4096


@dataclass
class ScmWeights:
    """One 3x3 trunk convolution and the two per-axis parameter heads."""

    pre_conv: Tensor
    pre_bias: Tensor
    hor_head: Tensor
    hor_bias: Tensor
    ver_head: Tensor
    ver_bias: Tensor

    @classmethod
    def init(cls, channels: int, n_terms: int, rng: SplitMix64) -> "ScmWeights":
        k = 2 * n_terms + 1
        return cls(
            pre_conv=ad.init_parameter((3, 3, channels, channels), 9 * channels, rng),
            pre_bias=ad.zeros_parameter((channels,)),
            hor_head=ad.init_parameter((1, 1, channels, k), channels, rng),
            hor_bias=ad.zeros_parameter((k,)),
            ver_head=ad.init_parameter((1, 1, channels, k), channels, rng),
            ver_bias=ad.zeros_parameter((k,)),
        )

    def parameters(self, prefix: str = "scm") -> dict:
        return {
            f"{prefix}.pre_conv": self.pre_conv,
            f"{prefix}.pre_bias": self.pre_bias,
            f"{prefix}.hor_head": self.hor_head,
            f"{prefix}.hor_bias": self.hor_bias,
            f"{prefix}.ver_head": self.ver_head,
            f"{prefix}.ver_bias": self.ver_bias,
        }


def predict_params(features: Tensor, weights: ScmWeights) -> CorrParamField:
    """Densely predict each location's horizontal/vertical parameters."""
    base = ad.conv2d(features, weights.pre_conv) + weights.pre_bias
    hor = ad.conv2d(base, weights.hor_head) + weights.hor_bias
    ver = ad.conv2d(base, weights.ver_head) + weights.ver_bias
    return CorrParamField(hor=hor, ver=ver)


def _require_matching(features: Tensor, field: CorrParamField) -> None:
    h, w = features.shape[0], features.shape[1]
    if (field.height, field.width) != (h, w):
        raise ShapeError(
            f"parameter field {field.height}x{field.width} does not match "
            f"features {h}x{w}"
        )


def check_global_size(height: int, width: int) -> None:
    """Refuse a global-mode feature map above MAX_GLOBAL_LOCATIONS."""
    if height * width > MAX_GLOBAL_LOCATIONS:
        raise ConfigError(
            f"global-mode SCM allows at most {MAX_GLOBAL_LOCATIONS} feature-map "
            f"locations, got {height}x{width}; use scm_mode=axial or smaller scenes"
        )


def aggregate_global(features: Tensor, field: CorrParamField) -> Tensor:
    """Softmax-weighted sum over all locations, weights from 2D correlations."""
    _require_matching(features, field)
    h, w, c = features.shape
    check_global_size(h, w)
    hor, ver = field_profiles(field, np.arange(w), np.arange(h))
    # Per location, the outer product of its column and row profiles.
    out = ad.outer_softmax_matmul(ad.reshape(ver, (h * w, h)),
                                  ad.reshape(hor, (h * w, w)),
                                  ad.reshape(features, (h * w, c)))
    return ad.reshape(out, (h, w, c))


def axial_terms(features: Tensor, field: CorrParamField):
    """Row- and column-aggregated features, each under its own softmax."""
    _require_matching(features, field)
    h, w = features.shape[0], features.shape[1]
    hor, ver = field_profiles(field, np.arange(w), np.arange(h))  # (H,W,W), (H,W,H)
    row_term = ad.softmax_matmul(hor, features)  # (H,W,W) @ (H,W,C)
    col_logits = ad.transpose(ver, (1, 0, 2))  # (W,H,H)
    col_feats = ad.transpose(features, (1, 0, 2))  # (W,H,C)
    col_term = ad.transpose(ad.softmax_matmul(col_logits, col_feats), (1, 0, 2))
    return row_term, col_term


def aggregate_axial(features: Tensor, field: CorrParamField) -> Tensor:
    row_term, col_term = axial_terms(features, field)
    return row_term + col_term


AGGREGATORS = {"global": aggregate_global, "axial": aggregate_axial}


def scm_forward(features: Tensor, weights: ScmWeights, mode: str = "axial") -> Tensor:
    """features + aggregate(features, predicted params); default axial mode."""
    try:
        aggregate = AGGREGATORS[mode]
    except KeyError:
        raise ValueError(
            f"unknown aggregation mode {mode!r}; use one of {', '.join(AGGREGATORS)}"
        ) from None
    return features + aggregate(features, predict_params(features, weights))
