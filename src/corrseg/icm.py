"""Instance correlation module.

Identical-looking instances produce identical visual features, so masks
keyed on appearance alone cannot tell them apart.  This module gives each
location a positional signature: its correlation values against a fixed
uniform grid of S*S reference points, stacked into an S*S-channel vector,
projected to C channels and added to the (linearly projected) features.

The parameter-prediction head is an ``scm.ScmWeights`` with its own
weights; the two projections carry no bias, so the positional
contribution is exactly linear in the correlation values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import scm
from .autodiff import Tensor
from .corrfn import CorrParamField, field_profiles
from .errors import ConfigError, ShapeError
from .rng import SplitMix64


@dataclass
class ReferenceGrid:
    """Centers of a uniform s-by-s partition of an H-by-W feature map."""

    height: int
    width: int
    points: np.ndarray  # (s*s, 2) as (x, y), row-major over grid cells


def make_reference_grid(height: int, width: int, s: int) -> ReferenceGrid:
    """Reference point (i, j) sits at x=(j+0.5)*W/s, y=(i+0.5)*H/s."""
    if s < 1:
        raise ConfigError(f"reference grid side must be at least 1, got {s}")
    if s > 2 * min(height, width):
        raise ConfigError(
            f"s_ref={s} is too fine for a {height}x{width} map"
        )
    ii, jj = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    xs = (jj.reshape(-1) + 0.5) * width / s
    ys = (ii.reshape(-1) + 0.5) * height / s
    return ReferenceGrid(height=height, width=width,
                         points=np.stack([xs, ys], axis=1))


def reference_correlations(field: CorrParamField, refs: ReferenceGrid) -> Tensor:
    """(H, W, S*S) tensor; channel k is the 2D correlation of u to point P_k."""
    if (field.height, field.width) != (refs.height, refs.width):
        raise ShapeError(
            f"reference grid built for {refs.height}x{refs.width}, "
            f"parameter field is {field.height}x{field.width}"
        )
    return ad.mul(*field_profiles(field, refs.points[:, 0], refs.points[:, 1]))


@dataclass
class IcmWeights:
    """The instance encoder: a parameter head of the SCM's shape with its
    own weights, plus the two bias-free projections."""

    head: scm.ScmWeights
    feat_proj: Tensor  # (1, 1, C, C)
    corr_proj: Tensor  # (1, 1, S*S, C)

    @classmethod
    def init(cls, channels: int, n_terms: int, s: int, rng: SplitMix64) -> "IcmWeights":
        return cls(
            head=scm.ScmWeights.init(channels, n_terms, rng),
            feat_proj=ad.init_parameter((1, 1, channels, channels), channels, rng),
            corr_proj=ad.init_parameter((1, 1, s * s, channels), s * s, rng),
        )

    def parameters(self) -> dict:
        return {
            **self.head.parameters("icm"),
            "icm.feat_proj": self.feat_proj,
            "icm.corr_proj": self.corr_proj,
        }

    def encode(self, features: Tensor) -> Tensor:
        """ICM output over a reference grid sized by ``corr_proj``'s inputs."""
        s = math.isqrt(self.corr_proj.shape[2])
        refs = make_reference_grid(features.shape[0], features.shape[1], s)
        return icm_forward(features, self, refs)


def predict_params(features: Tensor, weights: IcmWeights) -> CorrParamField:
    return scm.predict_params(features, weights.head)


def combine(features: Tensor, corrs: Tensor, weights: IcmWeights) -> Tensor:
    """Projected features plus projected correlations, both bias-free."""
    return ad.conv2d(features, weights.feat_proj) + ad.conv2d(corrs, weights.corr_proj)


def icm_forward(features: Tensor, weights: IcmWeights, refs: ReferenceGrid) -> Tensor:
    field = predict_params(features, weights)
    corrs = reference_correlations(field, refs)
    return combine(features, corrs, weights)
