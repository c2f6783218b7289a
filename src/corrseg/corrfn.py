"""Sinusoidal correlation functions on pixel grids.

A location's correlations to the other locations along one axis form a
length-L sequence.  Appending the sequence's mirror image yields a
length-2L signal that is continuous at the seam and periodic when tiled,
so a small number of harmonics of the base frequency ``pi / L``
represents it well:

    G(j) = a0 + sum_n  A_n * sin(n * (pi / L) * j + psi_n),   n = 1..N

Since A sin(x + psi) = (A cos psi) sin x + (A sin psi) cos x, the one
evaluator, :func:`corr_profile`, computes a0 + [A cos psi | A sin psi] @ B,
where B is the constant (2N, M) basis of sin(n (pi / L) j) and
cos(n (pi / L) j) over the M sample positions: transcendentals run per
location and harmonic, not per sample.  B is built once per (N, L,
positions) and shared read-only by every later call.  A profile is one
graph node whose backward is closed-form.  :func:`field_profiles`
applies it to a whole parameter field, one axis at a time, and is the
one place the modules and the CLI get profiles from.

The 2D form is separable: a product of an independent horizontal and
vertical 1D function per location.  This keeps opposite row ends
decoupled, which a flattened 1D parameterization over row-major indices
would not (the end of one row is not adjacent to the start of the next).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def n_terms_from_channels(channels: int) -> int:
    """Invert the packed layout size 2N+1 -> N."""
    if channels < 1 or channels % 2 == 0:
        raise ShapeError(f"packed parameter layout needs odd channel count, got {channels}")
    return (channels - 1) // 2


@dataclass
class CorrParamField:
    """Per-location horizontal and vertical parameters, packed channelwise.

    `hor` and `ver` are (H, W, 2N+1) arrays or Tensors with channel layout
    [a0, A_1..A_N, psi_1..psi_N].
    """

    hor: Union[np.ndarray, Tensor]
    ver: Union[np.ndarray, Tensor]

    def __post_init__(self):
        if self.hor.shape != self.ver.shape or len(self.hor.shape) != 3:
            raise ShapeError(
                f"parameter field needs matching (H, W, 2N+1) halves, "
                f"got {self.hor.shape} and {self.ver.shape}"
            )
        n_terms_from_channels(self.hor.shape[2])

    @property
    def height(self) -> int:
        return self.hor.shape[0]

    @property
    def width(self) -> int:
        return self.hor.shape[1]


@lru_cache(maxsize=64)
def _basis(n: int, length: int, coords: bytes) -> np.ndarray:
    """The read-only (2N, M) basis [sin(n w j); cos(n w j)], w = pi / length,
    at the float64 positions packed in `coords`.  It depends only on the
    map size and the sample positions, so each one is built once."""
    args = np.multiply.outer(np.arange(1, n + 1) * (np.pi / length),
                             np.frombuffer(coords, dtype=float))
    basis = np.concatenate([np.sin(args), np.cos(args)])
    basis.flags.writeable = False
    return basis


def corr_profile(theta: Tensor, coords, length: int) -> Tensor:
    """Differentiable profile evaluation for packed parameters, one node.

    theta: (..., 2N+1) with layout [a0, A_1..A_N, psi_1..psi_N];
    coords: M sample positions, a plain array.  Returns (..., M) as
    a0 + [A cos psi | A sin psi] @ B with the constant (2N, M) basis
    B = [sin(n w j); cos(n w j)], w = pi / length.  With G the output
    gradient and [dc | ds] = G @ B^T, the backward is da0 = rowsum(G),
    dA = dc cos psi + ds sin psi and dpsi = A (ds cos psi - dc sin psi).
    """
    theta = ad.as_tensor(theta)
    n = n_terms_from_channels(theta.shape[-1])
    lead = theta.shape[:-1]
    coords = np.asarray(coords, dtype=float).reshape(-1)
    basis = _basis(n, length, coords.tobytes())
    amps, phases = theta.data[..., 1:n + 1], theta.data[..., n + 1:]
    cos_p, sin_p = np.cos(phases), np.sin(phases)
    rows = math.prod(lead)  # reshape(-1, 0) is ambiguous when N == 0
    coeffs = np.concatenate([amps * cos_p, amps * sin_p], axis=-1).reshape(rows, 2 * n)
    out_data = (coeffs @ basis).reshape(lead + (coords.size,))
    out_data += theta.data[..., 0:1]

    def grad_fn(g):
        dcoeffs = (g.reshape(rows, coords.size) @ basis.T).reshape(lead + (2 * n,))
        dc, ds = dcoeffs[..., :n], dcoeffs[..., n:]
        grad = np.empty(theta.shape)
        grad[..., 0] = g.sum(axis=-1)
        grad[..., 1:n + 1] = dc * cos_p + ds * sin_p
        # Grouped as (ds A) cos psi - (dc A) sin psi, it rounds as the
        # op-by-op graph of sin, cos and mul nodes does, bit for bit.
        grad[..., n + 1:] = ds * amps * cos_p - dc * amps * sin_p
        theta._accum(grad, owned=True)

    return ad.make_node(out_data, (theta,), grad_fn)


def field_profiles(field: CorrParamField, xs, ys):
    """Every location's horizontal profile at columns `xs` and vertical
    profile at rows `ys`: (H, W, len(xs)) and (H, W, len(ys)) Tensors,
    with L taken as the field's own W and H."""
    return (corr_profile(field.hor, xs, field.width),
            corr_profile(field.ver, ys, field.height))
