"""Sinusoidal correlation functions on pixel grids.

A location's correlations to the other locations along one axis form a
length-L sequence.  Appending the sequence's mirror image yields a
length-2L signal that is continuous at the seam and periodic when tiled,
so a small number of harmonics of the base frequency ``pi / L``
represents it well:

    G(j) = a0 + sum_n  A_n * sin(n * (pi / L) * j + psi_n),   n = 1..N

Since A sin(x + psi) = (A cos psi) sin x + (A sin psi) cos x, the
differentiable path evaluates this as a0 + [A cos psi | A sin psi] @ B,
where B is the constant (2N, M) basis of sin(n (pi / L) j) and
cos(n (pi / L) j) over the M sample positions: transcendentals run per
location and harmonic, not per sample.

The 2D form is separable: a product of an independent horizontal and
vertical 1D function per location.  This keeps opposite row ends
decoupled, which a flattened 1D parameterization over row-major indices
would not (the end of one row is not adjacent to the start of the next).

Two evaluation paths exist on purpose: plain-numpy helpers
(:func:`eval_corr_1d`, :func:`eval_corr_2d`, :func:`correlation_map`)
for oracles, inference and visualization, and the differentiable
:func:`corr_profile` used by the learned modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

ArrayLike = Union[np.ndarray, list, tuple]


def n_terms_from_channels(channels: int) -> int:
    """Invert the packed layout size 2N+1 -> N."""
    if channels < 1 or channels % 2 == 0:
        raise ShapeError(f"packed parameter layout needs odd channel count, got {channels}")
    return (channels - 1) // 2


@dataclass
class CorrParams1D:
    """One axis's correlation function: constant term plus N harmonics."""

    a0: float
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=float).reshape(-1)
        self.phases = np.asarray(self.phases, dtype=float).reshape(-1)
        if self.amplitudes.shape != self.phases.shape:
            raise ShapeError(
                f"amplitude/phase count mismatch: {self.amplitudes.size} vs {self.phases.size}"
            )
        if not (np.isfinite(self.a0) and np.all(np.isfinite(self.amplitudes))
                and np.all(np.isfinite(self.phases))):
            raise ValueError("correlation parameters must be finite")

    @property
    def n_terms(self) -> int:
        return self.amplitudes.size


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


def vector_to_params(vec: ArrayLike) -> CorrParams1D:
    vec = np.asarray(vec, dtype=float).reshape(-1)
    n = n_terms_from_channels(vec.size)
    return CorrParams1D(a0=float(vec[0]), amplitudes=vec[1:n + 1], phases=vec[n + 1:])


def theta_at(field: CorrParamField, row: int, col: int) -> Tuple[CorrParams1D, CorrParams1D]:
    """Extract one location's (horizontal, vertical) parameters as plain values."""
    hor = field.hor.data if isinstance(field.hor, Tensor) else field.hor
    ver = field.ver.data if isinstance(field.ver, Tensor) else field.ver
    return vector_to_params(hor[row, col]), vector_to_params(ver[row, col])


def mirror_extend(c: ArrayLike) -> np.ndarray:
    """[a, b, c] -> [a, b, c, c, b, a]; continuous at the seam, period 2L."""
    values = np.asarray(c, dtype=float).reshape(-1)
    if values.size < 1:
        raise ShapeError("cannot mirror-extend an empty sequence")
    return np.concatenate([values, values[::-1]])


def fit_dft(t: ArrayLike, n_terms: int) -> CorrParams1D:
    """Amplitude/phase form of the lowest `n_terms` harmonics of `t`.

    `t` has even length 2L (a mirror-extended sequence, typically).  The
    constant term is the mean; harmonic n gets amplitude 2|X_n|/(2L) and
    phase arg(X_n) + pi/2, so that A*sin(n*(pi/L)*j + psi) reproduces the
    real inverse-transform term.  The Nyquist harmonic (n == L) is not
    doubled.  With n_terms == L the reconstruction at integer j is exact.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.size < 2 or t.size % 2 != 0:
        raise ShapeError(f"expected an even-length extended sequence, got length {t.size}")
    m = t.size
    half = m // 2
    if not 0 <= n_terms <= half:
        raise ValueError(f"n_terms must be in [0, {half}] for length {m}, got {n_terms}")
    spectrum = np.fft.rfft(t)
    a0 = spectrum[0].real / m
    bins = spectrum[1:n_terms + 1]
    amps = 2.0 * np.abs(bins) / m
    if n_terms == half:
        amps[-1] *= 0.5
    phases = np.angle(bins) + np.pi / 2.0
    return CorrParams1D(a0=float(a0), amplitudes=amps, phases=phases)


def eval_corr_1d(theta: CorrParams1D, j, length: int):
    """G(j) for scalar or array j; period 2*length, defined for all real j."""
    j = np.asarray(j, dtype=float)
    base = np.pi / length
    freqs = np.arange(1, theta.n_terms + 1) * base
    args = np.multiply.outer(j, freqs) + theta.phases
    return theta.a0 + (np.sin(args) * theta.amplitudes).sum(axis=-1)


def eval_corr_2d(theta_u: Tuple[CorrParams1D, CorrParams1D], v, height: int, width: int) -> float:
    """Separable 2D correlation at v=(vx, vy): hor uses L=width, ver L=height."""
    theta_hor, theta_ver = theta_u
    vx, vy = v
    return float(eval_corr_1d(theta_hor, vx, width) * eval_corr_1d(theta_ver, vy, height))


def correlation_map(theta_u: Tuple[CorrParams1D, CorrParams1D], height: int, width: int) -> np.ndarray:
    """Dense (H, W) evaluation of the separable 2D correlation."""
    if height < 1 or width < 1:
        raise ShapeError(f"correlation map needs positive dims, got {height}x{width}")
    theta_hor, theta_ver = theta_u
    hor = eval_corr_1d(theta_hor, np.arange(width), width)
    ver = eval_corr_1d(theta_ver, np.arange(height), height)
    return np.multiply.outer(ver, hor)


def corr_profile(theta: Tensor, coords, length: int) -> Tensor:
    """Differentiable profile evaluation for packed parameters.

    theta: (..., 2N+1) with layout [a0, A_1..A_N, psi_1..psi_N];
    coords: M sample positions, a plain array.  Returns (..., M) as
    a0 + [A cos psi | A sin psi] @ B with the constant (2N, M) basis
    B = [sin(n w j); cos(n w j)], w = pi / length.
    """
    theta = ad.as_tensor(theta)
    n = n_terms_from_channels(theta.shape[-1])
    lead = theta.shape[:-1]
    coords = np.asarray(coords, dtype=float).reshape(-1)
    args = np.multiply.outer(np.arange(1, n + 1) * (np.pi / length), coords)
    basis = Tensor(np.concatenate([np.sin(args), np.cos(args)]))
    amps, phases = theta[..., 1:n + 1], theta[..., n + 1:]
    coeffs = ad.concat([ad.mul(amps, ad.cos(phases)), ad.mul(amps, ad.sin(phases))])
    rows = int(np.prod(lead))  # reshape(-1, 0) is ambiguous when N == 0
    waves = ad.reshape(ad.matmul(ad.reshape(coeffs, (rows, 2 * n)), basis),
                       lead + (coords.size,))
    return ad.add(waves, theta[..., 0:1])
