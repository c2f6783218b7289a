"""Deterministic counter-based random number generation.

All stochastic choices in the package (scene synthesis, weight
initialization, flip augmentation) draw from SplitMix64 so that every output
is a pure function of an integer seed and the draw index.  SplitMix64 is a
64-bit counter-based mixer (Steele, Lea & Flood's splittable generator
finalizer); a port in any language that reproduces the mixing constants
below reproduces our byte streams exactly.

Draw k (1-based) for seed s is::

    mix64((s + k * 0x9E3779B97F4A7C15) mod 2**64)

where mix64 is the xor-shift/multiply finalizer in :func:`mix64`.  Doubles
take the top 53 bits of the draw scaled by 2**-53.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based SplitMix64 stream for one seed.

    The stream state is just (seed, counter); `counter` advances by the
    number of 64-bit draws consumed, including one per element for array
    draws.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64(self.seed + self.counter * _GOLDEN)

    def next_double(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of a draw."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_double()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection-free modulo of a draw.

        The modulo bias is below 2**-50 for the n used here (n < 2**14).
        """
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return self.next_u64() % n

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Vectorized uniform draws; consumes size(shape) counter steps."""
        size = int(np.prod(shape)) if shape else 1
        idx = np.arange(self.counter + 1, self.counter + size + 1, dtype=np.uint64)
        self.counter += size
        z = (np.uint64(self.seed) + idx * np.uint64(_GOLDEN))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        doubles = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (low + (high - low) * doubles).reshape(shape)
