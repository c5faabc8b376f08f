"""Seeded 64-bit SplitMix generator.

Randomized suites are driven by this generator rather than platform RNGs so
that a (config, seed) pair reproduces bit-identical sample streams anywhere.

SplitMix64 is counter-based: output ``k`` after a state ``s`` is the mix of
``s + (k + 1) * GAMMA``, so the generator's position is one integer and
:meth:`SplitMix64.block` computes any stretch of the stream with a few numpy
``uint64`` operations.  :func:`_complex_normals` is the one Box-Muller
transform: it turns a block into complex normals, and
:meth:`SplitMix64.complex_normal` is its one-pair case.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53


def _mix(z):
    """The SplitMix64 finalizer, on a masked Python int or a ``uint64`` array."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _unit(z):
    """The double in ``[0, 1)`` with the top 53 bits of each output, on a Python int or a ``uint64`` array."""
    return (z >> 11) * _INV_2_53


class SplitMix64:
    """SplitMix-style 64-bit generator: scalar outputs, uniforms and normals, or a block of outputs."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def peek(self, k: int) -> int:
        """Output ``k`` of the stream ahead (``peek(0)`` is the next ``next_u64()``), without moving on."""
        return _mix((self._state + (k + 1) * _GAMMA) & _MASK)

    def block(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as a ``uint64`` array, as ``n`` calls of :meth:`next_u64` return them."""
        counters = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        return _mix(counters)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in ``[low, high)`` with 53 bits of resolution."""
        return low + (high - low) * _unit(self.next_u64())

    def complex_normal(self) -> complex:
        """Complex normal from the next Box-Muller pair of outputs."""
        return complex(_complex_normals(self.block(2))[0])


def _complex_normals(z: np.ndarray) -> np.ndarray:
    """Complex normals ``r cos(theta) + i r sin(theta)`` from consecutive output pairs ``(z1, z2)``.

    ``r = sqrt(-2 ln u1)`` with ``u1 = ((z1 >> 11) + 1) 2^-53`` in ``(0, 1]``
    and ``theta = 2 pi (z2 >> 11) 2^-53``.  ``math.log``, ``math.cos`` and
    ``math.sin`` run per element, since numpy's vectorized ``log`` does not
    round as the C library does for every input; ``sqrt`` and the products
    are correctly rounded either way.
    """
    pairs = z.reshape(-1, 2)
    n = len(pairs)
    u1 = ((pairs[:, 0] >> 11) + 1) * _INV_2_53
    angle = 2.0 * math.pi * _unit(pairs[:, 1])
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, n))
    out = np.empty(n, dtype=complex)
    out.real = radius * np.fromiter(map(math.cos, angle.tolist()), np.float64, n)
    out.imag = radius * np.fromiter(map(math.sin, angle.tolist()), np.float64, n)
    return out
