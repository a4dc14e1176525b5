"""Deterministic pseudo-random numbers.

Every stochastic element of the toolkit (noise injection, synthetic
adapters, test data) draws from this generator so that artifacts are
reproducible bit-for-bit across runs and platforms.  The core is the
splitmix64 finalizer applied to ``seed + counter``: a counter-based
scheme, so a stream is a pure function of its seed.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MANTISSA_SHIFT = np.uint64(11)

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, written over it with one
    scratch array for the shifts; returns ``x``.  Unsigned array
    arithmetic wraps modulo 2**64 without a warning."""
    t = np.empty_like(x)
    np.right_shift(x, _SHIFTS[0], out=t)
    x ^= t
    x *= _MIX1
    np.right_shift(x, _SHIFTS[1], out=t)
    x ^= t
    x *= _MIX2
    np.right_shift(x, _SHIFTS[2], out=t)
    x ^= t
    return x


def _mix_int(h: int) -> int:
    """``mix64`` of one word as a Python int: a tag's few words cost less
    this way than as numpy calls."""
    h = ((h ^ (h >> 30)) * int(_MIX1)) & _U64_MASK
    h = ((h ^ (h >> 27)) * int(_MIX2)) & _U64_MASK
    return h ^ (h >> 31)


class Rng:
    """Counter-based splitmix64 stream."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64_MASK
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        words = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        words *= _GOLDEN
        words += np.uint64(self.seed)
        self._counter += n
        return mix64(words)

    def _unit(self, n: int) -> np.ndarray:
        # 53-bit mantissa draw in [0, 1)
        words = self._raw(n)
        words >>= _MANTISSA_SHIFT
        u = words.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def uniform(self, shape, lo=0.0, hi=1.0) -> np.ndarray:
        """fp32 samples uniform in [lo, hi)."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = self._unit(n)
        u *= hi - lo
        u += lo
        return u.astype(np.float32).reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """fp32 standard-normal samples via Box-Muller."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (n + 1) // 2
        u1 = 1.0 - self._unit(pairs)  # (0, 1], keeps log finite
        u2 = self._unit(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.astype(np.float32).reshape(shape)

    def integers(self, lo: int, hi: int, shape) -> np.ndarray:
        """int64 samples uniform in [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty integer range")
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        span = np.uint64(hi - lo)
        vals = (self._raw(n) % span).astype(np.int64) + lo
        return vals.reshape(shape)

    def child(self, tag: str) -> "Rng":
        """Independent stream derived from a string tag."""
        h = self.seed
        for b in tag.encode("utf-8"):
            h = _mix_int((h + b + 1) & _U64_MASK)
        return Rng(h)
