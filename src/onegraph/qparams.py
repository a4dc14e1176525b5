"""Affine quantization parameters and the (de)quantize kernels.

Convention: q = clip(round(t / s) + z, q_min, q_max) and
t_hat = s * (q - z), with z = q_min - round(t_min / s) clamped into
[q_min, q_max].  This is the unique affine form under which
dequantize(quantize(t)) stays within s/2 of t across the calibrated
range.  Rounding is half-away-from-zero; quotients are taken in
float64 so the rounding step itself is exact.

The scale is an fp32 value floored at the smallest normal fp32
(``MIN_SCALE``): a range so narrow that its width over the level count
underflows fp32 gets that scale, whose s/2 still bounds the error of
every value in the range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError

SUPPORTED_BITS = (8, 16)
MIN_SCALE = float(np.finfo(np.float32).tiny)


def int_bounds(bits: int, signed: bool) -> tuple[int, int]:
    if bits not in SUPPORTED_BITS:
        raise RangeError(f"unsupported bit width {bits}")
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def storage_dtype(bits: int, signed: bool):
    """Smallest supported signed container for the quantized range."""
    if signed:
        return np.int8 if bits == 8 else np.int16
    return np.int16 if bits == 8 else np.int32


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int
    bits: int
    signed: bool = True

    def __post_init__(self):
        lo, hi = int_bounds(self.bits, self.signed)
        if not self.scale > 0:
            raise RangeError(f"scale must be positive, got {self.scale}")
        if not lo <= self.zero_point <= hi:
            raise RangeError(f"zero point {self.zero_point} outside [{lo}, {hi}]")

    @property
    def q_min(self) -> int:
        return int_bounds(self.bits, self.signed)[0]

    @property
    def q_max(self) -> int:
        return int_bounds(self.bits, self.signed)[1]

    @property
    def repr_lo(self) -> float:
        """Smallest representable real value."""
        return float(np.float32(np.float64(self.scale) * (self.q_min - self.zero_point)))

    @property
    def repr_hi(self) -> float:
        return float(np.float32(np.float64(self.scale) * (self.q_max - self.zero_point)))


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Exact half-away-from-zero rounding, evaluated in float64."""
    x64 = np.asarray(x, dtype=np.float64)
    return np.sign(x64) * np.floor(np.abs(x64) + 0.5)


def compute_quant_params(t_min: float, t_max: float, bits: int, signed: bool = True) -> QuantParams:
    """Scale and zero point for the real range [t_min, t_max]."""
    if t_min > t_max:
        raise RangeError(f"t_min {t_min} exceeds t_max {t_max}")
    q_lo, q_hi = int_bounds(bits, signed)
    if t_min == t_max:
        return QuantParams(scale=1.0, zero_point=0, bits=bits, signed=signed)
    scale = max(float(np.float32((np.float64(t_max) - np.float64(t_min)) / (q_hi - q_lo))), MIN_SCALE)
    z = q_lo - int(round_half_away(np.float64(t_min) / np.float64(scale)))
    z = max(q_lo, min(q_hi, z))
    return QuantParams(scale=scale, zero_point=z, bits=bits, signed=signed)


def quantize_array(t: np.ndarray, p: QuantParams) -> np.ndarray:
    """fp32 tensor -> integer tensor, saturating at the range bounds."""
    q = round_half_away(np.asarray(t, dtype=np.float64) / np.float64(p.scale)) + p.zero_point
    q = np.clip(q, p.q_min, p.q_max)
    return q.astype(storage_dtype(p.bits, p.signed))


def dequantize_array(q: np.ndarray, p: QuantParams) -> np.ndarray:
    """Integer tensor -> fp32, rejecting out-of-range elements."""
    qi = np.asarray(q)
    if qi.size and (qi.min() < p.q_min or qi.max() > p.q_max):
        raise RangeError(f"quantized element outside [{p.q_min}, {p.q_max}]")
    t = qi.astype(np.float64)
    t -= p.zero_point
    t *= p.scale
    return t.astype(np.float32)


def fake_quant(t: np.ndarray, p: QuantParams) -> np.ndarray:
    """dequantize(quantize(t)): the simulated-quantization value."""
    q = round_half_away(np.asarray(t, dtype=np.float64) / np.float64(p.scale)) + p.zero_point
    q = np.clip(q, p.q_min, p.q_max)
    return (np.float64(p.scale) * (q - p.zero_point)).astype(np.float32)


def ste_mask(t: np.ndarray, p: QuantParams) -> np.ndarray:
    """1.0 where t lies in the representable range, else 0.0.

    Straight-through gradient gate: inside [repr_lo, repr_hi] the
    rounding step passes gradients unchanged, outside it saturates.
    """
    t64 = np.asarray(t, dtype=np.float64)
    lo = np.float64(p.scale) * (p.q_min - p.zero_point)
    hi = np.float64(p.scale) * (p.q_max - p.zero_point)
    return ((t64 >= lo) & (t64 <= hi)).astype(np.float32)


def fake_quant_ste(value, p: QuantParams):
    """Forward fake-quant plus the straight-through gradient factor."""
    arr = np.asarray(value, dtype=np.float32)
    return fake_quant(arr, p), ste_mask(arr, p)
