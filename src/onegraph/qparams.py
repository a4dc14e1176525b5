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

A product of two quantized tensors is computed on their integers
(``int_matmul`` for stored levels, ``centered_matmul`` for levels already
centred): fp32(float64(sum_k (q_a - z_a)(q_b - z_b)) * s_a * s_b), with
the sum taken exactly, as integer-arithmetic-only inference does
(Jacob et al. 2018, arXiv:1712.05877), by float64 GEMMs.  Its every
partial sum is an integer below ``k * 2**bits_a * 2**bits_b`` in
magnitude; while that bound stays below 2**53 a float64 holds each one
exactly, so neither the summation order nor BLAS blocking or threads can
change a bit.  ``int_matmul`` and ``centered_matmul`` check the bound and
raise past it; ``scaled_matmul`` and ``tiled_matmul`` leave the check to
a caller that made it once for all the products it takes with those
shapes and parameters.

``int_matmul``, which runs every ``qlinear``, and a runtime ``qlora``
widen their stored left operand, a base weight held as int8, to float64
one row tile at a time (``tiled_matmul``), never whole, which would cost
8x its bytes.  A tile is the most consecutive rows whose
centred float64 levels fit ``tensor.MATMUL_BLOCK_BYTES``, at least one:
64 rows at k = 256.  (That is the serving kernels' row-tile budget; the
fp32 ``tensor.matmul`` blocks its k against its own,
``tensor.PRODUCT_BLOCK_BYTES``.)  Each tile's GEMM writes that tile's
rows of one float64 accumulator.  An output element is one exact integer sum
whichever tile computes it, so tiling changes no bit.  An operand of at
most one tile's rows is one tile, and a ``qlora`` whose [W; B] fits one
tile takes W x and B x as one GEMM over the two stacked.

Every level comes from one rounding, ``round_levels``: ``levels_into``
divides by s and calls it, and ``quantize_levels``, ``quantize_array``,
``fake_quant`` and the runtime's kernels all go through those two.
``compute_quant_params`` rounds its one zero point the same way in
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, ShapeError
from .tensor import MATMUL_BLOCK_BYTES

SUPPORTED_BITS = (8, 16)
MIN_SCALE = float(np.finfo(np.float32).tiny)
# Every integer up to this magnitude is exact in float64.
EXACT_INT_LIMIT = 1 << 53


def int_bounds(bits: int, signed: bool) -> tuple[int, int]:
    if bits not in SUPPORTED_BITS:
        raise RangeError(f"unsupported bit width {bits}")
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


# (bits, signed) -> (q_min, q_max), so a level bound is one lookup; and as
# floats, which numpy takes as a scalar operand faster than an int.
_BOUNDS = {(bits, signed): int_bounds(bits, signed)
           for bits in SUPPORTED_BITS for signed in (True, False)}
_FLOAT_BOUNDS = {key: (float(lo), float(hi)) for key, (lo, hi) in _BOUNDS.items()}


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
        return _BOUNDS[self.bits, self.signed][0]

    @property
    def q_max(self) -> int:
        return _BOUNDS[self.bits, self.signed][1]

    @property
    def repr_lo(self) -> float:
        """Smallest representable real value."""
        return float(np.float32(np.float64(self.scale) * (self.q_min - self.zero_point)))

    @property
    def repr_hi(self) -> float:
        return float(np.float32(np.float64(self.scale) * (self.q_max - self.zero_point)))


def compute_quant_params(t_min: float, t_max: float, bits: int, signed: bool = True) -> QuantParams:
    """Scale and zero point for the real range [t_min, t_max]."""
    if t_min > t_max:
        raise RangeError(f"t_min {t_min} exceeds t_max {t_max}")
    q_lo, q_hi = int_bounds(bits, signed)
    if t_min == t_max:
        return QuantParams(scale=1.0, zero_point=0, bits=bits, signed=signed)
    scale = max(float(np.float32((float(t_max) - float(t_min)) / (q_hi - q_lo))), MIN_SCALE)
    # The rounding is odd, round(-y) = -round(y), so q_lo - round(t_min / s)
    # is round(-t_min / s) + q_lo: ``round_levels`` in Python floats, which
    # are IEEE doubles as numpy's float64 is.  The quotient is finite (a
    # finite scale is at least t_min's spacing over the level count) or
    # NaN, which raises ValueError in ``trunc``.
    q = -float(t_min) / scale
    z = math.trunc(q + math.copysign(0.5, q)) + q_lo
    return QuantParams(scale=scale, zero_point=min(max(z, q_lo), q_hi), bits=bits, signed=signed)


def round_levels(q: np.ndarray, z, lo, hi) -> np.ndarray:
    """round(q) + z clamped to [lo, hi], in place in the float64 array q.

    The one rounding of the package.  q holds a quotient t / s; it is
    rounded half away from zero as trunc(q + copysign(0.5, q)), which is
    floor(|q| + 0.5) with the sign of q: IEEE rounding is symmetric, so
    a negative q - 0.5 rounds to -(|q| + 0.5) as rounded.  + z makes a
    zero +0.0.  An infinity saturates; a NaN stays NaN.
    """
    q += np.copysign(0.5, q)
    np.trunc(q, out=q)
    q += z
    np.maximum(q, lo, out=q)
    return np.minimum(q, hi, out=q)


def levels_into(t, p: QuantParams, out: np.ndarray) -> np.ndarray:
    """round(t / s) + z saturated to [q_min, q_max], written into the float64 ``out``.

    t is cast into ``out`` (exactly, from fp32 or an integer dtype) and
    divided there by s in float64, then ``round_levels`` rounds it.
    """
    out[...] = t
    out /= p.scale
    lo, hi = _FLOAT_BOUNDS[p.bits, p.signed]
    return round_levels(out, float(p.zero_point), lo, hi)


def quantize_levels(t: np.ndarray, p: QuantParams) -> np.ndarray:
    """round(t / s) + z saturated to [q_min, q_max]: the integer levels, in float64 (``levels_into``)."""
    t = np.asarray(t)
    return levels_into(t, p, np.empty(t.shape, np.float64))


def quantize_array(t: np.ndarray, p: QuantParams) -> np.ndarray:
    """fp32 tensor -> integer tensor, saturating at the range bounds."""
    return quantize_levels(t, p).astype(storage_dtype(p.bits, p.signed))


def check_levels(q: np.ndarray, p: QuantParams) -> None:
    """Reject elements of q outside [q_min, q_max] with ``RangeError``.

    A signed range held in its own storage dtype fills that dtype, so no
    element of it can fall outside; only other dtypes are scanned.
    """
    if not (p.signed and q.dtype == storage_dtype(p.bits, True)) and q.size and (
            q.min() < p.q_min or q.max() > p.q_max):
        raise RangeError(f"quantized element outside [{p.q_min}, {p.q_max}]")


def centered_levels(q: np.ndarray, p: QuantParams) -> np.ndarray:
    """q - z in float64, rejecting elements outside [q_min, q_max] (``check_levels``).

    As |q - z| <= 65,535 < 2**24, fp32 holds the result exactly too.
    """
    qi = np.asarray(q)
    check_levels(qi, p)
    t = qi.astype(np.float64)
    t -= float(p.zero_point)
    return t


def dequantize_array(q: np.ndarray, p: QuantParams) -> np.ndarray:
    """Integer tensor -> fp32, rejecting out-of-range elements."""
    t = centered_levels(q, p)
    t *= p.scale
    return t.astype(np.float32)


def check_exact(a_shape, p_a: QuantParams, b_shape, p_b: QuantParams) -> None:
    if len(a_shape) != 2 or len(b_shape) != 2 or a_shape[1] != b_shape[0]:
        raise ShapeError(f"integer matmul shapes {a_shape} x {b_shape}")
    k = a_shape[1]
    if k << (p_a.bits + p_b.bits) >= EXACT_INT_LIMIT:
        raise RangeError(f"inner extent {k} at {p_a.bits}x{p_b.bits} bits may exceed 2**53")


def centered_matmul(c_a: np.ndarray, p_a: QuantParams, c_b: np.ndarray, p_b: QuantParams) -> np.ndarray:
    """fp32(float64(c_a @ c_b) * (s_a * s_b)) for centred levels c = q - z.

    The exact product itself.  The operands are float64 holding integers
    within their ranges, as ``fake_quant_levels`` recovers them; nothing
    here checks that.  A shape whose bound k * 2**bits_a * 2**bits_b
    reaches 2**53 raises ``RangeError``: past it the float64 sum could
    round.
    """
    check_exact(c_a.shape, p_a, c_b.shape, p_b)
    return scaled_matmul(c_a, c_b, np.float64(p_a.scale) * np.float64(p_b.scale))


def scaled_matmul(c_a: np.ndarray, c_b: np.ndarray, scale) -> np.ndarray:
    """fp32(float64(c_a @ c_b) * scale): ``centered_matmul`` past its bound check.

    For a caller that checked the bound (``check_exact``) once for shapes
    and parameters that many products share, as a runtime session does
    for its ``qlora`` nodes at load.
    """
    return _scaled(np.matmul(c_a, c_b), scale)


def tiled_matmul(q_a: np.ndarray, p_a: QuantParams, c_b: np.ndarray, scale) -> np.ndarray:
    """``scaled_matmul(centered_levels(q_a, p_a), c_b, scale)``, widening q_a one row tile at a time.

    q_a holds stored levels in any numeric dtype, c_b the right operand's
    centred levels in float64.  A tile is the most consecutive rows of
    q_a whose centred float64 levels fit ``tensor.MATMUL_BLOCK_BYTES``,
    at least one.  Each tile is centred (``centered_levels``, so a level
    outside its range raises ``RangeError``) and multiplied by c_b into
    its rows of one float64 accumulator, and is freed before the next,
    so the scratch never exceeds one tile.  Like ``scaled_matmul``, this
    leaves the 2**53 bound to the caller.
    """
    m, k = q_a.shape
    rows = max(1, MATMUL_BLOCK_BYTES // (8 * max(k, 1)))
    acc = np.empty((m, c_b.shape[1]), dtype=np.float64)
    for r0 in range(0, m, rows):
        np.matmul(centered_levels(q_a[r0:r0 + rows], p_a), c_b, out=acc[r0:r0 + rows])
    return _scaled(acc, scale)


def _scaled(acc: np.ndarray, scale) -> np.ndarray:
    """fp32(acc * scale) for a float64 accumulator of exact integer sums."""
    # An exact zero may come out of the GEMM as -0.0, depending on where its
    # accumulator started; adding +0.0 makes it +0.0, as the integer sum is.
    acc += 0.0
    acc *= scale
    return acc.astype(np.float32)


def int_matmul(q_a: np.ndarray, p_a: QuantParams, q_b: np.ndarray, p_b: QuantParams) -> np.ndarray:
    """fp32 product of two quantized matrices, from the exact integer sum.

    Returns fp32(float64(sum_k (q_a - z_a)(q_b - z_b)) * (s_a * s_b)), the
    ``centered_matmul`` of the operands' centred levels.  The operands
    hold integer levels in any numeric dtype; an element outside its
    [q_min, q_max] raises ``RangeError``, as in ``dequantize_array``.  A
    shape whose bound reaches 2**53 raises ``RangeError`` before anything
    is allocated.  q_b is widened whole and q_a one row tile at a time
    (``tiled_matmul``); neither widened copy outlives the call.
    """
    check_exact(q_a.shape, p_a, q_b.shape, p_b)
    scale = np.float64(p_a.scale) * np.float64(p_b.scale)
    return tiled_matmul(q_a, p_a, centered_levels(q_b, p_b), scale)


def fake_quant(t: np.ndarray, p: QuantParams) -> np.ndarray:
    """dequantize(quantize(t)): the simulated-quantization value."""
    levels = quantize_levels(t, p)
    levels -= p.zero_point
    levels *= np.float64(p.scale)
    return levels.astype(np.float32)


def fake_quant_levels(v: np.ndarray, p: QuantParams) -> np.ndarray:
    """The centred levels q - z that a finite ``fake_quant`` output v holds, in float64.

    v is fp32(s * (q - z)), normal or zero since s >= ``MIN_SCALE``, so
    v * (1 / s) in float64 is the level within a relative error below
    2**-24 + 2**-52.  As |q - z| < 2**16, the absolute error stays below
    2**-7, and rounding recovers the level exactly.
    """
    c = np.array(v, dtype=np.float64)
    c *= np.float64(1.0) / np.float64(p.scale)
    return np.rint(c, out=c)


def ste_mask(t: np.ndarray, p: QuantParams) -> np.ndarray:
    """1.0 where t lies in the representable range, else 0.0.

    Straight-through gradient gate: inside [repr_lo, repr_hi] the
    rounding step passes gradients unchanged, outside it saturates.
    """
    t64 = np.asarray(t, dtype=np.float64)
    lo = np.float64(p.scale) * (p.q_min - p.zero_point)
    hi = np.float64(p.scale) * (p.q_max - p.zero_point)
    return ((t64 >= lo) & (t64 <= hi)).astype(np.float32)
