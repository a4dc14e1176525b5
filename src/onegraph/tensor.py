"""Dense tensor kernels with reproducible arithmetic.

Tensors are plain numpy arrays restricted to the dtypes below.  The
matrix kernels accumulate in fp32 with a fixed sequential order, so two
executions of the same graph produce bit-identical floats; downstream
pass-correctness checks rely on this.

``matmul`` evaluates that order in blocks of consecutive k rather than
one k at a time: one broadcast multiply writes a block of fp32 product
slices behind a slice holding the running sum, and one reduction over
that outer axis adds the slices in ascending k.  Each output element
sees the same products and the same fp32 additions, in the same order,
as the one-k-at-a-time loop, so the bits do not change; only the number
of numpy calls does.

These fp32 kernels serve the full-precision paths (``execute_fp``,
calibration, the distillation gradients) and every product that has an
fp32 operand, such as an adapter's A (B x).  A product of two quantized
tensors is not computed here: ``qparams.int_matmul`` takes it on their
integers, exactly, in float64 GEMMs, one per row tile of the left
operand.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, RangeError, ShapeError

# f64 holds the centred levels a runtime session prepares at bind
# (``runtime.bind_lora``).  It has no QTNS code, so no file holds it.
DTYPES = {
    "fp32": np.float32,
    "i8": np.int8,
    "i16": np.int16,
    "i32": np.int32,
    "f64": np.float64,
}
DTYPE_CODES = {"fp32": 0, "i8": 1, "i16": 2, "i32": 3}
DTYPE_NAMES = {v: k for k, v in DTYPE_CODES.items()}
_NAMES = {np.dtype(t): name for name, t in DTYPES.items()}
_LITTLE = {name: np.dtype(t).newbyteorder("<") for name, t in DTYPES.items()}

PSNR_CAP_DB = 99.0


def dtype_name(arr: np.ndarray) -> str:
    return name_of(arr.dtype)


def name_of(dtype) -> str:
    """The name of a dtype (or scalar type) in ``DTYPES``."""
    name = _NAMES.get(np.dtype(dtype))
    if name is None:
        raise ShapeError(f"unsupported dtype {np.dtype(dtype)}")
    return name


def itemsize(name: str) -> int:
    return _LITTLE[name].itemsize


def _require_fp32(*arrays: np.ndarray) -> None:
    for a in arrays:
        if a.dtype != np.float32:
            raise ShapeError(f"expected fp32 tensor, got {a.dtype}")


# Bytes of scratch one matmul call may hold for a block of k: the product
# slices with the running sum, plus the transposed block of ``a``.  The
# exact products (``qparams.tiled_matmul``) widen their left operand in
# row tiles of at most this many bytes.
MATMUL_BLOCK_BYTES = 128 * 1024
_BLOCK_FLOATS = MATMUL_BLOCK_BYTES // np.dtype(np.float32).itemsize
# The most output elements one block of k covers; a wider product is
# taken in slices of its longer extent.
MATMUL_PLANE_FLOATS = 4096


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with sequential fp32 accumulation.

    Each output element accumulates its k products in ascending-k order,
    starting from +0.0, matching a naive triple loop bit-for-bit.  So an
    output element depends only on its row of ``a`` and its column of
    ``b``: a column has the same bits whichever other columns come with
    it, which is what lets ``graph.run_bundle`` stack samples.

    A product whose output plane m*n exceeds ``MATMUL_PLANE_FLOATS`` is
    taken as slices of its longer extent, each of at most that many
    elements (one row or column at least), written into one result.
    Without the split, a wider plane leaves room for fewer k per block
    and a stacked run would pay more numpy calls per multiply than its
    samples run apart.

    k is taken in the fewest blocks that fit ``MATMUL_BLOCK_BYTES``
    together with the transposed block of ``a``, sized as equally as they
    can be: ``kb`` is the size of the largest, and k = 8 with room for 6
    is two blocks of 4, not 6 and 2.
    A buffer of shape ``[kb + 1, short, long]`` (the longer output extent
    innermost) holds the running sum in slice 0 and the fp32 products of
    the block in slices 1..kb.  ``np.add.reduce`` over that outer axis
    adds whole slices elementwise, one after another, so each element is
    summed as ``((s + p_k) + p_k+1) + ...``, exactly as in the per-k loop.
    numpy sums pairwise only along a reduced axis that is innermost; when
    m*n == 1 the slices are single elements and the outer axis is the
    innermost one, so the block falls to one k.  It also falls to one k
    when the running sum and one product slice alone exceed the budget.
    When one block holds every k, as for an adapter's rank-k A (B x),
    the products of ``a``'s transpose are written straight behind a
    +0.0 slice and reduced once, with no staging of the transpose or
    of the running sum: the same products and additions in the same
    order.  The result is a fresh C-contiguous array, never a view of
    the buffer.
    """
    _require_fp32(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    m, n = a.shape[0], b.shape[1]
    if m * n <= MATMUL_PLANE_FLOATS:
        return _product(a, b)
    out = np.empty((m, n), dtype=np.float32)
    if n >= m:
        step = max(1, MATMUL_PLANE_FLOATS // m)
        for c0 in range(0, n, step):
            out[:, c0:c0 + step] = _product(a, b[:, c0:c0 + step])
    else:
        step = max(1, MATMUL_PLANE_FLOATS // n)
        for r0 in range(0, m, step):
            out[r0:r0 + step] = _product(a[r0:r0 + step], b)
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``matmul`` of checked operands in one plane."""
    m, k = a.shape
    n = b.shape[1]
    wide = n >= m
    short, long = (m, n) if wide else (n, m)
    plane = short * long
    fit = 1 if plane == 1 else max(1, min(k, (_BLOCK_FLOATS - plane) // max(plane + m, 1)))
    kb = math.ceil(k / math.ceil(k / fit)) if k else 1
    buf = np.empty((kb + 1, short, long), dtype=np.float32)
    one_block = kb == k
    a_t = a.T if one_block else np.empty((kb, m), dtype=np.float32)
    if wide:
        a3, b3 = a_t[:, :, None], b[:, None, :]
    else:
        a3, b3 = a_t[:, None, :], b[:, :, None]
    if one_block:
        buf[0] = 0.0
        np.multiply(a3, b3, out=buf[1:])
        acc = np.add.reduce(buf, axis=0)
    else:
        acc = np.zeros((short, long), dtype=np.float32)
        for k0 in range(0, k, kb):
            c = min(kb, k - k0)
            buf[0] = acc
            np.copyto(a_t[:c], a[:, k0:k0 + c].T)
            np.multiply(a3[:c], b3[k0:k0 + c], out=buf[1:c + 1])
            np.add.reduce(buf[:c + 1], axis=0, out=acc)
    return acc if wide else acc.T.copy()


def sigmoid(x: np.ndarray) -> np.ndarray:
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """relu or silu, elementwise."""
    _require_fp32(x)
    if kind == "relu":
        return np.maximum(x, np.float32(0.0))
    if kind == "silu":
        return (x * sigmoid(x)).astype(np.float32)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class Histogram:
    bin_count: int
    range_lo: float
    range_hi: float
    counts: np.ndarray  # int64, length bin_count

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def histogram(x: np.ndarray, bins: int, lo: float, hi: float) -> Histogram:
    """Clamp values into [lo, hi], then bin; total count is preserved."""
    _require_fp32(x)
    if bins < 2:
        raise RangeError(f"need at least 2 bins, got {bins}")
    if not lo < hi:
        raise RangeError(f"degenerate histogram range [{lo}, {hi}]")
    clipped = np.clip(x.reshape(-1).astype(np.float64), lo, hi)
    counts, _ = np.histogram(clipped, bins=bins, range=(lo, hi))
    return Histogram(bins, float(lo), float(hi), counts.astype(np.int64))


def psnr(ref: np.ndarray, test: np.ndarray, peak: float) -> float:
    """10 log10(peak^2 / MSE) in dB, capped at PSNR_CAP_DB for zero MSE."""
    _require_fp32(ref, test)
    if ref.shape != test.shape:
        raise ShapeError(f"psnr shape mismatch: {ref.shape} vs {test.shape}")
    if peak <= 0:
        raise RangeError(f"peak must be positive, got {peak}")
    diff = ref.astype(np.float64) - test.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(peak * peak / mse))


# QTNS tensor file format: magic "QTNS", u16 version, u8 dtype code,
# u8 rank, rank x u32 extents, raw little-endian buffer.

QTNS_MAGIC = b"QTNS"
QTNS_VERSION = 1


def qtns_bytes(arr: np.ndarray) -> bytes:
    name = dtype_name(arr)
    if name not in DTYPE_CODES:
        raise FormatError(f"QTNS has no code for dtype {name}")
    if arr.ndim > 255:
        raise FormatError("rank too large for QTNS")
    head = QTNS_MAGIC + struct.pack("<HBB", QTNS_VERSION, DTYPE_CODES[name], arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    buf = np.ascontiguousarray(arr)
    if buf.dtype.byteorder == ">":
        buf = buf.astype(buf.dtype.newbyteorder("<"))
    return head + dims + buf.tobytes()


def qtns_from_bytes(data, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one QTNS record; returns (tensor, next offset).

    The tensor is a view of ``data`` (``bytes`` or a memoryview of
    them), not a copy: read-only, and keeping ``data`` alive.  numpy
    reads unaligned 2- and 4-byte payloads as they lie; only a
    big-endian host copies them, into native order.  The element count
    is the exact integer product of the extents, so extents whose
    product exceeds any buffer are a truncated payload, not a wrapped
    count.
    """
    if data[offset:offset + 4] != QTNS_MAGIC:
        raise FormatError("bad QTNS magic")
    if len(data) < offset + 8:
        raise FormatError("truncated QTNS header")
    version, code, rank = struct.unpack_from("<HBB", data, offset + 4)
    if version != QTNS_VERSION:
        raise FormatError(f"unsupported QTNS version {version}")
    if code not in DTYPE_NAMES:
        raise FormatError(f"unknown QTNS dtype code {code}")
    pos = offset + 8
    if len(data) < pos + 4 * rank:
        raise FormatError("truncated QTNS header")
    shape = struct.unpack_from(f"<{rank}I", data, pos)
    pos += 4 * rank
    name = DTYPE_NAMES[code]
    dtype = _LITTLE[name]
    nbytes = math.prod(shape) * dtype.itemsize
    if len(data) < pos + nbytes:
        raise FormatError("truncated QTNS payload")
    arr = np.ndarray(shape, dtype, buffer=data, offset=pos)
    return (arr if dtype.isnative else arr.astype(DTYPES[name])), pos + nbytes


def write_qtns(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(qtns_bytes(arr))


def read_qtns(path) -> np.ndarray:
    """The tensor of a QTNS file, read-only (``qtns_from_bytes``)."""
    with open(path, "rb") as fh:
        data = fh.read()
    arr, end = qtns_from_bytes(data)
    if end != len(data):
        raise FormatError("trailing bytes after QTNS payload")
    return arr
