"""Dense tensor kernels with reproducible arithmetic.

Tensors are plain numpy arrays restricted to the dtypes below.  The
matrix kernels accumulate in fp32 with a fixed sequential order, so two
executions of the same graph produce bit-identical floats; downstream
pass-correctness checks rely on this.

``matmul`` evaluates that order in blocks of consecutive k rather than
one k at a time: one numpy call writes a block of fp32 product slices
behind a slice holding the running sum, and one reduction over that
outer axis adds the slices in ascending k.  Each output element sees
the same products and the same fp32 additions, in the same order, as
the one-k-at-a-time loop, so the bits do not change; only the number
of numpy calls does.

Each block's products are written by one ``np.einsum`` with no summed
index, which only multiplies, in about half the time of a broadcast
multiply (2.1 against 4.3 us per k for a [29, 32, 256] block).  Its
fixed cost of about 0.9 us a call makes it the slower of the two below
about 4,096 products (2.3 against 1.4 us for [8, 2, 32]; timeit on a
2-vCPU x86 host, numpy 2.4.6).  On the same host a model of width
32, perfbench's compile_deep, distills about 4% and serves about 3%
slower than with a multiply on its small blocks; that is inside the
benchmark's 25% bound, so one writer takes every size.  einsum sets
each output to zero and adds its product, fma(a, b, +0) or
fl(a b) + 0.  Both are fl(a b), except that an exact -0 product
becomes +0, and a running sum that starts at +0.0 turns a -0 addend
into +0 anyway, so the sums keep their bits.  The products must land
in C order, k outermost (``out=`` a C buffer, or ``order="C"``):
einsum otherwise lays them out in the order of its operands' strides,
and a reduced axis that ends up innermost is summed pairwise.

Two budgets bound the scratch, one per kind of product.  An fp32 block
of k, its product slices with the running sum, fits
``PRODUCT_BLOCK_BYTES`` (1 MiB), sized for the 2 MiB L2 cache a block
streams from (Goto and van de Geijn, "Anatomy of high-performance
matrix multiplication", 2008).  The exact integer products of the
serving kernels widen their left operand in row tiles of
``MATMUL_BLOCK_BYTES`` (128 KB).  That budget stays as large as it is:
at 8 KB tiles a 256 x 256 W x over 16 columns takes about 2.5x as long
(2-vCPU x86 host, numpy 2.4.6).

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

DTYPES = {
    "fp32": np.float32,
    "i8": np.int8,
    "i16": np.int16,
    "i32": np.int32,
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


# Bytes of scratch one fp32 product may hold for a block of k: the
# product slices with the running sum.  Half of a 2 MiB L2 cache, so
# serve_wide's 256 x 256 W times its 32 calibration columns takes 9
# blocks of k, where a 128 KB budget and a 4,096-element plane cap took
# 2 planes of 43.
PRODUCT_BLOCK_BYTES = 1024 * 1024
_BLOCK_FLOATS = PRODUCT_BLOCK_BYTES // np.dtype(np.float32).itemsize
# The most output elements one block of k covers; a wider product is
# taken in slices of its longer extent.
MATMUL_PLANE_FLOATS = 16384
# Bytes of one row tile of the serving kernels: the exact products
# (``qparams.tiled_matmul``, ``graph._k_qlora``) widen their left
# operand to float64 in row tiles of at most this many bytes.
MATMUL_BLOCK_BYTES = 128 * 1024


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

    k is taken in the fewest blocks whose product slices and running sum
    fit ``PRODUCT_BLOCK_BYTES``, sized as equally as they can be: ``kb``
    is the size of the largest, and k = 20 with room for 15 is two blocks
    of 10, not 15 and 5.  (``MATMUL_BLOCK_BYTES``, the serving kernels'
    row tile, does not bound these blocks.)
    When the longer output extent is m, ``a`` (its rows of the plane) is
    transposed once into C order, a copy unless ``a`` is in Fortran
    order, so the products read rows of ``a.T`` along their innermost
    axis; when it is n, they read one element of ``a`` per row of
    products, and ``a.T`` is read in place.
    A buffer of shape ``[kb + 1, short, long]`` (the longer output extent
    innermost) holds the running sum in slice 0 and the fp32 products of
    the block in slices 1..kb.  ``np.add.reduce`` over that outer axis
    adds whole slices elementwise, one after another, so each element is
    summed as ``((s + p_k) + p_k+1) + ...``, exactly as in the per-k loop.
    numpy sums pairwise only along a reduced axis that is innermost; when
    m*n == 1 the slices are single elements and the outer axis is the
    innermost one, so the block falls to one k.  It also falls to one k
    when the running sum and one product slice alone exceed the budget.
    When one block holds every k, as for an adapter's rank-k A (B x) or
    serve_wide's 256 x 8 times 8 x 16, nothing is planned: one call
    writes the products of ``a``'s transpose in C order, and one
    reduction adds them onto +0.0 (its ``initial``), the same products
    and additions in the same order.  The result is a fresh C-contiguous
    array, never a view of a buffer.
    Every block, the one block or each block of the buffer, is written
    by one ``np.einsum``: in C order, or into the buffer with ``out=``.
    The module docstring gives its cost against a broadcast multiply,
    why its products keep the loop's bits, and why k must stay the
    outer axis.
    """
    if a.dtype != np.float32 or b.dtype != np.float32:
        _require_fp32(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    if k != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
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
    plane = m * n
    if wide:
        aT, spec = a.T, "ki,kj->kij"
    else:
        aT, spec = np.ascontiguousarray(a.T), "ki,kj->kji"
    if k == 1 or (plane > 1 and (k + 1) * plane <= _BLOCK_FLOATS):   # one block
        out = np.add.reduce(np.einsum(spec, aT, b, order="C"), axis=0, initial=0.0)
        return out if wide else out.T.copy()
    short, long = (m, n) if wide else (n, m)
    fit = 1 if plane == 1 else max(1, min(k, _BLOCK_FLOATS // max(plane, 1) - 1))
    kb = math.ceil(k / math.ceil(k / fit)) if k else 1
    buf = np.empty((kb + 1, short, long), dtype=np.float32)
    acc = np.zeros((short, long), dtype=np.float32)
    for k0 in range(0, k, kb):
        c = min(kb, k - k0)
        buf[0] = acc
        np.einsum(spec, aT[k0:k0 + c], b[k0:k0 + c], out=buf[1:c + 1])
        np.add.reduce(buf[:c + 1], axis=0, out=acc)
    return acc if wide else acc.T.copy()


def sigmoid(x: np.ndarray) -> np.ndarray:
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


ACTIVATIONS = ("relu", "silu")


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """relu or silu (``ACTIVATIONS``), elementwise."""
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
    """Clamp values into [lo, hi], then bin; total count is preserved.

    A NaN has no bin, so a tensor holding one raises ``RangeError``
    rather than a histogram that counts fewer values than it was given.
    """
    _require_fp32(x)
    if bins < 2:
        raise RangeError(f"need at least 2 bins, got {bins}")
    if not lo < hi:
        raise RangeError(f"degenerate histogram range [{lo}, {hi}]")
    nans = int(np.count_nonzero(np.isnan(x)))
    if nans:
        raise RangeError(f"cannot bin {nans} NaN value(s) of {x.size}")
    clipped = np.clip(x.reshape(-1).astype(np.float64), lo, hi)
    counts, _ = np.histogram(clipped, bins=bins, range=(lo, hi))
    return Histogram(bins, float(lo), float(hi), counts.astype(np.int64))


def psnr(ref: np.ndarray, test: np.ndarray, peak: float) -> float:
    """10 log10(peak^2 / MSE) in dB, capped at PSNR_CAP_DB for zero MSE.

    A NaN or an infinity in ``ref`` or ``test``, or a peak that is not a
    positive finite number, raises ``RangeError``: the cap means
    "identical", which a NaN MSE would otherwise be reported as.
    """
    _require_fp32(ref, test)
    if ref.shape != test.shape:
        raise ShapeError(f"psnr shape mismatch: {ref.shape} vs {test.shape}")
    if not (math.isfinite(peak) and peak > 0):
        raise RangeError(f"peak must be positive and finite, got {peak}")
    for name, arr in (("ref", ref), ("test", test)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        if bad:
            raise RangeError(f"psnr {name} holds {bad} non-finite value(s)")
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
    return head + dims + little_bytes(arr)


def little_bytes(arr: np.ndarray) -> bytes:
    """The elements of ``arr`` in C order, little-endian."""
    buf = np.ascontiguousarray(arr)
    if buf.dtype.byteorder == ">":
        buf = buf.astype(buf.dtype.newbyteorder("<"))
    return buf.tobytes()


def array_at(data, pos: int, shape: tuple, name: str) -> np.ndarray:
    """The little-endian ``name`` tensor of ``shape`` at byte ``pos`` of
    ``data``, which the caller has checked holds it: a read-only view,
    or on a big-endian host a copy in native order."""
    dtype = _LITTLE[name]
    arr = np.ndarray(shape, dtype, buffer=data, offset=pos)
    return arr if dtype.isnative else arr.astype(DTYPES[name])


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
    nbytes = math.prod(shape) * itemsize(name)
    if len(data) < pos + nbytes:
        raise FormatError("truncated QTNS payload")
    return array_at(data, pos, shape, name), pos + nbytes


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
