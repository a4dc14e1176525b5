"""``qparams.int_matmul`` and ``centered_matmul`` against an int64 oracle, bit for bit.

The oracle takes the integer sum with ``np.matmul`` in int64, where it
cannot round, and scales it once as the kernel does:
fp32(float64(sum) * (float64(s_a) * float64(s_b))).  The kernel takes the
same sum as one float64 GEMM, so any difference in a bit means a partial
sum was not exact or an exact zero came out as -0.0.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from onegraph import qparams as qp
from onegraph import tensor as tz
from onegraph.errors import RangeError, ShapeError

KS = (1, 2, 33, 256, 272)
BITS = ((8, 16), (16, 16))


def oracle(q_a, p_a, q_b, p_b):
    acc = np.matmul(q_a.astype(np.int64) - p_a.zero_point, q_b.astype(np.int64) - p_b.zero_point)
    return (acc.astype(np.float64) * (np.float64(p_a.scale) * np.float64(p_b.scale))).astype(np.float32)


def params(bits, zero, signed=True, scale=0.0137):
    lo, hi = qp.int_bounds(bits, signed)
    z = {"low": lo, "high": hi, "mid": (lo + hi) // 2}[zero]
    return qp.QuantParams(float(np.float32(scale)), z, bits, signed)


def levels(rng, shape, p, fill):
    dtype = qp.storage_dtype(p.bits, p.signed)
    if fill == "min":
        return np.full(shape, p.q_min, dtype=dtype)
    if fill == "max":
        return np.full(shape, p.q_max, dtype=dtype)
    return rng.integers(p.q_min, p.q_max, size=shape, endpoint=True).astype(dtype)


def assert_bits(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("bits", BITS, ids=lambda b: f"{b[0]}x{b[1]}")
def test_equals_the_int64_oracle(k, bits):
    rng = np.random.default_rng(k * 100 + bits[0])
    for za, zb, fa, fb in itertools.product(("low", "high", "mid"), ("low", "high", "mid"),
                                            ("min", "max", "random"), ("min", "max", "random")):
        p_a = params(bits[0], za, scale=0.0213)
        p_b = params(bits[1], zb, scale=3.7e-5)
        q_a = levels(rng, (5, k), p_a, fa)
        q_b = levels(rng, (k, 3), p_b, fb)
        want = oracle(q_a, p_a, q_b, p_b)
        assert_bits(qp.int_matmul(q_a, p_a, q_b, p_b), want)
        c_a, c_b = q_a.astype(np.float64) - p_a.zero_point, q_b.astype(np.float64) - p_b.zero_point
        assert_bits(qp.centered_matmul(c_a, p_a, c_b, p_b), want)


@pytest.mark.parametrize("k", KS)
def test_unsigned_and_float64_levels(k):
    """int32 storage (16-bit unsigned) and QuantSim's float64 levels give the same bits."""
    rng = np.random.default_rng(k)
    p_a = qp.QuantParams(0.5, 7, 8, signed=False)
    p_b = qp.QuantParams(float(np.float32(1e-3)), 40000, 16, signed=False)
    q_a = levels(rng, (4, k), p_a, "random")
    q_b = levels(rng, (k, 6), p_b, "random")
    want = oracle(q_a, p_a, q_b, p_b)
    assert_bits(qp.int_matmul(q_a, p_a, q_b, p_b), want)
    assert_bits(qp.int_matmul(q_a.astype(np.float64), p_a, q_b.astype(np.float64), p_b), want)


@pytest.mark.parametrize("bits,signed", ((8, True), (16, True), (16, False)))
@pytest.mark.parametrize("scale", (qp.MIN_SCALE, 1e-3, 0.37, 3e3, 1e30))
def test_the_levels_of_fake_quant(bits, signed, scale):
    """fake_quant_levels takes back q - z exactly, for every level and zero points at both ends."""
    lo, hi = qp.int_bounds(bits, signed)
    for z in (lo, (lo + hi) // 2, hi):
        p = qp.QuantParams(float(np.float32(scale)), z, bits, signed=signed)
        q = np.arange(lo, hi + 1, dtype=np.int64).reshape(-1, 1 << (bits // 2))
        fq = qp.dequantize_array(q, p)
        assert np.array_equal(qp.fake_quant_levels(fq, p), (q - z).astype(np.float64))
    rng = np.random.default_rng(bits)
    t = rng.standard_normal((7, 33)).astype(np.float32)
    p = qp.compute_quant_params(-2.0, 2.5, bits, signed)
    q = qp.quantize_array(t, p)
    fq = qp.fake_quant(t, p)
    assert fq.tobytes() == qp.dequantize_array(q, p).tobytes()
    c = qp.fake_quant_levels(fq, p)
    assert c.dtype == np.float64 and np.array_equal(c, q.astype(np.float64) - p.zero_point)


def test_an_exact_zero_is_positive():
    """Every product is -0.0 (0 times a negative): the sum is +0.0, as in int64."""
    p = qp.QuantParams(0.25, 3, 16)
    q_a = np.full((4, 272), 3, dtype=np.int16)        # centred: all 0
    q_b = np.full((272, 4), -9, dtype=np.int16)       # centred: all -12
    out = qp.int_matmul(q_a, p, q_b, p)
    assert_bits(out, oracle(q_a, p, q_b, p))
    assert not np.signbit(out).any()


@pytest.mark.parametrize("side", ("a", "b"))
@pytest.mark.parametrize("value", (-129, 128))
def test_out_of_range_levels_raise(side, value):
    p = qp.QuantParams(0.1, 0, 8)
    ok = np.zeros((3, 3), dtype=np.int16)
    bad = ok.copy()
    bad[1, 2] = value
    q_a, q_b = (bad, ok) if side == "a" else (ok, bad)
    with pytest.raises(RangeError, match="outside"):
        qp.int_matmul(q_a, p, q_b, p)


def test_mismatched_shapes_raise():
    p = qp.QuantParams(0.1, 0, 8)
    with pytest.raises(ShapeError):
        qp.int_matmul(np.zeros((2, 3), np.int8), p, np.zeros((4, 2), np.int8), p)


@pytest.mark.parametrize("kernel", (qp.int_matmul, qp.centered_matmul))
@pytest.mark.parametrize("bits, k", (((16, 16), 1 << 21), ((8, 16), 1 << 29)))
def test_the_2_53_bound_raises_before_allocating(bits, k, kernel):
    """k * 2**bits_a * 2**bits_b reaches 2**53: refused before any widening.

    The operands are zero-stride views, so a float64 copy of either would
    show as megabytes in the traced peak.
    """
    p_a, p_b = qp.QuantParams(1.0, 0, bits[0]), qp.QuantParams(1.0, 0, bits[1])
    q_a = np.broadcast_to(np.zeros((), qp.storage_dtype(bits[0], True)), (1, k))
    q_b = np.broadcast_to(np.zeros((), qp.storage_dtype(bits[1], True)), (k, 1))
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="2\\*\\*53"):
            kernel(q_a, p_a, q_b, p_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_the_largest_k_inside_the_bound_is_exact():
    """16x16 bits at k = 2**21 - 1, every level at its extreme: the sum,
    about 9.007e15, sits just below 2**53 and comes out exact."""
    k = (1 << 21) - 1
    p = qp.QuantParams(1.0, -32768, 16)
    q_a = np.broadcast_to(np.int16(32767), (1, k))   # centred: 65535
    q_b = np.broadcast_to(np.int16(32767), (k, 1))
    out = qp.int_matmul(q_a, p, q_b, p)
    assert_bits(out, oracle(q_a, p, q_b, p))


@pytest.mark.parametrize("m, k", ((209, 256), (150, 272), (3, 20000)))
@pytest.mark.parametrize("signed", (True, False))
def test_row_tiles_equal_the_oracle(m, k, signed):
    """A left operand taller than one tile of ``tensor.MATMUL_BLOCK_BYTES``:
    four tiles of 64 rows with a ragged last one, three of 60, and a k so
    long that a tile is one row.  8-bit levels held in int16, so every tile
    is scanned, at both ends of the range and at random."""
    rows = max(1, tz.MATMUL_BLOCK_BYTES // (8 * k))
    assert m > rows
    rng = np.random.default_rng(m + k + signed)
    p_a = params(8, "mid", signed=signed, scale=0.0213)
    p_b = params(16, "low", scale=3.7e-5)
    q_a = levels(rng, (m, k), p_a, "random").astype(np.int16)
    q_a[0, 0], q_a[-1, -1] = p_a.q_min, p_a.q_max
    q_b = levels(rng, (k, 5), p_b, "random")
    want = oracle(q_a, p_a, q_b, p_b)
    assert_bits(qp.int_matmul(q_a, p_a, q_b, p_b), want)
    c_b = qp.centered_levels(q_b, p_b)
    assert_bits(qp.tiled_matmul(q_a, p_a, c_b, np.float64(p_a.scale) * np.float64(p_b.scale)), want)


def test_a_level_out_of_range_in_the_last_tile_raises():
    p = qp.QuantParams(0.1, 0, 8)
    q_a = np.zeros((209, 256), dtype=np.int16)
    q_a[-1, 3] = 128
    with pytest.raises(RangeError, match="outside"):
        qp.tiled_matmul(q_a, p, np.zeros((256, 2)), 1.0)
