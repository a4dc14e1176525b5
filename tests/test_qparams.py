"""Affine (de)quantization kernels."""

import numpy as np
import pytest

from onegraph import qparams as qp


def dequantize_reference(q, p):
    """The one-expression form that dequantize_array evaluates in place."""
    return (np.float64(p.scale) * (q.astype(np.float64) - p.zero_point)).astype(np.float32)


@pytest.mark.parametrize("bits", (8, 16))
@pytest.mark.parametrize("signed", (True, False))
def test_dequantize_matches_reference(bits, signed):
    rng = np.random.default_rng(bits + signed)
    for lo, hi in ((-1.0, 1.0), (-3e-3, 7.5), (0.0, 1e4), (-250.0, -0.5)):
        p = qp.compute_quant_params(lo, hi, bits, signed)
        q = rng.integers(p.q_min, p.q_max + 1, (33, 7)).astype(qp.storage_dtype(bits, signed))
        q[0, :2] = p.q_min, p.q_max
        got = qp.dequantize_array(q, p)
        assert got.dtype == np.float32 and got.shape == q.shape
        assert got.tobytes() == dequantize_reference(q, p).tobytes()


def test_dequantize_leaves_input_alone():
    p = qp.compute_quant_params(-1.0, 1.0, 8)
    q = np.arange(-128, 128, dtype=np.int8)
    keep = q.copy()
    qp.dequantize_array(q, p)
    assert np.array_equal(q, keep)


@pytest.mark.parametrize("lo, hi", ((-1e-44, 1e-44), (0.0, 1e-41)))
@pytest.mark.parametrize("bits", (8, 16))
def test_tiny_ranges_get_a_normal_scale(lo, hi, bits):
    # Both ranges divided by the level count underflow fp32, to 0 and to
    # a subnormal; the scale is floored at the smallest normal fp32.
    p = qp.compute_quant_params(lo, hi, bits)
    assert p.scale >= np.finfo(np.float32).tiny
    assert p.scale == float(np.float32(p.scale))
    t = np.array([lo, 0.0, hi, (lo + hi) / 2], dtype=np.float32)
    err = np.abs(qp.fake_quant(t, p).astype(np.float64) - t.astype(np.float64))
    assert np.all(err <= p.scale / 2)
    back = qp.dequantize_array(qp.quantize_array(t, p), p)
    assert np.array_equal(back, qp.fake_quant(t, p))


def test_normal_ranges_keep_their_scale():
    for lo, hi, bits in ((-1.0, 1.0, 8), (0.0, 1e4, 16), (-3e-3, 7.5, 8), (-1e-30, 1e-30, 16)):
        expect = float(np.float32((np.float64(hi) - np.float64(lo)) / ((1 << bits) - 1)))
        assert qp.compute_quant_params(lo, hi, bits).scale == expect
