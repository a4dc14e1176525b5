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


def quant_params_reference(t_min, t_max, bits, signed):
    """``compute_quant_params`` as it was written on 0-d numpy arrays:
    the scale and the rounded zero point in float64, through
    ``round_levels``."""
    if t_min > t_max:
        raise qp.RangeError(f"t_min {t_min} exceeds t_max {t_max}")
    q_lo, q_hi = qp.int_bounds(bits, signed)
    if t_min == t_max:
        return qp.QuantParams(1.0, 0, bits, signed)
    scale = max(float(np.float32((np.float64(t_max) - np.float64(t_min)) / (q_hi - q_lo))),
                qp.MIN_SCALE)
    z = qp.round_levels(np.array(-np.float64(t_min) / np.float64(scale)), q_lo, q_lo, q_hi)
    return qp.QuantParams(scale, int(z), bits, signed)


_TINY = qp.MIN_SCALE
# Both zeros, subnormals, the edges of MIN_SCALE and of the level counts
# times it, fp32's largest finite value, float64 past it, the
# infinities and NaN.
GRID = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-45, -1e-45, _TINY, -_TINY,
        float(np.nextafter(_TINY, 0.0)), _TINY * 255, _TINY * 65535, -_TINY * 65535,
        float(np.nextafter(_TINY * 255, 1.0)), 1e-30, -0.4999, 0.5, -1.0, 1.0, 127.5, -128.5,
        1e38, -1e38, 3.4028234663852886e38, 1e300, -1e300, np.inf, -np.inf, np.nan]
# Ends whose zero point -t_min / s is exactly 2.5 at 8 bits (s = 2**-3)
# and at 16 (s = 2**-10), a tie that rounds away from zero; then
# ordinary ends of both signs over twelve decades.
GRID += [-0.3125, 31.5625, -0.00244140625, 63.99658203125]
_rng = np.random.default_rng(7)
GRID += (_rng.standard_normal(40) * 10.0 ** _rng.uniform(-6, 6, 40)).tolist()


@pytest.mark.parametrize("bits", (8, 16))
@pytest.mark.parametrize("signed", (True, False))
def test_quant_params_match_the_array_form(bits, signed):
    """Every pair of grid points gives the parameters the 0-d array form
    gave, or the exception type it raised, in either order."""
    for lo in GRID:
        for hi in GRID:
            with np.errstate(all="ignore"):
                try:
                    want = quant_params_reference(lo, hi, bits, signed)
                except Exception as exc:  # noqa: BLE001 - the type is compared
                    with pytest.raises(type(exc)) as got:
                        qp.compute_quant_params(lo, hi, bits, signed)
                    assert type(got.value) is type(exc), (lo, hi)
                    continue
                got = qp.compute_quant_params(lo, hi, bits, signed)
            assert got == want and type(got.zero_point) is int, (lo, hi)
