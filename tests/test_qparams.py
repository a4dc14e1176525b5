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
