"""The layer-step kernels against the compositions they stand for.

``graph._k_quantize``, ``_k_requant``, ``_k_qlinear`` and ``_k_qlora`` do
only the arithmetic their bits need: the levels stay in float64, a
``requant`` goes from its input to its output with no storage dtype
between, and a ``qlora`` that fits one row tile takes W x and B x as one
GEMM.  Each reference below spells the composition out with no help from
those kernels: the rounding as floor(|t / s| + 0.5) with the sign of
t / s, an exact product as an int64 sum, and A (B x) as the one-k-at-a-
time fp32 loop.  Every kernel must give its reference's bits, with its
output stored into a placed array or returned.
"""

import numpy as np
import pytest
from conftest import slot_reference

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import qparams as qp
from onegraph import runtime as rt
from onegraph import tensor as tz

BITS = ((8, True), (16, True), (8, False), (16, False))
# a power-of-two scale puts every (k + 0.5) s exactly on a tie
TIE_SCALE = 2.0 ** -7
ROW_TILE = tz.MATMUL_BLOCK_BYTES // (8 * 256)   # rows of one tile at k = 256


def params(bits, signed, zero, scale):
    lo, hi = qp.int_bounds(bits, signed)
    return qp.QuantParams(float(np.float32(scale)), {"low": lo, "high": hi, "mid": (lo + hi) // 2}[zero],
                          bits, signed)


def levels_reference(t, p):
    q = np.array(t, np.float64) / np.float64(p.scale)
    levels = np.copysign(np.floor(np.abs(q) + 0.5), q) + p.zero_point
    return np.minimum(np.maximum(levels, p.q_min), p.q_max)


def quantize_reference(t, p):
    return levels_reference(t, p).astype(qp.storage_dtype(p.bits, p.signed))


def dequantize_reference(q, p):
    return (np.float64(p.scale) * (q.astype(np.float64) - p.zero_point)).astype(np.float32)


def requant_reference(x, p, activation, p_out):
    out = dequantize_reference(quantize_reference(x, p), p)
    if activation is not None:
        out = tz.activation(out, activation)
    return out if p_out is None else quantize_reference(out, p_out)


def exact_product(q_a, p_a, q_b, p_b):
    """fp32(sum (q_a - z_a)(q_b - z_b) * s_a s_b), the sum in int64."""
    acc = (q_a.astype(np.int64) - p_a.zero_point) @ (q_b.astype(np.int64) - p_b.zero_point)
    return (acc.astype(np.float64) * (np.float64(p_a.scale) * np.float64(p_b.scale))).astype(np.float32)


def per_k_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), np.float32)
    for kk in range(a.shape[1]):
        out += a[:, kk, None] * b[None, kk, :]
    return out


def qlora_reference(q_w, p_w, q_x, p_x, q_b, p_b, q_a, p_a, alpha):
    abx = per_k_matmul(dequantize_reference(q_a, p_a), exact_product(q_b, p_b, q_x, p_x))
    abx *= np.float32(alpha)
    return exact_product(q_w, p_w, q_x, p_x) + abx


class Placed(gr._NullHooks):
    """Every tensor in an array of its own, filled with a stale value, as
    a session places the tensors in its arena."""

    def place(self, role, tid, shape, dtype):
        return np.full(shape, 7, tz.DTYPES[dtype])


def run_both(g, feeds):
    """The output of ``g`` run as it returns and run placed, which must agree."""
    gr.validate(g)
    free = gr.run_graph(g, feeds)["y"]
    placed = gr.run_graph(g, feeds, hooks=Placed())["y"]
    assert free.dtype == placed.dtype and free.tobytes() == placed.tobytes()
    return free


def special_values(p):
    """Zeros of both signs, tiny and huge values, infinities, values past
    both ends, and ties on either side of each end."""
    s = np.float64(p.scale)
    ends = [s * (p.q_max - p.zero_point), s * (p.q_min - p.zero_point)]
    return [0.0, -0.0, 1e-30, -1e-30, 1e-45, -1e-45, np.inf, -np.inf, 3e38, -3e38,
            0.5 * s, -0.5 * s, 1.5 * s, -1.5 * s, 2.5 * s, -2.5 * s,
            *(e + d for e in ends for d in (0.5 * s, -0.5 * s, 1.5 * s, -1.5 * s))]


def inputs_for(p, rng):
    """Special values, ties (k +- 0.5) s across the range, and random values."""
    s = np.float64(p.scale)
    ties = (rng.integers(p.q_min, p.q_max, 40, endpoint=True) - p.zero_point + 0.5) * s
    ties = np.concatenate([ties, -ties])
    spread = rng.normal(0.0, s * (p.q_max - p.q_min) / 2, 40)
    x = np.concatenate([special_values(p), ties, spread]).astype(np.float32)
    return x.reshape(-1, 2)


PARAMS = [(bits, signed, zero, scale) for bits, signed in BITS for zero in ("low", "high", "mid")
          for scale in (TIE_SCALE, 0.0213)]


def test_the_rounding_is_floor_of_half_up_with_the_sign():
    """``qparams.round_levels``' trunc(q + copysign(0.5, q)) is
    floor(|q| + 0.5) with the sign of q, where q + 0.5 rounds as well as
    where it is exact, and zero points come out as the clamped
    q_min - round(t_min / s)."""
    p = qp.QuantParams(1.0, 0, 16)
    edge = np.nextafter(0.5, 0.0)   # + 0.5 rounds up to 1.0
    q = np.array([0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, edge, -edge, 2.0 ** 52 + 1, -(2.0 ** 52) - 1,
                  2.0 ** 53, 1e300, -1e300, np.inf, -np.inf, 4.0 ** -600, 32767.5, -32768.5])
    got = qp.quantize_levels(q, p)
    assert got.tobytes() == levels_reference(q, p).tobytes()
    assert np.isnan(qp.quantize_levels(np.array([np.nan]), p)).all()
    for v in (edge, -edge, 2.5, -2.5):
        out = qp.round_levels(np.array([v]), 0.0, -1e300, 1e300)
        assert out[0] == np.copysign(np.floor(abs(v) + 0.5), v), v
    rng = np.random.default_rng(3)
    for bits, signed in BITS:
        lo, hi = qp.int_bounds(bits, signed)
        for t_min, t_max in zip(rng.normal(0.0, 3.0, 200), rng.normal(0.0, 3.0, 200)):
            t_min, t_max = sorted((float(np.float32(t_min)), float(np.float32(t_max))))
            p = qp.compute_quant_params(t_min, t_max, bits, signed)
            q = np.float64(t_min) / np.float64(p.scale)
            z = lo - int(np.sign(q) * np.floor(abs(q) + 0.5))
            assert p.zero_point == max(lo, min(hi, z)), (t_min, t_max, bits, signed)


@pytest.mark.parametrize("bits, signed, zero, scale", PARAMS)
def test_quantize(bits, signed, zero, scale):
    p = params(bits, signed, zero, scale)
    x = inputs_for(p, np.random.default_rng(bits + len(zero)))
    g = gr.Graph([gr.Node(0, "quantize", [0], 1, {"qparams": p})],
                 [gr.GraphInput("x", 0, x.shape)], [("y", 1)], {})
    assert run_both(g, {"x": x}).tobytes() == quantize_reference(x, p).tobytes()


@pytest.mark.parametrize("activation", (None, "relu", "silu"))
@pytest.mark.parametrize("bits, signed, zero, scale", PARAMS)
def test_requant(activation, bits, signed, zero, scale):
    """fp32 out, and the next layer's levels out at each width and
    signedness with its zero point at either end.  A zero level
    dequantizes to +0.0, whatever the sign of the input it came from;
    only silu makes a -0.0, from a negative value."""
    p = params(bits, signed, zero, scale)
    rng = np.random.default_rng(bits + 3 * len(zero))
    x = inputs_for(p, rng)
    outs = [None] + [params(b, sg, z, 0.0371) for b, sg in BITS for z in ("low", "high")]
    for p_out in outs:
        attrs = {"qparams": p, **({"activation": activation} if activation else {}),
                 **({"out_qparams": p_out} if p_out else {})}
        g = gr.Graph([gr.Node(0, "requant", [0], 1, attrs)], [gr.GraphInput("x", 0, x.shape)], [("y", 1)], {})
        with np.errstate(over="ignore"):
            got = run_both(g, {"x": x})
            want = requant_reference(x, p, activation, p_out)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), p_out
        if p_out is None and activation != "silu":
            assert not np.signbit(got[got == 0]).any()


@pytest.mark.parametrize("x_bits, x_signed", BITS)
@pytest.mark.parametrize("m", (1, ROW_TILE, ROW_TILE + 1, 256))
def test_qlinear(m, x_bits, x_signed):
    rng = np.random.default_rng(m + x_bits)
    k, n = 256, 3
    p_w, p_x = params(8, True, "mid", 0.0037), params(x_bits, x_signed, "high", 6.5e-5)
    q_w = rng.integers(-128, 127, (m, k), endpoint=True).astype(np.int8)
    q_x = rng.integers(p_x.q_min, p_x.q_max, (k, n), endpoint=True).astype(qp.storage_dtype(x_bits, x_signed))
    q_bias = rng.integers(-32768, 32767, (m, n), endpoint=True).astype(np.int16)
    p_bias, p_out = params(16, True, "mid", 1e-3), params(16, True, "low", 0.05)
    for bias in (False, True):
        node = gr.Node(0, "qlinear", [0, 1, 2] if bias else [0, 1], 5,
                       {"w_qparams": p_w, "in_qparams": p_x, "out_qparams": p_out, "op": "matmul",
                        **({"bias_qparams": p_bias} if bias else {})})
        constants = {0: q_w, **({2: q_bias} if bias else {})}
        g = gr.Graph([node], [gr.GraphInput("x", 1, q_x.shape, tz.dtype_name(q_x))], [("y", 5)], constants)
        y = exact_product(q_w, p_w, q_x, p_x)
        if bias:
            y = y + dequantize_reference(q_bias, p_bias)
        assert run_both(g, {"x": q_x}).tobytes() == quantize_reference(y, p_out).tobytes(), bias


def qlora_graph(q_w, p_w, q_x, p_x, q_b, p_b, q_a, p_a, alpha):
    """One ``qlora`` as a session holds it bound: B, A and alpha prepared as a bind prepares them."""
    node = gr.Node(0, "qlora", [0, 1, 2, 3, 4], 5,
                   {"w_qparams": p_w, "in_qparams": p_x, "b_qparams": p_b, "a_qparams": p_a})
    constants = {0: q_w, **dict(zip((2, 3, 4), slot_reference(q_b, p_b, q_a, p_a, alpha)))}
    return gr.Graph([node], [gr.GraphInput("x", 1, q_x.shape, tz.dtype_name(q_x))], [("y", 5)], constants)


def qlora_levels(rng, shape, p):
    """Random levels with whole rows at q_min, q_max and the zero point."""
    q = rng.integers(p.q_min, p.q_max, shape, endpoint=True)
    for row, value in zip(range(shape[0]), (p.q_min, p.q_max, p.zero_point)):
        q[row] = value
    return q.astype(qp.storage_dtype(p.bits, p.signed))


@pytest.mark.parametrize("x_bits, x_signed, zero", ((16, True, "low"), (16, True, "high"), (8, True, "mid"),
                                                    (8, False, "high"), (16, False, "low")))
def test_qlora(x_bits, x_signed, zero, monkeypatch):
    """W at 1, 64, 65 and 256 rows and on both sides of the stacked/tiled
    boundary (m + rank = 64 and 65 at k = 256), ranks 1 to 8, 1 and 16
    columns; the tiled kernel runs only past the boundary."""
    k = 256
    rng = np.random.default_rng(x_bits + len(zero) + x_signed)
    p_w = params(8, True, zero, 0.0037)
    p_x = params(x_bits, x_signed, zero, 6.5e-5)
    p_b, p_a = params(16, True, zero, 1.1e-5), params(16, True, "mid", 1.3e-5)
    tiled = []
    real = qp.tiled_matmul
    monkeypatch.setattr(qp, "tiled_matmul", lambda *a: tiled.append(a[0].shape) or real(*a))
    cases = 0
    for r in range(1, 9):
        for m in sorted({1, ROW_TILE, ROW_TILE + 1, 256, ROW_TILE - r, ROW_TILE + 1 - r}):
            for n in (1, 16):
                q_w, q_x = qlora_levels(rng, (m, k), p_w), qlora_levels(rng, (k, n), p_x)
                q_b, q_a = qlora_levels(rng, (r, k), p_b), qlora_levels(rng, (m, r), p_a)
                alpha = float(np.float32(rng.normal()) if cases % 3 else -0.0)
                tiled.clear()
                got = run_both(qlora_graph(q_w, p_w, q_x, p_x, q_b, p_b, q_a, p_a, alpha), {"x": q_x})
                want = qlora_reference(q_w, p_w, q_x, p_x, q_b, p_b, q_a, p_a, alpha)
                assert got.tobytes() == want.tobytes(), (m, r, n)
                assert bool(tiled) == (m + r > ROW_TILE), (m, r, tiled)
                cases += 1


def test_a_one_element_qlora():
    """m * n = 1: one output element, from one row of W and one column of x."""
    p = params(16, True, "mid", 1e-4)
    p_w = params(8, True, "low", 0.01)
    rng = np.random.default_rng(1)
    for r in (1, 8):
        q_w, q_x = qlora_levels(rng, (1, 5), p_w), qlora_levels(rng, (5, 1), p)
        q_b, q_a = qlora_levels(rng, (r, 5), p), qlora_levels(rng, (1, r), p)
        got = run_both(qlora_graph(q_w, p_w, q_x, p, q_b, p, q_a, p, 0.5), {"x": q_x})
        assert got.shape == (1, 1)
        assert got.tobytes() == qlora_reference(q_w, p_w, q_x, p, q_b, p, q_a, p, 0.5).tobytes()


@pytest.mark.parametrize("m", (1, 256))
def test_an_exact_zero_is_positive(m):
    """x at its zero point: every product of W x and B x is -0.0 (a
    negative level times 0), and the output is +0.0, stacked or tiled."""
    p_w, p = params(8, True, "high", 0.01), params(16, True, "mid", 1e-4)
    q_w = np.full((m, 256), -128, np.int8)
    q_x = np.full((256, 2), p.zero_point, np.int16)
    q_b, q_a = np.full((4, 256), p.q_min, np.int16), np.full((m, 4), p.q_min, np.int16)
    got = run_both(qlora_graph(q_w, p_w, q_x, p, q_b, p, q_a, p, -1.0), {"x": q_x})
    assert got.tobytes() == qlora_reference(q_w, p_w, q_x, p, q_b, p, q_a, p, -1.0).tobytes()
    assert not np.signbit(got).any()


def test_a_session_prepares_only_the_shared_kernels(toy_bundle, toy_profile):
    """Prepare binds no per-node function: every step of a loaded
    session's programs is one of ``graph._KERNELS``' module functions."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    session = rt.load_model(cp.freeze(frozen, toy_profile, descriptors, name="toy"))
    shared = {id(f) for f in gr._KERNELS.values()}
    kernels = [k for p in session.programs.values() for k in p.kernels]
    assert len(kernels) == sum(len(g.nodes) for _, g in session.bundle.graphs())
    assert all(id(k) in shared for k in kernels)
