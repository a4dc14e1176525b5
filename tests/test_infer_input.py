"""Degenerate numbers in the inputs of ``runtime.infer``.

A NaN has no quantization level: ``infer`` refuses it with
``RangeError`` before anything runs, where a cast to the integer
storage would have made up a level.  An infinity saturates at the end
of its range, as QuantSim's fake-quant saturates it, so the served
output still equals QuantSim bit for bit.
"""

import warnings

import numpy as np
import pytest

from onegraph import compiler as cp
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph.errors import RangeError


@pytest.fixture(scope="module")
def session(toy_bundle, toy_profile, toy_adapter):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    s = rt.load_model(cp.freeze(frozen, toy_profile, descriptors, name="toy"))
    rt.bind_lora(s, cp.pack_lora(toy_adapter, descriptors, toy_profile))
    return s


@pytest.mark.parametrize("where", ("x", "cond"))
def test_a_nan_is_refused_before_running(where, session, toy_samples):
    x, cond = toy_samples[0]
    before = rt.infer(session, x, cond, seed=2)
    feeds = {"x": x.copy(), "cond": cond.copy()}
    feeds[where][-1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a NaN cast to int16 warns first
        with pytest.raises(RangeError, match=f"{where} holds a NaN"):
            rt.infer(session, feeds["x"], feeds["cond"], seed=2)
    assert rt.infer(session, x, cond, seed=2).tobytes() == before.tobytes()


def test_infinities_saturate_as_in_quantsim(session, toy_bundle, toy_profile, toy_adapter, toy_samples):
    x, cond = (v.copy() for v in toy_samples[1])
    x[0, 0], x[3, 0] = np.inf, -np.inf
    cond[1, 0] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rt.infer(session, x, cond, seed=4)
        ref = qt.execute_quantsim(toy_bundle, toy_profile, toy_adapter, x, cond, seed=4)
    assert np.isfinite(out).all()
    assert out.tobytes() == ref.tobytes()
    saturated = x.copy()
    saturated[0, 0] = 1e30
    saturated[3, 0] = -1e30
    assert rt.infer(session, saturated, np.where(np.isinf(cond), -1e30, cond).astype(np.float32),
                    seed=4).tobytes() == out.tobytes()
