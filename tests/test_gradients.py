"""Tape gradients against central differences on ``TWOLAYER_MODEL``.

``distill._backward`` walks the tape ``graph.run_bundle`` records.  The
loss is a fixed weighting of the output, sum(w * y), so its gradient
with respect to each adapter factor entry can be checked against
(L(f + h) - L(f - h)) / 2h taken in float64 over fp32 forward passes.

On the fp path the differences are smooth.  Under QuantSim a step h
crosses fake-quant levels; with a calibrated 8-bit profile single
entries disagree by up to 40x.  So the QuantSim path is checked under
``conftest.all16_profile``: 16 bits over [-2, 2], which every tensor of
this model stays inside, with a step of about 1,600 levels, where the
rounding noise of the difference quotient is well below the bound.
The error of a factor is its largest absolute difference over its
largest tape gradient.
"""

import numpy as np
import pytest
from conftest import all16_profile

import onegraph as og
from onegraph import distill as dst
from onegraph import graph as gr
from onegraph import quant as qt

# (hooks, h, bound); the measured worst errors are 1.7e-5 (fp) and 5.9e-3 (QuantSim)
PATHS = {"fp": (None, 1e-2, 1e-3), "quantsim": ("all16", 1e-1, 2e-2)}


@pytest.mark.parametrize("path", PATHS)
def test_tape_gradients_match_central_differences(path, twolayer_bundle, twolayer_adapter,
                                                  twolayer_samples):
    profile, h, bound = PATHS[path]
    hooks = gr.NULL_HOOKS if profile is None else qt.QuantSimHooks(all16_profile(twolayer_bundle, 2.0))
    x, cond = twolayer_samples[0]
    w = np.random.default_rng(5).normal(size=(4, x.shape[1])).astype(np.float32)

    def run(adapter, tape=None):
        return gr.run_bundle(twolayer_bundle, x, cond, adapter, noise_seed=3, hooks=hooks, tape=tape)

    tape = gr.Tape()
    out = run(twolayer_adapter, tape)
    factors = [getattr(e, which) for e in twolayer_adapter.entries.values() for which in ("A", "B")]
    grads = dst._backward(tape, {id(out): w}, factors)
    checked = 0
    for nid, entry in twolayer_adapter.entries.items():
        for which in ("A", "B"):
            g = grads[id(getattr(entry, which))]
            fd = np.zeros(g.shape)
            for idx in np.ndindex(g.shape):
                sides = []
                for step in (h, -h):
                    moved = og.LoRAAdapter("moved", {k: og.LoRAEntry(e.A.copy(), e.B.copy(), e.alpha)
                                                     for k, e in twolayer_adapter.entries.items()})
                    getattr(moved.entries[nid], which)[idx] += np.float32(step)
                    sides.append(float(np.sum(run(moved).astype(np.float64) * w)))
                fd[idx] = (sides[0] - sides[1]) / (2 * h)
            assert np.max(np.abs(fd - g)) <= bound * np.max(np.abs(g)), (nid, which)
            checked += 1
    assert checked == 4
