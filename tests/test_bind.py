"""Binding adapter packs into a loaded model.

A bind that fails leaves the previous binding as it was, so the next
infer serves the same bits.  Neither a bind, failed or not, nor an
infer changes a byte of the model's constants: binding only replaces
the slot input buffers.
"""

import dataclasses

import pytest

from onegraph import compiler as cp
from onegraph import runtime as rt
from onegraph.errors import BindError


@pytest.fixture(scope="module")
def served(w64):
    bundle, adapters, samples, profile = w64
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    return cp.freeze(frozen, profile, descriptors, name="bind"), descriptors, w64


def bad_pack(defect, descriptors, adapter, profile):
    if defect == "slots":
        return cp.pack_lora(adapter, descriptors[1:], profile)
    coarser = [dataclasses.replace(d, a_params=dataclasses.replace(d.a_params,
                                                                   scale=2 * d.a_params.scale))
               for d in descriptors]
    return cp.pack_lora(adapter, coarser, profile)


def constant_bytes(session):
    return {(role, tid): arr.tobytes()
            for role, g in session.model.graphs.items() for tid, arr in g.constants.items()}


@pytest.mark.parametrize("defect, message", (("slots", "do not match model slots"),
                                             ("params", "quantization parameters")))
def test_failed_bind_keeps_the_binding_and_the_base(served, defect, message):
    model, descriptors, (_, adapters, samples, profile) = served
    session = rt.load_model(model)
    base = constant_bytes(session)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    x, cond = samples[0]
    first = rt.infer(session, x, cond, seed=3)

    with pytest.raises(BindError, match=message):
        rt.bind_lora(session, bad_pack(defect, descriptors, adapters[1], profile))

    assert session.bound_adapter == adapters[0].adapter_id
    again = rt.infer(session, x, cond, seed=3)
    assert again.dtype == first.dtype and again.tobytes() == first.tobytes()
    assert constant_bytes(session) == base
