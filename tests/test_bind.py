"""Binding adapter packs into a loaded model.

A bind that fails leaves the previous binding as it was, so the next
infer serves the same bits.  Neither a bind, failed or not, nor an
infer changes a byte of the loaded model's constants: binding only
writes the slot constants of the session's own backbone.  Those are the
arrays the bind decoded, and every step of ``infer`` reads them in
place; a step is fed the latent and the conditioning only.
"""

import dataclasses

import numpy as np
import pytest

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import runtime as rt
from onegraph import tensor as tz
from onegraph.errors import BindError


@pytest.fixture(scope="module")
def served(w64):
    bundle, adapters, samples, profile = w64
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    return cp.freeze(frozen, profile, descriptors, name="bind"), descriptors, w64


def bad_pack(defect, descriptors, adapter, profile):
    if defect == "slots":
        return cp.pack_lora(adapter, descriptors[1:], profile)
    if defect == "dtype":
        # slot 0's A stored as i32: the same levels under the same parameters
        pack = cp.pack_lora(adapter, descriptors, profile)
        a_q = cp.unpack_lora(pack).slots[0].a_q
        payload, old = pack[20:], tz.qtns_bytes(a_q)
        assert payload.count(old) == 1
        return cp._wrap_payload(cp.PACK_MAGIC, payload.replace(old, tz.qtns_bytes(a_q.astype(np.int32))))
    coarser = [dataclasses.replace(d, a_params=dataclasses.replace(d.a_params,
                                                                   scale=2 * d.a_params.scale))
               for d in descriptors]
    return cp.pack_lora(adapter, coarser, profile)


def constant_bytes(model):
    return {(role, tid): arr.tobytes()
            for role, g in model.graphs.items() for tid, arr in g.constants.items()}


@pytest.mark.parametrize("defect, message", (("slots", "do not match model slots"),
                                             ("params", "quantization parameters"),
                                             ("dtype", "is i32, the slot stores i16")))
def test_failed_bind_keeps_the_binding_and_the_base(served, defect, message):
    model_bytes, descriptors, (_, adapters, samples, profile) = served
    model = cp.load_compiled(model_bytes)
    session = rt.Session(model, model_bytes)
    base = constant_bytes(model)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    x, cond = samples[0]
    first = rt.infer(session, x, cond, seed=3)

    with pytest.raises(BindError, match=message):
        rt.bind_lora(session, bad_pack(defect, descriptors, adapters[1], profile))

    assert session.bound_adapter == adapters[0].adapter_id
    again = rt.infer(session, x, cond, seed=3)
    assert again.dtype == first.dtype and again.tobytes() == first.tobytes()
    assert constant_bytes(model) == base


@pytest.fixture
def bound(served):
    """A fresh session with the first adapter bound, and its first sample."""
    model, descriptors, (_, adapters, samples, profile) = served
    session = rt.load_model(model)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    return session, samples[0]


def test_bind_keeps_the_decoded_arrays(served, monkeypatch):
    model, descriptors, (_, adapters, _, profile) = served
    session = rt.load_model(model)
    decoded = []
    unpack = cp.unpack_lora
    monkeypatch.setattr(cp, "unpack_lora", lambda data: decoded.append(unpack(data)) or decoded[-1])
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    (pack,) = decoded
    constants = session.model.graphs["backbone"].constants
    for d in descriptors:
        s = pack.slots[d.slot_id]
        assert constants[d.a_tid] is s.a_q and constants[d.b_tid] is s.b_q
        assert s.a_q.flags.owndata and s.b_q.flags.owndata


def test_every_qlora_reads_the_slot_arrays_in_place(bound, monkeypatch):
    session, (x, cond) = bound
    constants = session.model.graphs["backbone"].constants
    by_tids = {tids: [constants[t] for t in tids]
               for tids in ((d.b_tid, d.a_tid, d.alpha_tid) for d in session.model.descriptors)}
    seen = []
    run = gr._run_qlora
    monkeypatch.setattr(gr, "_run_qlora", lambda n, ins: seen.append((n, ins[2:])) or run(n, ins))
    rt.infer(session, x, cond, seed=3)
    assert len(seen) == session.model.steps * len(by_tids)
    for node, slot_ins in seen:
        want = by_tids[tuple(node.inputs[2:])]
        assert [id(v) for v in slot_ins] == [id(v) for v in want], node.id


def test_infer_makes_no_buffer_views(bound, monkeypatch):
    session, (x, cond) = bound
    first = rt.infer(session, x, cond, seed=3)
    calls = []
    frombuffer = np.frombuffer
    monkeypatch.setattr(np, "frombuffer", lambda *a, **k: calls.append(a) or frombuffer(*a, **k))
    again = rt.infer(session, x, cond, seed=3)
    assert calls == []
    assert again.tobytes() == first.tobytes()


def test_a_step_is_fed_the_latent_and_the_conditioning_only(bound, monkeypatch):
    session, (x, cond) = bound
    fed = []
    run = gr.run_graph

    def spy(g, feeds, **kwargs):
        if kwargs["role"] == "backbone":
            fed.append(sorted(feeds))
        return run(g, feeds, **kwargs)

    monkeypatch.setattr(gr, "run_graph", spy)
    rt.infer(session, x, cond, seed=3)
    assert fed == [["cond", "z"]] * session.model.steps
