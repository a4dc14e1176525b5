"""Binding adapter packs into a loaded model.

A bind that fails leaves the previous binding as it was, the very
arrays, so the next infer serves the same bits.  Neither a bind, failed
or not, nor an infer changes a byte of the loaded model's constants:
binding only writes the slot constants of the session's own backbone.
Those are each slot's operands as its ``qlora`` multiplies them,
prepared once per bind from the pack's payloads (B's centred levels in
fp32, A dequantized to fp32), and every step of ``infer`` reads them
in place; a step is fed the latent and the conditioning only.  The
session prepares its graphs once, at load: a bind re-points the
prepared steps at the new slot arrays, and an infer prepares nothing.
"""

import dataclasses
import struct

import numpy as np
import pytest
from conftest import copy_adapter

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph import tensor as tz
from onegraph.errors import BindError, PackError, RangeError


@pytest.fixture(scope="module")
def served(w64):
    bundle, adapters, samples, profile = w64
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    return cp.freeze(frozen, profile, descriptors, name="bind"), descriptors, w64


def bad_pack(defect, descriptors, adapter, profile):
    if defect == "slots":
        return cp.pack_lora(adapter, descriptors[1:], profile)
    if defect in ("rank", "alpha"):
        # slot 0 claims one rank more than its slot holds, or a NaN alpha
        pack = cp.pack_lora(adapter, descriptors, profile)
        d, alpha = descriptors[0], np.float32(adapter.entries[descriptors[0].target_node_id].alpha)
        payload, old = pack[20:], struct.pack("<IIf", d.slot_id, d.r_max, alpha)
        assert payload.count(old) == 1
        new = (d.slot_id, d.r_max + 1, alpha) if defect == "rank" else (d.slot_id, d.r_max, np.nan)
        return cp._wrap_payload(cp.PACK_MAGIC, payload.replace(old, struct.pack("<IIf", *new)))
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


def slot_arrays(session):
    return {t: session.bundle.backbone.constants[t]
            for d in session.model.descriptors for t in (d.a_tid, d.b_tid, d.alpha_tid)}


@pytest.mark.parametrize("defect, message", (("slots", "do not match model slots"),
                                             ("params", "quantization parameters"),
                                             ("dtype", "is i32, the slot stores i16"),
                                             ("rank", "rank 9 exceeds 8"),
                                             ("alpha", "slot 0: alpha nan is not finite")))
def test_failed_bind_keeps_the_binding_and_the_base(served, defect, message):
    model_bytes, descriptors, (_, adapters, samples, profile) = served
    model = cp.load_compiled(model_bytes)
    session = rt.Session(model, model_bytes)
    base = constant_bytes(model)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    x, cond = samples[0]
    first = rt.infer(session, x, cond, seed=3)
    prepared = slot_arrays(session)

    with pytest.raises(BindError, match=message):
        rt.bind_lora(session, bad_pack(defect, descriptors, adapters[1], profile))

    assert session.bound_adapter == adapters[0].adapter_id
    assert all(arr is prepared[t] for t, arr in slot_arrays(session).items())
    again = rt.infer(session, x, cond, seed=3)
    assert again.dtype == first.dtype and again.tobytes() == first.tobytes()
    assert constant_bytes(model) == base


@pytest.mark.parametrize("defect", ("A", "B", "nan alpha", "inf alpha", "alpha past fp32"))
def test_a_nan_factor_or_a_non_finite_alpha_does_not_pack(toy_bundle, toy_adapter, toy_profile,
                                                         defect):
    """A NaN factor entry has no level, and ``requant``'s int cast would
    hide a NaN alpha from every output, so neither reaches a pack."""
    _, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    adapter = copy_adapter(toy_adapter)
    nid = descriptors[1].target_node_id
    entry = adapter.entries[nid]
    if defect in ("A", "B"):
        getattr(entry, defect)[-1, 0] = np.nan
    else:
        entry.alpha = {"nan alpha": np.nan, "inf alpha": -np.inf, "alpha past fp32": 1e39}[defect]
    with pytest.raises(PackError, match=f"lora node {nid}: "):
        cp.pack_lora(adapter, descriptors, toy_profile)


@pytest.fixture
def bound(served):
    """A fresh session with the first adapter bound, and its first sample."""
    model, descriptors, (_, adapters, samples, profile) = served
    session = rt.load_model(model)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    return session, samples[0]


def test_bind_prepares_each_slot_from_the_payload(served):
    """B is q_b - z_b in fp32 and A ``dequantize_array`` of the payload,
    bit for bit, in arrays of the session's own: the operands alias no
    byte of the pack, which the caller may change afterwards."""
    model, descriptors, (_, adapters, samples, profile) = served
    pack = bytearray(cp.pack_lora(adapters[0], descriptors, profile))
    decoded = cp.unpack_lora(bytes(pack))
    session = rt.load_model(model)
    rt.bind_lora(session, pack)
    x, cond = samples[0]
    first = rt.infer(session, x, cond, seed=3)
    pack[20:] = bytes(len(pack) - 20)
    constants = session.bundle.backbone.constants
    for d in session.model.descriptors:
        s = decoded.slots[d.slot_id]
        for tid, want in ((d.b_tid, (s.b_q.astype(np.int64) - d.b_params.zero_point).astype(np.float32)),
                          (d.a_tid, qp.dequantize_array(s.a_q, d.a_params)),
                          (d.alpha_tid, np.array([s.alpha], np.float32))):
            got = constants[tid]
            assert got.dtype == want.dtype and got.shape == want.shape, tid
            assert got.tobytes() == want.tobytes() and got.flags.owndata, tid
    assert rt.infer(session, x, cond, seed=3).tobytes() == first.tobytes()


@pytest.mark.parametrize("level, zero, want", ((-32768, 32767, -65535.0), (32767, -32768, 65535.0)))
def test_prepared_b_is_exact_at_the_range_ends(level, zero, want):
    """|q_b - z_b| reaches 65,535 for 16-bit slots, below 2**24, so fp32
    holds B's centred levels exactly."""
    p = qp.QuantParams(1e-4, zero, 16)
    q_b = np.full((2, 3), level, np.int16)
    b, _, _ = rt.slot_operands(q_b, p, np.zeros((3, 2), np.int16), p, 0.5)
    assert b.dtype == np.float32 and b.shape == q_b.shape and (b == want).all()


def test_a_level_out_of_range_fails_the_bind(toy_bundle, toy_adapter, toy_profile, toy_samples):
    """Unsigned 8-bit slots are stored in int16, which holds levels past
    255.  Such a level is refused when the bind prepares the slot, before
    any session state changes, as the step that read it refused it
    before."""
    unsigned = qt.QuantProfile(policy=toy_profile.policy, lora_bits=8,
                               weight_params=dict(toy_profile.weight_params),
                               act_params=dict(toy_profile.act_params))
    for key, p in toy_profile.weight_params.items():
        if ".lora." in key:
            unsigned.weight_params[key] = qp.compute_quant_params(p.repr_lo, p.repr_hi, 8, signed=False)
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, unsigned)
    session = rt.load_model(cp.freeze(frozen, unsigned, descriptors, name="unsigned"))
    good = cp.pack_lora(toy_adapter, descriptors, unsigned)
    rt.bind_lora(session, good)
    x, cond = toy_samples[0]
    first = rt.infer(session, x, cond, seed=3)
    prepared = slot_arrays(session)

    b_q = cp.unpack_lora(good).slots[1].b_q
    assert b_q.dtype == np.int16
    past = b_q.copy()
    past[0, 0] = 256
    payload, old = good[20:], tz.qtns_bytes(b_q)
    assert payload.count(old) == 1
    with pytest.raises(RangeError, match="outside"):
        rt.bind_lora(session, cp._wrap_payload(cp.PACK_MAGIC, payload.replace(old, tz.qtns_bytes(past))))
    assert all(arr is prepared[t] for t, arr in slot_arrays(session).items())
    assert rt.infer(session, x, cond, seed=3).tobytes() == first.tobytes()


def test_every_qlora_reads_the_slot_arrays_in_place(bound, monkeypatch):
    """The backbone's operand table holds the bound slot arrays
    themselves, and each step's ``qlora`` multiplies them: B's prepared
    levels go to ``qparams.scaled_matmul`` and A to ``tensor.matmul``,
    both looked up in their modules when the step runs."""
    session, (x, cond) = bound
    constants = session.model.graphs["backbone"].constants
    table = session.programs["backbone"].values
    slots = [t for d in session.model.descriptors for t in (d.b_tid, d.a_tid, d.alpha_tid)]
    assert all(table[t] is constants[t] for t in slots)
    seen = {"B": [], "A": []}
    scaled, matmul = qp.scaled_matmul, tz.matmul
    monkeypatch.setattr(qp, "scaled_matmul", lambda c_b, *a: seen["B"].append(id(c_b)) or scaled(c_b, *a))
    monkeypatch.setattr(tz, "matmul", lambda a, b: seen["A"].append(id(a)) or matmul(a, b))
    rt.infer(session, x, cond, seed=3)
    layers = [n for n in session.bundle.backbone.nodes if n.kind == "qlora"]
    assert len(layers) == len(session.model.descriptors)
    assert seen["B"] == [id(constants[n.inputs[2]]) for n in layers] * session.model.steps
    assert seen["A"] == [id(constants[n.inputs[3]]) for n in layers] * session.model.steps


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
        if kwargs["program"].role == "backbone":
            fed.append(sorted(feeds))
        return run(g, feeds, **kwargs)

    monkeypatch.setattr(gr, "run_graph", spy)
    rt.infer(session, x, cond, seed=3)
    assert fed == [["cond", "z"]] * session.model.steps


@pytest.fixture(params=("toy", "w256"))
def two_adapters(request):
    """A frozen model, two adapters and their packs, and one sample."""
    if request.param == "toy":
        bundle = request.getfixturevalue("toy_bundle")
        profile = request.getfixturevalue("toy_profile")
        x, cond = request.getfixturevalue("toy_samples")[0]
        adapters = [request.getfixturevalue("toy_adapter"),
                    ms.build_adapter(bundle, ms.AdapterSpec("other", seed=12, rank=2, amplitude=0.4))]
    else:
        bundle, adapters, samples, profile = request.getfixturevalue("w256")
        x, cond = samples[1]
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    model = cp.freeze(frozen, profile, descriptors, name="rebind")
    packs = [cp.pack_lora(a, descriptors, profile) for a in adapters]
    return bundle, profile, adapters, packs, model, x, cond


def test_a_rebind_repoints_the_prepared_steps(two_adapters, monkeypatch):
    """Bind A, B, then A again: each infer serves QuantSim's bits for the
    adapter bound.  A bind that fails while preparing its last slot
    leaves the steps reading the previous adapter's arrays."""
    bundle, profile, adapters, packs, model, x, cond = two_adapters
    want = [qt.execute_quantsim(bundle, profile, a, x, cond, seed=3).tobytes() for a in adapters]
    session = rt.load_model(model)
    n_slots = len(session.model.descriptors)
    prepare = rt.slot_operands
    for i in (0, 1, 0):
        rt.bind_lora(session, packs[i])
        assert rt.infer(session, x, cond, seed=3).tobytes() == want[i]
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == n_slots:
                raise RangeError("quantized element outside [0, 255]")
            return prepare(*args)

        monkeypatch.setattr(rt, "slot_operands", failing)
        with pytest.raises(RangeError):
            rt.bind_lora(session, packs[1 - i])
        monkeypatch.undo()
        assert len(calls) == n_slots
        assert rt.infer(session, x, cond, seed=3).tobytes() == want[i]
    assert want[0] != want[1]


def test_a_warm_infer_prepares_nothing(served, monkeypatch):
    """A session prepares its three graphs at load; a bind re-points the
    backbone's steps, and an infer only invokes them."""
    model, descriptors, (_, adapters, samples, profile) = served
    session = rt.load_model(model)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    x, cond = samples[0]
    rt.infer(session, x, cond, seed=3)
    calls = []
    prepare = gr.prepare
    monkeypatch.setattr(gr, "prepare", lambda *a, **k: calls.append(a) or prepare(*a, **k))
    rt.bind_lora(session, cp.pack_lora(adapters[1], descriptors, profile))
    rt.infer(session, x, cond, seed=3)
    assert calls == []
