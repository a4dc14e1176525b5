"""Binding adapter packs into a loaded model.

A bind that fails leaves the previous binding as it was, the very
arrays, so the next infer serves the same bits.  Neither a bind, failed
or not, nor an infer changes a byte of the loaded model's constants:
binding only writes the slot constants of the session's own backbone.
Those are each slot's operands as its ``qlora`` multiplies them (B's
centred levels in fp32, A dequantized to fp32, alpha), views of one
fp32 buffer of the session's own that each bind fills afresh from the
pack's level block, run by run of equally shaped slots; every step of
``infer`` reads them in place, and a step is fed the latent and the
conditioning only.  The session prepares its graphs once, at load: a
bind re-points the prepared steps at the new views, and an infer
prepares nothing.
"""

import dataclasses
import struct

import numpy as np
import pytest
from conftest import copy_adapter, slot_reference, with_lora_bits

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph.errors import BindError, FormatError, PackError, RangeError


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
    if defect == "block":
        # the level block one level short
        pack = cp.pack_lora(adapter, descriptors, profile)
        return cp._wrap_payload(cp.PACK_MAGIC, pack[20:-cp.unpack_lora(pack).levels.itemsize])
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
                                             ("block", "level block of 8254 bytes"),
                                             ("rank", "rank 9 exceeds 8"),
                                             ("alpha", "slot 0: alpha nan is not finite")))
def test_failed_bind_keeps_the_binding_and_the_base(served, defect, message):
    """A malformed block is a ``FormatError``, every other defect a
    ``BindError``; each raises before any state changes."""
    model_bytes, descriptors, (_, adapters, samples, profile) = served
    model = cp.load_compiled(model_bytes)
    session = rt.Session(model, model_bytes)
    base = constant_bytes(model)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    x, cond = samples[0]
    first = rt.infer(session, x, cond, seed=3)
    prepared = slot_arrays(session)

    with pytest.raises(FormatError if defect == "block" else BindError, match=message):
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


# Slots of shapes 4x6, then 4x4 three times, 8x4, 8x8 twice and 4x8:
# five runs of equally shaped slots, the second and the fourth of more
# than one.
RUNS_MODEL = "\n".join(
    ["name runs", "steps 1", "seed 5", "input 4", "cond 2", "latent 4", "section backbone"]
    + ["lora 4 relu rank=2"] * 4 + ["lora 8 relu rank=2"] * 3
    + ["lora 4 none rank=2", "section decoder", "dense 4 none"]) + "\n"


@pytest.fixture(scope="module")
def runs():
    bundle = ms.build_bundle(ms.parse_model_spec(RUNS_MODEL))
    adapter = ms.build_adapter(bundle, ms.AdapterSpec("runs", seed=3, rank=2, amplitude=0.4))
    profile = qt.calibrate(bundle, ms.make_samples(bundle, 2, 5), qt.Policy("w8a16"), adapter=adapter,
                           lora_bits=16, seed=0)
    _, descriptors = cp.optimize_for_freeze(bundle, profile)
    assert [(d.d_out, d.d_in) for d in descriptors] == [(4, 6), *[(4, 4)] * 3, (8, 4), (8, 8), (8, 8), (4, 8)]
    return adapter, descriptors, profile


def nan_in(side, slot):
    def apply(adapter, descriptors):
        getattr(adapter.entries[descriptors[slot].target_node_id], side)[0, -1] = np.nan
    return apply


def alpha_of(slot, value):
    def apply(adapter, descriptors):
        adapter.entries[descriptors[slot].target_node_id].alpha = value
    return apply


def no_entry(slot):
    def apply(adapter, descriptors):
        del adapter.entries[descriptors[slot].target_node_id]
    return apply


NAN = "lora node {}: a factor holds a NaN, which has no level"

# (defects, slot named, message): the first failing slot in slot order.
PACK_DEFECTS = {
    "A mid-run": ((nan_in("A", 2),), 2, NAN),
    "B in the second run": ((nan_in("B", 3),), 3, NAN),
    "B in a later run": ((nan_in("B", 6),), 6, NAN),
    "two runs": ((nan_in("B", 6), nan_in("A", 1)), 1, NAN),
    "NaN before an infinite alpha": ((nan_in("A", 2), alpha_of(5, np.inf)), 2, NAN),
    "NaN after an infinite alpha": ((nan_in("B", 5), alpha_of(2, -np.inf)), 2,
                                    "lora node {}: alpha -inf is not finite in fp32"),
    "NaN and a NaN alpha in one slot": ((nan_in("B", 4), alpha_of(4, np.nan)), 4, NAN),
    "NaN before a missing entry": ((nan_in("A", 1), no_entry(3)), 1, NAN),
    "NaN after a missing entry": ((nan_in("A", 3), no_entry(1)), 1,
                                  "adapter 'runs' has no entry for lora node {}"),
}


@pytest.mark.parametrize("case", sorted(PACK_DEFECTS))
def test_a_pack_names_the_first_failing_slot(runs, case):
    """Each run of slots is scanned for a NaN at once; the error names
    the first failing slot in slot order, as a slot-by-slot check does."""
    adapter, descriptors, profile = runs
    defects, slot, message = PACK_DEFECTS[case]
    adapter = copy_adapter(adapter)
    for defect in defects:
        defect(adapter, descriptors)
    with pytest.raises(PackError) as caught:
        cp.pack_lora(adapter, descriptors, profile)
    assert str(caught.value) == message.format(descriptors[slot].target_node_id)


@pytest.fixture
def bound(served):
    """A fresh session with the first adapter bound, and its first sample."""
    model, descriptors, (_, adapters, samples, profile) = served
    session = rt.load_model(model)
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    return session, samples[0]


def model_at_width(request, name, bits):
    """A bundle, its adapters, a sample and a profile whose slot
    parameters are calibrated at ``bits``."""
    if name == "toy":
        bundle, profile = request.getfixturevalue("toy_bundle"), request.getfixturevalue("toy_profile")
        adapters, samples = [request.getfixturevalue("toy_adapter")], request.getfixturevalue("toy_samples")
    else:
        bundle, adapters, samples, profile = request.getfixturevalue(name)
    return bundle, adapters, samples[0], with_lora_bits(profile, bundle, adapters, bits)


def test_bind_prepares_each_slot_from_the_payload(request):
    """B is q_b - z_b in fp32, A ``dequantize_array`` of the payload and
    alpha its fp32 value, bit for bit as a slot-by-slot preparation
    gives them, and infer serves QuantSim's bits: on the toy, W64 and
    D48 at 8- and 16-bit factors.  The operands are views of the
    session's one buffer, not of the pack, which the caller may change
    afterwards, each A in Fortran order.  The toy's two slots make two
    runs: its first layer reads the latent next to the conditioning."""
    for name, bits in ((name, bits) for name in ("toy", "w64", "d48") for bits in (8, 16)):
        bundle, adapters, (x, cond), profile = model_at_width(request, name, bits)
        frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
        session = rt.load_model(cp.freeze(frozen, profile, descriptors, name="bind"))
        assert len(session._runs) == 2 or name != "toy"
        for adapter in adapters:
            pack = bytearray(cp.pack_lora(adapter, descriptors, profile))
            decoded = cp.unpack_lora(bytes(pack))
            rt.bind_lora(session, pack)
            first = rt.infer(session, x, cond, seed=3)
            want = qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=3)
            assert first.tobytes() == want.tobytes(), (name, bits)
            pack[20:] = bytes(len(pack) - 20)
            constants, buffer = session.bundle.backbone.constants, session.adapter_buffer
            assert session.adapter_buffer_bytes == buffer.nbytes == sum(
                constants[t].nbytes for d in session.model.descriptors for t in (d.a_tid, d.b_tid, d.alpha_tid))
            for d in session.model.descriptors:
                s = decoded.slots[d.slot_id]
                ref = slot_reference(s.b_q, d.b_params, s.a_q, d.a_params, s.alpha)
                for tid, r in zip((d.b_tid, d.a_tid, d.alpha_tid), ref):
                    got = constants[tid]
                    assert got.dtype == r.dtype and got.shape == r.shape, (name, bits, tid)
                    assert got.tobytes() == r.tobytes() and got.base is buffer, (name, bits, tid)
                # A lies transposed in the buffer, so A (B x) reads A.T in C order
                assert constants[d.a_tid].T.flags.c_contiguous, (name, bits, d.slot_id)
            assert rt.infer(session, x, cond, seed=3).tobytes() == first.tobytes()


def test_fp32_a_is_dequantize_array():
    """fp32(q - z) * s in fp32 is ``dequantize_array``'s float64 product
    rounded to fp32, bit for bit, over every int8 and int16 level: at
    the smallest scale, at 1.0, at 100 random fp32 scales, and at a
    scale whose largest product overflows to infinity."""
    rng = np.random.default_rng(24)
    fp32_max = float(np.finfo(np.float32).max)
    for bits, dtype in ((8, np.int8), (16, np.int16)):
        info = np.iinfo(dtype)
        q = np.arange(info.min, info.max + 1, dtype=dtype).reshape(1, -1, 1)
        # at z = q_max the largest |q - z| is 2**bits - 1, which this scale takes past fp32
        overflow = float(np.float32(fp32_max / (0.6 * (2 ** bits - 1))))
        cases = [(qp.MIN_SCALE, 0), (1.0, 0), (overflow, int(info.max))]
        cases += [(float(s), int(z)) for s, z in zip(
            np.exp(rng.uniform(-80.0, 80.0, 100)).astype(np.float32),
            rng.integers(info.min, info.max, 100, endpoint=True))]
        for scale, z in cases:
            b, a = np.empty((1, 1, 1), np.float32), np.empty(q.shape, np.float32)
            z_b, z_a, s_a = (np.full((1, 1, 1), v, np.float32) for v in (0, z, scale))
            with np.errstate(over="ignore"):
                rt.slot_operands(np.zeros((1, 1, 1), dtype), z_b, q, z_a, s_a, b, a)
                want = qp.dequantize_array(q, qp.QuantParams(scale, z, bits))
            assert a.tobytes() == want.tobytes(), (bits, scale, z)
            assert np.isinf(want).any() or scale != overflow


@pytest.mark.parametrize("level, zero, want", ((-32768, 32767, -65535.0), (32767, -32768, 65535.0)))
def test_prepared_b_is_exact_at_the_range_ends(level, zero, want):
    """|q_b - z_b| reaches 65,535 for 16-bit slots, below 2**24, so fp32
    holds B's centred levels exactly."""
    q_b = np.full((1, 2, 3), level, np.int16)
    b, a = np.empty(q_b.shape, np.float32), np.empty((1, 3, 2), np.float32)
    z_b, z_a, s_a = (np.full((1, 1, 1), v, np.float32) for v in (zero, 0, 1e-4))
    rt.slot_operands(q_b, z_b, np.zeros(a.shape, np.int16), z_a, s_a, b, a)
    assert (b == want).all()


def test_a_level_out_of_range_fails_the_bind(toy_bundle, toy_adapter, toy_profile, toy_samples):
    """Unsigned 8-bit slots are stored in int16, which holds levels past
    255.  Such a level is refused when the bind checks the level block,
    before any session state changes, as the step that read it refused
    it before."""
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

    decoded = cp.unpack_lora(good)
    assert decoded.levels.dtype == np.int16
    past = decoded.levels.copy()
    past[cp.slot_sizes(decoded.records)[0]] = 256   # slot 1's first B level
    payload = good[20:len(good) - past.nbytes] + past.astype("<i2").tobytes()
    with pytest.raises(RangeError, match="outside"):
        rt.bind_lora(session, cp._wrap_payload(cp.PACK_MAGIC, payload))
    assert all(arr is prepared[t] for t, arr in slot_arrays(session).items())
    assert rt.infer(session, x, cond, seed=3).tobytes() == first.tobytes()


def splice(pack: bytes, records, levels) -> bytes:
    """``pack``'s header with these records and this level block."""
    decoded = cp.unpack_lora(pack)
    head = pack[20:len(pack) - decoded.records.nbytes - decoded.levels.nbytes]
    head = head[:-4] + struct.pack("<I", len(records))
    return cp._wrap_payload(cp.PACK_MAGIC, head + records.tobytes() + levels.tobytes())


@pytest.mark.parametrize("defect, message", (("duplicated", r"slot ids \[0, 1, 0\] do not ascend"),
                                             ("unordered", r"slot ids \[1, 0\] do not ascend"),
                                             ("short", "level block of"),
                                             ("long", "level block of")))
def test_a_pack_of_misplaced_records_or_levels_is_a_format_error(toy_bundle, toy_profile,
                                                                 toy_adapter, defect, message):
    """A third record copying slot 0 from another adapter's pack, with its
    levels, would bind a mix of two adapters under the first one's id;
    slot records must ascend strictly, and the block must hold exactly
    the levels they need."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    other = ms.build_adapter(toy_bundle, ms.AdapterSpec("t2", seed=12, rank=2, amplitude=0.4))
    pack = cp.pack_lora(toy_adapter, descriptors, toy_profile)
    mine, theirs = cp.unpack_lora(pack), cp.unpack_lora(cp.pack_lora(other, descriptors, toy_profile))
    size = cp.slot_sizes(mine.records)[0]
    records, levels = mine.records, mine.levels
    if defect == "duplicated":
        records = np.concatenate([records, theirs.records[:1]])
        levels = np.concatenate([levels, theirs.levels[:size]])
    elif defect == "unordered":
        records, levels = records[::-1], np.concatenate([levels[size:], levels[:size]])
    else:
        levels = levels[:-1] if defect == "short" else np.concatenate([levels, levels[:1]])
    bad = splice(pack, records, levels)
    with pytest.raises(FormatError, match=message):
        cp.unpack_lora(bad)
    session = rt.load_model(cp.freeze(frozen, toy_profile, descriptors, name="toy"))
    with pytest.raises(FormatError, match=message):
        rt.bind_lora(session, bad)
    assert session.bound_adapter is None and session.adapter_buffer_bytes == 0
    assert splice(pack, mine.records, mine.levels) == pack


def test_every_qlora_reads_the_slot_arrays_in_place(served, bound):
    """The backbone's operand table holds the bound slot arrays
    themselves, and each step's ``qlora`` multiplies them as they are
    when it runs: new levels prepared into the bound buffer's B and A
    views in place, with no bind, serve QuantSim's bits for an adapter
    of those levels, and a slot-by-slot preparation of them
    (``conftest.slot_reference``) gives the bytes the views hold."""
    _, _, (bundle, _, _, profile) = served
    session, (x, cond) = bound
    constants = session.model.graphs["backbone"].constants
    table = session.programs["backbone"].values
    slots = [t for d in session.model.descriptors for t in (d.b_tid, d.a_tid, d.alpha_tid)]
    assert all(table[t] is constants[t] for t in slots)
    before = rt.infer(session, x, cond, seed=3)
    rng = np.random.default_rng(27)
    entries = {}
    for d in session.model.descriptors:
        alpha = float(constants[d.alpha_tid][0])
        q_b, q_a = (np.clip(p.zero_point + rng.integers(-400, 400, shape, endpoint=True), p.q_min, p.q_max)
                    .astype(qp.storage_dtype(p.bits, p.signed))
                    for p, shape in ((d.b_params, d.b_shape), (d.a_params, d.a_shape)))
        want = slot_reference(q_b, d.b_params, q_a, d.a_params, alpha)
        for tid, w in zip((d.b_tid, d.a_tid), want):
            constants[tid][...] = w
            assert constants[tid].base is session.adapter_buffer
        assert all(constants[t].tobytes() == w.tobytes() for t, w in zip((d.b_tid, d.a_tid, d.alpha_tid), want))
        entries[d.target_node_id] = gr.LoRAEntry(qp.dequantize_array(q_a, d.a_params),
                                                 qp.dequantize_array(q_b, d.b_params), alpha)
    served_now = rt.infer(session, x, cond, seed=3)
    adapter = gr.LoRAAdapter("in place", entries)
    assert served_now.tobytes() == qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=3).tobytes()
    assert served_now.tobytes() != before.tobytes()


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
    adapter bound.  A bind that fails while writing its last run of
    slots leaves the steps reading the previous adapter's arrays."""
    bundle, profile, adapters, packs, model, x, cond = two_adapters
    want = [qt.execute_quantsim(bundle, profile, a, x, cond, seed=3).tobytes() for a in adapters]
    session = rt.load_model(model)
    n_runs = len(session._runs)
    write = rt.slot_operands
    for i in (0, 1, 0):
        rt.bind_lora(session, packs[i])
        assert rt.infer(session, x, cond, seed=3).tobytes() == want[i]
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == n_runs:
                raise MemoryError("the last run's write fails")
            return write(*args)

        monkeypatch.setattr(rt, "slot_operands", failing)
        with pytest.raises(MemoryError):
            rt.bind_lora(session, packs[1 - i])
        monkeypatch.undo()
        assert len(calls) == n_runs
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
