"""Malformed artifacts raise FormatError and nothing else.

The fuzz changes one payload byte of a ``.quadm`` and a ``.qlp``, of
the toy and of a 160-layer model, and recomputes the checksum, so every
mutant reaches the decoder.  A mutant may still load (a changed weight
value is a valid model); what it may not do is escape as struct.error,
KeyError, UnicodeDecodeError or a RangeError from the quantization
parameters.  A model mutant that loads must also serve: the structural checks at load leave binding a
pack that no longer fits as the only failure after it.

A loaded model reads its constants in place from the artifact's bytes.
"""

import dataclasses
import random
import struct
import zlib

import numpy as np
import pytest
import test_bitpin

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph import tensor as tz
from onegraph.errors import BindError, CoverageError, FormatError, GraphError, PackError
from onegraph.qparams import QuantParams, quantize_array, storage_dtype

TRIALS = 200

# 160 adapter layers at width 8: the profile text runs to about 71 KB.
DEEP_MODEL = "\n".join(
    ["name deep", "steps 1", "seed 17", "batch 1", "input 8", "cond 2", "latent 8",
     "amplitude 1.0", "section encoder", "dense 8 relu", "section backbone"]
    + ["lora 8 relu rank=2"] * 159
    + ["lora 8 none rank=2", "section decoder", "dense 8 none"]) + "\n"


def reseal(data: bytes, payload: bytes) -> bytes:
    """``data``'s header with the crc32 and length of ``payload``, then ``payload``."""
    head = bytearray(data[:20])
    struct.pack_into("<IQ", head, 8, zlib.crc32(payload) & 0xFFFFFFFF, len(payload))
    return bytes(head) + payload


def parameter_records(model: bytes) -> int:
    """The row count of a ``.quadm``'s parameter table: after the seed,
    the name, the step count and the string table."""
    payload = model[20:]
    _, pos = cp._unpack_str(payload, 8)
    _, pos = cp._unpack_strings(payload, pos + 4)
    return struct.unpack_from("<I", payload, pos)[0]


def with_lora_bits(pack: bytes, bits: int) -> bytes:
    """``pack`` with the factor width byte of its header, after the
    adapter id, rewritten to ``bits``."""
    payload = bytearray(pack[20:])
    (n,) = struct.unpack_from("<H", payload, 0)
    payload[2 + n] = bits
    return reseal(pack, bytes(payload))


def mutate(data: bytes, rng: random.Random) -> bytes:
    """Change one payload byte and rewrite the header's crc32."""
    payload = bytearray(data[20:])
    i = rng.randrange(len(payload))
    payload[i] = (payload[i] + rng.randrange(1, 256)) % 256
    return reseal(data, bytes(payload))


@pytest.fixture(scope="module")
def toy_artifacts(toy_bundle, toy_adapter, toy_profile):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    return model, cp.pack_lora(toy_adapter, descriptors, toy_profile)


@pytest.fixture(scope="module")
def deep():
    bundle = ms.build_bundle(ms.parse_model_spec(DEEP_MODEL))
    adapter = ms.build_adapter(bundle, ms.AdapterSpec("deep", seed=5, rank=2, amplitude=0.1))
    samples = ms.make_samples(bundle, 1, 3)
    profile = qt.calibrate(bundle, samples, qt.Policy("w8a16"), adapter=adapter, seed=0)
    return bundle, adapter, profile, samples[0]


@pytest.fixture(scope="module")
def deep_artifacts(deep):
    bundle, adapter, profile, _ = deep
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    model = cp.freeze(frozen, profile, descriptors, name="deep")
    return model, cp.pack_lora(adapter, descriptors, profile)


def serve(model: bytes, pack: bytes, seed: int):
    """Load, bind and infer a model that ``load_compiled`` accepted."""
    session = rt.load_model(model)
    try:
        rt.bind_lora(session, pack)
    except BindError:
        return
    rng = np.random.default_rng(seed)
    x, cond = (rng.standard_normal(gi.shape).astype(np.float32)
               for gi in (session.model.graphs["encoder"].inputs[0],
                          session.model.graphs["backbone"].inputs[1]))
    rt.infer(session, x, cond, seed=seed)


@pytest.mark.parametrize("artifacts, kind", (
    pytest.param("toy_artifacts", "model", id="model"), pytest.param("toy_artifacts", "pack", id="pack"),
    pytest.param("deep_artifacts", "model", id="deep-model"),
    pytest.param("deep_artifacts", "pack", id="deep-pack")))
def test_one_byte_corruption_is_a_format_error(artifacts, kind, request):
    model, pack = request.getfixturevalue(artifacts)
    data, loader = (model, cp.load_compiled) if kind == "model" else (pack, cp.unpack_lora)
    loader(data)
    rng = random.Random(kind)
    rejected = 0
    for trial in range(TRIALS):
        mutant = mutate(data, rng)
        try:
            loader(mutant)
            if kind == "model":
                serve(mutant, pack, trial)
        except FormatError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - the test reports what escaped
            pytest.fail(f"trial {trial}: {type(exc).__name__}: {exc}")
    assert rejected > 0


@pytest.mark.parametrize("buffer", (bytes, bytearray))
def test_constants_are_read_only_views_of_the_artifact(toy_artifacts, buffer):
    """Views into the artifact's bytes; a bytearray is first copied into
    bytes, once, so no constant aliases memory the caller can change."""
    model = buffer(toy_artifacts[0])
    whole = np.frombuffer(model, np.uint8)
    loaded = cp.load_compiled(model)
    for role, g in loaded.graphs.items():
        for tid, arr in g.constants.items():
            assert not arr.flags.owndata, (role, tid)
            assert np.shares_memory(arr, whole) == (buffer is bytes), (role, tid)
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def test_a_session_keeps_serving_without_the_callers_bytes(toy_artifacts, toy_samples):
    """Loaded from a bytearray that the caller then clears, or from bytes
    that the caller drops, a session serves the same bits."""
    model, pack = toy_artifacts
    x, cond = toy_samples[0]
    reference = rt.load_model(model)
    rt.bind_lora(reference, pack)
    want = rt.infer(reference, x, cond, seed=5).tobytes()

    mutable = bytearray(model)
    from_bytearray = rt.load_model(mutable)
    mutable[:] = bytes(len(mutable))
    dropped = bytes(bytearray(model))
    from_bytes = rt.load_model(dropped)
    del dropped
    for session in (from_bytearray, from_bytes):
        assert type(session.model_bytes) is bytes and session.model_bytes == model
        rt.bind_lora(session, pack)
        assert rt.infer(session, x, cond, seed=5).tobytes() == want


def loaded_params(model: bytes) -> list:
    """Every parameter use of the loaded ``model``: node attributes, then slots."""
    loaded = cp.load_compiled(model)
    params = [v for g in loaded.graphs.values() for n in g.nodes for v in n.attrs.values()
              if isinstance(v, QuantParams)]
    return params + [p for d in loaded.descriptors for p in (d.a_params, d.b_params)]


def test_equal_parameters_decode_to_one_object(toy_artifacts, deep_artifacts):
    """The file holds each distinct record once, and a load builds one
    ``QuantParams`` per record, on the toy and on the 160-layer model."""
    for model, _ in (toy_artifacts, deep_artifacts):
        params = loaded_params(model)
        assert len({id(p) for p in params}) == len(set(params)) == parameter_records(model) < len(params)


def test_parameters_of_one_record_are_one_row(toy_artifacts, toy_bundle, toy_profile):
    """A ``qlinear`` weight's parameters with a float64 scale one ulp off,
    which rounds to the same fp32 scale: the record is the same, so the
    file is the same bytes and the two decode to one object."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    node = next(n for _, g in frozen.graphs() for n in g.nodes if n.kind == "qlinear")
    p = node.attrs["w_qparams"]
    twin = dataclasses.replace(p, scale=float(np.nextafter(p.scale, np.inf)))
    assert twin != p and np.float32(twin.scale) == np.float32(p.scale)
    node.attrs["w_qparams"] = twin
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    assert model == toy_artifacts[0]
    params = loaded_params(model)
    assert len({id(p) for p in params}) == len(set(params)) == parameter_records(model)


@pytest.mark.parametrize("name", ("toy", "w64", "d48"))
def test_a_loaded_model_freezes_to_its_own_bytes(name, request):
    if name == "toy":
        bundle, profile = request.getfixturevalue("toy_bundle"), request.getfixturevalue("toy_profile")
    else:
        bundle, _, _, profile = request.getfixturevalue(name)
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    model = cp.freeze(frozen, profile, descriptors, name=name, creation_seed=2**64 - 3)
    loaded = cp.load_compiled(model)
    again = gr.ModelBundle(*(loaded.graphs[r] for r in ("encoder", "backbone", "decoder")), loaded.steps)
    assert cp.freeze(again, None, loaded.descriptors, name=loaded.name,
                     creation_seed=loaded.creation_seed) == model


@pytest.mark.parametrize("change, match", ((b"\x00", "trailing bytes in model payload"),
                                           (None, "ValueError")))
def test_a_payload_of_the_wrong_length_is_a_format_error(toy_artifacts, change, match):
    """One byte more, or the last byte gone, with the header's length and
    checksum rewritten to match."""
    model = toy_artifacts[0]
    payload = model[20:] + change if change else model[20:-1]
    with pytest.raises(FormatError, match=match):
        cp.load_compiled(reseal(model, payload))


def test_a_negative_index_is_a_format_error(toy_bundle, toy_profile, monkeypatch):
    """The string attribute ``matmul`` written as index -1, which a Python
    list would take as its last string."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    index = cp._string_index
    monkeypatch.setattr(cp, "_string_index", lambda graphs: {**index(graphs), "matmul": -1})
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    monkeypatch.undo()
    with pytest.raises(FormatError, match="negative string or parameter index"):
        cp.load_compiled(model)


@pytest.mark.parametrize("defect", ("activation", "requant activation", "levels"))
def test_a_node_that_could_not_run_is_a_format_error(toy_bundle, toy_profile, defect):
    """An activation no kernel knows, or a ``qlora`` whose input levels are
    stored wider than its ``in_qparams`` hold: either would load and then
    fail in a step."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    nodes = [n for _, g in frozen.graphs() for n in g.nodes]
    if defect == "activation":
        node = next(n for n in nodes if n.kind == "activation")
        node.attrs["kind"], match = "gelu", "GraphError: node {}: unknown activation 'gelu'"
    elif defect == "requant activation":
        node = next(n for n in nodes if n.kind == "requant" and "activation" in n.attrs)
        node.attrs["activation"], match = "gelu", "GraphError: node {}: unknown activation 'gelu'"
    else:
        node = next(n for n in nodes if n.kind == "qlora")
        node.attrs["in_qparams"] = QuantParams(node.attrs["in_qparams"].scale, 0, 8)
        match = "ShapeError: node {}: qlora reads i16 levels under in_qparams stored as i8"
    with pytest.raises(FormatError, match=match.format(node.id)):
        cp.load_compiled(cp.freeze(frozen, toy_profile, descriptors, name="toy"))


@pytest.mark.parametrize("defect", ("swapped slot tids", "wider slot", "missing descriptor"))
def test_descriptors_must_name_the_slot_inputs(toy_bundle, toy_profile, defect):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    d = descriptors[0]
    if defect == "swapped slot tids":
        descriptors[0] = dataclasses.replace(d, a_tid=d.b_tid, b_tid=d.a_tid)
    elif defect == "wider slot":
        descriptors[0] = dataclasses.replace(d, r_max=d.r_max + 1)
    else:
        descriptors = descriptors[1:]
    with pytest.raises(FormatError, match="GraphError"):
        cp.load_compiled(cp.freeze(frozen, toy_profile, descriptors, name="toy"))


SLOT_DEFECTS = {
    "i32 A": r"ShapeError: node \d+: qlora needs B and A as stored \('i16', 'i16'\) or as prepared "
             r"\(fp32, fp32\), got \(i16, i32\)",
    "constant alpha": r"GraphError: tensors \[\d+\] are both inputs and constants",
    "bits 3": r"slot 0: bits 3, not its A/B 16/16",
}


@pytest.mark.parametrize("defect", sorted(SLOT_DEFECTS))
def test_slot_inputs_keep_their_storage(toy_bundle, toy_profile, defect):
    """Slot 0's A input stored wider than its descriptor's parameters
    hold, a constant at its alpha tid that a bind would overwrite, or a
    descriptor whose bit width is not its parameters'."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    d = descriptors[0]
    if defect == "i32 A":
        assert (d.a_params.bits, d.a_params.signed) == (16, True)
        next(gi for gi in frozen.backbone.inputs if gi.tid == d.a_tid).dtype = "i32"
    elif defect == "bits 3":
        descriptors[0] = dataclasses.replace(d, bits=3)
    else:
        frozen.backbone.constants[d.alpha_tid] = np.ones((1,), np.float32)
    with pytest.raises(FormatError, match=SLOT_DEFECTS[defect]):
        cp.load_compiled(cp.freeze(frozen, toy_profile, descriptors, name="toy"))


@pytest.mark.parametrize("kind, key", (("dequantize", "qparams"), ("quantize", "qparams"),
                                       ("qlinear", "w_qparams"), ("qlinear", "op")))
def test_quant_node_without_its_attribute(toy_bundle, toy_profile, kind, key):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    node = next(n for _, g in frozen.graphs() for n in g.nodes if n.kind == kind)
    del node.attrs[key]
    lacks = f"lacks {key}" if key != "op" else "op None"
    with pytest.raises(FormatError, match=f"GraphError: node {node.id}: {kind} {lacks}"):
        cp.load_compiled(cp.freeze(frozen, toy_profile, descriptors, name="toy"))


@pytest.mark.parametrize("kind", ("quantize", "activation", "qlinear", "qlora", "requant"))
def test_a_node_short_of_inputs_is_a_format_error(toy_bundle, toy_profile, kind):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    node = next(n for _, g in frozen.graphs() for n in g.nodes if n.kind == kind)
    node.inputs = node.inputs[:len(node.inputs) // 2]
    with pytest.raises(FormatError, match="malformed model payload"):
        cp.load_compiled(cp.freeze(frozen, toy_profile, descriptors, name="toy"))


def test_qlinear_with_a_flat_weight_is_a_format_error(toy_bundle, toy_profile):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    g, node = next((g, n) for _, g in frozen.graphs() for n in g.nodes if n.kind == "qlinear")
    g.constants[node.inputs[0]] = g.constants[node.inputs[0]].reshape(-1)
    with pytest.raises(FormatError, match=f"ShapeError: node {node.id}: qlinear shapes"):
        cp.load_compiled(cp.freeze(frozen, toy_profile, descriptors, name="toy"))


def test_an_adapter_layer_outside_the_backbone_is_a_format_error(toy_bundle, toy_profile):
    """A session checks only the backbone's ``qlora`` nodes against their
    slots and the 2**53 bound, so no other graph may hold one."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    data = cp.freeze(dataclasses.replace(frozen, decoder=frozen.backbone), toy_profile, descriptors,
                     name="toy")
    with pytest.raises(FormatError, match="GraphError: decoder graph may not contain adapter layers"):
        cp.load_compiled(data)


def test_stepless_model_is_a_format_error(toy_bundle, toy_profile):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    data = cp.freeze(dataclasses.replace(frozen, steps=0), toy_profile, descriptors, name="toy")
    with pytest.raises(FormatError, match="GraphError: bundle step count must be positive"):
        cp.load_compiled(data)


def test_each_magic_has_its_own_version(toy_artifacts):
    """``.quadm`` is at version 5 and ``.qlp`` at 2.  A version-1
    ``.quadm``, which held the graphs before the fusions, is refused, and
    so are a version-2 one, which also held the profile text, a version-3
    one, whose reader knows no ``requant`` that emits levels, and a
    version-4 one, which wrote each node as a record of its own.  So is a
    version-1 ``.qlp``, which held per-slot parameter records and tensor
    headers, and a version-3 one."""
    model, pack = toy_artifacts
    assert (model[4:6], pack[4:6]) == (b"\x05\x00", b"\x02\x00")
    for data, loader, magic, old in ((model, cp.load_compiled, "QADM", 1),
                                     (model, cp.load_compiled, "QADM", 2),
                                     (model, cp.load_compiled, "QADM", 3),
                                     (model, cp.load_compiled, "QADM", 4),
                                     (pack, cp.unpack_lora, "QLPK", 1),
                                     (pack, cp.unpack_lora, "QLPK", 3)):
        changed = bytearray(data)
        struct.pack_into("<H", changed, 4, old)
        with pytest.raises(FormatError, match=f"unsupported {magic} format version {old}"):
            loader(bytes(changed))


def test_the_model_holds_no_profile_text(toy_artifacts, toy_profile):
    payload = toy_artifacts[0][20:]
    assert qt.profile_to_text(toy_profile).encode() not in payload
    assert b"policy " not in payload


def test_a_model_past_the_old_string_limit_serves(deep):
    """A narrow, deep model whose profile text runs past 65535 bytes: it
    froze only while the artifact held no such text behind a 16-bit
    length.  Its runtime output is QuantSim's, bit for bit."""
    bundle, adapter, profile, (x, cond) = deep
    assert len(qt.profile_to_text(profile).encode()) > 0xFFFF
    _, _, (out,) = test_bitpin.serve(bundle, profile, [adapter], x, cond, seed=1)
    assert np.isfinite(out).all() and out.any()


def levels_slot_by_slot(adapter, descriptors) -> np.ndarray:
    """A pack's level block as ``quantize_array`` gives it one factor at a
    time, each padded to its slot with the zero point."""
    blocks = []
    for d in sorted(descriptors, key=lambda d: d.slot_id):
        e = adapter.entries[d.target_node_id]
        dtype = storage_dtype(d.b_params.bits, d.b_params.signed)
        b_q = np.full(d.b_shape, d.b_params.zero_point, dtype)
        a_q = np.full(d.a_shape, d.a_params.zero_point, dtype)
        b_q[:e.rank] = quantize_array(e.B, d.b_params)
        a_q[:, :e.rank] = quantize_array(e.A, d.a_params)
        blocks += (b_q.ravel(), a_q.ravel())
    return np.concatenate(blocks)


def test_a_pack_quantizes_each_run_as_each_slot(w64):
    """W64's slots make two runs (the first layer also reads the
    conditioning).  A rank-3 adapter in its rank-8 slots, with both
    zeros, both infinities, values past either end and a subnormal in
    its factors, packs to the levels ``quantize_array`` gives each."""
    bundle, _, _, profile = w64
    _, descriptors = cp.optimize_for_freeze(bundle, profile)
    assert len({(d.d_out, d.d_in, d.r_max) for d in descriptors}) == 2
    adapter = ms.build_adapter(bundle, ms.AdapterSpec("odd", seed=3, rank=3, amplitude=0.2))
    for e in adapter.entries.values():
        e.A.flat[:6] = (0.0, -0.0, np.inf, -np.inf, 1e30, 1e-45)
        e.B.flat[:4] = (-1e30, -0.0, 3.0, -3.0)
    pack = cp.unpack_lora(cp.pack_lora(adapter, descriptors))
    assert pack.levels.tobytes() == levels_slot_by_slot(adapter, descriptors).tobytes()


@pytest.mark.parametrize("defect", ("mixed widths", "no slots", "mixed signedness"))
def test_pack_needs_one_factor_width(toy_bundle, toy_adapter, toy_profile, defect):
    """The pack header's factor width is the slots' one width, and the
    level block's one dtype needs one signedness too."""
    _, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    d = descriptors[1]
    if defect == "mixed widths":
        descriptors[1] = dataclasses.replace(d, b_params=QuantParams(d.b_params.scale, 0, 8))
        match = r"share one bit width, not \[8, 16\]"
    elif defect == "mixed signedness":
        descriptors[1] = dataclasses.replace(d, b_params=QuantParams(d.b_params.scale, 0, 16, False))
        match = r"share one signedness, not \[False, True\]"
    else:
        descriptors, match = [], r"share one bit width, not \[\]"
    with pytest.raises(PackError, match=match):
        cp.pack_lora(toy_adapter, descriptors)


@pytest.mark.parametrize("bits", (3, 8))
def test_a_pack_header_width_unlike_its_slots_is_a_format_error(toy_artifacts, bits):
    """The toy pack's slots hold 16-bit factors."""
    model, pack = toy_artifacts
    assert cp.unpack_lora(with_lora_bits(pack, 16)).lora_bits == 16
    with pytest.raises(FormatError, match=rf"pack lora_bits {bits}, not its A/B 16/16"):
        cp.unpack_lora(with_lora_bits(pack, bits))
    session = rt.load_model(model)
    with pytest.raises(FormatError, match=f"lora_bits {bits}"):
        rt.bind_lora(session, with_lora_bits(pack, bits))


def test_descriptor_bits_are_the_slot_width(toy_artifacts, toy_bundle, toy_profile):
    """A profile header's ``lora_bits`` unlike its 16-bit slot entries
    changes no artifact byte: the descriptors take the slots' width."""
    model, _ = toy_artifacts
    header8 = dataclasses.replace(toy_profile, lora_bits=8)
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, header8)
    assert {d.bits for d in descriptors} == {16}
    again = cp.freeze(frozen, header8, descriptors, name="toy")
    assert again == model
    rt.load_model(again)


def test_slot_params_of_two_widths_are_a_coverage_error(toy_bundle, toy_profile):
    nid = toy_bundle.backbone.lora_nodes()[0].id
    key = f"backbone.lora.{nid}.B"
    p = toy_profile.weight_params[key]
    mixed = dataclasses.replace(toy_profile, weight_params={
        **toy_profile.weight_params, key: QuantParams(p.scale, 0, 8)})
    with pytest.raises(CoverageError, match=rf"lora node {nid}: slot params A/B are 16/8 bits"):
        cp.optimize_for_freeze(toy_bundle, mixed)


@pytest.mark.parametrize("bits", (3, 8))
def test_a_profile_header_width_unlike_its_slots_is_a_format_error(toy_profile, bits):
    """The toy profile's slot entries are 16-bit; 3 is no factor width."""
    text = qt.profile_to_text(toy_profile)
    assert qt.profile_from_text(text).lora_bits == 16
    bad = text.replace("lora_bits 16\n", f"lora_bits {bits}\n")
    assert bad != text
    match = "not 8 or 16" if bits == 3 else r"lora_bits 8, but backbone\.lora\.\d+\.[AB] has 16 bits"
    with pytest.raises(FormatError, match=match):
        qt.profile_from_text(bad)


def test_an_adapter_id_past_the_string_limit_is_a_format_error(toy_bundle, toy_adapter, toy_profile):
    _, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    adapter = dataclasses.replace(toy_adapter, adapter_id="a" * 70_000)
    with pytest.raises(FormatError, match="70000 bytes exceeds the format's 65535-byte limit"):
        cp.pack_lora(adapter, descriptors)


@pytest.mark.parametrize("defect", ("reversed", "cycle"))
def test_freeze_refuses_nodes_out_of_topological_order(toy_bundle, toy_profile, defect):
    """``freeze`` writes each graph in its own node order, so an order that
    is not topological is refused, not sorted."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    nodes = frozen.backbone.nodes
    if defect == "reversed":
        nodes.reverse()
    else:
        nodes[0].inputs.append(nodes[-1].output)
    with pytest.raises(GraphError, match="backbone node \\d+: nodes are not in topological order"):
        cp.freeze(frozen, toy_profile, descriptors, name="toy")


def test_extents_whose_product_overflows_int64():
    """Four extents of 65536 hold 2**64 elements, which an int64 count wraps to 0."""
    data = b"QTNS" + struct.pack("<HBB4I", 1, 0, 4, *(65536,) * 4) + bytes(12)
    assert len(data) == 36
    with pytest.raises(FormatError, match="truncated QTNS payload"):
        tz.qtns_from_bytes(data)


def test_kind_codes_are_pinned():
    """The node kind codes of the format; 1 and 3 are retired and stay unassigned."""
    assert cp._KIND_CODES == {"matmul": 0, "add": 2, "scale": 4, "concat": 5, "activation": 6,
                              "lora_matmul": 7, "quantize": 8, "dequantize": 9, "qlinear": 10,
                              "qlora": 11, "requant": 12}
    assert (cp._ATTR_INT, cp._ATTR_STR, cp._ATTR_QPARAMS) == (0, 2, 3)


@pytest.mark.parametrize("code", (1, 3))
def test_retired_kind_code_is_a_format_error(toy_bundle, toy_profile, code, monkeypatch):
    """Every ``qlinear`` written under a retired kind code."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    monkeypatch.setitem(cp._KIND_CODES, "qlinear", code)
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    monkeypatch.undo()
    with pytest.raises(FormatError, match="KeyError"):
        cp.load_compiled(model)


@pytest.mark.parametrize("tag", (1, 4))
def test_retired_attr_tag_is_a_format_error(toy_bundle, toy_profile, tag, monkeypatch):
    """Every string attribute (a ``qlinear``'s ``op``, an activation's
    kind) written under a retired tag."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    monkeypatch.setattr(cp, "_ATTR_STR", tag)
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    monkeypatch.undo()
    with pytest.raises(FormatError, match=f"unknown attr tag {tag}"):
        cp.load_compiled(model)
