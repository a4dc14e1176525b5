"""The compiler's fusions, and the session that runs the fused graphs.

``compiler.optimize_for_freeze`` fuses each adapter layer into one
``qlora`` node and each ``quantize -> dequantize [-> activation]`` chain
into one ``requant`` node, which also takes in the ``quantize`` of the
next layer's input when that alone reads the chain, and the ``.quadm``
holds those graphs (kind codes 11 and 12), with dense tensor ids.  ``compiler.load_compiled`` returns them as frozen,
they freeze back to the same bytes, and ``runtime.Session`` plans and
runs them node for node.  ``onegraph inspect --dump`` prints them
(digests recorded at model format version 5, whose text differs from
version 4's only in the version and the byte counts).

A fused node must give the bits of its unfused chain.  The chain's
reference here runs the chain's own nodes through ``graph.run_graph``,
with each product of two dequantized tensors taken as QuantSim takes
it: the exact product of the levels it recovers from the fp32 values.
A ``qlora`` reads its B, A and alpha as a session holds them once a
bind has prepared them (``conftest.slot_reference``, which a bind
matches bit for bit), as constants.

A step widens a base weight taller than one row tile
(``qparams.tiled_matmul``) tile by tile: a model of such weights still
serves QuantSim's bits, the ones it served when each weight was widened
whole, and a step's traced peak holds one tile, not the whole weight.
"""

import dataclasses
import gc
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import numbers, slot_reference
from test_bitpin import serve, sha

from onegraph import cli
from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph import tensor as tz
from onegraph.errors import FormatError, RangeError

FUSED_KINDS = ("qlora", "requant")

# SHA-256 of the served outputs of W256_MODEL (conftest.py), one per adapter,
# recorded when every base weight was widened whole to float64.
PINNED_W256 = ["098594beaed4eb871b8e737592a54a3dfed7634409e858c1c79ae62d847af140",
               "15a5288e8526e0fb4767c7ba41018462abf7489b1d9a214f2d02a863d54d7a2c"]

INSPECT_SHA256 = {
    "w64": "bdfc2e4f89b2a88839049a9a5826c98a7273efd4ccf8c1d3134440b962bf7b3a",
    "d48": "dc2ce91d0c587895d8c7416c34d75366a6e67ea858f7637382660c4db9f99a60",
}


@pytest.fixture(params=("w64", "d48"))
def compiled(request):
    bundle, _, _, profile = request.getfixturevalue(request.param)
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    return request.param, frozen, cp.freeze(frozen, profile, descriptors, name="pin")


def test_no_dequantized_product_is_left(compiled, request):
    name, _, model = compiled
    _, adapters, _, profile = request.getfixturevalue(name)
    session = rt.load_model(model)
    # a fresh plan derives the shapes from the graph, which holds the slots once bound
    rt.bind_lora(session, cp.pack_lora(adapters[0], session.model.descriptors, profile))
    fused = 0
    for role, g in session.model.graphs.items():
        producer = g.producer_map()
        consumed = {t for n in g.nodes for t in n.inputs} | {t for _, t in g.outputs}
        for n in g.nodes:
            kinds = [producer[t].kind if t in producer else None for t in n.inputs]
            assert not (n.kind == "matmul" and "dequantize" in kinds), (role, n.id)
            assert not (n.kind == "dequantize" and kinds == ["quantize"]), (role, n.id)
            assert n.kind != "dequantize" or n.output in consumed, (role, n.id)
            fused += n.kind in FUSED_KINDS
        assert session.plans[role].offsets.keys() == {it.tid for it in rt.lifetime_items(g)}
    assert fused > 0


def test_each_lora_layer_is_one_qlora(compiled, request):
    """One ``qlora`` per slot, reading that slot's A, B and alpha, with the
    id (the descriptor's ``target_node_id``) and the output tensor of the
    layer it replaces; no adapter arithmetic is left over."""
    name, frozen, model = compiled
    bundle = request.getfixturevalue(name)[0]
    session = rt.load_model(model)
    backbone = session.model.graphs["backbone"]
    qlora = [n for n in backbone.nodes if n.kind == "qlora"]
    slots = {d.target_node_id: (d.b_tid, d.a_tid, d.alpha_tid) for d in session.model.descriptors}
    assert {n.id: tuple(n.inputs[2:]) for n in qlora} == slots
    assert len(qlora) == {"w64": 4, "d48": 48}[name]
    ids = numbers(frozen.backbone)
    assert {n.output for n in qlora} == {ids[n.output] for n in bundle.backbone.lora_nodes()}
    assert not [n for n in backbone.nodes if n.kind in ("matmul", "scale", "add", "dequantize")]


def test_the_session_runs_the_graphs_it_decodes(compiled):
    """Node for node the decoded graphs, with the slots as the only change:
    no slot is dequantized, and none is a backbone input of the session."""
    _, _, model = compiled
    session = rt.load_model(model)
    loaded = cp.load_compiled(model)
    for role, g in loaded.graphs.items():
        ran = session.model.graphs[role]
        assert [(n.id, n.kind) for n in ran.nodes] == [(n.id, n.kind) for n in g.nodes]
        assert ran.outputs == g.outputs
    slots = {t for d in loaded.descriptors for t in (d.a_tid, d.b_tid, d.alpha_tid)}
    backbone = session.model.graphs["backbone"]
    assert not [n for n in backbone.nodes if n.kind == "dequantize" and n.inputs[0] in slots]
    assert [gi.tid for gi in backbone.inputs] == [gi.tid for gi in loaded.graphs["backbone"].inputs[:2]]


def test_a_load_peaks_near_what_it_keeps(d48):
    """The load's traced peak is at most 1.5x the bytes still live after it.
    It reads 1.45x (153,322 of 105,906 B, numpy 2.4, Python 3.11); it
    read 3.04x when each session fused the graphs it had loaded."""
    bundle, _, _, profile = d48
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    model = cp.freeze(frozen, profile, descriptors, name="pin")
    rt.load_model(model)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = rt.load_model(model)
        live, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert session.model.descriptors and peak <= 1.5 * live


def test_a_prepared_program_holds_little_per_node(d48):
    """What a session prepares at load, traced: per node its kernel, its
    output's arena view (shared by the tensors at one offset with one
    shape and dtype) and its operand-table entries, one per tensor since
    ``compiler.freeze`` numbers the tensors densely.  On D48 that is 88 B
    a node (numpy 2.4, Python 3.11), under a 95 B bound.  A closure or a
    step tuple per node would exceed it, and so would a view of its own
    for every tensor, or a table sized by sparse ids (130 B a node)."""
    bundle, _, _, profile = d48
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    data = cp.freeze(frozen, profile, descriptors, name="pin")
    model = cp.load_compiled(data)
    session = rt.Session(model, data)
    hooks = rt._ArenaHooks(session.arena, session.plans)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        programs = [gr.prepare(g, role=role, hooks=hooks, shapes=model.shapes[role])
                    for role, g in session.bundle.graphs()]
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    nodes = sum(len(p.graph.nodes) for p in programs)
    assert nodes == 108 and held <= 95 * nodes


def test_the_file_keeps_its_graphs(compiled):
    """The fused graphs in the passes' node order, each tensor id written
    as its dense number, and the same bytes again."""
    _, frozen, model = compiled
    loaded = cp.load_compiled(model)
    for role, g in frozen.graphs():
        ids = numbers(g)
        got = loaded.graphs[role]
        assert [(n.id, n.kind, n.inputs, n.output, n.attrs) for n in got.nodes] == [
            (n.id, n.kind, [ids[t] for t in n.inputs], ids[n.output], n.attrs) for n in g.nodes]
        assert sorted(ids.values()) == list(range(len(ids))) == sorted(got.constants.keys() | {
            t for n in got.nodes for t in (*n.inputs, n.output)} | {gi.tid for gi in got.inputs})
    again = gr.ModelBundle(*(loaded.graphs[r] for r in ("encoder", "backbone", "decoder")),
                           loaded.steps)
    assert cp.freeze(again, None, loaded.descriptors, name=loaded.name,
                     creation_seed=loaded.creation_seed) == model


def test_inspect_prints_what_it_printed(compiled, tmp_path, capsys):
    name, _, model = compiled
    path = tmp_path / "model.quadm"
    path.write_bytes(model)
    assert cli.main(["inspect", str(path), "--dump"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INSPECT_SHA256[name]


def test_the_qlora_bounds_are_checked_at_load(compiled, monkeypatch):
    """Both exact products of every ``qlora``, W x and B x, are checked
    against the 2**53 bound once, when the session is made: with the
    limit at the largest of those bounds the load fails, one above it the
    load succeeds."""
    _, _, model = compiled
    loaded = cp.load_compiled(model)
    backbone = loaded.graphs["backbone"]
    widest = 0
    for n in backbone.nodes:
        if n.kind == "qlora":
            k = backbone.constants[n.inputs[0]].shape[1]
            bits_x = n.attrs["in_qparams"].bits
            widest = max(widest, k << (n.attrs["w_qparams"].bits + bits_x),
                         k << (n.attrs["b_qparams"].bits + bits_x))
    assert widest > 0
    monkeypatch.setattr(qp, "EXACT_INT_LIMIT", widest)
    with pytest.raises(RangeError, match="2\\*\\*53"):
        rt.load_model(model)
    monkeypatch.setattr(qp, "EXACT_INT_LIMIT", widest + 1)
    rt.load_model(model)


def test_a_slot_outside_an_adapter_layer_does_not_load(toy_bundle, toy_profile):
    """A bind prepares a slot for its ``qlora`` only.  Here slot 0's layer
    is edited back into the chain it computes, so its B, A and alpha feed
    plain ``dequantize`` and ``scale`` nodes: the model decodes, and does
    not load."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    bb = frozen.backbone
    slot = next(d for d in descriptors if d.slot_id == 0)
    layer = next(n for n in bb.nodes if n.kind == "qlora" and n.inputs[2] == slot.b_tid)
    q_w, q_x, q_b, q_a, alpha = layer.inputs
    tids, ids = itertools.count(bb.next_tid()), itertools.count(bb.next_node_id())
    w, x, b, a, wx, bx, abx, scaled = (next(tids) for _ in range(8))

    def node(kind, inputs, output, p=None):
        return gr.Node(next(ids), kind, inputs, output, {} if p is None else {"qparams": p})

    chain = [node("dequantize", [q_w], w, layer.attrs["w_qparams"]),
             node("dequantize", [q_x], x, layer.attrs["in_qparams"]),
             node("dequantize", [q_b], b, slot.b_params), node("dequantize", [q_a], a, slot.a_params),
             node("matmul", [w, x], wx), node("matmul", [b, x], bx), node("matmul", [a, bx], abx),
             node("scale", [abx, alpha], scaled), gr.Node(layer.id, "add", [wx, scaled], layer.output)]
    at = bb.nodes.index(layer)
    bb.nodes[at:at + 1] = chain
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    cp.load_compiled(model)
    with pytest.raises(FormatError, match="slots \\[0\\] feed no adapter layer"):
        rt.load_model(model)


@pytest.mark.parametrize("defect", (None, "read twice", "other parameters"))
def test_a_slot_is_read_by_its_layer_alone(defect):
    """A bind writes B, A and alpha in the form only their ``qlora``
    multiplies, under the slot's parameters."""
    p8, p16 = qp.QuantParams(0.01, 0, 8), qp.QuantParams(1e-4, 3, 16)
    ops = [np.zeros(shape, dtype) for shape, dtype in
           (((3, 4), np.int8), ((4, 2), np.int16), ((2, 4), np.int16), ((3, 2), np.int16))]
    g = _qlora_graph(_qlora_node(p8, p16, p16, p16), *ops)
    slot = cp.LoRASlotDescriptor(0, 0, a_tid=3, b_tid=2, alpha_tid=4, d_out=3, d_in=4, r_max=2,
                                 bits=16, a_params=p16, b_params=p16)
    if defect == "read twice":
        g.nodes.append(gr.Node(1, "dequantize", [2], 6, {"qparams": p16}))
        g.outputs.append(("b", 6))
    elif defect == "other parameters":
        slot = dataclasses.replace(slot, b_params=p8)
    shapes = {t: (v.shape, tz.dtype_name(v)) for t, v in enumerate(ops)}
    if defect is None:
        rt.check_adapter_layers(g, [slot], shapes)
        return
    with pytest.raises(FormatError, match="node 0: an adapter layer must be the one reader"):
        rt.check_adapter_layers(g, [slot], shapes)


@pytest.mark.parametrize("kind", FUSED_KINDS)
def test_an_artifact_holds_each_fused_kind(kind, toy_bundle, toy_profile):
    """A fused node is written under its kind code and loads back as it was
    frozen; the ``requant`` checked is one that carries an activation."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    role, g, node = next((role, g, n) for role, g in frozen.graphs() for n in g.nodes
                         if n.kind == kind and (kind == "qlora" or "activation" in n.attrs))
    ids = numbers(g)
    inputs = [ids[t] for t in node.inputs]
    row = np.array([(node.id, cp._KIND_CODES[kind], len(inputs), ids[node.output], len(node.attrs))],
                   cp._NODE_RECORD)
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    assert model[20:].count(row.tobytes()) == 1
    assert np.array(inputs, "<u4").tobytes() in model[20:]
    again = next(n for n in cp.load_compiled(model).graphs[role].nodes if n.id == node.id)
    assert (again.kind, again.inputs, again.attrs) == (kind, inputs, node.attrs)


# ---------------------------------------------------------------------------
# Each fused node against its unfused chain, on constructed inputs


class _LevelProducts(gr._NullHooks):
    """A product of two dequantized tensors as QuantSim takes it."""

    def __init__(self, g):
        self.producer = g.producer_map()

    def product(self, role, node, which, a, b, tape):
        dqs = [self.producer.get(t) for t in node.inputs]
        if not all(d is not None and d.kind == "dequantize" for d in dqs):
            return gr._mm(a, b, tape)
        p_a, p_b = (d.attrs["qparams"] for d in dqs)
        return qp.centered_matmul(qp.fake_quant_levels(a, p_a), p_a, qp.fake_quant_levels(b, p_b), p_b)


def _as_bound(g):
    """A fused graph as a session holds it: each ``qlora``'s B, A and
    alpha inputs become the constants a bind prepares from their feeds."""
    layers = [n for n in g.nodes if n.kind == "qlora"]
    slots = {t for n in layers for t in n.inputs[2:]}
    inputs = [gi for gi in g.inputs if gi.tid not in slots]
    by_tid = {gi.tid: gi.name for gi in g.inputs}

    def run(feeds):
        constants = dict(g.constants)
        for n in layers:
            b, a, alpha = (feeds[by_tid[t]] for t in n.inputs[2:])
            constants.update(zip(n.inputs[2:], slot_reference(
                b, n.attrs["b_qparams"], a, n.attrs["a_qparams"], alpha.reshape(())[()])))
        bound = gr.Graph(g.nodes, inputs, g.outputs, constants)
        gr.validate(bound)
        return gr.run_graph(bound, {gi.name: feeds[gi.name] for gi in inputs})

    return run


def _fused_and_chain(fused_graph, g, feeds, kind):
    """``fused_graph``, the chain ``g`` as ``compiler.optimize_for_freeze``
    fuses it, run as bound, and the chain run with QuantSim's products."""
    assert [n.kind for n in fused_graph.nodes] == [kind]
    fused = _as_bound(fused_graph)(feeds)["y"]
    chain = gr.run_graph(g, feeds, hooks=_LevelProducts(g))["y"]
    assert fused.dtype == chain.dtype == np.float32 and fused.shape == chain.shape
    return fused, chain


def _params(bits, signed, zero, scale):
    lo, hi = qp.int_bounds(bits, signed)
    return qp.QuantParams(float(np.float32(scale)), {"low": lo, "high": hi, "mid": (lo + hi) // 2}[zero],
                          bits, signed)


PARAMS = [(bits, signed, zero) for bits, signed in ((8, True), (16, True), (8, False), (16, False))
          for zero in ("low", "high", "mid")]


@pytest.mark.parametrize("activation", (None, "relu", "silu"))
@pytest.mark.parametrize("bits, signed, zero", PARAMS)
def test_requant_equals_its_chain(activation, bits, signed, zero):
    """Signed zeros, infinities, half steps and values far past both ends."""
    p = _params(bits, signed, zero, 0.0213)
    s = np.float64(p.scale)
    special = [0.0, -0.0, np.inf, -np.inf, 3e38, -3e38, 1e-30, -1e-30,
               0.5 * s, -0.5 * s, 1.5 * s, -1.5 * s, s * (p.q_max - p.zero_point) + 0.5 * s,
               s * (p.q_min - p.zero_point) - 0.5 * s]
    rng = np.random.default_rng(bits + 7 * len(zero))
    x = np.concatenate([special, rng.normal(0.0, s * (p.q_max - p.q_min), 50)])
    x = x.astype(np.float32).reshape(-1, 2)
    nodes = [gr.Node(0, "quantize", [0], 1, {"qparams": p}),
             gr.Node(1, "dequantize", [1], 2, {"qparams": p})]
    if activation:
        nodes.append(gr.Node(2, "activation", [2], 3, {"kind": activation}))
    g = gr.Graph(nodes, [gr.GraphInput("x", 0, x.shape)], [("y", nodes[-1].output)], {})
    fused, chain = _fused_and_chain(cp._fuse_requant(g), g, {"x": x}, "requant")
    assert fused.tobytes() == chain.tobytes()


@pytest.mark.parametrize("activation", (None, "relu"))
@pytest.mark.parametrize("bits, signed, zero", PARAMS)
def test_requant_emits_the_next_layers_levels(activation, bits, signed, zero):
    """A ``quantize`` that alone reads the chain's output moves into the
    ``requant`` (``out_qparams``), whose output is then that quantize's
    levels, in their storage dtype, bit for bit."""
    p = _params(16, True, "mid", 0.0213)
    p_out = _params(bits, signed, zero, 0.0371)
    rng = np.random.default_rng(bits + len(zero))
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 3e38, -3e38],
                        rng.normal(0.0, 0.0371 * (p_out.q_max - p_out.q_min), 50)])
    x = x.astype(np.float32).reshape(-1, 2)
    nodes = [gr.Node(0, "quantize", [0], 1, {"qparams": p}),
             gr.Node(1, "dequantize", [1], 2, {"qparams": p})]
    if activation:
        nodes.append(gr.Node(2, "activation", [2], 3, {"kind": activation}))
    nodes.append(gr.Node(3, "quantize", [nodes[-1].output], 4, {"qparams": p_out}))
    g = gr.Graph(nodes, [gr.GraphInput("x", 0, x.shape)], [("y", 4)], {})
    fused_graph = cp._fuse_requant(g)
    assert [(n.kind, n.output, n.attrs.get("out_qparams")) for n in fused_graph.nodes] == [
        ("requant", 4, p_out)]
    fused = gr.run_graph(fused_graph, {"x": x})["y"]
    chain = gr.run_graph(g, {"x": x})["y"]
    assert fused.dtype == chain.dtype == qp.storage_dtype(bits, signed)
    assert fused.tobytes() == chain.tobytes()


def test_a_quantize_heading_its_own_pair_starts_the_next_requant():
    """quantize -> dequantize -> activation -> quantize -> dequantize: the
    second quantize heads a pair of its own, so it stays out of the first
    ``requant`` and becomes the second, which reads the first's output.
    Folding it into the first would leave the second reading a tensor
    nothing produces."""
    p, p2 = _params(16, True, "mid", 0.0213), _params(8, True, "low", 0.0371)
    x = np.random.default_rng(3).normal(0.0, 2.0, (6, 2)).astype(np.float32)
    nodes = [gr.Node(0, "quantize", [0], 1, {"qparams": p}),
             gr.Node(1, "dequantize", [1], 2, {"qparams": p}),
             gr.Node(2, "activation", [2], 3, {"kind": "silu"}),
             gr.Node(3, "quantize", [3], 4, {"qparams": p2}),
             gr.Node(4, "dequantize", [4], 5, {"qparams": p2})]
    g = gr.Graph(nodes, [gr.GraphInput("x", 0, x.shape)], [("y", 5)], {})
    fused_graph = cp._fuse_requant(g)
    gr.validate(fused_graph)
    assert [(n.kind, n.inputs, n.output, sorted(n.attrs)) for n in fused_graph.nodes] == [
        ("requant", [0], 3, ["activation", "qparams"]), ("requant", [3], 5, ["qparams"])]
    assert (gr.run_graph(fused_graph, {"x": x})["y"].tobytes()
            == gr.run_graph(g, {"x": x})["y"].tobytes())


LAST_RELU_MODEL = """
name lastrelu
steps 2
seed 7
input 4
cond 2
latent 4
section backbone
lora 8 relu rank=2
lora 4 relu rank=2
section decoder
dense 6 none
"""


def test_a_backbone_ending_in_an_activation_serves_quantsim():
    """The backbone's output is dequantized, so the quantize after its last
    activation heads a pair and stays unfused into that layer's
    ``requant``: the layer ends in two.  Every earlier layer's ``requant``
    emits the next layer's levels.  The session serves QuantSim's bits."""
    bundle = ms.build_bundle(ms.parse_model_spec(LAST_RELU_MODEL))
    adapter = ms.build_adapter(bundle, ms.AdapterSpec("t", seed=11, rank=2, amplitude=0.4))
    samples = ms.make_samples(bundle, 3, 9)
    profile = qt.calibrate(bundle, samples[:2], qt.Policy("w8a16"), adapter=adapter, seed=0)
    frozen, _ = cp.optimize_for_freeze(bundle, profile)
    nodes = frozen.backbone.nodes
    layers = [n for n in nodes if n.kind == "qlora"]
    after = {n.inputs[0]: n for n in nodes if n.kind == "requant"}
    first, last = (after[n.output] for n in layers)
    assert first.attrs["out_qparams"] == layers[1].attrs["in_qparams"]
    assert first.output == layers[1].inputs[1]
    assert "out_qparams" not in last.attrs and after[last.output] is nodes[-1]
    assert not [n for n in nodes if n.kind == "quantize" and n.inputs[0] in
                {r.output for r in after.values()}]
    x, cond = samples[2]
    serve(bundle, profile, [adapter], x, cond, seed=5)


def _storage(p):
    return tz.dtype_name(np.empty(0, qp.storage_dtype(p.bits, p.signed)))


# The names ``compiler.rewrite_lora_as_input`` gives the slot inputs of lora node 9.
B, A, ALPHA = "lora9.B", "lora9.A", "lora9.alpha"


def _adapter_layer(q_w, p_w, p_x, p_b, p_a, x_shape, rank):
    """The adapter layer as ``compiler.rewrite_lora_as_input`` rewrites it,
    from the form ``materialize_quantsim`` leaves it in, and the chain it
    computes, W x + alpha * A (B x): W a constant, the rest inputs."""
    def dq(nid, tid, p):
        return gr.Node(nid, "dequantize", [tid], 10 + tid, {"qparams": p})

    x = gr.GraphInput("x", 1, x_shape, _storage(p_x))
    layer = gr.Graph([dq(0, 0, p_w), dq(1, 1, p_x), gr.Node(9, "lora_matmul", [10, 11], 24, {"rank": rank})],
                     [x], [("y", 24)], {0: q_w})
    profile = qt.QuantProfile(policy=qt.Policy("w8a16"), lora_bits=p_b.bits,
                              weight_params={"backbone.lora.9.A": p_a, "backbone.lora.9.B": p_b})
    rewritten, _ = cp.rewrite_lora_as_input(layer, profile)
    inputs = [x, gr.GraphInput(B, 2, (rank, x_shape[0]), _storage(p_b)),
              gr.GraphInput(A, 3, (q_w.shape[0], rank), _storage(p_a)), gr.GraphInput(ALPHA, 4, (1,))]
    nodes = [dq(0, 0, p_w), dq(1, 1, p_x), dq(2, 2, p_b), dq(3, 3, p_a),
             gr.Node(4, "matmul", [10, 11], 20), gr.Node(5, "matmul", [12, 11], 21),
             gr.Node(6, "matmul", [13, 21], 22), gr.Node(7, "scale", [22, 4], 23),
             gr.Node(8, "add", [20, 23], 24)]
    return rewritten, gr.Graph(nodes, inputs, [("y", 24)], {0: q_w})


def _levels(rng, shape, p, fill):
    dtype = qp.storage_dtype(p.bits, p.signed)
    value = {"min": p.q_min, "max": p.q_max, "zero": p.zero_point}.get(fill)
    if value is not None:
        return np.full(shape, value, dtype=dtype)
    return rng.integers(p.q_min, p.q_max, size=shape, endpoint=True).astype(dtype)


@pytest.mark.parametrize("zero", ("low", "high", "mid"))
@pytest.mark.parametrize("x_bits, x_signed", ((16, True), (8, True), (16, False)))
def test_qlora_equals_its_chain(zero, x_bits, x_signed):
    """Every level at either end or at the zero point, zero points at both
    ends of the range, and alpha at +-0.0 and +-inf."""
    rng = np.random.default_rng(len(zero) + x_bits)
    d_out, k, r, batch = 5, 7, 3, 2
    p_w = _params(8, True, zero, 0.0037)
    p_x = _params(x_bits, x_signed, zero, 6.5e-5)
    p_b = _params(16, True, zero, 1.1e-5)
    p_a = _params(16, True, "mid" if zero == "low" else "low", 1.3e-5)
    checked = 0
    for fw, fx, fb, fa in itertools.product(("min", "max", "random"), ("min", "max", "zero", "random"),
                                            ("max", "random"), ("min", "random")):
        q_w = _levels(rng, (d_out, k), p_w, fw)
        rewritten, g = _adapter_layer(q_w, p_w, p_x, p_b, p_a, (k, batch), r)
        for alpha in (1.0, -0.0, np.inf, -np.inf, -0.37):
            feeds = {"x": _levels(rng, (k, batch), p_x, fx), B: _levels(rng, (r, k), p_b, fb),
                     A: _levels(rng, (d_out, r), p_a, fa), ALPHA: np.full((1,), alpha, np.float32)}
            with np.errstate(invalid="ignore"):   # 0 * inf in both
                fused, chain = _fused_and_chain(rewritten, g, feeds, "qlora")
            assert fused.tobytes() == chain.tobytes(), (fw, fx, fb, fa, alpha)
            checked += 1
    assert checked == 3 * 4 * 2 * 2 * 5


def _qlora_node(p_w, p_x, p_b, p_a):
    return gr.Node(0, "qlora", [0, 1, 2, 3, 4], 5,
                   {"w_qparams": p_w, "in_qparams": p_x, "b_qparams": p_b, "a_qparams": p_a})


def _qlora_graph(node, q_w, q_x, q_b, q_a):
    inputs = [gr.GraphInput(name, tid, v.shape, tz.dtype_name(v))
              for name, tid, v in (("x", 1, q_x), ("B", 2, q_b), ("A", 3, q_a))]
    inputs.append(gr.GraphInput("alpha", 4, (1,)))
    return gr.Graph([node], inputs, [("y", 5)], {0: q_w})


def _run_qlora(node, q_w, q_x, q_b, q_a):
    g = _qlora_graph(node, q_w, q_x, q_b, q_a)
    return _as_bound(g)({"x": q_x, "B": q_b, "A": q_a, "alpha": np.ones(1, np.float32)})


@pytest.mark.parametrize("operand", ("w", "x", "b", "a"))
def test_qlora_rejects_a_level_out_of_range(operand):
    """Unsigned 8-bit levels, held in their int16 storage, are scanned, as
    ``dequantize_array`` scans them: W's and x's on every step, B's and
    A's once, when a bind prepares them."""
    p = qp.QuantParams(0.01, 0, 8, False)
    ops = {name: np.zeros(shape, np.int16) for name, shape in
           (("w", (3, 4)), ("x", (4, 2)), ("b", (2, 4)), ("a", (3, 2)))}
    ops[operand][1, 1] = 256
    with pytest.raises(RangeError, match="outside"):
        _run_qlora(_qlora_node(p, p, p, p), ops["w"], ops["x"], ops["b"], ops["a"])


def test_qlora_checks_the_2_53_bound_before_widening():
    """B x at 16x16 bits over k = 2**21 reaches 2**53.  A session checks
    both bounds of every ``qlora`` once, when it is made, from the shapes
    and the parameters, before a bind prepares or a step widens anything;
    zero-stride operands show any float64 copy as megabytes in the traced
    peak."""
    k = 1 << 21
    p8, p16 = qp.QuantParams(1.0, 0, 8), qp.QuantParams(1.0, 0, 16)
    q_w = np.broadcast_to(np.int8(0), (1, k))
    q_x = np.broadcast_to(np.int16(0), (k, 1))
    q_b = np.broadcast_to(np.int16(0), (1, k))
    q_a = np.zeros((1, 1), np.int16)
    g = _qlora_graph(_qlora_node(p8, p16, p16, p16), q_w, q_x, q_b, q_a)
    slot = cp.LoRASlotDescriptor(0, 0, a_tid=3, b_tid=2, alpha_tid=4, d_out=1, d_in=k, r_max=1,
                                 bits=16, a_params=p16, b_params=p16)
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="2\\*\\*53"):
            rt.check_adapter_layers(g, [slot], {t: (v.shape, tz.dtype_name(v)) for t, v in
                                                enumerate((q_w, q_x, q_b, q_a))})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# Base weights taller than one row tile (``qparams.tiled_matmul``)

def test_a_model_that_tiles_serves_quantsim_bits(w256):
    """Runtime == QuantSim, bit for bit, on weights taller than a tile, and
    the served outputs are the ones recorded before weights were tiled."""
    bundle, adapters, samples, profile = w256
    heights = [g.constants[n.inputs[0]].shape[0] for _, g in bundle.graphs() for n in g.nodes
               if n.kind in ("matmul", "lora_matmul")]
    assert len(heights) == 4 and min(heights) > tz.MATMUL_BLOCK_BYTES // (8 * 256)
    x, cond = samples[1]
    _, _, outputs = serve(bundle, profile, adapters, x, cond, seed=7)
    assert all(np.isfinite(o).all() for o in outputs)
    assert [sha(o.tobytes()) for o in outputs] == PINNED_W256


@pytest.mark.parametrize("kind", ("qlinear", "qlora"))
def test_a_step_widens_one_tile_of_the_weight(kind):
    """A step on a 1024 x 256 int8 weight holds at most one row tile of its
    float64 levels at a time, 128 KB against 2 MB for the whole weight: its
    traced peak stays below one tile plus four float64 copies of its
    activations (x, and the output with each of its intermediates)."""
    m, k, batch, r = 1024, 256, 4, 8
    rng = np.random.default_rng(5)
    p_w, p_x, p16 = qp.QuantParams(0.004, 0, 8), qp.QuantParams(1e-4, 3, 16), qp.QuantParams(1e-5, 0, 16)
    q_w = rng.integers(-128, 127, (m, k), endpoint=True).astype(np.int8)
    q_x = rng.integers(-3000, 3000, (k, batch)).astype(np.int16)
    if kind == "qlinear":
        node = gr.Node(0, "qlinear", [0, 1], 5, {"w_qparams": p_w, "in_qparams": p_x,
                                                "out_qparams": p16, "op": "matmul"})
        g = gr.Graph([node], [gr.GraphInput("x", 1, q_x.shape, "i16")], [("y", 5)], {0: q_w})
    else:
        q_b = rng.integers(-3000, 3000, (r, k)).astype(np.int16)
        q_a = rng.integers(-3000, 3000, (m, r)).astype(np.int16)
        g = _qlora_graph(_qlora_node(p_w, p_x, p16, p16), q_w, q_x, q_b, q_a)
        g = gr.Graph(g.nodes, g.inputs[:1], g.outputs, {
            **g.constants, **dict(zip((2, 3, 4), slot_reference(q_b, p16, q_a, p16, 1.0)))})
    gr.validate(g)
    gr.run_graph(g, {"x": q_x})
    tracemalloc.start()
    try:
        gr.run_graph(g, {"x": q_x})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tz.MATMUL_BLOCK_BYTES + 4 * 8 * (m + k) * batch
