"""Compiler passes pinned to the rescanning passes they replaced.

The digests were recorded with passes that rescanned the node list for
every rewire and restarted ``scale_fold`` after every fusion, so the
node order, the tensor and node ids and the fusions must stay those
passes'.  The hand-built graph has what the model specs do not build: a
bias add after a matmul, a weight shared by two matmuls, a graph output
in the middle of the graph and a node output that is left unquantized.
The hand-built bundle has a covered input that nothing reads: its
``quantize -> dequantize`` pair outlives ``scale_fold``, and the
compiler's last dead-code pass drops what that pair fuses to.  Its
``.quadm`` digest was last recorded at model format version 5, which
stores each graph as column tables with dense tensor ids.  The toy backbone's digest was re-recorded when
the LoRA-as-input rewrite moved after ``scale_fold`` and began to turn
each adapter layer into its ``qlora`` directly; the ``.quadm`` files
that hold its result kept their lengths and, but for node ids, their
decoded graphs.

``optimize_for_freeze`` checks each graph once, when its last pass is
done, so the checks after every pass live here: each pass, run in turn,
must leave a graph ``graph.validate`` accepts.  A malformed bundle must
still fail with the toolkit's own errors, and a compile must leave the
bundle it reads as it was, since the passes share its nodes.
"""

import copy
import hashlib

import numpy as np
import pytest
from conftest import compile_pass_by_pass

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph.errors import CycleError, GraphError, ShapeError

PINNED = "964fc277eb70396c54a64740333178b9fc2e733db41a4f97f0209daf0bacc8d9"
PINNED_TOY = "cc4ad8fcf4258e6d676ac23aa204e14fb8df123c656a9b26e4f4e1e4f6357137"
PINNED_UNREAD = "89850afc89c35bc2566fc1b80a013ab235805db4bd68e19ca4d0c4fe6fafc865"
PINNED_UNREAD_MODEL = "641a93160f0c043dd97a4049c926900eaa2f21371a788feeea41302d5d3f0993"


def hand_graph():
    rng = np.random.default_rng(0)

    def const(*shape):
        return rng.uniform(-1, 1, shape).astype(np.float32)

    constants = {1: const(3, 4), 2: const(3, 2), 5: const(3, 2)}
    nodes = [gr.Node(0, "matmul", [1, 0], 10), gr.Node(1, "add", [10, 2], 11),
             gr.Node(2, "activation", [11], 12, {"kind": "relu"}),
             gr.Node(4, "matmul", [1, 0], 14), gr.Node(5, "add", [14, 12], 15),
             gr.Node(6, "add", [5, 15], 16)]
    g = gr.Graph(nodes, [gr.GraphInput("x", 0, (4, 2))], [("y", 16), ("w", 11)], constants)
    profile = qt.QuantProfile(policy=qt.Policy("w8a16"), lora_bits=16)
    for tid in gr.weight_tids(g):
        profile.weight_params[f"r.w.{tid}"] = qp.compute_quant_params(-1.0, 1.0, 8)
    for tid in (0, 11, 12, 14, 15, 16):   # 10 stays fp32, so its add is a bias
        profile.act_params[f"r.a.{tid}"] = qp.compute_quant_params(-4.0, 4.0, 16)
    return g, profile


def test_materialize_and_scale_fold_pinned():
    g, profile = hand_graph()
    materialized = cp.materialize_quantsim(g, profile, "r")
    folded = cp.scale_fold(materialized)
    text = "".join(f"{gr.dump_graph(x)}{x.outputs}\n" for x in (materialized, folded))
    kinds = [n.kind for n in folded.nodes]
    assert kinds.count("qlinear") == 2 and "bias_qparams" in folded.nodes[2].attrs
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED


def test_toy_backbone_passes_pinned(toy_bundle, toy_profile):
    # The backbone's adapter layers between the passes: a ``lora_matmul``
    # reading two dequantizes, then one ``qlora`` reading the slots, in
    # the order the passes leave them (the .quadm holds them so).
    materialized = cp.materialize_quantsim(toy_bundle.backbone, toy_profile, "backbone")
    folded = cp.scale_fold(materialized)
    rewritten, descriptors = cp.rewrite_lora_as_input(folded, toy_profile)
    assert [n.id for n in rewritten.nodes if n.kind == "qlora"] == [d.target_node_id for d in descriptors]
    text = "".join(f"{gr.dump_graph(x)}{x.outputs}{[(i.name, i.tid, i.dtype) for i in x.inputs]}\n"
                   for x in (materialized, folded, rewritten))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TOY


def test_the_rewrite_needs_dequantized_operands(toy_bundle, toy_profile):
    """``rewrite_lora_as_input`` reads an adapter layer as
    ``materialize_quantsim`` leaves it; an fp graph's layer, whose
    operands are the weight and the input themselves, is refused."""
    with pytest.raises(GraphError, match="operands are not a dequantized constant weight"):
        cp.rewrite_lora_as_input(toy_bundle.backbone, toy_profile)


def unread_input_bundle():
    """A bundle whose backbone never reads its conditioning input."""
    rng = np.random.default_rng(1)

    def const(*shape):
        return rng.uniform(-1, 1, shape).astype(np.float32)

    enc = gr.Graph([gr.Node(0, "matmul", [1, 0], 2)], [gr.GraphInput("x", 0, (3, 2))], [("z", 2)],
                   {1: const(4, 3)})
    bb = gr.Graph([gr.Node(0, "matmul", [2, 0], 3), gr.Node(1, "activation", [3], 4, {"kind": "relu"})],
                  [gr.GraphInput("z", 0, (4, 2)), gr.GraphInput("cond", 1, (2, 2))], [("z", 4)],
                  {2: const(4, 4)})
    dec = gr.Graph([gr.Node(0, "matmul", [1, 0], 2)], [gr.GraphInput("z", 0, (4, 2))], [("y", 2)],
                   {1: const(3, 4)})
    bundle = gr.ModelBundle(enc, bb, dec, 2)
    profile = qt.QuantProfile(policy=qt.Policy("w8a16"), lora_bits=16)
    for key in qt.required_keys(bundle):
        if ".a." in key:
            profile.act_params[key] = qp.compute_quant_params(-4.0, 4.0, 16)
        else:
            profile.weight_params[key] = qp.compute_quant_params(-1.0, 1.0, 8)
    return bundle, profile


def test_an_unread_input_costs_no_node():
    """``scale_fold`` drops the dequantizes its fusions leave unread, and
    no other: the pair of the input nothing reads stays after it.  It
    fuses to a ``requant`` that nothing reads, which the compiler's last
    ``dead_code_eliminate`` drops, so no node of the artifact reads that
    input and a step spends nothing on it."""
    bundle, profile = unread_input_bundle()
    materialized = cp.materialize_quantsim(bundle.backbone, profile, "backbone")
    folded = cp.scale_fold(materialized)
    q = next(n for n in folded.nodes if n.kind == "quantize" and n.inputs == [1])
    assert [n.kind for n in folded.nodes if q.output in n.inputs] == ["dequantize"]
    text = "".join(f"{gr.dump_graph(x)}{x.outputs}\n" for x in (materialized, folded))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_UNREAD
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    assert [n.kind for n in frozen.backbone.nodes] == ["quantize", "qlinear", "dequantize", "activation",
                                                      "requant"]
    assert not [n for n in frozen.backbone.nodes if q.inputs[0] in n.inputs]
    model = cp.freeze(frozen, profile, descriptors, name="unread")
    assert hashlib.sha256(model).hexdigest() == PINNED_UNREAD_MODEL


def test_constant_fold_folds_an_all_constant_subgraph():
    """W1 W2 + b is folded (a matmul, then the add that reads it and a
    constant); the product with the input and what follows it stay.  The
    folded graph computes the unfolded one's outputs bit for bit."""
    rng = np.random.default_rng(1)
    c = {t: rng.uniform(-1, 1, s).astype(np.float32) for t, s in ((1, (3, 5)), (2, (5, 4)), (3, (3, 4)))}
    nodes = [gr.Node(0, "matmul", [1, 2], 10), gr.Node(1, "add", [10, 3], 11),
             gr.Node(2, "matmul", [11, 0], 12), gr.Node(3, "activation", [12], 13, {"kind": "silu"})]
    g = gr.Graph(nodes, [gr.GraphInput("x", 0, (4, 2))], [("y", 13), ("wb", 11)], c)
    folded = cp.constant_fold(g)
    gr.validate(folded)
    assert [n.id for n in folded.nodes] == [2, 3]
    assert sorted(folded.constants) == [1, 2, 3, 10, 11]
    x = rng.standard_normal((4, 2)).astype(np.float32)
    want, got = gr.run_graph(g, {"x": x}), gr.run_graph(folded, {"x": x})
    assert want.keys() == got.keys()
    for name in want:
        assert want[name].dtype == got[name].dtype and want[name].tobytes() == got[name].tobytes()
    assert [n.id for n in g.nodes] == [0, 1, 2, 3]


def bundle_and_profile(name, request):
    """(bundle, profile) of the toy, w64 or d48 fixture."""
    if name == "toy":
        return request.getfixturevalue("toy_bundle"), request.getfixturevalue("toy_profile")
    bundle, _, _, profile = request.getfixturevalue(name)
    return bundle, profile


@pytest.mark.parametrize("name", ("toy", "w64", "d48"))
def test_every_pass_leaves_a_valid_graph(name, request):
    """Each pass in turn, each graph it returns validated: the result
    freezes to the bytes ``optimize_for_freeze`` freezes to."""
    bundle, profile = bundle_and_profile(name, request)
    stepwise, descriptors = compile_pass_by_pass(bundle, profile)
    frozen, want_descriptors = cp.optimize_for_freeze(bundle, profile)
    assert descriptors == want_descriptors
    assert cp.freeze(stepwise, profile, descriptors) == cp.freeze(frozen, profile, want_descriptors)


def test_each_finished_graph_is_validated_once(toy_bundle, toy_profile, monkeypatch):
    checked = []

    def validate(g, real=gr.validate):
        checked.append(g)
        return real(g)

    monkeypatch.setattr(gr, "validate", validate)
    frozen, _ = cp.optimize_for_freeze(toy_bundle, toy_profile)
    assert [id(g) for g in checked] == [id(g) for _, g in frozen.graphs()]


def snapshot(bundle):
    """Every node's id, kind, inputs, output and attrs, the inputs and
    outputs, and each constant's array (by identity) and bytes."""
    return [(role, [(n.id, n.kind, list(n.inputs), n.output, dict(n.attrs)) for n in g.nodes],
             [(gi.name, gi.tid, tuple(gi.shape), gi.dtype) for gi in g.inputs], list(g.outputs),
             {t: (id(a), a.tobytes()) for t, a in g.constants.items()})
            for role, g in bundle.graphs()]


@pytest.mark.parametrize("name", ("toy", "d48"))
def test_compiling_leaves_the_bundle_as_it_was(name, request):
    bundle, profile = bundle_and_profile(name, request)
    before = snapshot(bundle)
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    assert snapshot(bundle) == before
    again, again_descriptors = cp.optimize_for_freeze(bundle, profile)
    assert snapshot(bundle) == before
    assert cp.freeze(again, profile, again_descriptors) == cp.freeze(frozen, profile, descriptors)


def edit(role, index, **fields):
    """An edit that sets ``fields`` of node ``index`` of the ``role`` graph."""
    def apply(bundle):
        node = getattr(bundle, role).nodes[index]
        for key, value in fields.items():
            setattr(node, key, value)
    return apply


def drop_attr(role, index, key):
    def apply(bundle):
        del getattr(bundle, role).nodes[index].attrs[key]
    return apply


def append_nodes(role, *nodes, output=None):
    def apply(bundle):
        g = getattr(bundle, role)
        g.nodes += nodes
        if output is not None:
            g.outputs = [(g.outputs[0][0], output)]
    return apply


def reshape_constant(tid, shape):
    def apply(bundle):
        bundle.backbone.constants[tid] = bundle.backbone.constants[tid].reshape(shape)
    return apply


# The toy backbone: 0 concat [z, cond] -> 2, 1 lora_matmul [3, 2] -> 4,
# 2 activation [4] -> 5, 3 lora_matmul [6, 5] -> 7; its encoder: 0
# matmul [1, 0] -> 2, 1 activation [2] -> 3.
MALFORMED = {
    "dangling backbone operand": (edit("backbone", 2, inputs=[999]),
                                  GraphError, r"^node 2: dangling tensor id 999$"),
    "tensor produced twice": (
        lambda b: b.backbone.nodes.insert(3, gr.Node(4, "activation", [4], 5, {"kind": "relu"})),
        GraphError, r"^tensor 5 produced twice$"),
    "cycle": (edit("backbone", 2, inputs=[7]), CycleError, r"^cycle through nodes \[2, 3, "),
    "node reading its own output": (edit("backbone", 2, inputs=[5]), CycleError, r"^cycle through nodes "),
    "dangling encoder operand": (edit("encoder", 1, inputs=[999]),
                                 GraphError, r"^node 1: dangling tensor id 999$"),
    "output of no tensor": (lambda b: setattr(b.backbone, "outputs", [("out", 77)]),
                            GraphError, r"^output 'out': tensor 77 does not exist$"),
    "adapter layer of rank 0": (edit("backbone", 1, attrs={"rank": 0}),
                                ShapeError, r"^node 1: rank 0 exceeds min\(8, 6\)$"),
    "adapter layer past its weight's rank": (edit("backbone", 1, attrs={"rank": 9}),
                                             ShapeError, r"^node 1: rank 9 exceeds min\(8, 6\)$"),
    "adapter layer without a rank": (drop_attr("backbone", 1, "rank"),
                                     ShapeError, r"^node 1: rank 0 exceeds min\(8, 6\)$"),
    "adapter weight of rank 3": (reshape_constant(3, (8, 6, 1)), ShapeError, r"^node 1: lora_matmul "),
    "adapter weight unlike its input": (reshape_constant(6, (2, 16)), ShapeError,
                                        r"^node 3: (lora_matmul|qlora) shapes"),
    "activation without a kind": (drop_attr("backbone", 2, "kind"), GraphError, r"unknown activation None$"),
    "unknown activation": (edit("backbone", 2, attrs={"kind": "gelu"}),
                           GraphError, r"unknown activation 'gelu'$"),
    "quantize without parameters": (
        append_nodes("encoder", gr.Node(2, "quantize", [3], 4), gr.Node(3, "dequantize", [4], 5), output=5),
        GraphError, r"lacks qparams$"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_bundle_fails_with_its_error(case, toy_bundle, toy_profile):
    """What ``graph.validate`` would refuse in a bundle raises the
    toolkit's own error from ``optimize_for_freeze``, never a KeyError,
    IndexError or ValueError from inside a pass."""
    change, error, message = MALFORMED[case]
    bundle = copy.deepcopy(toy_bundle)
    change(bundle)
    with pytest.raises(error, match=message) as caught:
        cp.optimize_for_freeze(bundle, toy_profile)
    assert type(caught.value) is error
