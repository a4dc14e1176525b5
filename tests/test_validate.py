"""``graph.validate`` reports each structural defect with one fixed error.

Each hand-built graph carries one defect, or two where the order in
which they are reported matters: a cycle or a dangling input is named
before a shape error earlier in the node list.  The expected exception
types and messages were recorded with a ``validate`` that ran
``topo_sort`` and a reachability walk on every graph, so a validator
that proves the same through ``infer_shapes`` alone must fail the same
way.
"""

import numpy as np
import pytest

from conftest import all16_profile

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import quant as qt
from onegraph.errors import CycleError, GraphError, ShapeError


def graph(nodes, outputs=(("y", 12),)):
    """Input ``x`` (tid 0, [4, 2]), constants ``w`` (tid 1, [3, 4]) and
    ``v`` (tid 2, [5, 5]); node outputs from tid 10 on."""
    constants = {1: np.ones((3, 4), np.float32), 2: np.ones((5, 5), np.float32)}
    return gr.Graph(list(nodes), [gr.GraphInput("x", 0, (4, 2))], list(outputs), constants)


def act(nid, src, out):
    return gr.Node(nid, "activation", [src], out, {"kind": "relu"})


CASES = {
    "duplicate node id": (
        [gr.Node(0, "matmul", [1, 0], 10), act(0, 10, 12)],
        GraphError, "duplicate node id 0"),
    "unknown kind": (
        [gr.Node(0, "matmul", [1, 0], 10), gr.Node(1, "softmax", [10], 12)],
        GraphError, "node 1: unknown kind 'softmax'"),
    "self-consuming node": (
        [gr.Node(0, "matmul", [1, 0], 10), gr.Node(1, "add", [10, 12], 12)],
        CycleError, "node 1 consumes its own output"),
    "dangling input": (
        [gr.Node(0, "matmul", [1, 0], 10), gr.Node(1, "add", [10, 99], 12)],
        GraphError, "node 1: dangling tensor id 99"),
    "two-node cycle": (
        [gr.Node(0, "matmul", [1, 0], 10), gr.Node(1, "add", [10, 11], 12), act(2, 12, 11)],
        CycleError, "cycle through nodes [1, 2]"),
    "cycle after a shape error": (
        [gr.Node(0, "matmul", [2, 0], 10), gr.Node(1, "matmul", [1, 0], 13),
         gr.Node(2, "add", [13, 11], 12), act(3, 12, 11)],
        CycleError, "cycle through nodes [2, 3]"),
    "used before production": (
        [gr.Node(0, "matmul", [1, 0], 10), act(1, 11, 12), act(2, 10, 11)],
        GraphError, "node 1: tensor 11 used before production"),
    "tensor produced twice": (
        [gr.Node(0, "matmul", [1, 0], 10), act(1, 10, 12), act(2, 10, 12)],
        GraphError, "tensor 12 produced twice"),
    "node output on a constant": (
        [gr.Node(0, "matmul", [1, 0], 10), act(1, 10, 2), act(2, 10, 12)],
        GraphError, "node 1: tensor 2 already has a producer"),
    "matmul shape error": (
        [gr.Node(0, "matmul", [2, 0], 10), act(1, 10, 12)],
        ShapeError, "node 0: matmul shapes (5, 5) x (4, 2)"),
    "missing output": (
        [gr.Node(0, "matmul", [1, 0], 10), act(1, 10, 12)],
        GraphError, "output 'z': tensor 77 does not exist"),
    "dangling input after a shape error": (
        [gr.Node(0, "matmul", [2, 0], 10), gr.Node(1, "add", [10, 98], 12)],
        GraphError, "node 1: dangling tensor id 98"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_defect_is_reported_with_its_error(case):
    nodes, error, message = CASES[case]
    outputs = [("y", 12), ("z", 77)] if case == "missing output" else [("y", 12)]
    with pytest.raises(error) as info:
        gr.validate(graph(nodes, outputs))
    assert type(info.value) is error
    assert str(info.value) == message


def test_well_formed_graph_passes():
    gr.validate(graph([gr.Node(0, "matmul", [1, 0], 10), act(1, 10, 12)]))


def test_an_input_that_is_also_a_constant():
    g = graph([gr.Node(0, "matmul", [1, 0], 10), act(1, 10, 12)])
    g.inputs.append(gr.GraphInput("w", 1, (3, 4)))
    with pytest.raises(GraphError) as info:
        gr.validate(g)
    assert str(info.value) == "tensors [1] are both inputs and constants"


def activation_weight_bundle():
    """A bundle whose one adapter layer reads the latent, an activation,
    as its weight, and an adapter for that layer."""
    rng = np.random.default_rng(2)

    def const(*shape):
        return rng.uniform(-1, 1, shape).astype(np.float32)

    enc = gr.Graph([gr.Node(0, "matmul", [1, 0], 2)], [gr.GraphInput("x", 0, (3, 4))], [("z", 2)],
                   {1: const(4, 3)})
    bb = gr.Graph([gr.Node(0, "lora_matmul", [0, 0], 2, {"rank": 2})],
                  [gr.GraphInput("z", 0, (4, 4)), gr.GraphInput("cond", 1, (2, 4))], [("z", 2)], {})
    dec = gr.Graph([gr.Node(0, "matmul", [1, 0], 2)], [gr.GraphInput("z", 0, (4, 4))], [("y", 2)],
                   {1: const(3, 4)})
    adapter = gr.LoRAAdapter("a", {0: gr.LoRAEntry(const(4, 2), const(2, 4), 1.0)})
    return gr.ModelBundle(enc, bb, dec, 1), adapter


@pytest.mark.parametrize("entry, message", (
    ("execute_fp", "node 0: lora_matmul weight must be a constant"),
    ("calibrate", "node 0: lora_matmul weight must be a constant"),
    ("build_adapter", "node 0: lora_matmul weight must be a constant"),
    ("optimize_for_freeze", "lora node 0: operands are not a dequantized constant weight")))
def test_an_adapter_layer_whose_weight_is_an_activation(entry, message):
    """The layer's weight must be a constant; each entry point that looks
    the weight up refuses the bundle with ``GraphError``, not a
    ``KeyError`` from the lookup."""
    bundle, adapter = activation_weight_bundle()
    x, cond = np.ones((3, 4), np.float32), np.ones((2, 4), np.float32)
    with pytest.raises(GraphError, match=message):
        if entry == "execute_fp":
            gr.execute_fp(bundle, x, cond, adapter)
        elif entry == "calibrate":
            qt.calibrate(bundle, [(x, cond)], qt.Policy("w8a16"), adapter=adapter)
        elif entry == "build_adapter":
            ms.build_adapter(bundle, ms.AdapterSpec("a", seed=1, rank=2))
        else:
            cp.optimize_for_freeze(bundle, all16_profile(bundle))


TAKES = {"matmul": "2 operands", "add": "2 operands", "scale": "2 operands", "lora_matmul": "2 operands",
         "concat": "at least 1 operand", "activation": "1 operand", "quantize": "1 operand",
         "dequantize": "1 operand", "requant": "1 operand", "qlinear": "2 or 3 operands",
         "qlora": "5 operands"}
COUNT_CASES = [(kind, count) for kind, (lo, hi) in sorted(gr.OPERAND_COUNTS.items())
               for count in (lo - 1, None if hi is None else hi + 1) if count is not None]


@pytest.mark.parametrize("kind, count", COUNT_CASES)
def test_an_operand_count_its_kind_does_not_take(kind, count):
    """Too few or too many operands for the node's kind is a
    ``GraphError`` naming the node, its kind and its count, before any
    shape is inferred from the operands it does have."""
    g = graph([gr.Node(0, kind, [0, 1, 2, 0, 1, 2][:count], 12, {"kind": "relu", "axis": 0})])
    with pytest.raises(GraphError) as info:
        gr.validate(g)
    assert type(info.value) is GraphError
    assert str(info.value) == f"node 0: {kind} takes {TAKES[kind]}, got {count}"


def test_every_kind_has_an_operand_count():
    assert set(gr.OPERAND_COUNTS) == set(gr.ALL_KINDS) == set(TAKES)
    assert len(COUNT_CASES) == 21


@pytest.mark.parametrize("inputs, count", (([1, 0, 1], 3), ([1], 1)))
def test_compiling_a_layer_of_the_wrong_operand_count(toy_bundle, toy_profile, inputs, count):
    """The compiler's passes unpack a node's operands by kind, so the
    count is checked before the first pass: the toy encoder's matmul
    with three operands or one is refused with ``GraphError``, not a
    ``ValueError`` or ``IndexError`` from a pass."""
    node = toy_bundle.encoder.nodes[0]
    assert node.kind == "matmul"
    enc = gr.Graph([gr.Node(node.id, node.kind, [node.inputs[i] for i in inputs], node.output, node.attrs),
                    *toy_bundle.encoder.nodes[1:]], toy_bundle.encoder.inputs, toy_bundle.encoder.outputs,
                   toy_bundle.encoder.constants)
    bundle = gr.ModelBundle(enc, toy_bundle.backbone, toy_bundle.decoder, toy_bundle.steps)
    with pytest.raises(GraphError, match=f"node {node.id}: matmul takes 2 operands, got {count}"):
        cp.optimize_for_freeze(bundle, toy_profile)


def test_compiling_a_graph_with_a_duplicate_node_id(toy_bundle, toy_profile):
    """The toy backbone's activation given the id of the adapter layer
    after it fails ``validate``.  A fusion retires that activation, so
    the compiler checks the ids before its first pass, and refuses the
    bundle with the same error rather than freezing a valid graph."""
    bb = toy_bundle.backbone
    act_node, layer = bb.nodes[2], bb.nodes[3]
    assert (act_node.kind, layer.kind) == ("activation", "lora_matmul")
    nodes = list(bb.nodes)
    nodes[2] = gr.Node(layer.id, act_node.kind, act_node.inputs, act_node.output, act_node.attrs)
    backbone = gr.Graph(nodes, bb.inputs, bb.outputs, bb.constants)
    with pytest.raises(GraphError, match=f"^duplicate node id {layer.id}$"):
        gr.validate(backbone)
    bundle = gr.ModelBundle(toy_bundle.encoder, backbone, toy_bundle.decoder, toy_bundle.steps)
    with pytest.raises(GraphError, match=f"^duplicate node id {layer.id}$"):
        cp.optimize_for_freeze(bundle, toy_profile)
