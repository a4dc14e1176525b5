"""Compiler passes pinned to the rescanning passes they replaced.

The digests were recorded with passes that rescanned the node list for
every rewire and restarted ``scale_fold`` after every fusion, so the
node order, the tensor and node ids and the fusions must stay those
passes'.  The hand-built graph has what the model specs do not build: a
bias add after a matmul, a weight shared by two matmuls, a graph output
in the middle of the graph and a node output that is left unquantized.
"""

import hashlib

import numpy as np

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import qparams as qp
from onegraph import quant as qt

PINNED = "964fc277eb70396c54a64740333178b9fc2e733db41a4f97f0209daf0bacc8d9"
PINNED_TOY = "8754f11cb46e94f4cb5044a53ab095c7f59e3c076ef37086fd47c4363b853540"


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
    for tid in qt.weight_tids(g):
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
    # The backbone with its adapter slots: slot dequantizes and the
    # LoRA expansion, in the order the passes leave them (freeze sorts
    # nodes, so the .quadm digests do not see this order).
    rewritten, descriptors = cp.rewrite_lora_as_input(toy_bundle.backbone, toy_profile)
    materialized = cp.materialize_quantsim(rewritten, toy_profile, "backbone", descriptors)
    folded = cp.scale_fold(materialized)
    text = "".join(f"{gr.dump_graph(x)}{x.outputs}{[(i.name, i.tid, i.dtype) for i in x.inputs]}\n"
                   for x in (rewritten, materialized, folded))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TOY
