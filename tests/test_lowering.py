"""The load-time lowering of a session's graphs.

``runtime.Session`` turns every ``matmul(dequantize(q_a), dequantize(q_b))``
into a ``qmatmul [q_a, q_b]`` and drops the dequantizes that lose their
consumers.  The artifact does not change: ``compiler.load_compiled``
returns the graphs as frozen, they freeze back to the same bytes, and
``onegraph inspect`` prints what it printed before the lowering existed
(digests recorded then, with ``--dump``).
"""

import hashlib

import pytest

from onegraph import cli
from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph.errors import FormatError

INSPECT_SHA256 = {
    "w64": "5fef9cd6e15be4c3a54d09df19d6a382918814f870a329bac9c6f143ae052230",
    "d48": "756d6a6ea1b41924f34d96b5cc4edc3c7c91b6cfbd2a5b065277cf1c4bd1b6df",
}


@pytest.fixture(params=("w64", "d48"))
def compiled(request):
    bundle, _, _, profile = request.getfixturevalue(request.param)
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    return request.param, frozen, cp.freeze(frozen, profile, descriptors, name="pin")


def test_no_dequantized_product_is_left(compiled):
    _, _, model = compiled
    session = rt.load_model(model)
    lowered = 0
    for role, g in session.model.graphs.items():
        producer = g.producer_map()
        consumed = {t for n in g.nodes for t in n.inputs} | {t for _, t in g.outputs}
        for n in g.nodes:
            kinds = [producer[t].kind if t in producer else None for t in n.inputs]
            assert not (n.kind == "matmul" and kinds == ["dequantize", "dequantize"]), (role, n.id)
            assert n.kind != "dequantize" or n.output in consumed, (role, n.id)
            lowered += n.kind == "qmatmul"
        assert session.plans[role].offsets.keys() == {it.tid for it in rt.lifetime_items(g)}
    assert lowered > 0


def test_the_file_keeps_its_graphs(compiled):
    _, frozen, model = compiled
    rt.load_model(model)
    loaded = cp.load_compiled(model)
    for role, g in frozen.graphs():
        assert gr.dump_graph(loaded.graphs[role]) == gr.dump_graph(gr.sort_nodes(g))
    again = gr.ModelBundle(*(loaded.graphs[r] for r in ("encoder", "backbone", "decoder")),
                           loaded.steps)
    assert cp.freeze(again, qt.profile_from_text(loaded.profile_text), loaded.descriptors,
                     name=loaded.name, creation_seed=loaded.creation_seed) == model


def test_inspect_prints_what_it_printed(compiled, tmp_path, capsys):
    name, _, model = compiled
    path = tmp_path / "model.quadm"
    path.write_bytes(model)
    assert cli.main(["inspect", str(path), "--dump"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INSPECT_SHA256[name]


def test_no_artifact_holds_a_qmatmul(toy_bundle, toy_profile, monkeypatch):
    """A node of kind code 11, which a qmatmul would take, does not load."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    node = next(n for n in frozen.backbone.nodes if n.kind == "matmul")
    node.kind = "qmatmul"
    node.attrs = {}
    codes = {**cp._KIND_CODES, "qmatmul": len(cp._KIND_CODES)}
    monkeypatch.setattr(cp, "_KIND_CODES", codes)
    data = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    monkeypatch.undo()
    with pytest.raises(FormatError, match="KeyError"):
        cp.load_compiled(data)
