"""Arena planner: best-fit offsets, checked against a reference scan.

``reference_assign_offsets`` is the best-fit scan written as plainly as
it reads: for every item it filters the live set, sorts it by offset
and walks every gap.  ``runtime.assign_offsets`` must place every
tensor where it does, on random item sets, zero-size items and ties.
Both walk the live set for each item, which a session keeps at 3
tensors at most: ``test_a_session_keeps_at_most_three_tensors_live``
pins that bound on every fixture.
"""

import random

import numpy as np
import pytest
from conftest import slot_reference

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import runtime as rt

SIZES = (0, 1, 3, 4, 8, 16, 64, 100)


def reference_assign_offsets(items) -> rt.MemoryPlan:
    offsets = {}
    live = []   # (offset, size, end)
    arena = 0
    for item in sorted(items, key=lambda it: (it.start, it.tid)):
        live = [rec for rec in live if rec[2] >= item.start]
        placed = sorted((off, sz) for off, sz, _ in live)
        best = None
        cursor = 0
        for off, sz in placed:
            gap = off - cursor
            if gap >= item.size and (best is None or gap < best[1]):
                best = (cursor, gap)
            cursor = max(cursor, off + sz)
        offset = best[0] if best is not None else cursor
        offsets[item.tid] = (offset, item.size)
        live.append((offset, item.size, item.end))
        arena = max(arena, offset + item.size)
    return rt.MemoryPlan(offsets, arena)


def random_items(rng: random.Random) -> list:
    """Graph inputs live from -1, node outputs from their index; a few
    sizes repeat often, so equal gaps and zero-width gaps are common."""
    n = rng.randint(1, 60)
    n_inputs = rng.randint(0, min(n, 12))
    horizon = n - n_inputs
    sizes = rng.sample(SIZES, rng.randint(1, len(SIZES)))
    items = []
    tids = rng.sample(range(4 * n), n)
    for k, tid in enumerate(tids):
        start = -1 if k < n_inputs else k - n_inputs
        end = rng.randint(start, horizon)
        items.append(rt.PlanItem(tid, rng.choice(sizes), start, end))
    rng.shuffle(items)
    return items


@pytest.mark.parametrize("chunk", range(4))
def test_plan_matches_the_reference_scan(chunk):
    for seed in range(chunk * 600, (chunk + 1) * 600):
        items = random_items(random.Random(seed))
        got = rt.assign_offsets(items)
        ref = reference_assign_offsets(items)
        assert got.offsets == ref.offsets, f"seed {seed}"
        assert got.arena_size == ref.arena_size, f"seed {seed}"
        assert rt.check_plan(items, got) == []


def test_zero_size_items():
    # A zero-size tensor lands in the zero-width gap where two live
    # tensors touch (offset 8), outlives them, and then splits the free
    # space they leave: 16 bytes no longer fit below it, 8 still do.
    items = [rt.PlanItem(0, 4, -1, 0), rt.PlanItem(1, 4, -1, 1), rt.PlanItem(2, 8, -1, 1),
             rt.PlanItem(3, 0, 1, 5), rt.PlanItem(4, 16, 2, 3), rt.PlanItem(5, 8, 2, 3)]
    plan = rt.assign_offsets(items)
    assert plan.offsets == {0: (0, 4), 1: (4, 4), 2: (8, 8), 3: (8, 0), 4: (8, 16), 5: (0, 8)}
    assert plan.arena_size == 24
    assert plan == reference_assign_offsets(items)
    assert rt.assign_offsets([rt.PlanItem(0, 0, -1, 0)]) == rt.MemoryPlan({0: (0, 0)}, 0)
    assert rt.assign_offsets([]) == rt.MemoryPlan({}, 0)


def test_ties_go_to_lowest_offset():
    # Two 4-byte gaps open at offsets 0 and 8; best fit takes the lower.
    items = [rt.PlanItem(t, 4, -1, end) for t, end in enumerate((0, 5, 0, 5))]
    items.append(rt.PlanItem(9, 4, 1, 2))
    plan = rt.assign_offsets(items)
    assert plan.offsets[9] == (0, 4)
    assert plan == reference_assign_offsets(items)


def test_deep_plans_have_no_overlaps(d48):
    bundle, adapters, samples, profile = d48
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    session = rt.load_model(cp.freeze(frozen, profile, descriptors, name="plan"))
    rt.bind_lora(session, cp.pack_lora(adapters[0], descriptors, profile))
    for role, plan in session.plans.items():
        items = rt.lifetime_items(session.model.graphs[role])
        assert rt.check_plan(items, plan) == [], role
        assert plan == reference_assign_offsets(items), role


def most_live(items) -> int:
    """The most items whose lifetimes hold one point of the graph."""
    return max((sum(it.start <= t <= it.end for it in items) for t in {it.start for it in items}),
               default=0)


@pytest.fixture(params=("toy", "w64", "d48", "w256"))
def served(request):
    """A frozen model and a pack for it."""
    if request.param == "toy":
        bundle, adapter, profile = (request.getfixturevalue(f"toy_{f}")
                                    for f in ("bundle", "adapter", "profile"))
    else:
        bundle, (adapter, *_), _, profile = request.getfixturevalue(request.param)
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    return (cp.freeze(frozen, profile, descriptors, name="plan"),
            cp.pack_lora(adapter, descriptors, profile))


def test_a_session_keeps_at_most_three_tensors_live(served):
    """Each placement walks the live set, so planning stays linear in a
    graph's nodes only while that set stays small: no point of any of a
    bound session's three plans has more than 3 tensors live."""
    model_bytes, pack = served
    session = rt.load_model(model_bytes)
    rt.bind_lora(session, pack)
    assert set(session.plans) == {"encoder", "backbone", "decoder"}
    for role, g in session.model.graphs.items():
        assert 1 <= most_live(rt.lifetime_items(g)) <= 3, role


@pytest.fixture
def model_bytes(served):
    return served[0]


def test_load_derives_each_graphs_shapes_once(model_bytes, monkeypatch):
    calls = []
    infer_shapes = gr.infer_shapes
    monkeypatch.setattr(gr, "infer_shapes", lambda g: calls.append(g) or infer_shapes(g))
    rt.load_model(model_bytes)
    assert len(calls) == 3


def test_plans_from_the_load_shapes_are_the_fresh_plans(served):
    """The session plans its graphs from the shapes the load derived for the stored ones.

    A fresh plan derives the shapes from the graph, so the slot constants
    must be bound first."""
    model_bytes, pack = served
    session = rt.load_model(model_bytes)
    rt.bind_lora(session, pack)
    for role, g in session.model.graphs.items():
        assert session.plans[role] == rt.assign_offsets(rt.lifetime_items(g)), role


def test_bound_slots_are_not_planned(served):
    """The session's backbone takes the latent and the conditioning only;
    a bind makes each slot tid a constant holding its prepared operand
    (``conftest.slot_reference`` of the payload), no plan holds a slot, and
    the loaded model the session was made from keeps its slot inputs and
    gains no slot constant."""
    model_bytes, pack = served
    model = cp.load_compiled(model_bytes)
    session = rt.Session(model, model_bytes)
    slots = {t for d in session.model.descriptors for t in (d.a_tid, d.b_tid, d.alpha_tid)}
    assert len(slots) == 3 * len(session.model.descriptors) > 0
    backbone = session.model.graphs["backbone"]
    assert [gi.name for gi in backbone.inputs] == ["z", "cond"]
    assert not slots & backbone.constants.keys()
    assert session.adapter_buffer_bytes == 0

    decoded = cp.unpack_lora(pack)
    rt.bind_lora(session, pack)
    for d in session.model.descriptors:
        s = decoded.slots[d.slot_id]
        for tid, want in zip((d.b_tid, d.a_tid, d.alpha_tid),
                             slot_reference(s.b_q, d.b_params, s.a_q, d.a_params, s.alpha)):
            got = backbone.constants[tid]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), tid
    assert session.adapter_buffer_bytes == sum(int(backbone.constants[t].nbytes) for t in slots)
    assert not slots & session.plans["backbone"].offsets.keys()
    assert slots <= {gi.tid for gi in model.graphs["backbone"].inputs}
    assert not slots & model.graphs["backbone"].constants.keys()
