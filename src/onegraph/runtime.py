"""On-device style runtime: load once, swap adapters, infer.

A session materializes a compiled model, plans one reusable byte arena
for the tensors a run produces, and binds adapter packs into the
designated slots without touching the base graph or weights.
``infer`` is ``graph.run_bundle`` over the three graphs the session
prepared at load (``graph.prepare``) with arena hooks.

Work is staged as TFLite Micro stages it (David et al. 2020,
arXiv:2010.08678): what depends only on the artifact is resolved at
load, what depends only on the bound adapter is prepared at bind, and a
denoising step runs only the arithmetic that depends on its input.

* **Load.**  The base weights are read-only views into the artifact's
  bytes, which the session keeps (``compiler.load_compiled``), so each
  is held once.  The session plans and runs the graphs it decodes,
  which the compiler fused (below).  It checks that each slot feeds one
  ``qlora`` under the slot's parameters, and both 2**53 bounds of every
  ``qlora`` (``check_adapter_layers``), since an artifact can be
  hostile.  Then it prepares each graph once (``graph.prepare``): every
  node's kernel, its operands as indices into one operand table of
  constants and arena views, and the arena view its output is stored
  into.
* **Bind.**  ``bind_lora`` decodes the pack into views of its bytes
  (``compiler.unpack_lora``) and writes each slot straight from them
  into the form its ``qlora`` multiplies (``slot_operands``):
  B's centred levels in fp32, A dequantized to fp32, alpha.  These
  are constants of the session's own backbone, not inputs, and are not
  planned.  The bind enters them into the backbone's operand table in
  the same step as into its constants (``Program.set_constants``), so
  the prepared steps read the new arrays and nothing is prepared again.
* **Step.**  A backbone step only invokes its prepared program
  (``graph.invoke``): it is fed ``z`` and the conditioning only, runs
  each node's kernel on its operands in place, with no kind dispatch
  and no hook call, and centres only q_x and, one row tile at a time,
  q_w (``qparams.tiled_matmul``).

The arena holds every node output of the three graphs and every graph
input: the encoder's ``x``, the backbone's latent ``z`` and
conditioning, and the decoder's latent.  ``z`` and the decoder input
arrive as arena views of the previous graph's output, whose bytes the
next graph's nodes reuse, so each is copied into its own planned bytes
before the graph runs.  Constants, the base weights and the prepared
slots, are not planned.  Each planned tensor has an ndarray view over
the arena, the answer the arena hooks give ``prepare`` at load from the
load shapes (tensors at one offset with one shape and dtype share a
view), and there is no per-step copy by a hook.  A kernel whose
last numpy operation takes ``out=`` (``qlora``'s add, ``add``, ``scale``,
``concat``) writes its result into the view; the others allocate their
result, which one assignment stores into the view.  Kernels also
allocate a bounded scratch: an exact product widens a weight's int8
levels to float64 one row tile at a time, a tile being the most rows
that fit ``tensor.MATMUL_BLOCK_BYTES`` (128 KB: 64 rows of a 256-wide
weight), and ``tensor.matmul`` blocks its k within the same budget.  So no step holds a float64 copy of a
whole base weight, which would be 8x its int8 bytes.

The artifact holds the graphs ``compiler.optimize_for_freeze`` fused.
Each adapter layer is one ``qlora`` node reading q_w, q_x and the
slot's B, A and alpha: it centres q_x once for the two exact integer
products W x and B x (``qparams.tiled_matmul`` and ``scaled_matmul``),
then runs the fp32 A (B x), scale and add.  Each ``quantize ->
dequantize [-> activation]`` chain is one ``requant`` node, which also
quantizes its result when that is the next layer's input
(``out_qparams``), so the arena carries levels between layers, as in
integer-only inference (Jacob et al. 2018, arXiv:1712.05877).  So one
layer of a denoising step is a ``qlora`` and a ``requant``, no base
weight is dequantized on a step, and the arena holds none of the
chains' inner tensors.  In the artifact a ``qlora``'s B and A are
backbone inputs in their storage dtype; in a session they are the
constants a bind prepares.

Loading derives each graph's shapes once: ``load_compiled`` checks the
bundle with ``graph.validate_bundle``, and the session plans from the
shape maps that check returns.

The plan is a lifetime analysis (``lifetime_items``) followed by greedy
best-fit offsets (``assign_offsets``): tensors are placed in production
order into the smallest free gap between live tensors that fits, ties
to the lowest offset, and zero-size tensors are placed like any other.
The free gaps are kept in an index sorted by size, so placing a tensor
is a bisect rather than a walk over every live tensor; the offsets are
the ones that walk finds.  The index keys are ints, not tuples, so the
planner leaves no tuples on CPython's free lists behind it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from . import compiler as cp
from . import graph as gr
from . import qparams as qp
from . import tensor as tz
from .errors import BindError, FormatError, RangeError


@dataclass(slots=True)
class PlanItem:
    tid: int
    size: int      # bytes
    start: int     # production index (-1 for graph inputs)
    end: int       # last consumer index


@dataclass
class MemoryPlan:
    offsets: dict        # tid -> (offset, size)
    arena_size: int


def lifetime_items(g: gr.Graph, shapes=None) -> list:
    """Byte sizes and lifetimes for every planned tensor of a graph.

    Graph inputs are planned (they are copied into the arena); constants,
    the base weights and a session's bound slots, are read in place and
    excluded.  Outputs stay live until the end of the graph.  ``shapes``
    (tid -> (shape, dtype)) defaults to ``infer_shapes(g)``; a caller
    already holding a map of every tensor of ``g`` passes it instead.
    """
    info = gr.infer_shapes(g) if shapes is None else shapes

    def nbytes(tid):
        shape, dtype = info[tid]
        return int(math.prod(shape)) * tz.itemsize(dtype)

    items = [PlanItem(gi.tid, nbytes(gi.tid), -1, -1) for gi in g.inputs]
    items += (PlanItem(n.output, nbytes(n.output), idx, idx) for idx, n in enumerate(g.nodes))
    # each end moves to its tensor's last read; constants are not looked up
    planned = {it.tid: it for it in items}
    for idx, n in enumerate(g.nodes):
        for t in n.inputs:
            if t in planned:
                planned[t].end = idx
    for _, t in g.outputs:
        if t in planned:
            planned[t].end = len(g.nodes)
    return items


# Working keys of assign_offsets pack two fields into one int, the high
# field shifted past the low, non-negative one, so the int orders like
# the pair.  Offsets and sizes stay below 2**40 bytes, sequence numbers
# below 2**32; lifetime ends may be -1.
_LOW40 = (1 << 40) - 1
_LOW32 = (1 << 32) - 1


def assign_offsets(items) -> MemoryPlan:
    """Greedy best-fit placement over lifetime-sorted items.

    Items are placed in (start, tid) order.  Before each placement every
    live tensor whose lifetime ended before the item's start is
    released.  The item then goes into the smallest free gap between
    live tensors that holds it, ties to the lowest offset, or, when no
    gap fits, on top of the highest live tensor.  The gap before the
    lowest live tensor starts at offset 0; the space above the highest
    one is not a gap.

    Three structures replace a scan of the live set per item:

    * ``blocks``, the live tensors sorted by (offset, size);
    * ``gaps``, one entry per live tensor for the free space between it
      and its predecessor in ``blocks``, sorted by (size, start), so
      best-fit is one bisect for the first entry with size >= the
      item's size, and the lowest start wins among equal sizes;
    * ``expiry``, a heap of lifetime ends, so each release is one pop.

    Zero-size items are legal.  They take the smallest gap too, which
    is often a zero-width one where two live tensors touch; a zero-size
    live tensor still splits the gap it sits in.  Item tids must be
    distinct, as they are within one graph.

    The keys are plain ints, not tuples.  CPython keeps freed small
    tuples on per-size free lists, so the thousands of tuples a
    tuple-keyed index churns through stay allocated after the plan, and
    a tracemalloc peak over load, bind and infer counts them.
    """
    offsets = {}
    blocks = []   # offset << 40 | size
    gaps = []     # size << 40 | start
    expiry = []   # end << 32 | seq, a heap; seq indexes ``order``
    top = 0       # end of the highest live block
    arena = 0

    def drop_gap(start, size):
        del gaps[bisect.bisect_left(gaps, size << 40 | start)]

    order = sorted(items, key=lambda it: (it.start, it.tid))
    for seq, item in enumerate(order):
        while expiry and expiry[0] >> 32 < item.start:
            off, size = offsets[order[heapq.heappop(expiry) & _LOW32].tid]
            i = bisect.bisect_left(blocks, off << 40 | size)
            prev = blocks[i - 1] if i else 0
            prev_end = (prev >> 40) + (prev & _LOW40)
            drop_gap(prev_end, off - prev_end)
            if i + 1 < len(blocks):
                nxt = blocks[i + 1] >> 40
                end = off + size
                drop_gap(end, nxt - end)
                bisect.insort(gaps, (nxt - prev_end) << 40 | prev_end)
            else:
                top = prev_end
            del blocks[i]

        size = item.size
        g = bisect.bisect_left(gaps, size << 40)
        if g < len(gaps):
            gap = gaps.pop(g)
            offset = gap & _LOW40
            bisect.insort(gaps, ((gap >> 40) - size) << 40 | (offset + size))
        else:
            offset = top
            top += size
        bisect.insort(gaps, offset)   # zero-width gap before the new block
        bisect.insort(blocks, offset << 40 | size)
        heapq.heappush(expiry, item.end << 32 | seq)
        offsets[item.tid] = (offset, size)
        arena = max(arena, offset + size)
    return MemoryPlan(offsets, arena)


def check_adapter_layers(g: gr.Graph, descriptors, shapes: dict) -> None:
    """Each slot is the B, A and alpha of one ``qlora``, which nothing
    else reads, and both exact products of every ``qlora`` stay within
    the 2**53 bound.

    ``g`` is a session's backbone and ``shapes`` the load shapes of the
    backbone as stored.  A bind writes a slot in the form only its
    ``qlora`` multiplies, prepared with the slot's parameters, so the
    layer must hold those parameters too (``FormatError`` otherwise).
    The bounds depend on the shapes and the parameters alone, which
    ``bind_lora`` refuses to change, so they are checked here once
    (``RangeError``), not on every step.
    """
    slots = {(d.b_tid, d.a_tid, d.alpha_tid): d for d in descriptors}
    # the reads of the slot tensors alone: a use map of the whole graph
    # would be the largest transient of a load
    reads = dict.fromkeys((t for key in slots for t in key), 0)
    for t in itertools.chain((t for n in g.nodes for t in n.inputs), (t for _, t in g.outputs)):
        if t in reads:
            reads[t] += 1
    for n in (n for n in g.nodes if n.kind == "qlora"):
        d = slots.pop(tuple(n.inputs[2:]), None)
        if (d is None or (n.attrs["b_qparams"], n.attrs["a_qparams"]) != (d.b_params, d.a_params)
                or any(reads[t] != 1 for t in n.inputs[2:])):
            raise FormatError(f"node {n.id}: an adapter layer must be the one reader of one slot, "
                              "under the slot's parameters")
        (w, _), (x, _), (b, _) = (shapes[t] for t in n.inputs[:3])
        p_x = n.attrs["in_qparams"]
        qp.check_exact(w, n.attrs["w_qparams"], x, p_x)
        qp.check_exact(b, n.attrs["b_qparams"], x, p_x)
    if slots:
        raise FormatError(f"slots {sorted(d.slot_id for d in slots.values())} feed no adapter layer")


def plan_memory(g: gr.Graph, shapes=None) -> MemoryPlan:
    """Arena plan for a topologically ordered graph with static shapes."""
    return assign_offsets(lifetime_items(g, shapes))


def check_plan(items, plan: MemoryPlan) -> list:
    """Overlap violations: pairs with intersecting lifetimes sharing bytes."""
    bad = []
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if a.start <= b.end and b.start <= a.end:
                ao, asz = plan.offsets[a.tid]
                bo, bsz = plan.offsets[b.tid]
                if ao < bo + bsz and bo < ao + asz:
                    bad.append((a.tid, b.tid))
    return bad


class _ArenaHooks(gr._NullHooks):
    """Place every planned tensor at its offset in the arena.

    Tensors at the same offset with the same shape and dtype share one
    view; the plan keeps their lifetimes apart.  (compile_deep's 399
    planned tensors take 11 views.)
    """

    def __init__(self, arena: bytearray, plans: dict):
        self.arena = arena
        self.plans = plans   # role -> MemoryPlan
        self.views = {}      # (offset, shape, dtype) -> ndarray over the arena

    def place(self, role, tid, shape, dtype):
        key = (self.plans[role].offsets[tid][0], shape, dtype)
        if key not in self.views:
            self.views[key] = np.ndarray(shape, tz.DTYPES[dtype], buffer=self.arena, offset=key[0])
        return self.views[key]


class Session:
    """One loaded model with at most one bound adapter.

    Base weights never change after load; binding only replaces the
    slot constants of the session's own backbone.  A model whose slots
    are not each one ``qlora``'s operands raises ``FormatError``, and one
    whose ``qlora`` products could pass 2**53 raises ``RangeError``.
    Confine a session to one thread at a time.
    """

    def __init__(self, model: cp.CompiledModel, model_bytes: bytes):
        t0 = time.perf_counter()
        # The slot inputs are dropped, and the slot constants go into a dict
        # of the session's own, so a bind never writes into ``model``.
        slots = {t for d in model.descriptors for t in (d.a_tid, d.b_tid, d.alpha_tid)}
        bb = model.graphs["backbone"]
        graphs = {**model.graphs, "backbone": replace(
            bb, inputs=[gi for gi in bb.inputs if gi.tid not in slots], constants=dict(bb.constants))}
        check_adapter_layers(graphs["backbone"], model.descriptors, model.shapes["backbone"])
        # A bind decodes the pack's parameter records to these very objects.
        self._slot_params = cp.qparams_memo(p for d in model.descriptors for p in (d.a_params, d.b_params))
        # The session's copy does not keep the shape maps: they would stay
        # live through every infer (219 KB for the w32/d128 benchmark model).
        self.model = replace(model, graphs=graphs, shapes=None)
        self.model_bytes = model_bytes
        self.bound_adapter = None
        self.bundle = gr.ModelBundle(graphs["encoder"], graphs["backbone"], graphs["decoder"],
                                     model.steps)
        self.plans = {role: plan_memory(g, model.shapes[role]) for role, g in self.bundle.graphs()}
        self.arena = bytearray(max(p.arena_size for p in self.plans.values()) or 1)
        hooks = _ArenaHooks(self.arena, self.plans)
        self.programs = {role: gr.prepare(g, role=role, hooks=hooks, shapes=model.shapes[role])
                         for role, g in self.bundle.graphs()}
        self.init_ms = (time.perf_counter() - t0) * 1000.0

    @property
    def adapter_buffer_bytes(self) -> int:
        """Bytes of the prepared slot operands the session holds (B's
        centred levels, A and alpha, all fp32); 0 before the first
        bind."""
        c = self.bundle.backbone.constants
        return sum(int(c[t].nbytes) for d in self.model.descriptors
                   for t in (d.a_tid, d.b_tid, d.alpha_tid) if t in c)


def load_model(data: bytes) -> Session:
    """Parse and verify a compiled model; plans memory and times init.

    The session keeps ``data`` as ``bytes`` (a ``bytearray`` is copied
    once), and its base weights are read-only views into them.
    """
    data = bytes(data)
    return Session(cp.load_compiled(data), data)


def slot_operands(q_b, p_b, q_a, p_a, alpha) -> tuple:
    """A slot's B, A and alpha in the form a ``qlora`` multiplies them.

    B becomes its centred levels q_b - z_b in fp32, one cast and one
    subtract (``qparams.centered_levels``), which hold them exactly since
    |q_b - z_b| <= 65,535 < 2**24; A its fp32 dequantized values
    (``qparams.dequantize_array``); alpha a one-element fp32 array.
    Both factors' levels are range-checked here, as those functions
    check them; a level outside its range raises ``RangeError``.
    """
    return (qp.centered_levels(q_b, p_b, np.float32), qp.dequantize_array(q_a, p_a),
            np.array((alpha,), dtype=np.float32))


def bind_lora(session: Session, pack_bytes: bytes):
    """Prepare a pack's factors as the session backbone's slot constants.

    ``compiler.unpack_lora`` decodes the pack into views of its bytes,
    and each slot is written straight from them into the form its
    ``qlora`` multiplies (``slot_operands``): B's centred levels in
    fp32, A dequantized to fp32, and alpha as a one-element fp32
    array.  They replace the previous operands in the backbone's
    constants and in its prepared operand table at once, and every step
    reads them in place.  Every check (the slot set, shapes, storage
    dtypes, quantization parameters, rank, a finite alpha, then the
    range of every level) runs before any session state changes, so a
    failed bind leaves the previous operands in place.  No graph
    rebuild, no base-weight change, nothing prepared again; a rebind
    always prepares the full pack.
    """
    pack = cp.unpack_lora(pack_bytes, session._slot_params)
    descs = {d.slot_id: d for d in session.model.descriptors}
    if set(pack.slots) != set(descs):
        raise BindError(f"pack slots {sorted(pack.slots)} do not match model slots {sorted(descs)}")
    for slot_id, d in descs.items():
        s = pack.slots[slot_id]
        if s.a_q.shape != d.a_shape or s.b_q.shape != d.b_shape:
            raise BindError(f"slot {slot_id}: payload shapes {s.a_q.shape}/{s.b_q.shape} "
                            f"do not match descriptors {d.a_shape}/{d.b_shape}")
        for name, q, p in ((d.a_name, s.a_q, d.a_params), (d.b_name, s.b_q, d.b_params)):
            if q.dtype != qp.storage_dtype(p.bits, p.signed):
                raise BindError(f"slot {slot_id}: payload {name} is {tz.dtype_name(q)}, "
                                f"the slot stores {gr.storage_name(p)}")
        if s.a_params != d.a_params or s.b_params != d.b_params:
            raise BindError(f"slot {slot_id}: pack quantization parameters do not match the model")
        if s.rank > d.r_max:
            raise BindError(f"slot {slot_id}: rank {s.rank} exceeds {d.r_max}")
        if not math.isfinite(s.alpha):
            raise BindError(f"slot {slot_id}: alpha {s.alpha} is not finite")
    staged = {}
    for slot_id, d in descs.items():
        s = pack.slots[slot_id]
        staged.update(zip((d.b_tid, d.a_tid, d.alpha_tid),
                          slot_operands(s.b_q, d.b_params, s.a_q, d.a_params, s.alpha)))
    session.programs["backbone"].set_constants(staged)
    session.bound_adapter = pack.adapter_id


def infer(session: Session, x, cond, seed: int = 0) -> np.ndarray:
    """Run the frozen pipeline with the bound adapter; deterministic.

    A NaN in ``x`` or ``cond`` has no quantization level and raises
    ``RangeError`` before anything runs; an infinity saturates to the
    end of its range, as in QuantSim.
    """
    if session.model.descriptors and session.bound_adapter is None:
        raise BindError("model has adapter slots but no adapter is bound")
    for name, value in (("x", x), ("cond", cond)):
        if np.isnan(value).any():
            raise RangeError(f"{name} holds a NaN, which has no quantization level")
    # the decoder output is a view into the arena, which the next call reuses
    return gr.run_bundle(session.bundle, x, cond, noise_seed=seed, programs=session.programs).copy()


# ---------------------------------------------------------------------------
# KPIs


def memory_accounting(base_bytes: int, lora_bytes: list):
    """Separate-graph deployment vs one shared graph, in bytes.

    separate: every use case ships its own merged model of roughly
    base size plus the average adapter size.  shared: one base plus
    all adapter packs.
    """
    n = len(lora_bytes)
    if n == 0:
        raise ValueError("need at least one adapter")
    avg = sum(lora_bytes) / n
    separate = n * (base_bytes + avg)
    shared = base_bytes + sum(lora_bytes)
    return separate, shared, separate / shared


@dataclass
class KPIReport:
    init_ms: float
    execute_ms: float
    end_to_end_ms: float
    shared_rom_bytes: int
    lora_rom_bytes: int
    arena_bytes: int
    adapter_buffer_bytes: int
    peak_ram_bytes: int
    n_usecases: int
    separate_total_bytes: float
    shared_total_bytes: float
    memory_ratio: float

    def to_text(self) -> str:
        fields = sorted(self.__dict__.items())
        return "\n".join(f"{k} {v!r}" for k, v in fields) + "\n"

    def to_csv(self) -> str:
        fields = sorted(self.__dict__.items())
        head = ",".join(k for k, _ in fields)
        row = ",".join(repr(v) for _, v in fields)
        return head + "\n" + row + "\n"


def kpi(session: Session, packs: list, workload: list) -> KPIReport:
    """Measure bind/infer wall times and the shared-vs-separate ROM ratio.

    ``packs`` are .qlp byte strings, ``workload`` is a list of (x, cond)
    pairs run under every pack.  ``peak_ram_bytes`` is the planned arena
    plus the prepared slot operands, a plan rather than a measurement;
    the arena holds no copy of the slots, so no slot byte is counted
    twice.
    """
    if not packs:
        raise ValueError("need at least one pack")
    t_start = time.perf_counter()
    infer_times = []
    for pack in packs:
        bind_lora(session, pack)
        for i, (x, cond) in enumerate(workload):
            t0 = time.perf_counter()
            infer(session, x, cond, seed=i)
            infer_times.append((time.perf_counter() - t0) * 1000.0)
    end_to_end = (time.perf_counter() - t_start) * 1000.0

    base = len(session.model_bytes)
    lora_sizes = [len(p) for p in packs]
    separate, shared, ratio = memory_accounting(base, lora_sizes)
    arena = len(session.arena)
    adapter = session.adapter_buffer_bytes
    return KPIReport(
        init_ms=session.init_ms,
        execute_ms=statistics.median(infer_times) if infer_times else 0.0,
        end_to_end_ms=end_to_end,
        shared_rom_bytes=base,
        lora_rom_bytes=sum(lora_sizes),
        arena_bytes=arena,
        adapter_buffer_bytes=adapter,
        peak_ram_bytes=arena + adapter,
        n_usecases=len(packs),
        separate_total_bytes=separate,
        shared_total_bytes=shared,
        memory_ratio=ratio,
    )


def swap_benchmark(session: Session, pack_a: bytes, pack_b: bytes, reps: int):
    """Median adapter-swap time and median full model reload time, in ms.

    Requires reps >= 3.  A swap is expected to beat a reload, which is
    what runtime-bound adapters are for, but both are wall-clock medians
    on whatever else the host is running, so the two are reported, not
    compared.
    """
    if reps < 3:
        raise ValueError("swap benchmark needs at least 3 reps")
    swap_times = []
    for i in range(reps):
        pack = pack_a if i % 2 == 0 else pack_b
        t0 = time.perf_counter()
        bind_lora(session, pack)
        swap_times.append((time.perf_counter() - t0) * 1000.0)
    reload_times = []
    for i in range(reps):
        t0 = time.perf_counter()
        fresh = load_model(session.model_bytes)
        bind_lora(fresh, pack_a if i % 2 == 0 else pack_b)
        reload_times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(swap_times), statistics.median(reload_times)
