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
* **Bind.**  ``bind_lora`` decodes the pack into two views of its
  bytes (``compiler.unpack_lora``): the slot records and the level
  block.  At load the session derived from its descriptors what a
  pack's records must hold and the runs of consecutive slots of one
  shape (compile_deep's 128 slots make 2 runs: its first layer reads
  the latent next to the conditioning).  A bind compares the records
  whole: the slot ids, ranks and alphas as columns, the shapes and
  parameters as one byte string.  It range-checks the block where its
  dtype holds more than the slots' levels, then fills one fresh fp32
  buffer: B's centred levels and A dequantized, three numpy operations
  per run (``slot_operands``), and the alphas.  These are constants of
  the session's own backbone, not inputs, and are not planned.  Only
  then does the bind enter each slot's B, A and alpha views of the
  buffer into the backbone's operand table, in the same step as into
  its constants (``Program.set_constants``), so the prepared steps read
  the new arrays and nothing is prepared again, and the previous buffer
  is dropped.
* **Step.**  A backbone step only invokes its prepared program
  (``graph.invoke``): it is fed ``z`` and the conditioning only, runs
  each node's kernel on its operands in place, with no kind dispatch
  and no hook call, and centres only q_x and q_w.  A kernel does only
  the arithmetic its bits need: a ``qlora`` whose centred [q_w; B]
  fits one row tile takes W x and B x as one float64 GEMM, and a
  ``requant`` keeps its levels in float64 from its input to its output.
  Prepare binds no state of its own to a node: every step is one of
  the graph module's shared kernel functions.

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
weight).  So no step holds a float64 copy of a whole base weight, which
would be 8x its int8 bytes.  The one fp32 product of a step, a
``qlora``'s A (B x), blocks its k against the fp32 kernels' own budget,
``tensor.PRODUCT_BLOCK_BYTES`` (1 MiB); a rank-8 A (B x) is one block,
128 KB at serve_wide's 256 x 8 times 8 x 16, and the kernel drops q_x's
centred float64 levels before it.  A bind writes each slot's A
transposed, so A (B x) reads ``a.T`` in C order.

The artifact holds the graphs ``compiler.optimize_for_freeze`` made.
Each adapter layer is one ``qlora`` node, into which
``compiler.rewrite_lora_as_input`` turned the quantized layer, reading
q_w, q_x and the slot's B, A and alpha: it centres q_x once for the two exact integer
products W x and B x, one GEMM over q_w's centred rows stacked on B's
when they fit one row tile of ``tensor.MATMUL_BLOCK_BYTES`` (every
layer of compile_deep's w32 model), else ``qparams.tiled_matmul`` and
``scaled_matmul``, then runs the fp32 A (B x), scale and add.  Each
``quantize -> dequantize [-> activation]`` chain is one ``requant``
node, which also quantizes its result when that is the next layer's
input (``out_qparams``), so the arena carries levels between layers, as
in integer-only inference (Jacob et al. 2018, arXiv:1712.05877).  It
takes its input's levels, centred, in float64 (``qparams.round_levels``)
and scales them to fp32 with no storage dtype between.  So one
layer of a denoising step is a ``qlora`` and a ``requant``, no base
weight is dequantized on a step, and the arena holds none of the
chains' inner tensors.  In the artifact a ``qlora``'s B and A are
backbone inputs in their storage dtype; in a session they are the
constants a bind prepares.

Loading derives each graph's shapes once: ``load_compiled`` checks the
bundle with ``graph.validate_bundle``, and the session plans from the
shape maps that check returns.

The plan is a lifetime analysis (``lifetime_items``) followed by greedy
best-fit offsets (``assign_offsets``): each tensor, in production
order, goes into the smallest free gap between the live tensors that
fits, found by walking them in offset order as TFLite Micro's planner
does, ties to the lowest offset; zero-size tensors are placed alike.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
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


def assign_offsets(items) -> MemoryPlan:
    """Greedy best-fit placement over lifetime-sorted items.

    Items are placed in (start, tid) order.  Before each placement every
    live tensor whose lifetime ended before the item's start is
    released.  The item then goes into the smallest free gap between
    live tensors that holds it, ties to the lowest offset, or, when no
    gap fits, on top of the highest live tensor.  The gap before the
    lowest live tensor starts at offset 0; the space above the highest
    one is not a gap.

    Zero-size items are legal.  They take the smallest gap too, which
    is often a zero-width one where two live tensors touch; a zero-size
    live tensor still splits the gap it sits in.  Item tids must be
    distinct, as they are within one graph.

    Each placement walks the live set, which a session's graphs keep at
    3 tensors at most.  A graph that still has its slot inputs does not:
    compile_deep's stored backbone keeps 387 of its 646 items live and
    takes about 10 ms to plan on 2 vCPUs, its session backbone 0.2 ms.
    So plan only graphs whose slots are bound constants.
    """
    offsets = {}
    live = []   # (offset, size, end) of the live tensors, in offset order
    arena = 0
    for item in sorted(items, key=lambda it: (it.start, it.tid)):
        live = [rec for rec in live if rec[2] >= item.start]
        best, cursor = None, 0   # (size, start) of the best gap so far; the next gap's start
        for off, size, _ in live:
            if off - cursor >= item.size and (best is None or off - cursor < best[0]):
                best = (off - cursor, cursor)
            cursor = off + size
        offset = cursor if best is None else best[1]
        bisect.insort(live, (offset, item.size, item.end))
        offsets[item.tid] = (offset, item.size)
        arena = max(arena, offset + item.size)
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
    view; the plan keeps their lifetimes apart.  (compile_deep's 272
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


@dataclass(slots=True)
class _Run:
    """Consecutive slots of one shape, from level ``lo`` on in a pack's
    block and in a bind's buffer alike: each slot's ``size`` levels are
    its B (r_max x d_in), then its A, (d_out x r_max) in a pack and
    transposed, (r_max x d_out), in a bind's buffer.  ``z_b``, ``z_a``
    and ``s_a`` are the slots' zero points and A scales, fp32 of shape
    (n, 1, 1)."""
    lo: int
    size: int
    b_shape: tuple   # (n, r_max, d_in)
    a_shape: tuple   # (n, d_out, r_max)
    z_b: np.ndarray
    z_a: np.ndarray
    s_a: np.ndarray

    def split(self, flat: np.ndarray, a_transposed: bool = False) -> tuple:
        """The run's B and A in ``flat``, a contiguous 1-D array: views of
        shapes ``b_shape`` and ``a_shape``.  With ``a_transposed`` each
        slot's A lies in ``flat`` as (r_max, d_out) in C order, as a bind
        writes it, so each slot's view of A is in Fortran order."""
        k = flat.itemsize
        (_, r_max, d_in), (_, d_out, _) = self.b_shape, self.a_shape
        a_strides = (self.size * k, k, d_out * k) if a_transposed else (self.size * k, r_max * k, k)
        return (np.ndarray(self.b_shape, flat.dtype, flat, self.lo * k, (self.size * k, d_in * k, k)),
                np.ndarray(self.a_shape, flat.dtype, flat, (self.lo + r_max * d_in) * k, a_strides))


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
        self._prepare_binds(sorted(model.descriptors, key=lambda d: d.slot_id))
        # The session's copy does not keep the shape maps: they would stay
        # live through every infer (219 KB for the w32/d128 benchmark model).
        self.model = replace(model, graphs=graphs, shapes=None)
        self.model_bytes = model_bytes
        self.bound_adapter = None
        self.adapter_buffer = None   # the bound slots' operands, one fp32 array
        self.bundle = gr.ModelBundle(graphs["encoder"], graphs["backbone"], graphs["decoder"],
                                     model.steps)
        self.plans = {role: plan_memory(g, model.shapes[role]) for role, g in self.bundle.graphs()}
        self.arena = bytearray(max(p.arena_size for p in self.plans.values()) or 1)
        hooks = _ArenaHooks(self.arena, self.plans)
        self.programs = {role: gr.prepare(g, role=role, hooks=hooks, shapes=model.shapes[role])
                         for role, g in self.bundle.graphs()}
        self.init_ms = (time.perf_counter() - t0) * 1000.0

    def _prepare_binds(self, slots) -> None:
        """What every bind needs from the descriptors, in ascending slot
        id: what a pack's records must hold (``compiler.slot_records``),
        the level range to check where the block's dtype holds more, and
        the runs of consecutive slots of one shape, with the slot tids in
        the order ``bind_lora`` writes their operands."""
        self._slots = slots
        self._slot_ids = [d.slot_id for d in slots]
        self._r_max = [d.r_max for d in slots]
        self._fixed_bytes = _fixed_bytes(cp.slot_records(slots))
        # a pack's slots share one width and signedness, so one range
        p = slots[0].a_params if slots else None
        self._level_range = (p.q_min, p.q_max) if p is not None and not p.signed else (None, None)
        columns = np.array([[d.b_params.zero_point for d in slots], [d.a_params.zero_point for d in slots],
                            [d.a_params.scale for d in slots]], np.float32).reshape(3, -1, 1, 1)
        self._runs, tids, lo, i = [], [], 0, 0
        for (d_out, d_in, r_max), group in itertools.groupby(slots, key=lambda d: (d.d_out, d.d_in, d.r_max)):
            group = list(group)
            n, size = len(group), r_max * (d_in + d_out)
            self._runs.append(_Run(lo, size, (n, r_max, d_in), (n, d_out, r_max), *columns[:, i:i + n]))
            tids += [g.b_tid for g in group] + [g.a_tid for g in group]
            lo, i = lo + n * size, i + n
        self._slot_tids = tids + [d.alpha_tid for d in slots]

    @property
    def adapter_buffer_bytes(self) -> int:
        """Bytes of the one fp32 buffer that holds the bound slots' B
        (centred levels), A and alpha, which the backbone's slot
        constants view; 0 before the first bind."""
        return 0 if self.adapter_buffer is None else self.adapter_buffer.nbytes


def load_model(data: bytes) -> Session:
    """Parse and verify a compiled model; plans memory and times init.

    The session keeps ``data`` as ``bytes`` (a ``bytearray`` is copied
    once), and its base weights are read-only views into them.
    """
    data = bytes(data)
    return Session(cp.load_compiled(data), data)


def slot_operands(q_b, z_b, q_a, z_a, s_a, b, a) -> None:
    """Write a run of slots' B and A, in the form a ``qlora`` multiplies
    them, into ``b`` and ``a``.

    ``q_b`` (n, r_max, d_in) and ``q_a`` (n, d_out, r_max) hold n slots'
    levels, each already within its range; ``z_b``, ``z_a`` and ``s_a``
    the slots' zero points and A's scales as fp32 of shape (n, 1, 1).
    B becomes q_b - z_b in fp32 and A fp32(q_a - z_a) * s_a in fp32.
    Both differences are exact, since |q - z| <= 65,535 < 2**24.  Each
    product is correctly rounded from two fp32 values, as is its float64
    form rounded to fp32, so A is ``qparams.dequantize_array`` bit for
    bit, infinities included.  ``a`` may lie in any order, as a bind's
    transposed A does: the levels are copied into it once, and the
    arithmetic runs in place, in its memory order.
    """
    np.subtract(q_b, z_b, out=b, dtype=np.float32)
    np.copyto(a, q_a)
    a -= z_a
    a *= s_a


def _fixed_bytes(records: bytes) -> bytes:
    """The bytes of each record from its shape on: the slot's shape and
    parameters, which a pack for the slot must hold as they are."""
    k, start = cp.SLOT_RECORD.itemsize, cp.SLOT_RECORD.fields["d_out"][1]
    return b"".join(records[i + start:i + k] for i in range(0, len(records), k))


def _refusal(got: np.ndarray, slots) -> str:
    """Why the first record of ``got`` that does not fit its slot in
    ``slots`` (descriptors in ascending slot id) cannot be bound."""
    for (slot_id, rank, alpha, d_out, d_in, r_max, *params), d in zip(got.tolist(), slots):
        a, b = d.a_params, d.b_params
        if (d_out, d_in, r_max) != (d.d_out, d.d_in, d.r_max):
            return (f"slot {slot_id}: payload shapes {(d_out, r_max)}/{(r_max, d_in)} "
                    f"do not match descriptors {d.a_shape}/{d.b_shape}")
        if params != [a.scale, a.zero_point, a.bits, a.signed, b.scale, b.zero_point, b.bits, b.signed]:
            return f"slot {slot_id}: pack quantization parameters do not match the model"
        if rank > d.r_max:
            return f"slot {slot_id}: rank {rank} exceeds {d.r_max}"
        if not math.isfinite(alpha):
            return f"slot {slot_id}: alpha {alpha} is not finite"
    return "pack slot records do not match the model"


def bind_lora(session: Session, pack_bytes: bytes):
    """Prepare a pack's factors as the session backbone's slot constants.

    ``compiler.unpack_lora`` decodes the pack into two views of its
    bytes, the slot records and the level block.  The records must equal
    the session's (``compiler.slot_records``) but for rank and alpha,
    each rank must fit its slot and each alpha be finite, else
    ``BindError`` naming the first bad slot.  The checks compare columns
    as lists and every record's shape and parameters as one byte string:
    on a pack's few hundred values that costs less than numpy
    arithmetic, whose calls are slow when a bind follows other work.  A
    block whose dtype holds levels past the slots' range is range-checked
    (``RangeError``).  Then one fresh fp32 buffer receives every slot's
    B, A and alpha, three numpy operations per run of equally shaped
    slots (``slot_operands``), and each slot's three views of it replace
    the previous operands in the backbone's constants and in its
    prepared operand table at once (``Program.set_constants``); every
    step reads them in place.  Nothing changes session state before
    that, so a failed bind leaves the previous binding in place.  No
    graph rebuild, no base-weight change, nothing prepared again; a
    rebind always prepares the full pack.
    """
    pack = cp.unpack_lora(pack_bytes)
    got = pack.records
    ids = got["slot_id"].tolist()
    if ids != session._slot_ids:
        raise BindError(f"pack slots {ids} do not match model slots {session._slot_ids}")
    ranks, alphas = got["rank"].tolist(), got["alpha"].tolist()
    if (_fixed_bytes(got.tobytes()) != session._fixed_bytes or any(map(operator.gt, ranks, session._r_max))
            or not all(map(math.isfinite, alphas))):
        raise BindError(_refusal(got, session._slots))
    levels = pack.levels
    q_min, q_max = session._level_range
    if q_min is not None and (levels.min() < q_min or levels.max() > q_max):
        raise RangeError(f"quantized element outside [{q_min}, {q_max}]")
    buf = np.empty(levels.size + len(got), np.float32)
    buf[levels.size:] = alphas
    operands = []
    for run in session._runs:
        (q_b, q_a), (b, a) = run.split(levels), run.split(buf, a_transposed=True)
        slot_operands(q_b, run.z_b, q_a, run.z_a, run.s_a, b, a)
        operands += (b, a)
    operands.append(buf[levels.size:].reshape(-1, 1))
    session.programs["backbone"].set_constants(
        dict(zip(session._slot_tids, itertools.chain.from_iterable(operands))))
    session.adapter_buffer = buf
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
