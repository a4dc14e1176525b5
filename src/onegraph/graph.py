"""Compute-graph IR and its interpreter.

A model is three graphs (encoder, backbone, decoder) plus a step count.
Backbone layers of kind ``lora_matmul`` hold a frozen weight and accept
low-rank factors at execution time; the same layers degenerate to a
plain product when no adapter is supplied.

Nodes are stored in topological order (validated), and activations are
column-major feature matrices ``[features, batch]``.  Execution is
deterministic bit-for-bit: fp32 arithmetic goes through the sequential
kernels in :mod:`onegraph.tensor`, and a product whose two operands are
quantized (a ``qlinear`` node, W x and B x inside a ``qlora``, or a
product that QuantSim's ``product`` hook sees with both operands
fake-quantized) goes through the exact integer kernel of
:mod:`onegraph.qparams` (``int_matmul``, ``centered_matmul``,
``scaled_matmul``, ``tiled_matmul``), whose result no summation order
or row tiling changes.  Every product in the IR is a matrix product:
``qlinear`` has no other ``op``.

The interpreter is prepare + invoke, as in TFLite Micro (David et al.
2020, arXiv:2010.08678).  ``prepare`` runs once per graph, role, adapter
and hooks: it resolves each node's kernel, each operand's index into
one operand table (the constants, and the arrays the hooks place
tensors in), each weight and adapter factor as the hooks give it, and
the function the hooks apply to each activation.  Which tensors are
weights and activations is stated once, by ``weight_tids`` and
``act_tids``, for QuantSim, calibration and the compiler alike.
``invoke`` is a flat loop over the nodes that calls each kernel, and
each activation's function where the hooks gave one.
``run_graph`` runs one graph, preparing it unless it is given its
program; ``run_bundle`` prepares each graph once per call, and a
runtime session prepares its three at load.  QuantSim, fp, observer,
tape and runtime runs all go through this one interpreter, and hooks
are its one extension point.

The number of samples is a property of the run, not of the graph.  A
graph's shapes hold one sample's ``[features, batch]`` columns;
``run_bundle`` takes one noise seed per column block and runs the
samples side by side (``stack_samples``), and ``invoke`` accepts an
unplaced 2-D input of that many blocks.  Each block of the output
(``split_blocks``) has the bits of its sample's own run, since every
kernel computes a column from the same column of its inputs
(``blockwise``) and ``tensor.matmul`` gives a column the same bits
among any others.  An array placed by the hooks, as a runtime session
places its arena views, holds the declared shape only.

The fusion passes of ``compiler.optimize_for_freeze`` (``scale_fold``,
``_fuse_lora`` and ``_fuse_requant``) share one use map
(``Graph.consumers``) and one ``rebuild``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import qparams as qp
from . import tensor as tz
from .errors import BindError, CycleError, GraphError, ShapeError
from .rng import Rng

# Kinds of the floating-point IR; the quantized kinds appear only after
# quantization nodes are materialized for compilation, and the last three
# only after the compiler's fusions: ``qlinear`` is one quantized linear
# layer, ``qlora`` one adapter layer, W x + alpha * A (B x) from the
# integer q_w and q_x and the slot's B and A, and ``requant`` one
# quantize -> dequantize [-> activation] chain, fp32 in and out.
FP_KINDS = ("matmul", "add", "scale", "concat", "activation", "lora_matmul")
QUANT_KINDS = ("quantize", "dequantize", "qlinear", "qlora", "requant")
ALL_KINDS = FP_KINDS + QUANT_KINDS


@dataclass(slots=True)
class Node:
    id: int
    kind: str
    inputs: list
    output: int
    attrs: dict = field(default_factory=dict)


@dataclass
class GraphInput:
    name: str
    tid: int
    shape: tuple
    dtype: str = "fp32"


@dataclass
class Graph:
    nodes: list
    inputs: list          # [GraphInput]
    outputs: list         # [(name, tid)]
    constants: dict       # tid -> np.ndarray

    def producer_map(self) -> dict:
        return {n.output: n for n in self.nodes}

    def consumers(self) -> dict:
        """tid -> the nodes that read it, once per read; a graph output adds ``None``."""
        users = {}
        for n in self.nodes:
            for t in n.inputs:
                users.setdefault(t, []).append(n)
        for _, t in self.outputs:
            users.setdefault(t, []).append(None)
        return users

    def next_node_id(self) -> int:
        return max((n.id for n in self.nodes), default=-1) + 1

    def next_tid(self) -> int:
        used = [n.output for n in self.nodes]
        used += [gi.tid for gi in self.inputs]
        used += list(self.constants)
        return max(used, default=-1) + 1

    def lora_nodes(self) -> list:
        return [n for n in self.nodes if n.kind == "lora_matmul"]

    def copy(self) -> "Graph":
        return Graph(
            nodes=[Node(n.id, n.kind, list(n.inputs), n.output, dict(n.attrs)) for n in self.nodes],
            inputs=[GraphInput(gi.name, gi.tid, gi.shape, gi.dtype) for gi in self.inputs],
            outputs=list(self.outputs),
            constants=dict(self.constants),
        )


@dataclass
class LoRAEntry:
    A: np.ndarray        # [d_out, r] fp32
    B: np.ndarray        # [r, d_in] fp32
    alpha: float

    @property
    def rank(self) -> int:
        return self.A.shape[1]


@dataclass
class LoRAAdapter:
    adapter_id: str
    entries: dict        # lora node id -> LoRAEntry


@dataclass
class ModelBundle:
    encoder: Graph
    backbone: Graph
    decoder: Graph
    steps: int

    def graphs(self):
        return (("encoder", self.encoder), ("backbone", self.backbone), ("decoder", self.decoder))


# ---------------------------------------------------------------------------
# Shape propagation and validation


def _qparams(n, key):
    p = n.attrs.get(key)
    if not isinstance(p, qp.QuantParams):
        raise GraphError(f"node {n.id}: {n.kind} lacks {key}")
    return p


def storage_name(p: qp.QuantParams) -> str:
    return tz.name_of(qp.storage_dtype(p.bits, p.signed))


def weight_tids(g: Graph) -> list:
    """The quantizable weights, in first-use order: every fp32 constant a
    node reads, except the scalar operand of a ``scale`` node."""
    tids = {}   # insertion-ordered set
    for n in g.nodes:
        for pos, tid in enumerate(n.inputs):
            if (tid in g.constants and g.constants[tid].dtype == np.float32
                    and not (n.kind == "scale" and pos == 1)):
                tids[tid] = None
    return list(tids)


def act_tids(g: Graph) -> list:
    """The quantizable activations: the fp32 graph inputs, then every
    output of a node of an ``FP_KINDS`` kind, in node order."""
    return ([gi.tid for gi in g.inputs if gi.dtype == "fp32"]
            + [n.output for n in g.nodes if n.kind in FP_KINDS])


# Where a node may read a constant and still compute each column from the
# same column of its other operands: a product's left factor, a scale's
# scalar, and a ``qlora``'s slot operands B, A and alpha.
_CONSTANT_OPERANDS = {"matmul": (0,), "lora_matmul": (0,), "qlinear": (0,),
                      "qlora": (0, 2, 3, 4), "scale": (1,)}


def blockwise(g: Graph) -> bool:
    """Whether a run of ``g`` keeps column blocks apart (``invoke``).

    Every kernel computes each output column from the same column of
    its activations: a product takes columns of its right operand, the
    other kinds are elementwise, and a ``concat`` on axis 0 joins
    features.  So it holds when every ``concat`` is on axis 0 and every
    constant is read where ``_CONSTANT_OPERANDS`` allows.
    """
    return all((n.kind != "concat" or int(n.attrs["axis"]) == 0)
               and all(t not in g.constants or pos in _CONSTANT_OPERANDS.get(n.kind, ())
                       for pos, t in enumerate(n.inputs))
               for n in g.nodes)


def infer_shapes(g: Graph) -> dict:
    """tid -> (shape, dtype) for every tensor, checking node contracts."""
    info = {}
    for gi in g.inputs:
        info[gi.tid] = (tuple(gi.shape), gi.dtype)
    for tid, arr in g.constants.items():
        info[tid] = (tuple(arr.shape), tz.dtype_name(arr))

    for n in g.nodes:
        def get(tid, n=n):
            if tid not in info:
                raise GraphError(f"node {n.id}: tensor {tid} used before production")
            return info[tid]

        if n.kind == "matmul":
            (sa, da), (sb, db) = get(n.inputs[0]), get(n.inputs[1])
            if da != "fp32" or db != "fp32":
                raise ShapeError(f"node {n.id}: matmul needs fp32 operands")
            if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
                raise ShapeError(f"node {n.id}: matmul shapes {sa} x {sb}")
            out = ((sa[0], sb[1]), "fp32")
        elif n.kind == "lora_matmul":
            (sw, dw), (sx, dx) = get(n.inputs[0]), get(n.inputs[1])
            if n.inputs[0] not in g.constants:
                raise GraphError(f"node {n.id}: lora_matmul weight must be a constant")
            if dw != "fp32" or dx != "fp32":
                raise ShapeError(f"node {n.id}: lora_matmul needs fp32 operands")
            if len(sw) != 2 or len(sx) != 2 or sw[1] != sx[0]:
                raise ShapeError(f"node {n.id}: lora_matmul shapes {sw} x {sx}")
            r = int(n.attrs.get("rank", 0))
            if not 1 <= r <= min(sw):
                raise ShapeError(f"node {n.id}: rank {r} exceeds min{sw}")
            out = ((sw[0], sx[1]), "fp32")
        elif n.kind == "add":
            (sa, da), (sb, db) = get(n.inputs[0]), get(n.inputs[1])
            if sa != sb or da != "fp32" or db != "fp32":
                raise ShapeError(f"node {n.id}: add operands {sa}/{da} vs {sb}/{db}")
            out = (sa, "fp32")
        elif n.kind == "scale":
            (sx, dx), (ss, ds) = get(n.inputs[0]), get(n.inputs[1])
            if dx != "fp32" or ds != "fp32" or int(np.prod(ss)) != 1:
                raise ShapeError(f"node {n.id}: scale needs fp32 tensor and 1-element scalar")
            out = (sx, "fp32")
        elif n.kind == "concat":
            axis = int(n.attrs["axis"])
            shapes = [get(t) for t in n.inputs]
            base = list(shapes[0][0])
            for s, d in shapes[1:]:
                if d != shapes[0][1] or len(s) != len(base):
                    raise ShapeError(f"node {n.id}: concat rank/dtype mismatch")
                for ax in range(len(base)):
                    if ax != axis and s[ax] != base[ax]:
                        raise ShapeError(f"node {n.id}: concat extent mismatch on axis {ax}")
                base[axis] += s[axis]
            out = (tuple(base), shapes[0][1])
        elif n.kind == "activation":
            sx, dx = get(n.inputs[0])
            if dx != "fp32":
                raise ShapeError(f"node {n.id}: activation needs fp32")
            out = (sx, "fp32")
        elif n.kind == "quantize":
            sx, dx = get(n.inputs[0])
            if dx != "fp32":
                raise ShapeError(f"node {n.id}: quantize needs fp32 input")
            p = _qparams(n, "qparams")
            out = (sx, storage_name(p))
        elif n.kind == "dequantize":
            sx, _ = get(n.inputs[0])
            _qparams(n, "qparams")
            out = (sx, "fp32")
        elif n.kind == "qlinear":
            (sw, _), (sx, _) = get(n.inputs[0]), get(n.inputs[1])
            _qparams(n, "w_qparams")
            _qparams(n, "in_qparams")
            if len(n.inputs) > 2:
                _qparams(n, "bias_qparams")
            op = n.attrs.get("op")
            if op != "matmul":
                raise GraphError(f"node {n.id}: qlinear op {op!r}")
            if len(sw) != 2 or len(sx) != 2 or sw[1] != sx[0]:
                raise ShapeError(f"node {n.id}: qlinear shapes {sw} x {sx}")
            p = _qparams(n, "out_qparams")
            out = ((sw[0], sx[1]), storage_name(p))
        elif n.kind == "qlora":
            (sw, _), (sx, _), (sb, db), (sa, da), (sal, dal) = (get(t) for t in n.inputs)
            for key in ("w_qparams", "in_qparams"):
                _qparams(n, key)
            stored = (storage_name(_qparams(n, "b_qparams")), storage_name(_qparams(n, "a_qparams")))
            if (db, da) not in (stored, ("f64", "fp32")):
                raise ShapeError(f"node {n.id}: qlora needs B and A as stored {stored} or as "
                                 f"prepared (f64, fp32), got ({db}, {da})")
            if (len(sw) != 2 or len(sx) != 2 or len(sb) != 2 or len(sa) != 2 or sw[1] != sx[0]
                    or sb[1] != sx[0] or sa[1] != sb[0] or sa[0] != sw[0]):
                raise ShapeError(f"node {n.id}: qlora shapes W{sw} x{sx} B{sb} A{sa}")
            if dal != "fp32" or int(np.prod(sal)) != 1:
                raise ShapeError(f"node {n.id}: qlora needs a 1-element fp32 alpha")
            out = ((sw[0], sx[1]), "fp32")
        elif n.kind == "requant":
            sx, dx = get(n.inputs[0])
            if dx != "fp32":
                raise ShapeError(f"node {n.id}: requant needs fp32 input")
            _qparams(n, "qparams")
            out = (sx, "fp32")
        else:
            raise GraphError(f"node {n.id}: unknown kind {n.kind!r}")

        if n.output in info:
            raise GraphError(f"node {n.id}: tensor {n.output} already has a producer")
        info[n.output] = out
    return info


def validate(g: Graph) -> dict:
    """Raise on the first structural violation; returns ``infer_shapes(g)``.

    Its success proves list order topological: no cycle, nothing unreachable.
    """
    seen_ids = set()
    for n in g.nodes:
        if n.id in seen_ids:
            raise GraphError(f"duplicate node id {n.id}")
        seen_ids.add(n.id)
        if n.kind not in ALL_KINDS:
            raise GraphError(f"node {n.id}: unknown kind {n.kind!r}")
        if n.output in n.inputs:
            raise CycleError(f"node {n.id} consumes its own output")

    known = {gi.tid for gi in g.inputs}
    if known & g.constants.keys():
        raise GraphError(f"tensors {sorted(known & g.constants.keys())} are both inputs and constants")
    known |= set(g.constants) | {n.output for n in g.nodes}
    for n in g.nodes:
        for t in n.inputs:
            if t not in known:
                raise GraphError(f"node {n.id}: dangling tensor id {t}")

    try:
        info = infer_shapes(g)
    except Exception:
        topo_sort(g)  # a cycle or a doubly produced tensor is reported first
        raise
    for name, tid in g.outputs:
        if tid not in info:
            raise GraphError(f"output {name!r}: tensor {tid} does not exist")
    return info


def topo_sort(g: Graph) -> list:
    """Kahn's method with ascending-id tie-break; returns node ids."""
    producer = {}
    for n in g.nodes:
        if n.output in producer:
            raise GraphError(f"tensor {n.output} produced twice")
        producer[n.output] = n
    sources = set(gi.tid for gi in g.inputs) | set(g.constants)
    indeg = {}
    users = {}
    for n in g.nodes:
        deps = {t for t in n.inputs if t not in sources and t in producer}
        indeg[n.id] = len(deps)
        for t in deps:
            users.setdefault(producer[t].id, []).append(n.id)
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    by_id = {n.id: n for n in g.nodes}
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for u in sorted(users.get(nid, [])):
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    if len(order) != len(g.nodes):
        stuck = sorted(set(by_id) - set(order))
        raise CycleError(f"cycle through nodes {stuck}")
    return order


def rebuild(g: Graph, fused: dict, gone: set) -> Graph:
    """``g`` with each node keyed (by ``id``) in ``fused`` replaced where it
    stood, each in ``gone`` dropped, and each ``dequantize`` whose readers
    were all fused away dropped too; one that nothing read before stays."""
    nodes = [fused.get(id(n), n) for n in g.nodes if id(n) not in gone]
    read = {t for n in nodes for t in n.inputs}
    read.update(t for _, t in g.outputs)
    freed = {t for n in g.nodes for t in n.inputs if t not in read}
    nodes = [n for n in nodes if n.kind != "dequantize" or n.output not in freed]
    return Graph(nodes, g.inputs, g.outputs, g.constants)


def dump_graph(g: Graph) -> str:
    """One node per line: `id kind [in-ids] -> out-id {attrs}`."""
    lines = []
    for n in g.nodes:
        parts = []
        for k in sorted(n.attrs):
            v = n.attrs[k]
            if isinstance(v, qp.QuantParams):
                v = f"q({v.scale!r},{v.zero_point},{v.bits},{int(v.signed)})"
            parts.append(f"{k}={v}")
        attrs = "{" + ", ".join(parts) + "}"
        ins = " ".join(str(t) for t in n.inputs)
        lines.append(f"{n.id} {n.kind} [{ins}] -> {n.output} {attrs}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Execution: prepare once, invoke per run


class Tape:
    """Recorded primitives for reverse-mode differentiation.

    Arrays are held by reference; entries are (op, inputs, output, ctx).
    """

    def __init__(self):
        self.entries = []

    def record(self, op, inputs, output, ctx=None):
        self.entries.append((op, inputs, output, ctx))


def _mm(a, b, tape):
    out = tz.matmul(a, b)
    if tape is not None:
        tape.record("matmul", (a, b), out)
    return out


def _add(a, b, tape, out=None):
    out = np.add(a, b, out=out)
    if tape is not None:
        tape.record("add", (a, b), out)
    return out


def _scale(x, s, tape, out=None):
    out = np.multiply(x, s.reshape(()), out=out)
    if tape is not None:
        tape.record("scale", (x, s), out)
    return out


def _concat(args, axis, tape, out=None):
    out = np.concatenate(args, axis=axis, out=out)
    if tape is not None:
        tape.record("concat", tuple(args), out, axis)
    return out


def _act(x, kind, tape):
    out = tz.activation(x, kind)
    if tape is not None:
        tape.record("activation", (x,), out, kind)
    return out


class _NullHooks:
    """Plain floating-point execution: no quantization, no observation,
    no placement.  Hooks are the interpreter's one extension point, and
    all but ``product`` are asked once, by ``prepare``:

    * ``place`` for each graph input and node output;
    * ``weight_value`` for each weight (``weight_tids``), whose result
      every read of the weight sees;
    * ``lora_factor`` for each adapter factor;
    * ``act_fn`` for each activation (``act_tids``): it returns the
      function a run applies to that tensor's value, or None.

    ``prepare`` asks a hook only where a subclass overrides it, so a run
    calls no hook that would hand its value back unchanged.  ``product``
    computes the operand products of ``matmul`` and ``lora_matmul``
    nodes on every run; ``which`` names the left factor: ``"W"`` for the
    node's own product of its two inputs, ``"B"`` and ``"A"`` for an
    adapter's B x and A (B x).
    """

    def place(self, role, tid, shape, dtype):
        """The array that holds tensor ``tid`` on every run, or None to
        keep each value as its kernel returns it."""
        return None

    def weight_value(self, role, tid, value, tape):
        return value

    def lora_factor(self, role, node_id, which, value, tape):
        return value

    def act_fn(self, role, tid):
        """A ``(value, tape) -> value`` function that each run applies to
        activation ``tid`` as it is fed or computed, or None."""
        return None

    def product(self, role, node, which, a, b, tape):
        return _mm(a, b, tape)


NULL_HOOKS = _NullHooks()


def _overridden(hooks, name):
    """``hooks.<name>``, or None where it is ``_NullHooks``' own."""
    if getattr(type(hooks), name) is getattr(_NullHooks, name):
        return None
    return getattr(hooks, name)


class Program:
    """A graph prepared for one role, adapter and hooks (``prepare``).

    ``values`` is the operand table, indexed by tensor id.  It holds
    each constant (each weight as ``weight_value`` gave it), and each
    graph input and node output that was placed, as the array it was
    placed in, from ``prepare`` on; a run enters the other tensors as it
    computes them.  ``inputs`` pairs each graph input with its placed
    array and its ``act_fn`` function, either of them None.
    ``kernels[i]`` runs the graph's node i and stores its output in
    ``views[i]`` when that output was placed (``views`` is None when
    nothing was); ``acts[i]`` is the ``act_fn`` function of its output
    (``acts`` is None when no tensor has one).  ``lora`` maps each
    ``lora_matmul`` that the adapter covers to its factors A and B, as
    the hooks' ``lora_factor`` returned them, and alpha.  ``blockwise`` is
    ``blockwise(graph)``, whether ``invoke`` may run more than one column
    block, once an invoke has asked.
    """

    __slots__ = ("graph", "role", "hooks", "kernels", "views", "values", "inputs", "acts", "lora",
                 "blockwise")

    def set_constants(self, arrays: dict) -> None:
        """Replace constants of the graph, and point every step that
        reads them at the new arrays, as given."""
        self.graph.constants.update(arrays)
        for tid, arr in arrays.items():
            self.values[tid] = arr


def prepare(g: Graph, *, role="graph", adapter=None, hooks=NULL_HOOKS, shapes=None,
            tape=None) -> Program:
    """Resolve once what every run of ``g`` would otherwise repeat.

    Each node gets its kernel, each of its operands a fixed index into
    the operand table, and its output the array ``hooks.place`` gives,
    if any; so do the graph inputs.  ``shapes`` (tid -> (shape, dtype))
    is what ``place`` is told, ``infer_shapes(g)`` when not given.  Each
    weight enters the table as ``hooks.weight_value`` returns it, and
    each activation gets the function ``hooks.act_fn`` returns.  Each
    ``lora_matmul`` that ``adapter`` covers gets its entry's factors,
    whose shapes are checked here, passed once through
    ``hooks.lora_factor`` with ``tape``, and alpha as a one-element fp32
    array.  So a program prepared with a tape records its factors on that
    tape, and is invoked with it.
    """
    p = Program()
    p.graph, p.role, p.hooks = g, role, hooks
    p.kernels = [_KERNELS.get(n.kind) for n in g.nodes]
    if None in p.kernels:
        n = g.nodes[p.kernels.index(None)]
        raise GraphError(f"node {n.id}: unknown kind {n.kind!r}")
    p.blockwise = None   # found by the first invoke of more than one block
    size = max([g.next_tid(), *(t + 1 for n in g.nodes for t in n.inputs)])
    p.values = values = [None] * size
    for tid, arr in g.constants.items():
        values[tid] = arr

    place = _overridden(hooks, "place")
    if place is None:
        views, p.views = [None] * len(g.inputs), None
    else:
        shapes = infer_shapes(g) if shapes is None else shapes
        views = [place(role, gi.tid, *shapes[gi.tid]) for gi in g.inputs]
        p.views = [place(role, n.output, *shapes[n.output]) for n in g.nodes]
        for gi, view in zip(g.inputs, views):
            values[gi.tid] = view
        for n, view in zip(g.nodes, p.views):
            values[n.output] = view

    weight = _overridden(hooks, "weight_value")
    for tid in weight_tids(g) if weight is not None else ():
        values[tid] = weight(role, tid, g.constants[tid], tape)
    act = _overridden(hooks, "act_fn")
    fns = {} if act is None else {tid: act(role, tid) for tid in act_tids(g)}
    p.inputs = [(gi, view, fns.get(gi.tid)) for gi, view in zip(g.inputs, views)]
    p.acts = [fns.get(n.output) for n in g.nodes] if any(fns.values()) else None

    p.lora = {}
    factor = _overridden(hooks, "lora_factor")
    for n in g.nodes if adapter is not None else ():
        entry = adapter.entries.get(n.id) if n.kind == "lora_matmul" else None
        if entry is not None:
            _check_entry_shapes(n, g.constants[n.inputs[0]], entry)
            a, b = entry.A, entry.B
            if factor is not None:
                a = factor(role, n.id, "A", a, tape)
                b = factor(role, n.id, "B", b, tape)
            p.lora[n.id] = (a, b, np.full((1,), entry.alpha, dtype=np.float32))
    return p


def invoke(p: Program, feeds: dict, tape=None, blocks=1) -> dict:
    """Run a prepared graph; returns output name -> tensor.

    ``feeds`` maps input names to arrays, each copied into its placed
    array if it has one.  ``tape`` records primitives for
    differentiation.  A step is the node's kernel and nothing else, and
    calls no hook but ``product``; a graph input or node output with an
    ``act_fn`` function is stored as that function returns it.

    ``blocks`` is the number of column blocks the run carries: an
    unplaced 2-D input of shape [f, b] is fed as [f, blocks * b], one
    sample's columns after another, and every tensor computed from it
    is as wide.  A placed input, and any other input, must have its
    declared shape exactly, so a runtime session runs its own batch
    only.  More than one block needs a ``blockwise`` graph.
    """
    if blocks != 1:
        if p.blockwise is None:
            p.blockwise = blockwise(p.graph)
        if blocks < 1 or not p.blockwise:
            raise ShapeError(f"{p.role}: cannot run {blocks} column blocks")
    vals = p.values
    for gi, view, fn in p.inputs:
        if gi.name not in feeds:
            raise ShapeError(f"missing graph input {gi.name!r}")
        v = np.asarray(feeds[gi.name])
        want = tuple(gi.shape)
        if view is None and len(want) == 2:
            want = (want[0], want[1] * blocks)
        if v.shape != want:
            raise ShapeError(f"input {gi.name!r}: expected shape {want}, got {v.shape}")
        if tz.dtype_name(v) != gi.dtype:
            raise ShapeError(f"input {gi.name!r}: expected dtype {gi.dtype}")
        if fn is not None:
            v = fn(v, tape)
        if view is not None:
            view[...] = v
            v = view
        vals[gi.tid] = v

    steps = zip(p.kernels, p.graph.nodes, p.views or repeat(None))
    if p.acts is None:
        for kernel, node, view in steps:
            vals[node.output] = kernel(vals, node, view, tape, p)
    else:
        for (kernel, node, view), fn in zip(steps, p.acts):
            out = kernel(vals, node, view, tape, p)
            vals[node.output] = out if fn is None else fn(out, tape)
    return {name: vals[tid] for name, tid in p.graph.outputs}


def run_graph(g: Graph, feeds: dict, *, role="graph", adapter=None, hooks=NULL_HOOKS, tape=None,
              program=None, blocks=1) -> dict:
    """Execute a graph; returns output name -> tensor.

    ``feeds`` maps input names to arrays.  ``adapter`` supplies low-rank
    factors for ``lora_matmul`` nodes by node id.  ``hooks`` intercepts
    tensor boundaries (see quant module) and ``tape`` records primitives
    for differentiation.  ``program`` is ``g`` prepared already; then
    ``role``, ``adapter`` and ``hooks`` are the ones it was prepared
    with, ``tape`` the one it was prepared with too (see ``prepare``),
    and this call only invokes it.  ``blocks`` is as in ``invoke``.
    """
    if program is None:
        program = prepare(g, role=role, adapter=adapter, hooks=hooks, tape=tape)
    return invoke(program, feeds, tape, blocks)


# Kernels: ``kernel(values, node, view, tape, program)`` computes a node
# from the operand table and returns its output, stored in ``view`` when
# that is an array.  The functions they call are looked up in their
# modules on every call, not bound at prepare, so a module attribute
# replaced after a session's load (a tracer's wrapper, or its removal)
# is what runs.

def _put(value, view):
    if view is None:
        return value
    view[...] = value
    return view


def _k_matmul(vals, n, view, tape, p):
    a, b = vals[n.inputs[0]], vals[n.inputs[1]]
    return _put(p.hooks.product(p.role, n, "W", a, b, tape), view)


def _k_lora_matmul(vals, n, view, tape, p):
    hooks, role = p.hooks, p.role
    w, x = vals[n.inputs[0]], vals[n.inputs[1]]
    out = hooks.product(role, n, "W", w, x, tape)
    if n.id not in p.lora:
        return _put(out, view)
    a_fac, b_fac, alpha = p.lora[n.id]
    bx = hooks.product(role, n, "B", b_fac, x, tape)
    abx = hooks.product(role, n, "A", a_fac, bx, tape)
    return _add(out, _scale(abx, alpha, tape), tape, view)


def _k_add(vals, n, view, tape, p):
    return _add(vals[n.inputs[0]], vals[n.inputs[1]], tape, view)


def _k_scale(vals, n, view, tape, p):
    return _scale(vals[n.inputs[0]], vals[n.inputs[1]], tape, view)


def _k_concat(vals, n, view, tape, p):
    return _concat([vals[t] for t in n.inputs], int(n.attrs["axis"]), tape, view)


def _k_activation(vals, n, view, tape, p):
    return _put(_act(vals[n.inputs[0]], n.attrs["kind"], tape), view)


def _k_quantize(vals, n, view, tape, p):
    return _put(qp.quantize_array(vals[n.inputs[0]], n.attrs["qparams"]), view)


def _k_dequantize(vals, n, view, tape, p):
    return _put(qp.dequantize_array(vals[n.inputs[0]], n.attrs["qparams"]), view)


def _k_qlinear(vals, n, view, tape, p):
    ins, attrs = n.inputs, n.attrs
    y = qp.int_matmul(vals[ins[0]], attrs["w_qparams"], vals[ins[1]], attrs["in_qparams"])
    if len(ins) > 2:
        y = y + qp.dequantize_array(vals[ins[2]], attrs["bias_qparams"])
    return _put(qp.quantize_array(y, attrs["out_qparams"]), view)


def _k_qlora(vals, n, view, tape, p):
    """add(W x, scale(A (B x), alpha)), as the unfused adapter layer computes it.

    B and A arrive in the form ``runtime.bind_lora`` prepares them once
    per bind: B as its centred levels q_b - z_b in float64, A
    dequantized to fp32.  (As stored, a graph holds the slots' levels
    instead, and running it raises ``ShapeError``.)  So a step centres
    only q_x and, one row tile at a time, q_w.  W x and B x are exact
    integer products on one centring of q_x (``qparams.tiled_matmul`` and
    ``scaled_matmul``), and A (B x) is the fp32 ``tensor.matmul``.  The
    2**53 bound of both products depends only on the shapes and the
    parameters, so the session checks it once, at load, not here.
    """
    ins, attrs = n.inputs, n.attrs
    q_w, q_x, c_b, a, alpha = vals[ins[0]], vals[ins[1]], vals[ins[2]], vals[ins[3]], vals[ins[4]]
    p_w, p_x, p_b = attrs["w_qparams"], attrs["in_qparams"], attrs["b_qparams"]
    c_x = qp.centered_levels(q_x, p_x)
    s_x = np.float64(p_x.scale)
    out = qp.tiled_matmul(q_w, p_w, c_x, np.float64(p_w.scale) * s_x)
    abx = tz.matmul(a, qp.scaled_matmul(c_b, c_x, np.float64(p_b.scale) * s_x))
    abx *= alpha.reshape(())
    return np.add(out, abx, out=out if view is None else view)


def _k_requant(vals, n, view, tape, p):
    q = n.attrs["qparams"]
    out = qp.dequantize_array(qp.quantize_array(vals[n.inputs[0]], q), q)
    if "activation" in n.attrs:
        out = tz.activation(out, n.attrs["activation"])
    return _put(out, view)


_KERNELS = {"matmul": _k_matmul, "lora_matmul": _k_lora_matmul, "add": _k_add,
            "scale": _k_scale, "concat": _k_concat, "activation": _k_activation,
            "quantize": _k_quantize, "dequantize": _k_dequantize, "qlinear": _k_qlinear,
            "qlora": _k_qlora, "requant": _k_requant}


def _check_entry_shapes(node, w, entry):
    d_out, d_in = w.shape
    r = entry.A.shape[1]
    if entry.A.shape != (d_out, r) or entry.B.shape != (r, d_in):
        raise ShapeError(
            f"node {node.id}: adapter factors {entry.A.shape}/{entry.B.shape} "
            f"do not match weight {w.shape}"
        )
    r_max = int(node.attrs.get("rank", r))
    if r > r_max:
        raise ShapeError(f"node {node.id}: adapter rank {r} exceeds slot rank {r_max}")


def check_adapter(bundle: ModelBundle, adapter: LoRAAdapter):
    """Adapter entries must target existing backbone lora nodes with matching shapes."""
    by_id = {n.id: n for n in bundle.backbone.lora_nodes()}
    for nid, entry in adapter.entries.items():
        if nid not in by_id:
            raise BindError(f"adapter {adapter.adapter_id!r} targets unknown lora node {nid}")
        w = bundle.backbone.constants[by_id[nid].inputs[0]]
        _check_entry_shapes(by_id[nid], w, entry)


def validate_bundle(bundle: ModelBundle, descriptors=()) -> dict:
    """The structural contract of a bundle, built or loaded; role -> ``validate(g)``.

    Each graph is valid with exactly one output, and only the backbone
    holds adapter layers (``lora_matmul`` or ``qlora`` nodes).  The step
    count is positive.  The encoder and decoder take one input; the
    backbone takes the latent, the conditioning and three inputs (A, B,
    alpha) per slot descriptor, each the input its descriptor names: A
    and B in the storage dtype of the descriptor's parameters, alpha
    fp32.  The latent passes unchanged in shape and dtype from the
    encoder through the backbone to the decoder.  A built bundle has no
    descriptors yet.
    """
    info = {}
    for role, g in bundle.graphs():
        info[role] = validate(g)
        if role != "backbone" and any(n.kind in ("lora_matmul", "qlora") for n in g.nodes):
            raise GraphError(f"{role} graph may not contain adapter layers")
        if len(g.outputs) != 1:
            raise GraphError(f"{role} graph must have exactly one output")
    if bundle.steps < 1:
        raise GraphError("bundle step count must be positive")
    enc, bb, dec = bundle.encoder, bundle.backbone, bundle.decoder
    if (len(enc.inputs), len(bb.inputs), len(dec.inputs)) != (1, 2 + 3 * len(descriptors), 1):
        raise GraphError("encoder and decoder take one input, the backbone the latent, "
                         "the conditioning and three per adapter slot")
    chain = (info["encoder"][enc.outputs[0][1]], info["backbone"][bb.inputs[0].tid],
             info["backbone"][bb.outputs[0][1]], info["decoder"][dec.inputs[0].tid])
    if len(set(chain)) != 1:
        raise GraphError(f"latent shapes and dtypes differ along the pipeline: {chain}")
    inputs = {gi.tid: gi for gi in bb.inputs}
    for d in descriptors:
        for tid, name, shape, dtype in ((d.a_tid, d.a_name, d.a_shape, storage_name(d.a_params)),
                                        (d.b_tid, d.b_name, d.b_shape, storage_name(d.b_params)),
                                        (d.alpha_tid, d.alpha_name, (1,), "fp32")):
            gi = inputs.get(tid)
            if gi is None or (gi.name, tuple(gi.shape), gi.dtype) != (name, shape, dtype):
                raise GraphError(f"slot {d.slot_id}: no backbone input {name} {shape} {dtype} at tensor {tid}")
    return info


def run_bundle(bundle: ModelBundle, x, cond, adapter=None, *, noise_seed=0,
               hooks=NULL_HOOKS, tape=None, programs=None) -> np.ndarray:
    """Encoder -> seeded noise -> `steps` backbone passes -> decoder.

    ``noise_seed`` is one seed, or a sequence of them, one per column
    block: ``x`` and ``cond`` then hold that many samples side by side
    (``stack_samples``), and block i of the latent gets the noise of
    seed i alone.  Every kernel keeps column blocks apart (``blockwise``)
    and ``tensor.matmul`` gives a column the same bits among any others,
    so each block of the output (``split_blocks``) has the bits of its
    own run, while the run prepares each graph and dispatches each node
    once for all of them.

    ``programs`` maps each role to its graph prepared (``prepare``), as a
    runtime session holds them; then ``adapter``, ``hooks`` and ``tape``
    are the ones they were prepared with.  Without it each graph is
    prepared here, once for this call, so the hooks see each adapter
    factor once per run, not once per backbone pass.
    """
    seeds = [noise_seed] if np.ndim(noise_seed) == 0 else list(noise_seed)
    blocks = len(seeds)
    if programs is None:
        programs = {role: prepare(g, role=role, adapter=adapter if role == "backbone" else None,
                                  hooks=hooks, tape=tape)
                    for role, g in bundle.graphs()}
    enc = run_graph(bundle.encoder, {bundle.encoder.inputs[0].name: x},
                    program=programs["encoder"], tape=tape, blocks=blocks)
    z = next(iter(enc.values()))
    rows, cols = z.shape[0], z.shape[1] // blocks
    noise = np.concatenate([Rng(s).normal((rows, cols)) for s in seeds], axis=1)
    z = _add(z, noise, tape)
    z_name = bundle.backbone.inputs[0].name
    c_name = bundle.backbone.inputs[1].name
    for _ in range(bundle.steps):
        out = run_graph(bundle.backbone, {z_name: z, c_name: cond},
                        program=programs["backbone"], tape=tape, blocks=blocks)
        z = next(iter(out.values()))
    dec = run_graph(bundle.decoder, {bundle.decoder.inputs[0].name: z},
                    program=programs["decoder"], tape=tape, blocks=blocks)
    return next(iter(dec.values()))


def stack_samples(samples) -> tuple:
    """(x, cond) of ``samples`` side by side, one column block per sample,
    as ``run_bundle`` takes them; a sample may carry more than (x, cond)."""
    return tuple(np.concatenate([s[i] for s in samples], axis=1) for i in (0, 1))


def split_blocks(out: np.ndarray, blocks: int) -> list:
    """The ``blocks`` column blocks of a run's output, as views."""
    return np.split(out, blocks, axis=1)


def execute_fp(bundle: ModelBundle, x, cond, adapter=None, noise_seed=0) -> np.ndarray:
    """Full-precision forward pass; deterministic for fixed inputs and seed.
    ``noise_seed`` may be one seed per column block (``run_bundle``)."""
    if adapter is not None:
        check_adapter(bundle, adapter)
    return run_bundle(bundle, x, cond, adapter, noise_seed=noise_seed)


def attach_lora_static(g: Graph, adapter: LoRAAdapter) -> Graph:
    """Bake adapter factors into the targeted weights: W <- W + alpha * A @ B.

    Models the baseline deployment where every task ships its own merged
    graph.  Targets are addressed by node id, so attaching twice
    accumulates the update twice.
    """
    out = g.copy()
    by_id = {n.id: n for n in out.nodes}
    for nid, entry in adapter.entries.items():
        if nid not in by_id:
            raise GraphError(f"adapter targets missing node {nid}")
        node = by_id[nid]
        if node.kind not in ("lora_matmul", "matmul"):
            raise GraphError(f"node {nid} is not a linear layer")
        w_tid = node.inputs[0]
        if w_tid not in out.constants:
            raise GraphError(f"node {nid}: weight {w_tid} is not a constant")
        w = out.constants[w_tid]
        _check_entry_shapes(node, w, entry)
        ab = tz.matmul(entry.A, entry.B)
        out.constants[w_tid] = w + ab * np.float32(entry.alpha)
        node.kind = "matmul"
        node.attrs.pop("rank", None)
    return out
