"""Graph rewriting, optimization passes, and the frozen binary formats.

The deployment flow turns a bundle with adapter-capable layers into one
immutable artifact plus small per-task archives:

    constant_fold -> dead_code_eliminate -> materialize_quantsim
        -> scale_fold -> rewrite_lora_as_input -> _fuse_requant
        -> dead_code_eliminate -> graph.validate -> freeze (.quadm)

Each graph is checked once, when its last pass is done, as LLVM's pass
manager verifies a module at the pipeline's ends and after every pass
only on request (Lattner & Adve, CGO 2004); the tests check the graph
every pass returns.  A pass never mutates a node it did not create: it
shares every node it keeps with its input and builds only the nodes it
replaces, so compiling leaves the caller's bundle as it was.
``materialize_quantsim``, which rewires the inputs of the nodes it
keeps, copies them first.  A pass reads node attributes with ``get``,
so that one a malformed bundle lacks reaches the check, not a
``KeyError``; ``rewrite_lora_as_input`` checks the rank it drops.

The artifact holds the graphs a runtime session runs, node for node,
each stored as fixed-width column tables (nodes, operands, attributes
and constants) that index one string table and one table of unique
quantization parameters per file, so a load decodes a table in a few
array reads, as TFLite Micro reads its model's flat tables in place
(David et al. 2020, arXiv:2010.08678).

Adapters are packed separately (.qlp) with their factors quantized at
the boundary under the shared slot parameters, so any pack can be bound
into the one compiled model at run time.  A pack is a header, one
fixed-size record per slot (``SLOT_RECORD``) and one block of every
slot's B and A levels in one dtype, so a bind reads it as two arrays,
checks it a column at a time and prepares it in a few array operations
per run of equally shaped slots, as S-LoRA keeps every adapter's
weights in one pool (Sheng et al. 2023, arXiv:2311.03285).

Both formats are little-endian with a crc32 over the payload.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import quant as qt
from . import tensor as tz
from .errors import CoverageError, FormatError, GraphError, PackError, ShapeError
from .qparams import SUPPORTED_BITS, QuantParams, quantize_array, round_levels, storage_dtype

MODEL_MAGIC = b"QADM"
PACK_MAGIC = b"QLPK"
# One format version per magic.  Model version 1 held the graphs before
# the fusions of ``optimize_for_freeze``, version 2 the unread profile
# text.  Version 3 had no ``requant`` that emits levels (``out_qparams``),
# and a version-3 reader would run one as if it emitted fp32.
# Version 4 wrote each node as a record of its own, with its attribute
# keys as strings and its parameters inline.
# Pack version 1 held a parameter record and two QTNS headers per slot,
# in any slot order.
FORMAT_VERSIONS = {MODEL_MAGIC: 5, PACK_MAGIC: 2}

_ROLE_CODES = {"encoder": 0, "backbone": 1, "decoder": 2}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}
# The node kinds an artifact can hold.  Codes 1 and 3 belonged to the
# retired conv2d and mul kinds and stay unassigned.
_KIND_CODES = {"matmul": 0, "add": 2, "scale": 4, "concat": 5, "activation": 6, "lora_matmul": 7,
               "quantize": 8, "dequantize": 9, "qlinear": 10, "qlora": 11, "requant": 12}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_FP32_MAX = float(np.finfo(np.float32).max)


@dataclass
class LoRASlotDescriptor:
    slot_id: int
    target_node_id: int
    a_tid: int
    b_tid: int
    alpha_tid: int
    d_out: int
    d_in: int
    r_max: int
    bits: int
    a_params: QuantParams
    b_params: QuantParams

    @property
    def a_shape(self):
        return (self.d_out, self.r_max)

    @property
    def b_shape(self):
        return (self.r_max, self.d_in)

    @property
    def a_name(self):
        return f"lora{self.target_node_id}.A"

    @property
    def b_name(self):
        return f"lora{self.target_node_id}.B"

    @property
    def alpha_name(self):
        return f"lora{self.target_node_id}.alpha"


@dataclass
class CompiledModel:
    name: str
    creation_seed: int
    steps: int
    graphs: dict                 # role -> Graph
    descriptors: list
    shapes: dict                 # role -> tid -> (shape, dtype) from load; not serialized


# ---------------------------------------------------------------------------
# LoRA-as-input rewrite


def rewrite_lora_as_input(g: gr.Graph, shared: qt.QuantProfile):
    """Expose adapter factors as graph inputs of a quantized graph.

    Each adapter layer ``lora_matmul [dequantize(q_w), dequantize(q_x)]``,
    as ``materialize_quantsim`` leaves it, becomes one ``qlora [q_w, q_x,
    B, A, alpha]`` with the layer's id, output and place: y = W x + alpha
    * A (B x), with B and A new graph inputs in their slot parameters'
    storage dtype and alpha a new fp32 input; the frozen weight is never
    merged.  A dequantize that no other node reads goes with its layer.
    A layer whose weight is not a dequantized constant or whose input is
    not dequantized raises ``GraphError``; one whose weight is not 2-D
    or whose rank is not between 1 and the weight's smaller extent
    raises ``ShapeError``, since no ``qlora`` keeps the rank for a later
    check to see.  A descriptor's ``bits`` is its slot parameters' one
    width, else ``CoverageError``.  Returns (graph, slot descriptors).
    """
    producer = g.producer_map()
    tids = itertools.count(g.next_tid())
    inputs, descriptors, fused = list(g.inputs), [], {}
    for slot_id, node in enumerate(sorted(g.lora_nodes(), key=lambda n: n.id)):
        dq_w, dq_x = (producer.get(t) for t in node.inputs)
        if not (dq_w and dq_x and dq_w.kind == dq_x.kind == "dequantize" and dq_w.inputs[0] in g.constants):
            raise GraphError(f"lora node {node.id}: operands are not a dequantized constant weight "
                             "and a dequantized input")
        a_params = shared.lora(node.id, "A")
        b_params = shared.lora(node.id, "B")
        if a_params is None or b_params is None:
            raise CoverageError(f"shared profile lacks slot params for lora node {node.id}")
        if a_params.bits != b_params.bits:
            raise CoverageError(f"lora node {node.id}: slot params A/B are {a_params.bits}/"
                                f"{b_params.bits} bits, not one width")
        q_w = dq_w.inputs[0]
        shape, rank = g.constants[q_w].shape, int(node.attrs.get("rank", 0))
        if len(shape) != 2:
            raise ShapeError(f"node {node.id}: lora_matmul weight of shape {shape}")
        if not 1 <= rank <= min(shape):
            raise ShapeError(f"node {node.id}: rank {rank} exceeds min{shape}")
        d_out, d_in = shape
        desc = LoRASlotDescriptor(
            slot_id=slot_id, target_node_id=node.id,
            a_tid=next(tids), b_tid=next(tids), alpha_tid=next(tids),
            d_out=d_out, d_in=d_in, r_max=rank,
            bits=a_params.bits, a_params=a_params, b_params=b_params,
        )
        descriptors.append(desc)
        inputs += (gr.GraphInput(desc.a_name, desc.a_tid, desc.a_shape, gr.storage_name(a_params)),
                   gr.GraphInput(desc.b_name, desc.b_tid, desc.b_shape, gr.storage_name(b_params)),
                   gr.GraphInput(desc.alpha_name, desc.alpha_tid, (1,)))
        fused[id(node)] = gr.Node(
            node.id, "qlora", [q_w, dq_x.inputs[0], desc.b_tid, desc.a_tid, desc.alpha_tid], node.output,
            {"w_qparams": dq_w.attrs.get("qparams"), "in_qparams": dq_x.attrs.get("qparams"),
             "b_qparams": b_params, "a_qparams": a_params})
    out = gr.rebuild(g, fused, set())
    out.inputs = inputs
    return out, descriptors


# ---------------------------------------------------------------------------
# Optimization passes


_FOLDABLE = ("matmul", "add", "scale", "concat", "activation", "quantize", "dequantize", "qlinear")


def constant_fold(g: gr.Graph) -> gr.Graph:
    """Evaluate every all-constant subgraph at compile time.

    Adapter-capable layers are never folded: their value depends on the
    runtime-bound factors.  Outputs are bit-exact because folding runs
    the same kernels execution would.  Nodes are in topological order,
    so one forward pass sees each folded value before its consumers.
    The result shares the kept nodes, the inputs and the constant
    arrays with ``g``; only its node list and constant dict are new.
    """
    constants, kept = dict(g.constants), []
    for node in g.nodes:
        if node.kind not in _FOLDABLE or not all(t in constants for t in node.inputs):
            kept.append(node)
            continue
        probe = gr.Graph(nodes=[node], inputs=[], outputs=[("v", node.output)],
                         constants={t: constants[t] for t in node.inputs})
        constants[node.output] = gr.run_graph(probe, {})["v"]
    return gr.Graph(kept, g.inputs, g.outputs, constants)


def dead_code_eliminate(g: gr.Graph) -> gr.Graph:
    """Drop nodes that reach no graph output; prune unused constants.

    The result shares the kept nodes, the inputs and the constant
    arrays with ``g``.
    """
    live = {tid for _, tid in g.outputs}
    for node in reversed(g.nodes):
        if node.output in live:
            live.update(node.inputs)
    return gr.Graph([n for n in g.nodes if n.output in live], g.inputs, g.outputs,
                    {t: v for t, v in g.constants.items() if t in live})


def materialize_quantsim(g: gr.Graph, profile: qt.QuantProfile, role: str) -> gr.Graph:
    """Insert explicit quantize/dequantize structure for compilation.

    Weight constants become integer payloads behind dequantize nodes,
    an adapter layer's weight too; activations with profile entries get
    a quantize/dequantize pair.  Rewritten and fused as
    ``optimize_for_freeze`` does it, the result computes bit-identically
    to hook-based quantsim.

    The result's nodes and inputs are copies, since rewiring changes
    the input lists of the nodes it keeps; the unchanged constant arrays
    are shared.  Node order: the pairs of the covered inputs (last input
    first), then the weight dequantizes (last first), then the original
    nodes, each covered one followed by its pair.  Tensor and node ids
    are allocated upward from the graph's next free ones in the order
    weights, covered inputs, nodes.
    """
    out = g.copy()
    tids = itertools.count(out.next_tid())
    node_ids = itertools.count(out.next_node_id())

    consumers = {}
    for n in out.nodes:
        for pos, t in enumerate(n.inputs):
            consumers.setdefault(t, []).append((n, pos))

    def rewire(old_tid, new_tid):
        moved = consumers.pop(old_tid, [])
        for n, pos in moved:
            n.inputs[pos] = new_tid
        consumers[new_tid] = moved
        out.outputs = [(name, new_tid if t == old_tid else t) for name, t in out.outputs]

    def dequantize(tid, p):
        dq = gr.Node(next(node_ids), "dequantize", [tid], next(tids), {"qparams": p})
        rewire(tid, dq.output)
        return dq

    def act_pair(tid, p):
        qn = gr.Node(next(node_ids), "quantize", [tid], next(tids), {"qparams": p})
        dqn = gr.Node(next(node_ids), "dequantize", [qn.output], next(tids), {"qparams": p})
        rewire(tid, dqn.output)
        return [qn, dqn]

    # weights: integer payload + dequantize
    weight_dqs = []
    for tid in gr.weight_tids(g):
        p = profile.weight(role, tid)
        if p is None:
            raise CoverageError(f"profile does not cover {role}.w.{tid}")
        out.constants[tid] = quantize_array(out.constants[tid], p)
        weight_dqs.append(dequantize(tid, p))

    # covered activations get a quantize/dequantize pair
    acts = {tid: p for tid in gr.act_tids(g) if (p := profile.act(role, tid)) is not None}
    input_pairs = [act_pair(gi.tid, acts[gi.tid]) for gi in out.inputs if gi.tid in acts]

    nodes = [n for pair in reversed(input_pairs) for n in pair]
    nodes += reversed(weight_dqs)
    for node in out.nodes:
        nodes.append(node)
        if node.output in acts:
            nodes += act_pair(node.output, acts[node.output])
    out.nodes = nodes
    return out


def scale_fold(g: gr.Graph) -> gr.Graph:
    """Fuse dequantize -> matmul [-> bias add] -> quantize into one qlinear node.

    The quantization parameters move into the fused node's attributes,
    removing the standalone arithmetic nodes around each linear layer.
    The fused kernel computes the product as QuantSim computes it for
    the unfused nodes, the exact integer product of the two operands'
    levels, so integer results are preserved bit-for-bit.  Patterns
    that do not match (for example the runtime adapter path, which has
    no output quantizer) are left untouched.  Each ``qlinear`` takes its
    ``matmul``'s id and place; the unchanged nodes are shared with ``g``.
    """
    dequantized = {n.output: n for n in g.nodes if n.kind == "dequantize"}.get
    users = g.consumers()

    def sole(tid):
        """The one reader of ``tid``, when no other node or graph output reads it."""
        u = users.get(tid, ())
        return u[0] if len(u) == 1 else None

    fused, gone = {}, set()
    for node in g.nodes:
        if node.kind != "matmul":
            continue
        dq_w, dq_x = (dequantized(t) for t in node.inputs)
        tail = sole(node.output)
        if dq_w is None or dq_x is None or tail is None:
            continue
        chain, bias_dq = [tail], None
        if tail.kind == "add":
            bias_dq = dequantized(tail.inputs[0] if tail.inputs[1] == node.output else tail.inputs[1])
            if bias_dq is None or bias_dq.inputs[0] not in g.constants:
                continue
            tail = sole(tail.output)
            chain.append(tail)
        if tail is None or tail.kind != "quantize":
            continue
        attrs = {
            "op": "matmul",
            "w_qparams": dq_w.attrs.get("qparams"),
            "in_qparams": dq_x.attrs.get("qparams"),
            "out_qparams": tail.attrs.get("qparams"),
        }
        inputs = [dq_w.inputs[0], dq_x.inputs[0]]
        if bias_dq is not None:
            attrs["bias_qparams"] = bias_dq.attrs.get("qparams")
            inputs.append(bias_dq.inputs[0])
        fused[id(node)] = gr.Node(node.id, "qlinear", inputs, tail.output, attrs)
        gone.update(id(n) for n in chain)
    return gr.rebuild(g, fused, gone)


def _fuse_requant(g: gr.Graph) -> gr.Graph:
    """``quantize -> dequantize [-> activation] [-> quantize]`` -> ``requant``.

    Each link's output is read once, by the next link, and both ends of
    the pair hold the same parameters.  A last ``quantize`` moves its
    parameters into ``out_qparams``, so the ``requant`` emits the next
    layer's input levels, as a ``qlinear`` does; one that heads a pair
    of its own stays, to become that pair's ``requant``.
    """
    users = g.consumers()

    def sole(tid, kind):
        u = users.get(tid, ())
        return u[0] if len(u) == 1 and u[0] is not None and u[0].kind == kind else None

    def pair(q):
        """The ``dequantize`` that ``q`` heads a pair with, or None."""
        dq = sole(q.output, "dequantize")
        return dq if dq is not None and dq.attrs.get("qparams") == q.attrs.get("qparams") else None

    fused, gone = {}, set()
    for n in g.nodes:
        if n.kind != "quantize":
            continue
        dq = pair(n)
        if dq is None:
            continue
        act = sole(dq.output, "activation")
        chain = [dq] if act is None else [dq, act]
        tail = sole(chain[-1].output, "quantize")
        if tail is not None and pair(tail) is None:
            chain.append(tail)
        attrs = {"qparams": n.attrs.get("qparams")}
        if act is not None:
            attrs["activation"] = act.attrs.get("kind")
        if chain[-1].kind == "quantize":
            attrs["out_qparams"] = chain[-1].attrs.get("qparams")
        last = chain.pop()
        fused[id(last)] = gr.Node(last.id, "requant", [n.inputs[0]], last.output, attrs)
        gone.update(id(x) for x in (n, *chain))
    return gr.rebuild(g, fused, gone)


def optimize_for_freeze(bundle: gr.ModelBundle, shared: qt.QuantProfile):
    """Run the full pass pipeline; returns (frozen-form bundle, descriptors).

    After ``scale_fold`` each adapter layer of the backbone becomes one
    ``qlora`` (``rewrite_lora_as_input``), then each ``quantize ->
    dequantize [-> activation]`` chain one ``requant``, which runs the
    chain's kernels in its order, with the ``quantize`` of the next
    layer's input where that alone reads the chain.  A fused node takes
    the id and the output tensor of its chain's last node and stands
    where that node stood, so the order stays topological.  A ``qlora``
    reads its ``q_x`` itself, so the ``quantize`` of an adapter layer's
    input starts no ``requant``.  The last ``dead_code_eliminate`` drops
    the ``requant`` of a covered input that nothing reads.

    Each finished graph is checked once, by ``graph.validate``, after
    its last pass; no pass checks its own result.  Before the first pass
    only node ids and operand counts are checked (``graph.check_node_ids``,
    ``graph.check_operand_counts``): a fusion can retire a node whose id
    another holds, and the passes unpack operands by kind.  A malformed
    bundle raises ``GraphError``, ``CycleError`` or ``ShapeError`` from
    those checks or from the pass that meets the defect first.  Any other
    defect only in nodes the passes drop, dead or fused away, is not
    reported.  The bundle is left as it was: the passes share its nodes
    and constant arrays and change none.
    """
    qt.check_coverage(shared, bundle)
    graphs, descriptors = {}, []
    for role, g in bundle.graphs():
        gr.check_node_ids(g)
        gr.check_operand_counts(g)
        g = constant_fold(g)
        g = dead_code_eliminate(g)
        g = materialize_quantsim(g, shared, role)
        g = scale_fold(g)
        if role == "backbone":
            g, descriptors = rewrite_lora_as_input(g, shared)
        g = dead_code_eliminate(_fuse_requant(g))
        gr.validate(g)
        graphs[role] = g
    frozen = gr.ModelBundle(graphs["encoder"], graphs["backbone"], graphs["decoder"], bundle.steps)
    return frozen, descriptors


# ---------------------------------------------------------------------------
# Binary encoding helpers


def _utf8(s: str) -> bytes:
    """``s`` in UTF-8, at most 65535 bytes, the most a u16 length counts."""
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"a string of {len(raw)} bytes exceeds the format's 65535-byte limit")
    return raw


def _pack_str(s: str) -> bytes:
    raw = _utf8(s)
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(data, pos):
    (n,) = struct.unpack_from("<H", data, pos)
    pos += 2
    return str(data[pos:pos + n], "utf-8"), pos + n


# The tables of a ``.quadm`` (layout in ``freeze``), little-endian and
# unaligned.  A parameter record is the fp32 scale, the zero point, the
# bit width and the signedness.
_QPARAMS_RECORD = np.dtype([("scale", "<f4"), ("zero", "<i4"), ("bits", "u1"), ("signed", "u1")])
_INPUT_RECORD = np.dtype([("name", "<u4"), ("tid", "<u4"), ("dtype", "u1"), ("rank", "u1")])
_OUTPUT_RECORD = np.dtype([("name", "<u4"), ("tid", "<u4")])
_NODE_RECORD = np.dtype([("id", "<u4"), ("kind", "u1"), ("inputs", "u1"), ("output", "<u4"),
                         ("attrs", "u1")])
_ATTR_RECORD = np.dtype([("key", "<u4"), ("tag", "u1"), ("value", "<i4")])
_CONST_RECORD = np.dtype([("tid", "<u4"), ("dtype", "u1"), ("rank", "u1")])
_DESC_RECORD = np.dtype([
    ("slot_id", "<u4"), ("target", "<u4"), ("a_tid", "<u4"), ("b_tid", "<u4"), ("alpha_tid", "<u4"),
    ("d_out", "<u4"), ("d_in", "<u4"), ("r_max", "<u4"), ("bits", "u1"), ("a_params", "<u4"),
    ("b_params", "<u4")])
_U4 = np.dtype("<u4")
_GRAPH_HEAD = struct.Struct("<IIII")   # the input, output, node and constant counts

# Attribute value tags: an int, an index into the string table, or one
# into the parameter table.  Tags 1 (float) and 4 (int tuple) are
# retired: no node attribute takes such a value, and a payload holding
# one is malformed.
_ATTR_INT, _ATTR_STR, _ATTR_QPARAMS = 0, 2, 3


@functools.lru_cache(maxsize=None)
def _row_struct(record: np.dtype) -> struct.Struct:
    """The ``struct`` layout of one ``record``, little-endian and unaligned."""
    return struct.Struct("<" + "".join(record[f].char for f in record.names))


def _rows(record: np.dtype, /, **columns) -> bytes:
    """The bytes of a table of ``record``s, a row per element of its
    equally long columns, one given per field.  ``struct`` packs them
    straight from the columns, faster than filling an array does at
    every table size a model has."""
    return b"".join(map(_row_struct(record).pack, *(columns[f] for f in record.names)))


def _u4s(values) -> bytes:
    """``values`` as one little-endian u4 array."""
    return struct.pack(f"<{len(values)}I", *values)


def _table(data, pos: int, dtype, count: int):
    """``count`` rows of ``dtype`` at ``pos`` (a short payload raises
    ValueError); returns (rows, the position after them)."""
    rows = np.frombuffer(data, dtype, count, pos)
    return rows, pos + rows.nbytes


def _runs(values: list, counts: list) -> list:
    """``values`` cut into consecutive runs of ``counts`` items, each a list."""
    ends = list(itertools.accumulate(counts, initial=0))
    return [values[a:b] for a, b in zip(ends, ends[1:])]


def _tensor_numbers(g: gr.Graph, ids: dict) -> dict:
    """Number each tensor id of ``g`` in ``ids`` (id -> number) in the
    order ids are first written: the inputs, the outputs, each node's
    inputs and output, then any constant no node reads, by id."""
    for t in itertools.chain((gi.tid for gi in g.inputs), (t for _, t in g.outputs),
                             *((*n.inputs, n.output) for n in g.nodes), sorted(g.constants)):
        ids.setdefault(t, len(ids))
    return ids


def _string_index(graphs) -> dict:
    """string -> its index in the sorted string table of ``graphs``: every
    input and output name, attribute key and string attribute value."""
    found = set()
    for g in graphs:
        found.update(gi.name for gi in g.inputs)
        found.update(name for name, _ in g.outputs)
        for n in g.nodes:
            found.update(n.attrs)
            found.update(v for v in n.attrs.values() if isinstance(v, str))
    return {s: i for i, s in enumerate(sorted(found))}


def _param_index():
    """(records, index): ``index(p)`` is the row of ``p``'s record in the
    parameter table ``records`` (record -> row), which it extends in
    first-use order.  Parameters whose records are equal share one row.
    Rows are remembered by object, which the parameters of a model
    share widely, so a use costs no hash of the parameters; ``index``
    keeps each object it was given, so no id is reused while it lives."""
    records, memo = {}, {}

    def index(p: QuantParams) -> int:
        seen = memo.get(id(p))
        if seen is None:
            record = (float(np.float32(p.scale)), p.zero_point, p.bits, bool(p.signed))
            seen = memo[id(p)] = (records.setdefault(record, len(records)), p)
        return seen[0]

    return records, index


def _pack_strings(strings) -> bytes:
    """The string table: a u32 count, a u16 length per string, then the strings' UTF-8 bytes."""
    raws = list(map(_utf8, strings))
    return struct.pack(f"<I{len(raws)}H", len(raws), *map(len, raws)) + b"".join(raws)


def _unpack_strings(data, pos):
    (n,) = struct.unpack_from("<I", data, pos)
    lengths, pos = _table(data, pos + 4, "<u2", n)
    ends = list(itertools.accumulate(lengths.tolist(), initial=0))
    raw, pos = _table(data, pos, np.uint8, ends[-1])
    blob = raw.tobytes()
    return [str(blob[a:b], "utf-8") for a, b in zip(ends, ends[1:])], pos


def _attr_rows(nodes, strings: dict, param) -> bytes:
    """Each node's attributes in key order, a (key, tag, value) row each."""
    keys, tags, values = [], [], []
    for n in nodes:
        for key in sorted(n.attrs):
            v = n.attrs[key]
            if isinstance(v, QuantParams):
                tag, v = _ATTR_QPARAMS, param(v)
            elif isinstance(v, bool):
                raise FormatError(f"boolean attr {key} unsupported")
            elif isinstance(v, (int, np.integer)):
                tag, v = _ATTR_INT, int(v)
            elif isinstance(v, str):
                tag, v = _ATTR_STR, strings[v]
            else:
                raise FormatError(f"cannot serialize attr {key}={v!r}")
            keys.append(strings[key])
            tags.append(tag)
            values.append(v)
    return _rows(_ATTR_RECORD, key=keys, tag=tags, value=values)


def _attr_dicts(rows: np.ndarray, counts: list, strings: list, params: list) -> list:
    """The attribute dict of each node, ``counts`` rows each, the values
    resolved through the string and parameter tables."""
    tags = rows["tag"].tolist()
    unknown = set(tags).difference((_ATTR_INT, _ATTR_STR, _ATTR_QPARAMS))
    if unknown:
        raise FormatError(f"unknown attr tag {min(unknown)}")
    values = rows["value"]
    if (values[rows["tag"] != _ATTR_INT] < 0).any():
        raise FormatError("negative string or parameter index in an attribute")
    tables = {_ATTR_STR: strings, _ATTR_QPARAMS: params}
    resolved = [v if t == _ATTR_INT else tables[t][v] for t, v in zip(tags, values.tolist())]
    pairs = zip([strings[k] for k in rows["key"].tolist()], resolved)
    return [dict(itertools.islice(pairs, k)) for k in counts]


def _pack_graph(g: gr.Graph, strings: dict, param, ids=None) -> bytes:
    """The graph's section, each tensor id written as its dense number.

    Numbers are given in the order ids are first written
    (``_tensor_numbers``); constants follow in number order.  A loaded
    graph is numbered so already, and writes the same bytes.  A dict
    given as ``ids`` receives each id's number.  Names, attribute keys
    and string values are written as indices into ``strings``, and
    parameters as the rows ``param`` gives them (``_param_index``).
    Layout: ``_GRAPH_HEAD``, then an ``_INPUT_RECORD`` per input, then the
    inputs' extents as one u4 array; an ``_OUTPUT_RECORD`` per output;
    a ``_NODE_RECORD`` per node, then every node's input numbers as one
    u4 operand array, then every node's ``_ATTR_RECORD`` rows; a
    ``_CONST_RECORD`` per constant, then the constants' extents as one
    u4 array, then their elements, each constant's in C order.
    """
    ids = _tensor_numbers(g, {} if ids is None else ids)
    consts = sorted(g.constants, key=ids.get)
    arrays = [g.constants[t] for t in consts]
    return b"".join((
        _GRAPH_HEAD.pack(len(g.inputs), len(g.outputs), len(g.nodes), len(consts)),
        _rows(_INPUT_RECORD, name=[strings[gi.name] for gi in g.inputs],
              tid=[ids[gi.tid] for gi in g.inputs],
              dtype=[tz.DTYPE_CODES[gi.dtype] for gi in g.inputs],
              rank=[len(gi.shape) for gi in g.inputs]),
        _u4s([d for gi in g.inputs for d in gi.shape]),
        _rows(_OUTPUT_RECORD, name=[strings[name] for name, _ in g.outputs],
              tid=[ids[t] for _, t in g.outputs]),
        _rows(_NODE_RECORD, id=[n.id for n in g.nodes], kind=[_KIND_CODES[n.kind] for n in g.nodes],
              inputs=[len(n.inputs) for n in g.nodes], output=[ids[n.output] for n in g.nodes],
              attrs=[len(n.attrs) for n in g.nodes]),
        _u4s([ids[t] for n in g.nodes for t in n.inputs]),
        _attr_rows(g.nodes, strings, param),
        _rows(_CONST_RECORD, tid=[ids[t] for t in consts],
              dtype=[tz.DTYPE_CODES[tz.dtype_name(a)] for a in arrays],
              rank=[a.ndim for a in arrays]),
        _u4s([d for a in arrays for d in a.shape]),
        *map(tz.little_bytes, arrays)))


def section_size(g: gr.Graph) -> int:
    """The bytes of ``g``'s section in a ``.quadm`` (``_pack_graph``).  The
    section's indices are fixed-width, so numbering its strings and
    parameters by ``g`` alone gives it the length it has in any file."""
    return len(_pack_graph(g, _string_index([g]), _param_index()[1]))


def _unpack_graph(data, pos, strings, params):
    """One graph section (``_pack_graph``); returns (graph, end)."""
    n_in, n_out, n_nodes, n_const = _GRAPH_HEAD.unpack_from(data, pos)
    rows, pos = _table(data, pos + _GRAPH_HEAD.size, _INPUT_RECORD, n_in)
    ranks = rows["rank"].tolist()
    extents, pos = _table(data, pos, _U4, sum(ranks))
    inputs = list(map(gr.GraphInput, [strings[i] for i in rows["name"].tolist()], rows["tid"].tolist(),
                      list(map(tuple, _runs(extents.tolist(), ranks))),
                      [tz.DTYPE_NAMES[c] for c in rows["dtype"].tolist()]))
    rows, pos = _table(data, pos, _OUTPUT_RECORD, n_out)
    outputs = list(zip([strings[i] for i in rows["name"].tolist()], rows["tid"].tolist()))

    rows, pos = _table(data, pos, _NODE_RECORD, n_nodes)
    n_ins, n_attrs = rows["inputs"].tolist(), rows["attrs"].tolist()
    operands, pos = _table(data, pos, _U4, sum(n_ins))
    attrs, pos = _table(data, pos, _ATTR_RECORD, sum(n_attrs))
    nodes = list(map(gr.Node, rows["id"].tolist(), [_KIND_NAMES[k] for k in rows["kind"].tolist()],
                     _runs(operands.tolist(), n_ins), rows["output"].tolist(),
                     _attr_dicts(attrs, n_attrs, strings, params)))

    rows, pos = _table(data, pos, _CONST_RECORD, n_const)
    ranks = rows["rank"].tolist()
    extents, pos = _table(data, pos, _U4, sum(ranks))
    shapes = list(map(tuple, _runs(extents.tolist(), ranks)))
    names = [tz.DTYPE_NAMES[c] for c in rows["dtype"].tolist()]
    sizes = [math.prod(shape) * tz.itemsize(name) for shape, name in zip(shapes, names)]
    if pos + sum(sizes) > len(data):
        raise FormatError(f"constant data of {sum(sizes)} bytes, {len(data) - pos} left in the payload")
    constants = {}
    for tid, shape, name, size in zip(rows["tid"].tolist(), shapes, names, sizes):
        constants[tid] = tz.array_at(data, pos, shape, name)
        pos += size
    return gr.Graph(nodes, inputs, outputs, constants), pos


def _wrap_payload(magic: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    head = magic + struct.pack("<HHIQ", FORMAT_VERSIONS[magic], 0, crc, len(payload))
    return head + payload


@contextmanager
def _decoding(what: str):
    """Report a payload that passed its checksum but does not decode.

    Such a payload trips over a short read (struct.error), an unknown
    code (KeyError), bad UTF-8 or out-of-range parameters (ValueError,
    which covers the toolkit's RangeError and ShapeError).  A decoded
    model that breaks ``graph.validate_bundle`` raises GraphError, or
    IndexError where a node has fewer inputs than its kind reads.
    """
    try:
        yield
    except (struct.error, KeyError, IndexError, ValueError, GraphError) as exc:
        raise FormatError(f"malformed {what} payload: {type(exc).__name__}: {exc}") from exc


def _open_payload(magic: bytes, data: bytes) -> memoryview:
    """The checked payload of an artifact, a memoryview into ``data``.

    A ``bytearray`` (or any other buffer) is copied into ``bytes`` once,
    so the tensors read in place from the payload alias no memory the
    caller can change.
    """
    data = bytes(data)
    if len(data) < 20:
        raise FormatError("file too short")
    if data[:4] != magic:
        raise FormatError(f"bad magic {data[:4]!r}, expected {magic!r}")
    version, _flags, crc, length = struct.unpack_from("<HHIQ", data, 4)
    if version != FORMAT_VERSIONS[magic]:
        raise FormatError(f"unsupported {magic.decode()} format version {version}, "
                          f"expected {FORMAT_VERSIONS[magic]}")
    payload = memoryview(data)[20:]
    if len(payload) != length:
        raise FormatError(f"truncated payload: {len(payload)} of {length} bytes")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FormatError("payload checksum mismatch")
    return payload


# ---------------------------------------------------------------------------
# Freeze / load


def freeze(bundle: gr.ModelBundle, shared, descriptors,
           *, name: str = "model", creation_seed: int = 0) -> bytes:
    """Serialize an optimized bundle; byte-identical for identical inputs.

    The artifact holds the graphs and the slot descriptors; the profile
    ``shared`` is not read and stays for the callers that pass it.  Each
    graph is written in its own node order, which must be topological: a
    node that reads a tensor which it or a later node produces raises
    ``GraphError``.  Every other check is load's.  Tensor ids are written
    as dense numbers (``_pack_graph``), so a loaded graph's operand table
    (``graph.prepare``) holds one entry per tensor.

    Format version 5 stores every graph as fixed-width column tables, so
    a load decodes each table in a few array reads.  The payload is the
    u64 creation seed, the name, the u32 step count, then two tables
    that the graphs index: the strings, sorted (u32 count, one u16
    length per string, their UTF-8 bytes), and the unique quantization
    parameter records in first-use order (u32 count, one
    ``_QPARAMS_RECORD`` each).  Then a u8 graph count, and per graph its
    u8 role and its section (``_pack_graph``).  Last, a u32 slot count
    and one ``_DESC_RECORD`` per slot in ascending slot id, its tensors
    by their backbone numbers and its A and B parameters as rows of the
    parameter table.
    """
    for role, g in bundle.graphs():
        ahead = {n.output for n in g.nodes}
        for n in g.nodes:
            if ahead.intersection(n.inputs):
                raise GraphError(f"{role} node {n.id}: nodes are not in topological order")
            ahead.discard(n.output)
    strings = _string_index(g for _, g in bundle.graphs())
    records, param = _param_index()
    numbers = {role: {} for role in _ROLE_CODES}
    sections = [struct.pack("<B", _ROLE_CODES[role]) + _pack_graph(g, strings, param, numbers[role])
                for role, g in bundle.graphs()]
    # a slot's tensors by their backbone numbers; one the backbone lacks
    # gets a number no tensor has, which load refuses
    ids = numbers["backbone"]
    descs = sorted(descriptors, key=lambda d: d.slot_id)
    slots = _rows(_DESC_RECORD, slot_id=[d.slot_id for d in descs], target=[d.target_node_id for d in descs],
                  a_tid=[ids.get(d.a_tid, len(ids)) for d in descs],
                  b_tid=[ids.get(d.b_tid, len(ids)) for d in descs],
                  alpha_tid=[ids.get(d.alpha_tid, len(ids)) for d in descs],
                  d_out=[d.d_out for d in descs], d_in=[d.d_in for d in descs],
                  r_max=[d.r_max for d in descs], bits=[d.bits for d in descs],
                  a_params=[param(d.a_params) for d in descs], b_params=[param(d.b_params) for d in descs])
    scale, zero, bits, signed = zip(*records) if records else ((),) * 4
    parts = [struct.pack("<Q", creation_seed & 0xFFFFFFFFFFFFFFFF), _pack_str(name),
             struct.pack("<I", bundle.steps), _pack_strings(strings),
             struct.pack("<I", len(records)),
             _rows(_QPARAMS_RECORD, scale=scale, zero=zero, bits=bits, signed=signed),
             struct.pack("<B", len(sections)), *sections, struct.pack("<I", len(descs)), slots]
    return _wrap_payload(MODEL_MAGIC, b"".join(parts))


def load_compiled(data: bytes) -> CompiledModel:
    """Decode and check a ``.quadm`` (layout in ``freeze``).

    Each table is read with ``np.frombuffer`` and turned into Python
    values one column at a time (``.tolist()``), never row by row: a
    row would be a tuple, and freed tuples stay on CPython's free list.
    One ``QuantParams`` is built per parameter record, so equal
    parameters are one shared object.  A slot descriptor's ``bits`` must
    be the bit width of its A and B parameters.  Every constant is a
    read-only view into the artifact's bytes (``tensor.array_at``), so a
    loaded model holds each base weight once.  An unknown kind, tag or
    index, parameters out of range, a table longer than the payload,
    trailing bytes and a model that breaks ``graph.validate_bundle``
    raise ``FormatError``.
    """
    payload = _open_payload(MODEL_MAGIC, data)
    with _decoding("model"):
        (seed,) = struct.unpack_from("<Q", payload, 0)
        name, pos = _unpack_str(payload, 8)
        (steps,) = struct.unpack_from("<I", payload, pos)
        strings, pos = _unpack_strings(payload, pos + 4)
        (n_params,) = struct.unpack_from("<I", payload, pos)
        rows, pos = _table(payload, pos + 4, _QPARAMS_RECORD, n_params)
        params = list(map(QuantParams, rows["scale"].tolist(), rows["zero"].tolist(), rows["bits"].tolist(),
                          map(bool, rows["signed"].tolist())))
        (n_graphs,) = struct.unpack_from("<B", payload, pos)
        pos += 1
        graphs = {}
        for _ in range(n_graphs):
            (role_code,) = struct.unpack_from("<B", payload, pos)
            graphs[_ROLE_NAMES[role_code]], pos = _unpack_graph(payload, pos + 1, strings, params)
        (n_desc,) = struct.unpack_from("<I", payload, pos)
        rows, pos = _table(payload, pos + 4, _DESC_RECORD, n_desc)
        columns = [rows[f].tolist() for f in _DESC_RECORD.names[:-2]]
        a_params, b_params = ([params[i] for i in rows[f].tolist()] for f in ("a_params", "b_params"))
        descriptors = list(map(LoRASlotDescriptor, *columns, a_params, b_params))
        for d in descriptors:
            if not d.bits == d.a_params.bits == d.b_params.bits:
                raise FormatError(f"slot {d.slot_id}: bits {d.bits}, not its A/B "
                                  f"{d.a_params.bits}/{d.b_params.bits}")
        if pos != len(payload):
            raise FormatError("trailing bytes in model payload")
        if set(graphs) != {"encoder", "backbone", "decoder"}:
            raise FormatError("model must contain encoder, backbone, and decoder graphs")
        bundle = gr.ModelBundle(graphs["encoder"], graphs["backbone"], graphs["decoder"], steps)
        shapes = gr.validate_bundle(bundle, descriptors)
    return CompiledModel(name, seed, steps, graphs, descriptors, shapes)


# ---------------------------------------------------------------------------
# Adapter packs


# One slot record of a ``.qlp``: the slot's id, the adapter's rank and
# fp32 alpha, the slot's shape, then its A and B parameters, each as a
# ``_QPARAMS_RECORD``.  44 bytes, little-endian, unaligned.
SLOT_RECORD = np.dtype([
    ("slot_id", "<u4"), ("rank", "<u4"), ("alpha", "<f4"), ("d_out", "<u4"), ("d_in", "<u4"),
    ("r_max", "<u4"), ("a_scale", "<f4"), ("a_zero", "<i4"), ("a_bits", "u1"), ("a_signed", "u1"),
    ("b_scale", "<f4"), ("b_zero", "<i4"), ("b_bits", "u1"), ("b_signed", "u1")])


_SLOT_STRUCT = struct.Struct("<" + "".join(SLOT_RECORD[f].char for f in SLOT_RECORD.names))


def _slot_record(d: LoRASlotDescriptor, rank=0, alpha=0.0) -> bytes:
    a, b = d.a_params, d.b_params
    return _SLOT_STRUCT.pack(d.slot_id, rank, alpha, d.d_out, d.d_in, d.r_max,
                             a.scale, a.zero_point, a.bits, a.signed, b.scale, b.zero_point, b.bits, b.signed)


def slot_records(descriptors) -> bytes:
    """The records of ``descriptors``, in ascending slot id, with rank and
    alpha 0: what a pack for them holds but for those two fields."""
    return b"".join(map(_slot_record, sorted(descriptors, key=lambda d: d.slot_id)))


def slot_sizes(records: np.ndarray) -> list:
    """Each slot's level count in the block, r_max * (d_in + d_out), as ints."""
    return [r * (i + o) for o, i, r in zip(*(records[f].tolist() for f in ("d_out", "d_in", "r_max")))]


def _refuse_nan(slots) -> None:
    """Raise ``PackError`` for the first of ``slots``, (descriptor, entry)
    pairs, whose factors hold a NaN, which has no level."""
    for d, entry in slots:
        if math.isnan(entry.A.max(initial=0)) or math.isnan(entry.B.max(initial=0)):
            raise PackError(f"lora node {d.target_node_id}: a factor holds a NaN, which has no level")


def pack_lora(adapter: gr.LoRAAdapter, descriptors, shared=None) -> bytes:
    """Quantize adapter factors under the shared slot params and serialize.

    The payload is a header (adapter id, factor width, slot count), one
    ``SLOT_RECORD`` per slot in ascending slot id, then one level block:
    each slot's B levels (r_max x d_in), then its A levels (d_out x
    r_max), in slot order, all in the storage dtype of the slots' one
    width and signedness.  Slots of mixed widths or signedness raise
    ``PackError``; the profile ``shared`` is not read and stays for the
    callers that pass it.  Factors are zero-padded to the slot rank; a
    zero quantizes to exactly the zero point, which dequantizes to 0.  A
    NaN factor entry has no level, and alpha must lie in fp32's finite
    range.  Each run of consecutive slots of one shape is quantized
    whole, as ``bind_lora`` prepares it: the run's factors are divided
    by their slots' scales, a column of shape (n, 1, 1), and rounded by
    one ``qparams.round_levels``, which ``quantize_array`` does slot by
    slot with the same float64 arithmetic.  The run's stacked B and A
    are scanned for a NaN once each; only a run that holds one is
    scanned slot by slot, to name it.  A refused pack names its first
    failing slot in slot order.  Within a slot, a missing entry, a rank
    past the slot's or factors that do not fit it are named before a
    NaN, and a NaN before a non-finite alpha.
    """
    params = [p for d in descriptors for p in (d.a_params, d.b_params)]
    widths, signs = sorted({p.bits for p in params}), sorted({p.signed for p in params})
    if len(widths) != 1:
        raise PackError(f"the slots' factors must share one bit width, not {widths}")
    if len(signs) != 1:
        raise PackError(f"the slots' factors must share one signedness, not {signs}")
    descs = sorted(descriptors, key=lambda d: d.slot_id)
    records, entries = [], []
    for d in descs:
        entry = adapter.entries.get(d.target_node_id)
        if entry is None:
            problem = f"adapter {adapter.adapter_id!r} has no entry for lora node {d.target_node_id}"
        elif entry.rank > d.r_max:
            problem = f"adapter rank {entry.rank} exceeds slot rank {d.r_max}"
        elif entry.A.shape != (d.d_out, entry.rank) or entry.B.shape != (entry.rank, d.d_in):
            problem = (f"adapter factors {entry.A.shape}/{entry.B.shape} do not fit slot "
                       f"{d.a_shape}/{d.b_shape}")
        else:
            entries.append(entry)
            if abs(entry.alpha) <= _FP32_MAX:
                records.append(_slot_record(d, entry.rank, np.float32(entry.alpha)))
                continue
            problem = f"lora node {d.target_node_id}: alpha {entry.alpha} is not finite in fp32"
        # a NaN factor of an earlier slot, or of this one when it fits, is named first
        _refuse_nan(zip(descs, entries))
        raise PackError(problem)
    lo, hi = float(params[0].q_min), float(params[0].q_max)
    block = np.empty(sum(d.r_max * (d.d_in + d.d_out) for d in descs),
                     np.dtype(storage_dtype(*widths, *signs)).newbyteorder("<"))
    pos = 0
    for (d_out, d_in, r_max), run in itertools.groupby(zip(descs, entries),
                                                     key=lambda de: (de[0].d_out, de[0].d_in, de[0].r_max)):
        run = list(run)
        n, k = len(run), r_max * d_in
        b, a = np.zeros((n, r_max, d_in)), np.zeros((n, d_out, r_max))
        for i, (_, e) in enumerate(run):
            b[i, :e.rank] = e.B
            a[i, :, :e.rank] = e.A
        if math.isnan(b.max()) or math.isnan(a.max()):
            _refuse_nan(run)
        for levels, side in ((b, "b_params"), (a, "a_params")):
            p = [getattr(d, side) for d, _ in run]
            levels /= np.array([x.scale for x in p], np.float64).reshape(-1, 1, 1)
            round_levels(levels, np.array([x.zero_point for x in p], np.float64).reshape(-1, 1, 1), lo, hi)
        # each slot's B, then its A, cast into the block
        rows = block[pos:pos + b.size + a.size].reshape(n, -1)
        rows[:, :k] = b.reshape(n, k)
        rows[:, k:] = a.reshape(n, -1)
        pos += rows.size
    parts = [_pack_str(adapter.adapter_id), struct.pack("<BI", *widths, len(records)), *records,
             block.tobytes()]
    return _wrap_payload(PACK_MAGIC, b"".join(parts))


@dataclass
class PackedSlot:
    """One slot of a decoded pack; ``a_q`` and ``b_q`` are views of its
    level block."""
    slot_id: int
    rank: int
    alpha: float
    a_q: np.ndarray
    b_q: np.ndarray


@dataclass
class LoRAPack:
    adapter_id: str
    lora_bits: int
    records: np.ndarray   # SLOT_RECORD, one per slot in ascending slot id
    levels: np.ndarray    # the level block, one dtype, 1-D

    @property
    def slots(self) -> dict:
        """slot_id -> ``PackedSlot``, each factor a view of ``levels``."""
        out, pos = {}, 0
        for rec, size in zip(self.records.tolist(), slot_sizes(self.records)):
            slot_id, rank, alpha, d_out, d_in, r_max = rec[:6]
            n_b = r_max * d_in
            out[slot_id] = PackedSlot(slot_id, rank, alpha,
                                      self.levels[pos + n_b:pos + size].reshape(d_out, r_max),
                                      self.levels[pos:pos + n_b].reshape(r_max, d_in))
            pos += size
        return out


def unpack_lora(data: bytes) -> LoRAPack:
    """Decode a ``.qlp`` (layout in ``pack_lora``) into two read-only views
    of ``data``: the slot records and the level block.

    The slot ids must ascend strictly, the header's factor width must be
    every slot's A and B width, the slots must share one signedness, and
    the block must hold exactly the levels the records' shapes need;
    else ``FormatError``.  The block's dtype is the storage dtype of that
    width and signedness.  The parameters are not checked here: a bind
    compares them with its model's.  The checks read the records a
    column at a time as ints, which for a pack's few hundred values
    costs less than array arithmetic does.
    """
    payload = _open_payload(PACK_MAGIC, data)
    with _decoding("pack"):
        adapter_id, pos = _unpack_str(payload, 0)
        lora_bits, n_slots = struct.unpack_from("<BI", payload, pos)
        pos += 5
        records = np.frombuffer(payload, SLOT_RECORD, n_slots, pos)
        pos += records.nbytes
    if not n_slots:
        raise FormatError("a pack holds at least one slot")
    ids = records["slot_id"].tolist()
    if not all(map(operator.lt, ids, ids[1:])):
        raise FormatError(f"slot ids {ids} do not ascend strictly")
    kinds = [records[f].tolist() for f in ("a_bits", "b_bits", "a_signed", "b_signed")]
    signed = kinds[2][0]
    if sum(map(list.count, kinds, (lora_bits, lora_bits, signed, signed))) != 4 * n_slots:
        for slot_id, a_bits, b_bits, a_signed, b_signed in zip(ids, *kinds):
            if not lora_bits == a_bits == b_bits:
                raise FormatError(f"slot {slot_id}: pack lora_bits {lora_bits}, not its A/B {a_bits}/{b_bits}")
            if not signed == a_signed == b_signed:
                raise FormatError(f"slot {slot_id}: A/B signedness {a_signed}/{b_signed}, "
                                  f"not slot {ids[0]}'s {signed}")
    if lora_bits not in SUPPORTED_BITS:
        raise FormatError(f"unsupported lora_bits {lora_bits}")
    dtype = np.dtype(storage_dtype(lora_bits, bool(signed))).newbyteorder("<")
    rest, need = len(payload) - pos, sum(slot_sizes(records))
    if rest != need * dtype.itemsize:
        raise FormatError(f"level block of {rest} bytes, the slot records need {need} levels "
                          f"of {dtype.itemsize} bytes")
    levels = np.frombuffer(payload, dtype, need, pos)
    if not dtype.isnative:
        levels = levels.astype(dtype.newbyteorder("="))
    return LoRAPack(adapter_id, lora_bits, records, levels)
