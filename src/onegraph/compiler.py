"""Graph rewriting, optimization passes, and the frozen binary formats.

The deployment flow turns a bundle with adapter-capable layers into one
immutable artifact plus small per-task archives:

    constant_fold -> dead_code_eliminate -> materialize_quantsim
        -> scale_fold -> rewrite_lora_as_input -> _fuse_requant
        -> dead_code_eliminate -> freeze (.quadm)

The artifact holds the graphs a runtime session runs, node for node.

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

import itertools
import math
import operator
import struct
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import graph as gr
from . import quant as qt
from . import tensor as tz
from .errors import CoverageError, FormatError, GraphError, PackError
from .qparams import SUPPORTED_BITS, QuantParams, quantize_array, storage_dtype

MODEL_MAGIC = b"QADM"
PACK_MAGIC = b"QLPK"
# One format version per magic.  Model version 1 held the graphs before
# the fusions of ``optimize_for_freeze``, version 2 the unread profile
# text.  Version 3 had no ``requant`` that emits levels (``out_qparams``),
# and a version-3 reader would run one as if it emitted fp32.
# Pack version 1 held a parameter record and two QTNS headers per slot,
# in any slot order.
FORMAT_VERSIONS = {MODEL_MAGIC: 4, PACK_MAGIC: 2}

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
    not dequantized raises ``GraphError``.  A descriptor's ``bits`` is
    its slot parameters' one width, else ``CoverageError``.  Returns
    (graph, slot descriptors).
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
        d_out, d_in = g.constants[q_w].shape
        desc = LoRASlotDescriptor(
            slot_id=slot_id, target_node_id=node.id,
            a_tid=next(tids), b_tid=next(tids), alpha_tid=next(tids),
            d_out=d_out, d_in=d_in, r_max=int(node.attrs["rank"]),
            bits=a_params.bits, a_params=a_params, b_params=b_params,
        )
        descriptors.append(desc)
        inputs += (gr.GraphInput(desc.a_name, desc.a_tid, desc.a_shape, gr.storage_name(a_params)),
                   gr.GraphInput(desc.b_name, desc.b_tid, desc.b_shape, gr.storage_name(b_params)),
                   gr.GraphInput(desc.alpha_name, desc.alpha_tid, (1,)))
        fused[id(node)] = gr.Node(
            node.id, "qlora", [q_w, dq_x.inputs[0], desc.b_tid, desc.a_tid, desc.alpha_tid], node.output,
            {"w_qparams": dq_w.attrs["qparams"], "in_qparams": dq_x.attrs["qparams"],
             "b_qparams": b_params, "a_qparams": a_params})
    out = gr.rebuild(g, fused, set())
    out.inputs = inputs
    gr.validate(out)
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
    """
    out = g.copy()
    kept = []
    for node in out.nodes:
        if node.kind not in _FOLDABLE or not all(t in out.constants for t in node.inputs):
            kept.append(node)
            continue
        probe = gr.Graph(nodes=[replace(node, inputs=list(node.inputs), attrs=dict(node.attrs))],
                         inputs=[], outputs=[("v", node.output)],
                         constants={t: out.constants[t] for t in node.inputs})
        out.constants[node.output] = gr.run_graph(probe, {})["v"]
    out.nodes = kept
    return out


def dead_code_eliminate(g: gr.Graph) -> gr.Graph:
    """Drop nodes that reach no graph output; prune unused constants."""
    out = g.copy()
    live = {tid for _, tid in out.outputs}
    for node in reversed(out.nodes):
        if node.output in live:
            live.update(node.inputs)
    out.nodes = [n for n in out.nodes if n.output in live]
    out.constants = {t: v for t, v in out.constants.items() if t in live}
    return out


def materialize_quantsim(g: gr.Graph, profile: qt.QuantProfile, role: str) -> gr.Graph:
    """Insert explicit quantize/dequantize structure for compilation.

    Weight constants become integer payloads behind dequantize nodes,
    an adapter layer's weight too; activations with profile entries get
    a quantize/dequantize pair.  Rewritten and fused as
    ``optimize_for_freeze`` does it, the result computes bit-identically
    to hook-based quantsim.

    Node order: the pairs of the covered inputs (last input first), then
    the weight dequantizes (last first), then the original nodes, each
    covered one followed by its pair.  Tensor and node ids are allocated
    upward from the graph's next free ones in the order weights, covered
    inputs, nodes.
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

    gr.validate(out)
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
            "w_qparams": dq_w.attrs["qparams"],
            "in_qparams": dq_x.attrs["qparams"],
            "out_qparams": tail.attrs["qparams"],
        }
        inputs = [dq_w.inputs[0], dq_x.inputs[0]]
        if bias_dq is not None:
            attrs["bias_qparams"] = bias_dq.attrs["qparams"]
            inputs.append(bias_dq.inputs[0])
        fused[id(node)] = gr.Node(node.id, "qlinear", inputs, tail.output, attrs)
        gone.update(id(n) for n in chain)
    out = gr.rebuild(g, fused, gone)
    gr.validate(out)
    return out


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
        return dq if dq is not None and dq.attrs["qparams"] == q.attrs["qparams"] else None

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
        attrs = {"qparams": n.attrs["qparams"]}
        if act is not None:
            attrs["activation"] = act.attrs["kind"]
        if chain[-1].kind == "quantize":
            attrs["out_qparams"] = chain[-1].attrs["qparams"]
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
    """
    qt.check_coverage(shared, bundle)
    graphs, descriptors = {}, []
    for role, g in bundle.graphs():
        g = constant_fold(g)
        g = dead_code_eliminate(g)
        g = materialize_quantsim(g, shared, role)
        g = scale_fold(g)
        if role == "backbone":
            g, descriptors = rewrite_lora_as_input(g, shared)
        graphs[role] = dead_code_eliminate(_fuse_requant(g))
    frozen = gr.ModelBundle(graphs["encoder"], graphs["backbone"], graphs["decoder"], bundle.steps)
    return frozen, descriptors


# ---------------------------------------------------------------------------
# Binary encoding helpers


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"a string of {len(raw)} bytes exceeds the format's 65535-byte limit")
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(data, pos):
    (n,) = struct.unpack_from("<H", data, pos)
    pos += 2
    return str(data[pos:pos + n], "utf-8"), pos + n


def _pack_qparams(p: QuantParams) -> bytes:
    return struct.pack("<fiBB", np.float32(p.scale), p.zero_point, p.bits, int(p.signed))


def _unpack_qparams(data, pos, memo):
    """One parameter record; ``memo`` maps each record already decoded to
    its ``QuantParams``, so equal records decode to one shared object.
    A record's scale is an fp32 value, which the float it unpacks to
    holds exactly."""
    fields = struct.unpack_from("<fiBB", data, pos)
    p = memo.get(fields)
    if p is None:
        scale, zp, bits, signed = fields
        p = memo[fields] = QuantParams(scale, zp, bits, bool(signed))
    return p, pos + 10


# Attribute value tags.  Tags 1 (float) and 4 (int tuple) are retired:
# no node attribute takes such a value, and a payload holding one is
# malformed.
_ATTR_INT, _ATTR_STR, _ATTR_QPARAMS = 0, 2, 3


def _pack_attrs(attrs: dict) -> bytes:
    body = struct.pack("<B", len(attrs))
    for key in sorted(attrs):
        v = attrs[key]
        body += _pack_str(key)
        if isinstance(v, QuantParams):
            body += struct.pack("<B", _ATTR_QPARAMS) + _pack_qparams(v)
        elif isinstance(v, bool):
            raise FormatError(f"boolean attr {key} unsupported")
        elif isinstance(v, (int, np.integer)):
            body += struct.pack("<Bq", _ATTR_INT, int(v))
        elif isinstance(v, str):
            body += struct.pack("<B", _ATTR_STR) + _pack_str(v)
        else:
            raise FormatError(f"cannot serialize attr {key}={v!r}")
    return body


def _unpack_attrs(data, pos, memo):
    """One node's attributes.  The keys and string values are interned: a
    model repeats a few of them on every node, and each would otherwise
    be a string of its own for as long as the graph lives."""
    (count,) = struct.unpack_from("<B", data, pos)
    pos += 1
    attrs = {}
    for _ in range(count):
        key, pos = _unpack_str(data, pos)
        key = sys.intern(key)
        (tag,) = struct.unpack_from("<B", data, pos)
        pos += 1
        if tag == _ATTR_QPARAMS:
            attrs[key], pos = _unpack_qparams(data, pos, memo)
        elif tag == _ATTR_INT:
            (attrs[key],) = struct.unpack_from("<q", data, pos)
            pos += 8
        elif tag == _ATTR_STR:
            value, pos = _unpack_str(data, pos)
            attrs[key] = sys.intern(value)
        else:
            raise FormatError(f"unknown attr tag {tag}")
    return attrs, pos


def _pack_graph(g: gr.Graph, ids=None) -> bytes:
    """The graph's record, each tensor id written as its dense number.

    Numbers are given in the order ids are first written: the inputs,
    the outputs, each node's inputs and output, then any constant no
    node reads, by id.  Constants follow in number order.  A loaded graph
    is numbered so already, and writes the same bytes.  A dict given as
    ``ids`` receives each id's number.
    """
    ids = {} if ids is None else ids

    def num(tid):
        return ids.setdefault(tid, len(ids))

    parts = [struct.pack("<H", len(g.inputs))]
    for gi in g.inputs:
        parts += (_pack_str(gi.name),
                  struct.pack("<IBB", num(gi.tid), tz.DTYPE_CODES[gi.dtype], len(gi.shape)),
                  struct.pack(f"<{len(gi.shape)}I", *gi.shape))
    parts.append(struct.pack("<H", len(g.outputs)))
    for name, tid in g.outputs:
        parts += (_pack_str(name), struct.pack("<I", num(tid)))
    parts.append(struct.pack("<I", len(g.nodes)))
    for n in g.nodes:
        parts += (struct.pack("<IBB", n.id, _KIND_CODES[n.kind], len(n.inputs)),
                  struct.pack(f"<{len(n.inputs)}I", *map(num, n.inputs)),
                  struct.pack("<I", num(n.output)),
                  _pack_attrs(n.attrs))
    for tid in sorted(g.constants):
        num(tid)
    parts.append(struct.pack("<I", len(g.constants)))
    for tid in sorted(g.constants, key=ids.get):
        parts += (struct.pack("<I", ids[tid]), tz.qtns_bytes(g.constants[tid]))
    return b"".join(parts)


def _unpack_graph(data, pos, memo):
    (n_in,) = struct.unpack_from("<H", data, pos)
    pos += 2
    inputs = []
    for _ in range(n_in):
        name, pos = _unpack_str(data, pos)
        tid, dcode, rank = struct.unpack_from("<IBB", data, pos)
        pos += 6
        shape = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        inputs.append(gr.GraphInput(name, tid, tuple(shape), tz.DTYPE_NAMES[dcode]))
    (n_out,) = struct.unpack_from("<H", data, pos)
    pos += 2
    outputs = []
    for _ in range(n_out):
        name, pos = _unpack_str(data, pos)
        (tid,) = struct.unpack_from("<I", data, pos)
        pos += 4
        outputs.append((name, tid))
    (n_nodes,) = struct.unpack_from("<I", data, pos)
    pos += 4
    nodes = []
    for _ in range(n_nodes):
        nid, kind, n_ins = struct.unpack_from("<IBB", data, pos)
        pos += 6
        ins = list(struct.unpack_from(f"<{n_ins}I", data, pos))
        pos += 4 * n_ins
        (out_tid,) = struct.unpack_from("<I", data, pos)
        pos += 4
        attrs, pos = _unpack_attrs(data, pos, memo)
        nodes.append(gr.Node(nid, _KIND_NAMES[kind], ins, out_tid, attrs))
    (n_const,) = struct.unpack_from("<I", data, pos)
    pos += 4
    constants = {}
    for _ in range(n_const):
        (tid,) = struct.unpack_from("<I", data, pos)
        pos += 4
        arr, pos = tz.qtns_from_bytes(data, pos)
        constants[tid] = arr
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
    """
    for role, g in bundle.graphs():
        ahead = {n.output for n in g.nodes}
        for n in g.nodes:
            if ahead.intersection(n.inputs):
                raise GraphError(f"{role} node {n.id}: nodes are not in topological order")
            ahead.discard(n.output)
    parts = [struct.pack("<Q", creation_seed & 0xFFFFFFFFFFFFFFFF), _pack_str(name),
             struct.pack("<IB", bundle.steps, 3)]
    numbers = {role: {} for role in _ROLE_CODES}
    for role, g in bundle.graphs():
        parts += (struct.pack("<B", _ROLE_CODES[role]), _pack_graph(g, numbers[role]))
    # a slot's tensors by their backbone numbers; one the backbone lacks
    # gets a number no tensor has, which load refuses
    ids = numbers["backbone"]
    slot = {t: ids.get(t, len(ids)) for d in descriptors for t in (d.a_tid, d.b_tid, d.alpha_tid)}
    parts.append(struct.pack("<I", len(descriptors)))
    for d in sorted(descriptors, key=lambda d: d.slot_id):
        parts += (struct.pack("<IIIII", d.slot_id, d.target_node_id, slot[d.a_tid], slot[d.b_tid],
                              slot[d.alpha_tid]),
                  struct.pack("<IIIB", d.d_out, d.d_in, d.r_max, d.bits),
                  _pack_qparams(d.a_params), _pack_qparams(d.b_params))
    return _wrap_payload(MODEL_MAGIC, b"".join(parts))


def load_compiled(data: bytes) -> CompiledModel:
    """Decode and check a ``.quadm``.

    A slot descriptor's ``bits`` must be the bit width of its A and B
    parameters.  Every constant is a read-only view into the artifact's bytes
    (``tensor.qtns_from_bytes``), so a loaded model holds each base weight
    once.  Equal quantization parameters decode to one shared
    ``QuantParams``.
    """
    payload = _open_payload(MODEL_MAGIC, data)
    memo = {}
    with _decoding("model"):
        pos = 0
        (seed,) = struct.unpack_from("<Q", payload, pos)
        pos += 8
        name, pos = _unpack_str(payload, pos)
        steps, n_graphs = struct.unpack_from("<IB", payload, pos)
        pos += 5
        graphs = {}
        for _ in range(n_graphs):
            (role_code,) = struct.unpack_from("<B", payload, pos)
            pos += 1
            g, pos = _unpack_graph(payload, pos, memo)
            graphs[_ROLE_NAMES[role_code]] = g
        (n_desc,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        descriptors = []
        for _ in range(n_desc):
            slot_id, target, a_tid, b_tid, alpha_tid = struct.unpack_from("<IIIII", payload, pos)
            pos += 20
            d_out, d_in, r_max, bits = struct.unpack_from("<IIIB", payload, pos)
            pos += 13
            a_params, pos = _unpack_qparams(payload, pos, memo)
            b_params, pos = _unpack_qparams(payload, pos, memo)
            if not bits == a_params.bits == b_params.bits:
                raise FormatError(f"slot {slot_id}: bits {bits}, not its A/B {a_params.bits}/{b_params.bits}")
            descriptors.append(LoRASlotDescriptor(slot_id, target, a_tid, b_tid, alpha_tid,
                                                  d_out, d_in, r_max, bits, a_params, b_params))
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
# fp32 alpha, the slot's shape, then its A and B parameters as
# ``_pack_qparams`` writes them.  44 bytes, little-endian, unaligned.
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


def pack_lora(adapter: gr.LoRAAdapter, descriptors, shared=None) -> bytes:
    """Quantize adapter factors under the shared slot params and serialize.

    The payload is a header (adapter id, factor width, slot count), one
    ``SLOT_RECORD`` per slot in ascending slot id, then one level block:
    each slot's B levels (r_max x d_in), then its A levels (d_out x
    r_max), in slot order, all in the storage dtype of the slots' one
    width and signedness.  Slots of mixed widths or signedness raise
    ``PackError``; the profile ``shared`` is not read and stays for the
    callers that pass it.  Factors are zero-padded to the slot rank in
    the quantized domain (pad value = zero point, which dequantizes to
    exactly 0).  A NaN factor entry has no level, and alpha must lie in
    fp32's finite range.
    """
    params = [p for d in descriptors for p in (d.a_params, d.b_params)]
    widths, signs = sorted({p.bits for p in params}), sorted({p.signed for p in params})
    if len(widths) != 1:
        raise PackError(f"the slots' factors must share one bit width, not {widths}")
    if len(signs) != 1:
        raise PackError(f"the slots' factors must share one signedness, not {signs}")
    dtype = storage_dtype(*widths, *signs)
    records, blocks = [], []
    for d in sorted(descriptors, key=lambda d: d.slot_id):
        entry = adapter.entries.get(d.target_node_id)
        if entry is None:
            raise PackError(f"adapter {adapter.adapter_id!r} has no entry for lora node {d.target_node_id}")
        r = entry.rank
        if r > d.r_max:
            raise PackError(f"adapter rank {r} exceeds slot rank {d.r_max}")
        if entry.A.shape != (d.d_out, r) or entry.B.shape != (r, d.d_in):
            raise PackError(f"adapter factors {entry.A.shape}/{entry.B.shape} do not fit slot "
                            f"{d.a_shape}/{d.b_shape}")
        if math.isnan(entry.A.max(initial=0)) or math.isnan(entry.B.max(initial=0)):
            raise PackError(f"lora node {d.target_node_id}: a factor holds a NaN, which has no level")
        if not abs(entry.alpha) <= _FP32_MAX:
            raise PackError(f"lora node {d.target_node_id}: alpha {entry.alpha} is not finite in fp32")
        records.append(_slot_record(d, r, np.float32(entry.alpha)))
        b_q = np.full(d.b_shape, d.b_params.zero_point, dtype)
        a_q = np.full(d.a_shape, d.a_params.zero_point, dtype)
        b_q[:r, :] = quantize_array(entry.B, d.b_params)
        a_q[:, :r] = quantize_array(entry.A, d.a_params)
        blocks += (b_q.ravel(), a_q.ravel())
    block = np.concatenate(blocks).astype(np.dtype(dtype).newbyteorder("<"), copy=False)
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
