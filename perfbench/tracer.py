"""Outside-in tracing of onegraph's public functions.

The tracer replaces each traced function with a wrapper in every
``onegraph`` module namespace that binds it (``distill`` imports
``matmul`` by name, ``compiler`` imports ``quantize_array`` by name, and
so on), records one span per call and restores the originals on
``uninstall``.  Spans stay in memory until the run writes them out.
Nothing inside the package changes; with the tracer uninstalled the
program runs exactly as shipped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# The nine measured layers; rng, errors and cli are not measured.
LAYERS = ("tensor", "qparams", "graph", "quant", "sensitivity", "distill",
          "compiler", "runtime", "modelspec")

COMPILER_PASSES = ("rewrite_lora_as_input", "constant_fold", "dead_code_eliminate",
                   "materialize_quantsim", "scale_fold")


def _matmul_extra(args, kwargs, result):
    a, b = args[0], args[1]
    return {"macs": int(a.shape[0]) * int(a.shape[1]) * int(b.shape[1])}


def _dequantize_extra(args, kwargs, result):
    return {"elems": int(np.asarray(args[0]).size)}


def _quantize_extra(args, kwargs, result):
    # clipped elements: those whose rounded code falls outside the range
    # (an exact zero at the bottom of a [0, max] range is not one)
    p = args[1]
    code = np.asarray(args[0], dtype=np.float64) / p.scale + p.zero_point
    saturated = int(np.count_nonzero((code < p.q_min - 0.5) | (code > p.q_max + 0.5)))
    return {"elems": int(result.size), "saturated": saturated}


def _run_graph_extra(args, kwargs, result):
    return {"nodes": len(args[0].nodes)}


def _pass_extra(args, kwargs, result):
    graph = result[0] if isinstance(result, tuple) else result  # rewrite_lora_as_input
    return {"nodes_out": len(graph.nodes)}


def _optimize_extra(args, kwargs, result):
    frozen = result[0]
    qlinear = sum(1 for _, g in frozen.graphs() for n in g.nodes if n.kind == "qlinear")
    return {"qlinear_nodes": qlinear}


def _shared_profile_extra(args, kwargs, result):
    return {"fallback": int(result[1].rule == "unified-fallback")}


def _finetune_extra(args, kwargs, result):
    return {"recon_final": result[1].recon(-1)}


# (module, function, extra-fields hook) for every traced public function.
TARGETS = (
    ("tensor", "matmul", _matmul_extra),
    ("tensor", "activation", None),
    ("qparams", "quantize_array", _quantize_extra),
    ("qparams", "dequantize_array", _dequantize_extra),
    ("qparams", "fake_quant", None),
    ("graph", "run_graph", _run_graph_extra),
    ("graph", "validate", None),
    ("graph", "execute_fp", None),
    ("quant", "calibrate", None),
    ("quant", "execute_quantsim", None),
    ("sensitivity", "qss", None),
    ("sensitivity", "unified_profile", None),
    ("sensitivity", "build_shared_profile", _shared_profile_extra),
    ("distill", "student_step", None),
    ("distill", "finetune_adapter", _finetune_extra),
    ("distill", "align_adapters", None),
    *(("compiler", name, _pass_extra) for name in COMPILER_PASSES),
    ("compiler", "optimize_for_freeze", _optimize_extra),
    ("compiler", "freeze", None),
    ("compiler", "pack_lora", None),
    ("compiler", "load_compiled", None),
    ("compiler", "unpack_lora", None),
    ("runtime", "plan_memory", None),
    ("runtime", "load_model", None),
    ("runtime", "bind_lora", None),
    ("runtime", "infer", None),
    ("modelspec", "parse_model_spec", None),
    ("modelspec", "build_bundle", None),
    ("modelspec", "build_adapter", None),
)


class Tracer:
    """Span recorder around the functions in ``TARGETS``.

    A span is ``(name, start, end, parent, op, phase, extra)``; ``parent``
    is the index of the enclosing span or -1, ``op`` the measured
    operation (request or iteration) it belongs to.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None
        self.phase = None

    def install(self):
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "onegraph" or name.startswith("onegraph."))]
        for layer, fname, extra in TARGETS:
            original = getattr(sys.modules[f"onegraph.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                fields = extra(args, kwargs, result) if extra and result is not None else None
                spans[sid] = (name, t0, t1, parent, self.op, self.phase, fields)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, op, phase, fields) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "req": op, "phase": phase}
                if fields:
                    rec.update(fields)
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans, phases, ops):
    """Per-function and per-layer totals over the given phases, divided by ``ops``.

    Returns name -> value for ``<fn>.calls``, ``<fn>.s`` (inclusive),
    ``<fn>.self_s`` (minus direct children), the summed extra fields,
    and ``layer.<module>.self_s``.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    extras = defaultdict(float)
    for name, t0, t1, parent, _op, ph, fields in spans:
        if ph not in phases:
            continue
        calls[name] += 1
        total[name] += t1 - t0
        if fields:
            for key, value in fields.items():
                extras[f"{name}.{key}"] += value
    for sid, (name, t0, t1, parent, _op, ph, _f) in enumerate(spans):
        if ph in phases and parent >= 0:
            child[parent] += t1 - t0
    self_time = defaultdict(float)
    for sid, (name, t0, t1, _p, _op, ph, _f) in enumerate(spans):
        if ph in phases:
            self_time[name] += (t1 - t0) - child[sid]
    out = {}
    denom = max(ops, 1)
    for name in calls:
        out[f"{name}.calls"] = calls[name] / denom
        out[f"{name}.s"] = total[name] / denom
        out[f"{name}.self_s"] = self_time[name] / denom
    for key, value in extras.items():
        out[key] = value / denom
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_time.items() if k.startswith(layer + ".")) / denom
    return out
