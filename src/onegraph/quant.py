"""Calibration and simulated-quantization execution.

A :class:`QuantProfile` maps every quantizable tensor of a graph or
bundle to affine parameters.  Weights are always 8-bit; activations
follow the policy (w8a16, w8a8, or a mixed split); adapter factors use
the profile's ``lora_bits``.  QuantSim execution keeps the fp dataflow
but routes every covered tensor through dequantize(quantize(.)).

QuantSim computes products as the compiled graph does.  A product whose
two operands it fake-quantized (a dense W x, and an adapter layer's W x
and B x) is the exact integer product of their levels,
``qparams.centered_matmul``.  The ``product`` hook finds each operand's
params in the profile, under the operand's tensor id or the adapter
slot that ``which`` names, and takes the levels back exactly from the
fake-quantized values (``qparams.fake_quant_levels``): nothing is
quantized twice and no level is kept between calls.  A (B x), whose B x
is not quantized, stays an fp32 ``tensor.matmul``, as in the compiled
graph.

Profile keys are strings: ``<role>.w.<tid>`` for weights,
``<role>.a.<tid>`` for activations (graph inputs included), and
``backbone.lora.<node>.<A|B>`` for adapter factor slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from . import qparams as qp
from .errors import CalibrationError, CoverageError
from .qparams import QuantParams, compute_quant_params
from .tensor import dtype_name

WEIGHT_BITS = 8


@dataclass(frozen=True)
class Policy:
    kind: str                 # "w8a16" | "w8a8" | "mixed"
    mixed_percent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("w8a16", "w8a8", "mixed"):
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.kind == "mixed" and not 0 <= self.mixed_percent <= 100:
            raise ValueError("mixed percent must lie in [0, 100]")

    @classmethod
    def parse(cls, text: str) -> "Policy":
        t = text.strip().lower()
        if t in ("w8a16", "w8a8"):
            return cls(t)
        if t.startswith("mixed:"):
            return cls("mixed", float(t.split(":", 1)[1]))
        raise ValueError(f"cannot parse policy {text!r}")

    def __str__(self):
        if self.kind == "mixed":
            pct = self.mixed_percent
            return f"mixed:{int(pct) if pct == int(pct) else pct}"
        return self.kind


@dataclass
class Observer:
    """Running min/max for one tensor key."""

    key: str
    running_min: float = math.inf
    running_max: float = -math.inf

    def update(self, arr: np.ndarray):
        self.running_min = min(self.running_min, float(arr.min()))
        self.running_max = max(self.running_max, float(arr.max()))

    @property
    def seen(self) -> bool:
        return self.running_min <= self.running_max

    def to_params(self, bits: int) -> QuantParams:
        if not self.seen:
            raise CalibrationError(f"observer {self.key} saw no data")
        # extend to include zero so the zero point stays in range and
        # round trips stay within s/2 over the calibrated span
        return compute_quant_params(min(0.0, self.running_min), max(0.0, self.running_max), bits)


def range_params(arr: np.ndarray, bits: int) -> QuantParams:
    lo = float(arr.min()) if arr.size else 0.0
    hi = float(arr.max()) if arr.size else 0.0
    return compute_quant_params(min(0.0, lo), max(0.0, hi), bits)


@dataclass
class QuantProfile:
    weight_params: dict = field(default_factory=dict)   # incl. lora slot keys
    act_params: dict = field(default_factory=dict)
    policy: Policy = Policy("w8a16")
    lora_bits: int = 16

    def act(self, role, tid):
        return self.act_params.get(f"{role}.a.{tid}")

    def weight(self, role, tid):
        return self.weight_params.get(f"{role}.w.{tid}")

    def lora(self, node_id, which):
        return self.weight_params.get(f"backbone.lora.{node_id}.{which}")


def weight_tids(g: gr.Graph) -> list:
    """Constant tensors that count as quantizable weights, in first-use order.

    Mirrors the engine rule: every fp32 constant consumed by a node,
    except the scalar operand of a ``scale`` node.
    """
    tids = {}   # insertion-ordered set
    for n in g.nodes:
        for pos, tid in enumerate(n.inputs):
            if tid in g.constants and tid not in tids:
                if n.kind == "scale" and pos == 1:
                    continue
                if g.constants[tid].dtype == np.float32:
                    tids[tid] = None
    return list(tids)


def act_keys(g: gr.Graph, role: str) -> list:
    """Activation keys: fp32 graph inputs plus every fp node output."""
    keys = [f"{role}.a.{gi.tid}" for gi in g.inputs if gi.dtype == "fp32"]
    keys += [f"{role}.a.{n.output}" for n in g.nodes if n.kind in gr.FP_KINDS]
    return keys


def required_keys(bundle: gr.ModelBundle) -> list:
    keys = []
    for role, g in bundle.graphs():
        keys += [f"{role}.w.{tid}" for tid in weight_tids(g)]
        keys += act_keys(g, role)
    for n in bundle.backbone.lora_nodes():
        keys += [f"backbone.lora.{n.id}.A", f"backbone.lora.{n.id}.B"]
    return keys


def check_coverage(profile: QuantProfile, bundle: gr.ModelBundle):
    have = set(profile.weight_params) | set(profile.act_params)
    for key in required_keys(bundle):
        if key not in have:
            raise CoverageError(f"profile does not cover {key}")


# ---------------------------------------------------------------------------
# Execution hooks


class QuantSimHooks:
    """Fake-quantize every covered tensor during execution."""

    def __init__(self, profile: QuantProfile):
        self.profile = profile

    def _fq(self, value, p, tape):
        out = qp.fake_quant(value, p)
        if tape is not None:
            tape.record("fq", (value,), out, p)
        return out

    def _lookup_act(self, role, tid):
        p = self.profile.act(role, tid)
        if p is None:
            raise CoverageError(f"profile does not cover {role}.a.{tid}")
        return p

    def input_value(self, role, tid, value, tape):
        if value.dtype != np.float32:
            return value
        return self._fq(value, self._lookup_act(role, tid), tape)

    def weight_value(self, role, tid, value, tape):
        p = self.profile.weight(role, tid)
        if p is None:
            raise CoverageError(f"profile does not cover {role}.w.{tid}")
        return self._fq(value, p, tape)

    def lora_factor(self, role, node_id, which, value, tape):
        p = self.profile.lora(node_id, which)
        if p is None:
            raise CoverageError(f"profile does not cover backbone.lora.{node_id}.{which}")
        return self._fq(value, p, tape)

    def node_output(self, role, node, value, tape):
        if node.kind not in gr.FP_KINDS or value.dtype != np.float32:
            return value
        return self._fq(value, self._lookup_act(role, node.output), tape)

    def _operand(self, role, tid, value):
        """The params ``value``, the fp32 tensor ``tid``, was fake-quantized with."""
        if value.dtype != np.float32:
            return None
        p = self.profile.weight(role, tid)
        return self.profile.act(role, tid) if p is None else p

    def product(self, role, node, which, a, b, tape):
        if which == "A":   # B x is not quantized
            return gr._mm(a, b, tape)
        if which == "B":
            p_a = self.profile.lora(node.id, "B")
        else:
            p_a = self._operand(role, node.inputs[0], a)
        p_b = self._operand(role, node.inputs[1], b)
        if p_a is None or p_b is None:
            return gr._mm(a, b, tape)
        out = qp.centered_matmul(qp.fake_quant_levels(a, p_a), p_a, qp.fake_quant_levels(b, p_b), p_b)
        if tape is not None:
            tape.record("matmul", (a, b), out)
        return out


class ObserverHooks(gr._NullHooks):
    """Record activation ranges during full-precision execution."""

    def __init__(self, observers: dict):
        self.observers = observers

    def _observe(self, key, value):
        if value.dtype == np.float32:
            self.observers.setdefault(key, Observer(key)).update(value)
        return value

    def input_value(self, role, tid, value, tape):
        return self._observe(f"{role}.a.{tid}", value)

    def node_output(self, role, node, value, tape):
        if node.kind not in gr.FP_KINDS:
            return value
        return self._observe(f"{role}.a.{node.output}", value)


# ---------------------------------------------------------------------------
# Calibration


def finalize_act_params(observers: dict, policy: Policy) -> dict:
    """Observed ranges -> per-key activation params under the policy.

    Mixed policy: rank keys by descending dynamic range (ties by key),
    give the top ceil(x%) 8-bit parameters and the rest 16-bit.
    """
    keys = sorted(observers)
    if policy.kind == "w8a16":
        bits = {k: 16 for k in keys}
    elif policy.kind == "w8a8":
        bits = {k: 8 for k in keys}
    else:
        n8 = math.ceil(policy.mixed_percent / 100.0 * len(keys))
        ranked = sorted(keys, key=lambda k: (-(observers[k].running_max - observers[k].running_min), k))
        eight = set(ranked[:n8])
        bits = {k: 8 if k in eight else 16 for k in keys}
    return {k: observers[k].to_params(bits[k]) for k in keys}


def weight_params_for_graph(g: gr.Graph, role: str) -> dict:
    return {f"{role}.w.{tid}": range_params(g.constants[tid], WEIGHT_BITS) for tid in weight_tids(g)}


def lora_slot_params(bundle: gr.ModelBundle, adapters, lora_bits: int) -> dict:
    """Per-slot params from the concatenation of the given adapters' factors."""
    if not adapters:
        return {}
    params = {}
    for n in bundle.backbone.lora_nodes():
        for which in ("A", "B"):
            chunks = [
                getattr(a.entries[n.id], which).reshape(-1)
                for a in adapters
                if n.id in a.entries
            ]
            if not chunks:
                raise CoverageError(f"no adapter provides factors for lora node {n.id}")
            params[f"backbone.lora.{n.id}.{which}"] = range_params(np.concatenate(chunks), lora_bits)
    return params


def observe_bundle(bundle, data, adapter, seed, observers) -> list:
    """Accumulate activation observers over full-precision runs.

    Returns each sample's output.  Observing changes no value, so output
    i has the bits of ``execute_fp`` with noise seed ``seed + i``.
    """
    hooks = ObserverHooks(observers)
    return [gr.run_bundle(bundle, x, cond, adapter, noise_seed=seed + i, hooks=hooks)
            for i, (x, cond) in enumerate(data)]


def calibrate(target, data, policy: Policy, *, adapter=None, lora_bits: int = 16, seed: int = 0,
              outputs=None) -> QuantProfile:
    """Derive a quantization profile from full-precision runs.

    ``target`` is a Graph (data: list of feed arrays or dicts) or a
    ModelBundle (data: list of (x, cond) pairs).  For bundles, the
    optional adapter stays bound during observation and supplies the
    factor ranges for the lora slots, and a list given as ``outputs``
    receives the fp output of each sample (see ``observe_bundle``).
    """
    if not data:
        raise CalibrationError("calibration requires at least one sample")
    profile = QuantProfile(policy=policy, lora_bits=lora_bits)
    observers = {}

    if isinstance(target, gr.ModelBundle):
        gr.validate_bundle(target)
        if adapter is not None:
            gr.check_adapter(target, adapter)
        fp_outputs = observe_bundle(target, data, adapter, seed, observers)
        if outputs is not None:
            outputs.extend(fp_outputs)
        for role, g in target.graphs():
            profile.weight_params.update(weight_params_for_graph(g, role))
        if adapter is not None:
            profile.weight_params.update(lora_slot_params(target, [adapter], lora_bits))
    else:
        gr.validate(target)
        hooks = ObserverHooks(observers)
        for sample in data:
            feeds = sample if isinstance(sample, dict) else {target.inputs[0].name: sample}
            gr.run_graph(target, feeds, role="graph", hooks=hooks)
        profile.weight_params.update(weight_params_for_graph(target, "graph"))

    profile.act_params = finalize_act_params(observers, policy)
    return profile


# ---------------------------------------------------------------------------
# QuantSim execution


def execute_quantsim(bundle, profile: QuantProfile, adapter, x, cond, seed: int = 0, tape=None):
    """Same dataflow as execute_fp with fake-quant at every covered tensor."""
    if adapter is not None:
        gr.check_adapter(bundle, adapter)
    return gr.run_bundle(bundle, x, cond, adapter, noise_seed=seed,
                         hooks=QuantSimHooks(profile), tape=tape)


# ---------------------------------------------------------------------------
# Text serialization (deterministic, round-trips exactly)


def profile_to_text(profile: QuantProfile) -> str:
    lines = [f"policy {profile.policy}", f"lora_bits {profile.lora_bits}"]
    entries = dict(profile.weight_params)
    entries.update(profile.act_params)
    for key in sorted(entries):
        p = entries[key]
        lines.append(
            f"{key}: {{scale: {float(p.scale)!r}, zero_point: {p.zero_point}, "
            f"bits: {p.bits}, signed: {int(p.signed)}}}"
        )
    return "\n".join(lines) + "\n"


def profile_from_text(text: str) -> QuantProfile:
    policy = None
    lora_bits = 16
    weight_params = {}
    act_params = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("policy "):
            policy = Policy.parse(line.split(None, 1)[1])
            continue
        if line.startswith("lora_bits "):
            lora_bits = int(line.split(None, 1)[1])
            continue
        key, body = line.split(":", 1)
        fields = {}
        for part in body.strip().strip("{}").split(","):
            name, value = part.split(":")
            fields[name.strip()] = value.strip()
        p = QuantParams(
            scale=float(fields["scale"]),
            zero_point=int(fields["zero_point"]),
            bits=int(fields["bits"]),
            signed=bool(int(fields["signed"])),
        )
        key = key.strip()
        if ".a." in key:
            act_params[key] = p
        else:
            weight_params[key] = p
    if policy is None:
        raise CalibrationError("profile text lacks a policy line")
    return QuantProfile(weight_params=weight_params, act_params=act_params,
                        policy=policy, lora_bits=lora_bits)
