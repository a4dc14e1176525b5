"""Calibration and simulated-quantization execution.

A :class:`QuantProfile` maps every quantizable tensor of a model
bundle to affine parameters: each weight (``graph.weight_tids``), each
activation (``graph.act_tids``) and each adapter factor slot.  Weights
are always 8-bit; activations follow the policy (w8a16, w8a8, or a
mixed split); adapter factors use the profile's ``lora_bits``.
QuantSim execution keeps the fp dataflow but routes every covered
tensor through dequantize(quantize(.)).

Both hooks classes here resolve each tensor when ``graph.prepare`` asks,
once per graph per run, never per node or per backbone pass.
:class:`QuantSimHooks` looks up each tensor's params there, so a tensor
the profile does not cover raises ``CoverageError`` before any kernel
runs; its ``act_fn`` returns the fake-quant that each invoke applies.
:class:`ObserverHooks` binds each activation's :class:`Observer` there.

QuantSim computes products as the compiled graph does.  A product whose
two operands it fake-quantized (a dense W x, and an adapter layer's W x
and B x) is the exact integer product of their levels.  The ``product``
hook finds each operand's params in the profile, under the operand's
tensor id or the adapter slot that ``which`` names.  A (B x), whose B x
is not quantized, stays an fp32 ``tensor.matmul``, as in the compiled
graph.

A :class:`QuantSimHooks` object does each piece of work once for as long
as its inputs stay fixed, as integer-only inference quantizes a weight
once, offline (Jacob et al. 2018, arXiv:1712.05877):

* once per hooks object, each frozen weight: its int8 levels
  (``qparams.quantize_array``) and W_hat, their dequantized fp32 value,
  which the dataflow sees.  W x is ``qparams.tiled_matmul`` on those
  levels, the kernel of the runtime's ``qlinear`` and ``qlora``.  A
  weight's fake-quant is never taped: no gradient flows into a weight.
  ``graph.prepare`` puts W_hat into the operand table once per run.
* once per run, each adapter factor: ``graph.prepare`` passes A and B
  through ``lora_factor``, and B's levels are kept with B_hat.
* once per layer, its input's levels, which W x and B x share, as the
  runtime's ``qlora`` centres q_x once.  Other levels are taken back
  exactly from the fake-quantized values (``qparams.fake_quant_levels``).

An entry holds until its input is another array object, so a new bundle
or adapter is quantized afresh.  The memo assumes what it keys stays
frozen: no constant or profile entry is changed in place while a hooks
object serves it.  ``sensitivity.qss`` scores all of its samples in one
run, so one hooks object serves them.  ``distill.align_adapters`` keeps
one across every step of every adapter it aligns
(``execute_quantsim(..., hooks=)``), each step one run over its samples.
The weight memo costs 5 B per weight element for as long as the hooks
object lives.

Calibration observes every sample of an adapter in one run
(``observe_bundle``), one column block per sample (``graph.run_bundle``).
A NaN or an infinity in one block would reach the range of every other,
so calibration, QSS and distillation refuse a sample that holds one
(``check_finite_samples``) before anything runs.

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
from .errors import CalibrationError, CoverageError, FormatError, RangeError
from .qparams import QuantParams, compute_quant_params

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


def required_keys(bundle: gr.ModelBundle) -> list:
    keys = []
    for role, g in bundle.graphs():
        keys += [f"{role}.w.{tid}" for tid in gr.weight_tids(g)]
        keys += [f"{role}.a.{tid}" for tid in gr.act_tids(g)]
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


@dataclass(frozen=True)
class _Weight:
    """A frozen weight as QuantSim holds it: the constant it came from,
    its stored levels and their fp32 value."""

    source: np.ndarray
    levels: np.ndarray
    value: np.ndarray


class QuantSimHooks(gr._NullHooks):
    """Fake-quantize every covered tensor during execution.

    One object may serve any number of runs under ``profile``; see the
    module docstring for what it keeps between them.
    """

    def __init__(self, profile: QuantProfile):
        self.profile = profile
        self._weights = {}   # (role, tid) -> _Weight
        self._levels = {}    # "x", or ("B", node id) -> (fake-quantized value, its centred levels)

    def _fq(self, value, p, tape):
        out = qp.fake_quant(value, p)
        if tape is not None:
            tape.record("fq", (value,), out, p)
        return out

    def weight_value(self, role, tid, value, tape):
        w = self._weights.get((role, tid))
        if w is None or w.source is not value:
            p = self.profile.weight(role, tid)
            if p is None:
                raise CoverageError(f"profile does not cover {role}.w.{tid}")
            q = qp.quantize_array(value, p)
            w = self._weights[role, tid] = _Weight(value, q, qp.dequantize_array(q, p))
        return w.value

    def lora_factor(self, role, node_id, which, value, tape):
        p = self.profile.lora(node_id, which)
        if p is None:
            raise CoverageError(f"profile does not cover backbone.lora.{node_id}.{which}")
        return self._fq(value, p, tape)

    def act_fn(self, role, tid):
        p = self.profile.act(role, tid)
        if p is None:
            raise CoverageError(f"profile does not cover {role}.a.{tid}")
        return lambda value, tape: self._fq(value, p, tape)

    def _operand(self, role, tid):
        """The params tensor ``tid`` was fake-quantized with, if any."""
        p = self.profile.weight(role, tid)
        return self.profile.act(role, tid) if p is None else p

    def _centred(self, key, value, p):
        """``fake_quant_levels(value, p)``, kept under ``key`` while ``value``
        is the same array."""
        hit = self._levels.get(key)
        if hit is None or hit[0] is not value:
            hit = self._levels[key] = (value, qp.fake_quant_levels(value, p))
        return hit[1]

    def product(self, role, node, which, a, b, tape):
        if which == "A":   # B x is not quantized
            return gr._mm(a, b, tape)
        if which == "B":
            p_a = self.profile.lora(node.id, "B")
        else:
            p_a = self._operand(role, node.inputs[0])
        p_b = self._operand(role, node.inputs[1])
        if p_a is None or p_b is None:
            return gr._mm(a, b, tape)
        c_b = self._centred("x", b, p_b)
        w = self._weights.get((role, node.inputs[0])) if which == "W" else None
        if w is not None and w.value is a:
            qp.check_exact(a.shape, p_a, b.shape, p_b)
            out = qp.tiled_matmul(w.levels, p_a, c_b, np.float64(p_a.scale) * np.float64(p_b.scale))
        else:
            c_a = self._centred(("B", node.id), a, p_a) if which == "B" else qp.fake_quant_levels(a, p_a)
            out = qp.centered_matmul(c_a, p_a, c_b, p_b)
        if tape is not None:
            tape.record("matmul", (a, b), out)
        return out


class ObserverHooks(gr._NullHooks):
    """Record activation ranges during full-precision execution."""

    def __init__(self, observers: dict):
        self.observers = observers

    def act_fn(self, role, tid):
        key = f"{role}.a.{tid}"
        update = self.observers.setdefault(key, Observer(key)).update

        def observe(value, tape):
            update(value)
            return value

        return observe


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
    return {f"{role}.w.{tid}": range_params(g.constants[tid], WEIGHT_BITS) for tid in gr.weight_tids(g)}


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


def check_finite_samples(data) -> None:
    """Raise ``RangeError`` naming the first sample of ``data`` whose x,
    cond or target holds a NaN or an infinity; a target may be None."""
    for i, sample in enumerate(data):
        for name, value in zip(("x", "cond", "target"), sample):
            if value is not None and not np.isfinite(value).all():
                raise RangeError(f"sample {i}: {name} holds a NaN or an infinity")


def observe_bundle(bundle, data, adapter, seed, observers) -> list:
    """Accumulate activation observers over one full-precision run of
    every sample, sample i in column block i with noise seed ``seed + i``.

    Returns each sample's output.  Observing changes no value, so output
    i has the bits of ``execute_fp`` with noise seed ``seed + i``; and a
    range over all blocks is the range over the samples one by one.
    """
    x, cond = gr.stack_samples(data)
    out = gr.run_bundle(bundle, x, cond, adapter, noise_seed=range(seed, seed + len(data)),
                        hooks=ObserverHooks(observers))
    return gr.split_blocks(out, len(data))


def build_profile(bundle, data, policy: Policy, adapters, lora_bits: int, seed: int,
                  outputs=None) -> QuantProfile:
    """Observe, then 8-bit weights, then slot params, then activation params.

    Activations are observed over full-precision runs of ``data`` with
    each of ``adapters`` bound in turn (no adapter when the list is
    empty), the observers accumulating across runs.  Slot params come
    from the concatenation of the adapters' factors.  A list given as
    ``outputs`` receives the fp output of every run, in order.  No
    sample raises ``CalibrationError``, and a sample with a NaN or an
    infinity ``RangeError``, before any run.
    """
    if not data:
        raise CalibrationError("calibration requires at least one sample")
    check_finite_samples(data)
    profile = QuantProfile(policy=policy, lora_bits=lora_bits)
    observers = {}
    for a in adapters or [None]:
        fp_outputs = observe_bundle(bundle, data, a, seed, observers)
        if outputs is not None:
            outputs.extend(fp_outputs)
    for role, g in bundle.graphs():
        profile.weight_params.update(weight_params_for_graph(g, role))
    profile.weight_params.update(lora_slot_params(bundle, adapters, lora_bits))
    profile.act_params = finalize_act_params(observers, policy)
    return profile


def calibrate(bundle: gr.ModelBundle, data, policy: Policy, *, adapter=None, lora_bits: int = 16,
              seed: int = 0, outputs=None) -> QuantProfile:
    """Derive a quantization profile from full-precision runs of a bundle.

    ``data`` is a list of (x, cond) pairs.  The optional adapter stays
    bound during observation and supplies the factor ranges for the lora
    slots, and a list given as ``outputs`` receives the fp output of each
    sample (see ``observe_bundle``).
    """
    gr.validate_bundle(bundle)
    if adapter is not None:
        gr.check_adapter(bundle, adapter)
    adapters = [] if adapter is None else [adapter]
    return build_profile(bundle, data, policy, adapters, lora_bits, seed, outputs)


# ---------------------------------------------------------------------------
# QuantSim execution


def execute_quantsim(bundle, profile: QuantProfile, adapter, x, cond, seed: int = 0, tape=None,
                     hooks=None):
    """Same dataflow as execute_fp with fake-quant at every covered tensor.

    ``hooks`` is a ``QuantSimHooks`` of ``profile`` to reuse across calls,
    which changes no bit; None builds a fresh one.  Hooks of another
    profile raise ``ValueError``.  ``seed`` may be one noise seed per
    column block of ``x`` and ``cond`` (``graph.run_bundle``).
    """
    if hooks is None:
        hooks = QuantSimHooks(profile)
    elif hooks.profile is not profile:
        raise ValueError("the QuantSim hooks were built for another profile")
    if adapter is not None:
        gr.check_adapter(bundle, adapter)
    return gr.run_bundle(bundle, x, cond, adapter, noise_seed=seed, hooks=hooks, tape=tape)


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
    """Parse ``profile_to_text``'s format; a line that does not parse, a
    text without a policy line, or a ``lora_bits`` other than 8 or 16 or
    than every slot entry's width, is a FormatError."""
    policy = None
    lora_bits = 16
    weight_params = {}
    act_params = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
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
        except (ValueError, KeyError) as exc:
            raise FormatError(f"profile line {lineno}: {line!r}: {type(exc).__name__}: {exc}") from exc
        key = key.strip()
        if ".a." in key:
            act_params[key] = p
        else:
            weight_params[key] = p
    if policy is None:
        raise FormatError("profile text lacks a policy line")
    if lora_bits not in (8, 16):
        raise FormatError(f"profile lora_bits {lora_bits}, not 8 or 16")
    for key, p in weight_params.items():
        if key.startswith("backbone.lora.") and p.bits != lora_bits:
            raise FormatError(f"profile lora_bits {lora_bits}, but {key} has {p.bits} bits")
    return QuantProfile(weight_params=weight_params, act_params=act_params,
                        policy=policy, lora_bits=lora_bits)
