"""Quantization sensitivity scoring and shared-profile selection.

Each adapter gets a sensitivity score: the mean Jensen-Shannon
divergence between the full-precision output distribution and the
simulated-quantization output distribution over a calibration set.
The most sensitive adapter anchors the shared profile; when scores are
indistinguishable the fallback derives parameters from the merged
factor distributions of all adapters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import quant as qt
from .errors import CoverageError, RangeError
from .tensor import histogram

UNIFIED = "unified"
QSS_BINS = 256
SMOOTHING = 1e-12


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats, bounded by ln 2.

    Inputs must be probability vectors of equal length; both sides are
    smoothed additively and renormalized before the KL terms.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise RangeError(f"probability vectors differ in shape: {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if (v < 0).any():
            raise RangeError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-6:
            raise RangeError(f"{name} does not sum to 1 (got {v.sum()})")
    ps = (p + SMOOTHING) / (p + SMOOTHING).sum()
    qs = (q + SMOOTHING) / (q + SMOOTHING).sum()
    m = 0.5 * (ps + qs)
    kl_pm = float(np.sum(ps * np.log(ps / m)))
    kl_qm = float(np.sum(qs * np.log(qs / m)))
    return 0.5 * kl_pm + 0.5 * kl_qm


def _distribution(arr, lo, hi):
    h = histogram(arr, QSS_BINS, lo, hi)
    return h.counts.astype(np.float64) / h.total


def qss(bundle, adapter, profile, data, *, seed: int = 0, refs=None) -> float:
    """Mean output divergence between fp and quantsim execution.

    Outputs of both paths are binned into 256-bucket histograms over
    their union value range; lower means less sensitive to quantization.
    The fp reference of sample i is ``execute_fp`` with the adapter and
    noise seed ``seed + i``.  ``refs`` supplies those outputs when the
    caller already has them, as calibration returns them; without it
    they are computed here, in one fp run.  Every sample's QuantSim
    output comes from one run too, sample i in column block i with noise
    seed ``seed + i`` (``graph.run_bundle``), so each weight is quantized
    once per call and each block has the bits of its own run.  A sample
    with a NaN or an infinity raises ``RangeError`` before any run.
    """
    if not data:
        raise RangeError("sensitivity scoring requires at least one sample")
    qt.check_finite_samples(data)
    x, cond = gr.stack_samples(data)
    seeds = range(seed, seed + len(data))
    sims = gr.split_blocks(qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=seeds),
                           len(data))
    if refs is None:
        refs = gr.split_blocks(gr.execute_fp(bundle, x, cond, adapter, noise_seed=seeds), len(data))
    total = 0.0
    for ref, sim in zip(refs, sims, strict=True):
        lo = float(min(ref.min(), sim.min()))
        hi = float(max(ref.max(), sim.max()))
        if hi <= lo:
            continue  # both outputs constant and equal
        total += js_divergence(_distribution(ref, lo, hi), _distribution(sim, lo, hi))
    return total / len(data)


def select_anchor(scores: dict, tie_epsilon: float) -> str:
    """Argmax adapter id, or UNIFIED when the spread is inside the tie band.

    A single candidate is always its own anchor.  With several, the
    fallback fires when (max - min) < tie_epsilon * max or all scores
    are zero; ties at the maximum break lexicographically.
    """
    if not scores:
        raise RangeError("no scores to select from")
    if not 0 <= tie_epsilon < 1:
        raise RangeError(f"tie epsilon {tie_epsilon} outside [0, 1)")
    for v in scores.values():
        if not math.isfinite(v) or v < 0:
            raise RangeError(f"scores must be finite and nonnegative, got {v}")
    if len(scores) == 1:
        return next(iter(scores))
    hi = max(scores.values())
    lo = min(scores.values())
    if hi == 0 or (hi - lo) < tie_epsilon * hi:
        return UNIFIED
    return min(k for k, v in scores.items() if v == hi)


def unified_profile(bundle, adapters, data, policy, *, lora_bits: int = 16, seed: int = 0) -> qt.QuantProfile:
    """Shared parameters from the merged distributions of all adapters.

    Slot params come from the concatenation of every adapter's factors;
    activations are observed with each adapter bound in turn, observers
    accumulating across runs.  Every adapter must cover every slot.
    """
    if not adapters:
        raise RangeError("unified profile needs at least one adapter")
    slots = {n.id for n in bundle.backbone.lora_nodes()}
    for a in adapters:
        gr.check_adapter(bundle, a)
        missing = slots - set(a.entries)
        if missing:
            raise CoverageError(
                f"adapter {a.adapter_id!r} leaves lora nodes {sorted(missing)} uncovered"
            )
    return qt.build_profile(bundle, data, policy, adapters, lora_bits, seed)


@dataclass
class QSSReport:
    scores: dict                      # adapter_id -> qss
    anchor: str                       # adapter_id or UNIFIED
    tie_epsilon: float
    rule: str                         # "single" | "argmax" | "unified-fallback"
    divergence: str = "jensen_shannon"

    def to_text(self) -> str:
        lines = [f"{aid} {float(self.scores[aid])!r}" for aid in sorted(self.scores)]
        lines += [
            f"anchor {self.anchor}",
            f"divergence {self.divergence}",
            f"rule {self.rule}",
            f"tie_epsilon {self.tie_epsilon!r}",
        ]
        return "\n".join(lines) + "\n"


def qss_report(scores: dict, tie_epsilon: float) -> QSSReport:
    """The anchor and its rule: "single", "argmax" or "unified-fallback"."""
    anchor = select_anchor(scores, tie_epsilon)
    if len(scores) == 1:
        rule = "single"
    elif anchor == UNIFIED:
        rule = "unified-fallback"
    else:
        rule = "argmax"
    return QSSReport(scores=scores, anchor=anchor, tie_epsilon=tie_epsilon, rule=rule)


def build_shared_profile(bundle, adapters, data, policy, tie_epsilon: float = 0.05,
                         *, lora_bits: int = 16, seed: int = 0, outputs=None):
    """Pick the anchor (or fall back to unified) and return (profile, report).

    The anchor adapter's provisional calibration becomes the shared
    profile; the unified fallback merges all adapters instead.  Adapter
    ids must be distinct, since profiles and scores are keyed by them.
    Each adapter's QSS takes its fp references from the fp runs of its
    own calibration, which have the same seeds and bits as the runs
    ``qss`` would make.  A dict given as ``outputs`` receives them too,
    adapter id -> the fp output of each sample: with ``seed`` as the
    distillation seed they are ``distill.align_adapters``' teachers.
    """
    if not adapters:
        raise RangeError("need at least one adapter")
    ids = [a.adapter_id for a in adapters]
    if len(set(ids)) != len(ids):
        raise RangeError(f"duplicate adapter ids: {ids}")
    provisionals = {}
    scores = {}
    for a in adapters:
        refs = []
        provisionals[a.adapter_id] = qt.calibrate(
            bundle, data, policy, adapter=a, lora_bits=lora_bits, seed=seed, outputs=refs)
        scores[a.adapter_id] = qss(bundle, a, provisionals[a.adapter_id], data, seed=seed, refs=refs)
        if outputs is not None:
            outputs[a.adapter_id] = refs

    report = qss_report(scores, tie_epsilon)
    if report.anchor == UNIFIED:
        shared = unified_profile(bundle, adapters, data, policy, lora_bits=lora_bits, seed=seed)
    else:
        # the anchor's calibration becomes the fixed shared parameters;
        # other adapters are later distilled to perform under them
        shared = provisionals[report.anchor]
    return shared, report
