"""Adapter alignment under a shared quantization profile.

The full-precision model with the original adapter acts as the teacher;
the simulated-quantization model is the student.  Only the low-rank
factors receive gradients, via reverse-mode accumulation over the
recorded execution tape with a straight-through estimator at every
fake-quant site.  Base weights and the profile stay frozen.

A run's tape holds no fake-quant entry for a weight: QuantSim quantizes
each weight once per ``QuantSimHooks``, untaped.  It holds one ``fq``
entry per factor, recorded when the run prepares the backbone, whose
output every backbone pass reads.  So a factor's gradient is its
straight-through mask applied once to the sum of its passes'
gradients.  Where the mask is 1 that is the sum itself.  Where it is
0 the factor entry lies outside a range that holds 0, so the entry is
nonzero and the update ``A - lr * (+-0)`` leaves its bits.

Reverse mode runs over the active part of the tape only.  A tape tensor
is active when it depends on a factor array; one forward sweep over the
entries finds them.  No vjp goes into an inactive input: no gradient
product for a frozen weight, and no straight-through mask over a
weight, the encoder or the first layer's input.  The gradient of an
active tensor comes only from the entries that read it, and their
outputs are active too.  So every active tensor receives the same
contributions in the same order as in a sweep over the whole tape, and
the factor gradients keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from . import quant as qt
from .errors import DivergenceError, ShapeError
from .qparams import ste_mask
from .tensor import matmul, sigmoid

__all__ = [
    "DistillConfig", "DistillTrace", "recon_loss", "finetune_adapter", "align_adapters",
]


@dataclass
class DistillConfig:
    steps: int
    learning_rate: float
    lambda_task: float = 0.1
    batch: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning rate must be finite and nonnegative")
        if not (math.isfinite(self.lambda_task) and self.lambda_task >= 0):
            raise ValueError("lambda_task must be finite and nonnegative")
        if self.batch < 1:
            raise ValueError("batch must be positive")


@dataclass
class DistillTrace:
    rows: list = field(default_factory=list)  # (step, recon, task, total)

    def append(self, step, recon, task, total):
        self.rows.append((step, float(recon), float(task), float(total)))

    def recon(self, idx):
        return self.rows[idx][1]

    def to_csv(self) -> str:
        lines = ["step,recon,task,total"]
        for step, recon, task, total in self.rows:
            lines.append(f"{step},{recon!r},{task!r},{total!r}")
        return "\n".join(lines) + "\n"


def recon_loss(teacher_out: np.ndarray, student_out: np.ndarray) -> float:
    """Mean squared error over flattened outputs."""
    if teacher_out.shape != student_out.shape:
        raise ShapeError(f"output shapes differ: {teacher_out.shape} vs {student_out.shape}")
    d = teacher_out.astype(np.float64) - student_out.astype(np.float64)
    return float(np.mean(d * d))


def _backward(tape: gr.Tape, seeds: dict, params) -> dict:
    """Walk the active tape in reverse; returns id(param) -> grad for ``params``.

    ``seeds`` maps id(output) -> output gradient.  A tensor is active when
    it is one of ``params`` or an entry output with an active input; vjps
    go into active inputs only (see the module docstring for why the
    gradients of ``params`` keep their bits).
    """
    active = {id(p) for p in params}
    for _op, inputs, out, _ctx in tape.entries:
        for i in inputs:
            if id(i) in active:
                active.add(id(out))
                break
    grads = {k: g for k, g in seeds.items() if k in active}

    def acc(arr, g):
        key = id(arr)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

    def live(arr):
        return id(arr) in active

    for op, inputs, out, ctx in reversed(tape.entries):
        g = grads.get(id(out))
        if g is None:
            continue
        if op == "matmul":
            a, b = inputs
            if live(a):
                acc(a, matmul(g, b.T))
            if live(b):
                acc(b, matmul(a.T, g))
        elif op == "add":
            for x in inputs:
                if live(x):
                    acc(x, g)
        elif op == "scale":
            x, s = inputs
            acc(x, g * s.reshape(()))  # alpha itself stays frozen
        elif op == "concat":
            offset = 0
            for part in inputs:
                n = part.shape[ctx]
                if live(part):
                    sl = [slice(None)] * g.ndim
                    sl[ctx] = slice(offset, offset + n)
                    acc(part, g[tuple(sl)])
                offset += n
        elif op == "activation":
            x = inputs[0]
            if ctx == "relu":
                acc(x, g * (x > 0).astype(np.float32))
            else:  # silu
                sig = sigmoid(x)
                acc(x, g * (sig * (1.0 + x * (1.0 - sig))).astype(np.float32))
        elif op == "fq":
            acc(inputs[0], g * ste_mask(inputs[0], ctx))
        else:
            raise NotImplementedError(f"no vjp for {op}")
    return {id(p): grads[id(p)] for p in params if id(p) in grads}


def _working_adapter(adapter: gr.LoRAAdapter) -> gr.LoRAAdapter:
    entries = {
        nid: gr.LoRAEntry(e.A.copy(), e.B.copy(), e.alpha)
        for nid, e in adapter.entries.items()
    }
    return gr.LoRAAdapter(adapter.adapter_id, entries)


def student_step(bundle, shared, adapter, batch, teachers, lambda_task, seed_base=0, hooks=None):
    """One distillation evaluation: losses plus factor gradients.

    ``batch`` is a list of (sample_index, x, cond, target) tuples;
    ``teachers`` caches the frozen teacher output per sample index.
    ``hooks`` is the ``QuantSimHooks`` of ``shared`` that the student
    runs share (see ``quant.execute_quantsim``).
    """
    recon_sum = 0.0
    task_sum = 0.0
    grads_total = {}
    inv = np.float32(1.0 / len(batch))
    factors = {(nid, which): getattr(entry, which)
               for nid, entry in adapter.entries.items() for which in ("A", "B")}
    for idx, x, cond, target in batch:
        tape = gr.Tape()
        student = qt.execute_quantsim(bundle, shared, adapter, x, cond, seed=seed_base + idx, tape=tape,
                                      hooks=hooks)
        teacher = teachers[idx]
        recon_sum += recon_loss(teacher, student)
        seed_g = (np.float32(2.0 / student.size) * inv) * (student - teacher)
        if lambda_task > 0 and target is not None:
            task_sum += recon_loss(target, student)
            seed_g = seed_g + (np.float32(2.0 * lambda_task / student.size) * inv) * (student - target)
        grads = _backward(tape, {id(student): seed_g}, factors.values())
        for key, arr in factors.items():
            g = grads.get(id(arr))
            if g is not None:
                grads_total[key] = grads_total.get(key, 0.0) + g
    recon = recon_sum / len(batch)
    task = task_sum / len(batch)
    return recon, task, recon + lambda_task * task, grads_total


def finetune_adapter(bundle, adapter, shared, data, cfg: DistillConfig):
    """Adapt one adapter to the shared profile by teacher-student descent.

    ``data`` is a list of (x, cond, target) samples; target may be None
    when lambda_task is zero.  Sample ``(step * batch + j) % len(data)``
    is the j-th of each step's batch; only those samples get a teacher
    pass.  One ``QuantSimHooks`` serves every student run, so each
    weight is quantized once per call.  Returns (updated adapter, trace),
    or raises DivergenceError when a step's loss or the factors after
    its update are non-finite.
    """
    if not data:
        raise ValueError("distillation needs at least one sample")
    qt.check_coverage(shared, bundle)
    gr.check_adapter(bundle, adapter)

    teachers = {}   # sample index -> teacher output, for the samples the schedule visits
    hooks = qt.QuantSimHooks(shared)
    work = _working_adapter(adapter)
    trace = DistillTrace()
    lr = np.float32(cfg.learning_rate)

    for step in range(cfg.steps):
        batch = []
        for j in range(cfg.batch):
            i = (step * cfg.batch + j) % len(data)
            x, cond, target = data[i]
            if i not in teachers:
                teachers[i] = gr.execute_fp(bundle, x, cond, adapter, noise_seed=cfg.seed + i)
            batch.append((i, x, cond, target))
        recon, task, total, grads = student_step(
            bundle, shared, work, batch, teachers, cfg.lambda_task, seed_base=cfg.seed, hooks=hooks)
        if not math.isfinite(total):
            raise DivergenceError(step)
        trace.append(step, recon, task, total)
        for (nid, which), g in grads.items():
            entry = work.entries[nid]
            if which == "A":
                entry.A = (entry.A - lr * g).astype(np.float32)
            else:
                entry.B = (entry.B - lr * g).astype(np.float32)
        if not all(np.isfinite(e.A).all() and np.isfinite(e.B).all() for e in work.entries.values()):
            raise DivergenceError(step, f"non-finite factors after the update of step {step}")
    return work, trace


def align_adapters(bundle, adapters, shared, data, cfg: DistillConfig, exclude=()):
    """Finetune each adapter independently on the one sample list ``data``;
    excluded ids pass through.  Results are order-independent since
    every adapter owns private state.
    """
    results = []
    for a in adapters:
        if a.adapter_id in exclude:
            results.append((a, None))
            continue
        results.append(finetune_adapter(bundle, a, shared, data, cfg))
    return results
