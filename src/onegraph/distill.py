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

A step runs its samples as one QuantSim run, sample j in column block j
(``graph.run_bundle``), and every block's output, loss and output
gradient has the bits of the sample's own run.  The vjps into
column-shaped tensors are elementwise or column-wise
(``tensor.matmul``), so each block of their gradients keeps those bits
too.  One vjp sums over the columns: the factor side of a product,
``matmul(g, b.T)`` into A_hat or B_hat.  ``_backward`` takes it block
by block and keeps a factor's gradient as one array per block, through
the sum over the passes and the straight-through mask, as the per-sample
runs did.  The blocks are added last, in sample order and from +0.0, as
the per-sample loop added its samples' gradients.  So stacking changes
no bit of the factors.

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


def _backward(tape: gr.Tape, seeds: dict, params, blocks: int = 1) -> dict:
    """Walk the active tape in reverse; returns id(param) -> grad for ``params``.

    ``seeds`` maps id(output) -> output gradient.  A tensor is active when
    it is one of ``params`` or an entry output with an active input; vjps
    go into active inputs only (see the module docstring for why the
    gradients of ``params`` keep their bits).  The tape is a run of
    ``blocks`` column blocks; with more than one, the gradient of a
    product's left operand is a list of one array per block, and a
    parameter's blocks are added in block order.  Each gradient returned
    is a sum from +0.0, as the per-sample loop added its samples.
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
        if key not in grads:
            grads[key] = g
        elif isinstance(g, list):
            grads[key] = [old + new for old, new in zip(grads[key], g)]
        else:
            grads[key] = grads[key] + g

    def live(arr):
        return id(arr) in active

    for op, inputs, out, ctx in reversed(tape.entries):
        g = grads.get(id(out))
        if g is None:
            continue
        if op == "matmul":
            a, b = inputs
            if live(a):
                if blocks == 1:
                    acc(a, matmul(g, b.T))
                else:
                    cols = g.shape[1] // blocks
                    acc(a, [matmul(g[:, c0:c0 + cols], b[:, c0:c0 + cols].T)
                            for c0 in range(0, g.shape[1], cols)])
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
            mask = ste_mask(inputs[0], ctx)
            acc(inputs[0], [gb * mask for gb in g] if isinstance(g, list) else g * mask)
        else:
            raise NotImplementedError(f"no vjp for {op}")
    return {id(p): sum(g, 0.0) if isinstance(g, list) else 0.0 + g
            for p in params if (g := grads.get(id(p))) is not None}


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
    runs share (see ``quant.execute_quantsim``).  The student is one
    taped run of the whole batch, sample j in column block j with noise
    seed ``seed_base`` + its index; a sample may come more than once.
    Losses and gradients have the bits of a run per sample (see the
    module docstring).
    """
    recon_sum = 0.0
    task_sum = 0.0
    inv = np.float32(1.0 / len(batch))
    factors = {(nid, which): getattr(entry, which)
               for nid, entry in adapter.entries.items() for which in ("A", "B")}
    x, cond = gr.stack_samples([(x, cond) for _, x, cond, _ in batch])
    tape = gr.Tape()
    out = qt.execute_quantsim(bundle, shared, adapter, x, cond,
                              seed=[seed_base + idx for idx, *_ in batch], tape=tape, hooks=hooks)
    seed_g = []
    for (idx, _, _, target), student in zip(batch, gr.split_blocks(out, len(batch))):
        teacher = teachers[idx]
        recon_sum += recon_loss(teacher, student)
        g = (np.float32(2.0 / student.size) * inv) * (student - teacher)
        if lambda_task > 0 and target is not None:
            task_sum += recon_loss(target, student)
            g = g + (np.float32(2.0 * lambda_task / student.size) * inv) * (student - target)
        seed_g.append(g)
    grads = _backward(tape, {id(out): np.concatenate(seed_g, axis=1)}, factors.values(), len(batch))
    grads_total = {key: grads[id(arr)] for key, arr in factors.items() if id(arr) in grads}
    recon = recon_sum / len(batch)
    task = task_sum / len(batch)
    return recon, task, recon + lambda_task * task, grads_total


def finetune_adapter(bundle, adapter, shared, data, cfg: DistillConfig, *, teachers=None,
                     hooks=None):
    """Adapt one adapter to the shared profile by teacher-student descent.

    ``data`` is a list of (x, cond, target) samples; target may be None
    when lambda_task is zero.  Sample ``(step * batch + j) % len(data)``
    is the j-th of each step's batch, and a step is one student run over
    its batch (``student_step``).  The teacher of sample i is
    ``execute_fp`` with ``adapter`` and noise seed ``cfg.seed + i``.
    ``teachers`` supplies them, one per sample, when the caller has them
    (as ``sensitivity.build_shared_profile`` hands them back); without
    it only the samples the schedule visits get a teacher run, one per
    sample.  ``hooks`` is a ``QuantSimHooks`` of ``shared`` that every
    student run shares, a fresh one when None; so each weight is
    quantized once per hooks object.  A sample with a NaN or an infinity
    raises ``RangeError`` before any run.  Returns (updated adapter,
    trace), or raises DivergenceError when a step's loss or the factors
    after its update are non-finite.
    """
    if not data:
        raise ValueError("distillation needs at least one sample")
    if teachers is not None and len(teachers) != len(data):
        raise ValueError(f"{len(teachers)} teacher outputs for {len(data)} samples")
    qt.check_finite_samples(data)
    qt.check_coverage(shared, bundle)
    gr.check_adapter(bundle, adapter)

    # sample index -> teacher output, for the samples the schedule visits
    teachers = {} if teachers is None else dict(enumerate(teachers))
    hooks = qt.QuantSimHooks(shared) if hooks is None else hooks
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


def align_adapters(bundle, adapters, shared, data, cfg: DistillConfig, exclude=(), teachers=None):
    """Finetune each adapter independently on the one sample list ``data``;
    excluded ids pass through.  ``teachers`` maps adapter ids to their
    per-sample teacher outputs (``finetune_adapter``); an adapter it
    lacks gets teacher runs of its own.  One ``QuantSimHooks`` serves
    every adapter, so each weight is quantized once per call.  Results
    are order-independent: every adapter owns its factors, and the hooks
    keep nothing of one adapter that another's runs would read.
    """
    teachers = teachers or {}
    hooks = qt.QuantSimHooks(shared)
    results = []
    for a in adapters:
        if a.adapter_id in exclude:
            results.append((a, None))
            continue
        results.append(finetune_adapter(bundle, a, shared, data, cfg,
                                        teachers=teachers.get(a.adapter_id), hooks=hooks))
    return results
