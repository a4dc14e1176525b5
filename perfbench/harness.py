"""Workloads, phases and metrics of the onegraph benchmark.

Every workload runs in one process and drives ``onegraph`` only through
its public API.  A run has these phases:

* set-up, repeated ``setup_reps`` times; ``setup_s`` is their median and
  every repetition must produce identical artifacts;
* the harness's own reference computation (untimed): QuantSim outputs
  on the uncompiled bundle, which every served output must equal bit
  for bit, and full-precision outputs for PSNR;
* the measured loop, a closed loop with one client, for ``--seconds``,
  in rounds; a round also takes interleaved samples of the stages that
  the loop itself does not run (``Phases.aux``);
* an untimed tracemalloc pass for ``ram_peak_bytes``.

Every timed sample is bracketed by ``speed_probe`` runs, and the timed
end-to-end metrics are medians scaled to nominal machine speed.

A failed or mismatching operation is counted, never fatal; only a run
whose set-up never succeeds stops early.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import onegraph as og
from onegraph import compiler as cp
from onegraph import distill as dst
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph import sensitivity as sv

from tracer import COMPILER_PASSES, LAYERS, Tracer, aggregate

POLICY = og.Policy("w8a16")
LORA_BITS = 16
# With a tie band, some seeds fall back to the unified profile and then
# distill every adapter, so the work of a run would depend on its seed.
# A zero band always picks the argmax anchor; serve_wide measures the
# unified path, which it calls directly.
TIE_EPSILON = 0.0
RANK = 8
ADAPTER_AMPLITUDE = 0.1
SPIKE = 1.0
DISTILL_LR = 0.01
MIN_ROUNDS = 3
# Typical speed_probe() time on the 2-vCPU machine the benchmark was
# tuned on; it ranged from 1.3 to 2.7 ms there as other tenants came and went.
PROBE_NOMINAL_S = 0.002
LOADS_PER_ROUND = 3
P90_TAIL = 10


@dataclass(frozen=True)
class Config:
    """One workload.  Amplitudes are about sqrt(6/width), so that the
    relu backbone neither explodes nor vanishes through its depth.  With
    ``spike`` the last adapter carries one large outlier per factor."""

    name: str
    width: int
    depth: int
    batch: int
    steps: int
    amplitude: float
    adapters: int
    samples: int
    calib_samples: int
    setup_reps: int
    distill_steps: int = 1
    distill_batch: int = 1
    requests_per_round: int = 0
    spike: bool = False


CONFIGS = {
    "serve_wide": Config("serve_wide", width=256, depth=8, batch=16, steps=4, amplitude=0.15,
                         adapters=4, samples=4, calib_samples=2, setup_reps=3,
                         requests_per_round=4),
    "compile_deep": Config("compile_deep", width=32, depth=128, batch=2, steps=2, amplitude=0.43,
                           adapters=2, samples=4, calib_samples=2, setup_reps=3,
                           requests_per_round=4),
    "adapt_mid": Config("adapt_mid", width=128, depth=6, batch=8, steps=2, amplitude=0.2,
                        adapters=3, samples=4, calib_samples=4, setup_reps=15,
                        distill_steps=5, distill_batch=2, spike=True),
}

# (name, unit, better); the order is the order of the printed table.
# Times are scaled to nominal machine speed (see speed_probe);
# requests_per_s is as timed.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("request_ms_p50", "ms", "lower"),
    ("request_ms_p90", "ms", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("swap_ms_p50", "ms", "lower"),
    ("load_ms_p50", "ms", "lower"),
    ("compile_s", "s", "lower"),
    ("profile_s", "s", "lower"),
    ("distill_s", "s", "lower"),
    ("ram_peak_bytes", "B", "lower"),
    ("model_bytes", "B", "lower"),
    ("pack_bytes", "B", "lower"),
    ("output_psnr_db", "dB", "higher"),
    ("error_rate", "fraction", "lower"),
)


class SetupFailed(RuntimeError):
    """No set-up repetition succeeded, so nothing can be measured."""


def derive(seed: int, tag: str) -> int:
    """A 32-bit seed for one input stream, derived from the run seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{tag}".encode()).digest()[:4], "little")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def adapter_digest(adapters) -> str:
    parts = []
    for a in adapters:
        parts.append(a.adapter_id)
        for nid in sorted(a.entries):
            e = a.entries[nid]
            parts += [nid, e.A.tobytes(), e.B.tobytes(), repr(float(e.alpha))]
    return digest(*parts)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def psnr_db(ref: np.ndarray, test: np.ndarray) -> float:
    """PSNR with peak max|ref|, computed by the harness in float64."""
    ref64 = ref.astype(np.float64)
    mse = float(np.mean((ref64 - test.astype(np.float64)) ** 2))
    peak = float(np.max(np.abs(ref64)))
    return 99.0 if mse == 0.0 else float(10.0 * np.log10(peak * peak / mse))


_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.uniform(-1.0, 1.0, (64, 128)).astype(np.float32)
_PROBE_B = _PROBE_RNG.uniform(-1.0, 1.0, (128, 16)).astype(np.float32)


def speed_probe() -> float:
    """Seconds taken by a fixed piece of the program's kind of work.

    A sequential-k fp32 product on small arrays (like tensor.matmul) and
    a producer/consumer map over a node list (like the compiler passes).
    It is the harness's own code, so no change to onegraph moves it.

    On a shared host the speed of every stage moves with the load of
    other tenants, by up to 2x within minutes, so a run's medians as
    timed spread by a third across runs.  Each timed sample is therefore
    bracketed by probes, and the gated figures are the medians of
    ``sample * PROBE_NOMINAL_S / probe``, with probe the mean of the two
    brackets: the time the sample would take at nominal machine speed.
    """
    t0 = time.perf_counter()
    out = np.zeros((64, 16), dtype=np.float32)
    for k in range(128):
        out += _PROBE_A[:, k, None] * _PROBE_B[None, k, :]
    nodes = [(i, i - 1, i - 2) for i in range(1500)]
    producer = {n[0]: n for n in nodes}
    users = {}
    for n in nodes:
        for t in n[1:]:
            if t in producer:
                users.setdefault(t, []).append(n[0])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Inputs


TOY_SPEC = """name toy
steps 2
seed {seed}
input 6
cond 2
latent 4
section encoder
dense 4 silu
section backbone
lora 8 relu rank=2
lora 4 none rank=2
section decoder
dense 6 none
"""


def make_inputs(cfg: Config, seed: int, toy: bool):
    """Everything the program sees, derived from the run seed."""
    spec_seed = derive(seed, "model")
    if toy:
        text, rank, in_dim, cond_dim, batch = TOY_SPEC.format(seed=spec_seed), 2, 6, 2, 1
    else:
        w = cfg.width
        in_dim, cond_dim, batch, rank = w, max(2, w // 16), cfg.batch, RANK
        lines = [f"name {cfg.name}", f"steps {cfg.steps}", f"seed {spec_seed}", f"batch {batch}",
                 f"input {w}", f"cond {cond_dim}", f"latent {w}", f"amplitude {cfg.amplitude}",
                 "section encoder", f"dense {w} relu", "section backbone"]
        lines += [f"lora {w} relu rank={RANK}"] * (cfg.depth - 1) + [f"lora {w} none rank={RANK}"]
        lines += ["section decoder", f"dense {w} none"]
        text = "\n".join(lines) + "\n"
    adapter_specs = [
        ms.AdapterSpec(f"task{i}", seed=derive(seed, f"adapter{i}"), rank=rank, alpha=1.0,
                       amplitude=ADAPTER_AMPLITUDE,
                       spike=SPIKE if cfg.spike and i == cfg.adapters - 1 else 0.0)
        for i in range(cfg.adapters)
    ]
    rng = np.random.default_rng(derive(seed, "samples"))
    samples = [(rng.uniform(-1.0, 1.0, (in_dim, batch)).astype(np.float32),
                rng.uniform(-1.0, 1.0, (cond_dim, batch)).astype(np.float32))
               for _ in range(cfg.samples)]
    return SimpleNamespace(
        spec_text=text,
        adapter_specs=adapter_specs,
        samples=samples,
        noise_seeds=[derive(seed, f"noise{i}") for i in range(cfg.samples)],
        calib_seed=derive(seed, "calibration"),
        requests=random.Random(derive(seed, "requests")),
    )


# ---------------------------------------------------------------------------
# Operations


class Recorder:
    """Stage timings plus attempted/failed operation counts."""

    def __init__(self):
        self.times = defaultdict(list)
        self.scaled = defaultdict(list)
        self.probe_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @contextmanager
    def operation(self, what):
        """One attempted operation; an exception or a failed expectation fails it."""
        op = SimpleNamespace(ok=True, notes=[])

        def expect(cond, note):
            if not cond:
                op.ok = False
                op.notes.append(note)

        op.expect = expect
        self.attempted += 1
        try:
            yield op
        except Exception as exc:  # counted in error_rate; the run goes on
            op.ok = False
            op.notes.append(f"{type(exc).__name__}: {exc}")
        if not op.ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {'; '.join(op.notes)}")

    def add(self, stage, seconds, slowdown):
        """Record one sample, as timed and scaled to nominal machine speed."""
        self.times[stage].append(seconds)
        self.scaled[stage].append(seconds / slowdown)

    def slowdown(self):
        """How much slower than nominal the machine runs just now."""
        t0 = time.perf_counter()
        probe = min(speed_probe(), speed_probe())
        self.probe_wall += time.perf_counter() - t0
        self.times["probe"].append(probe)
        return probe / PROBE_NOMINAL_S

    def timed(self, stage, fn, *args, **kwargs):
        before = self.slowdown()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.add(stage, dt, (before + self.slowdown()) / 2)
        return result


def untimed(_stage, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def compile_and_pack(bundle, profile, adapters, name):
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    model = cp.freeze(frozen, profile, descriptors, name=name)
    return model, [cp.pack_lora(a, descriptors, profile) for a in adapters]


def distill_config(cfg: Config, seed: int):
    return dst.DistillConfig(steps=cfg.distill_steps, learning_rate=DISTILL_LR,
                             batch=cfg.distill_batch, seed=seed)


def references(bundle, profile, served, teachers, inputs):
    """QuantSim output per (adapter, sample), and the PSNR of those outputs
    against the fp outputs with the teacher adapters, pooled over every
    pair whose teacher is not None."""
    refs, fp_outs, sim_outs = {}, [], []
    for a_idx, (adapter, teacher) in enumerate(zip(served, teachers)):
        for s_idx, (x, cond) in enumerate(inputs.samples):
            seed = inputs.noise_seeds[s_idx]
            sim = qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=seed)
            refs[a_idx, s_idx] = sim
            if teacher is not None:
                fp_outs.append(gr.execute_fp(bundle, x, cond, teacher, noise_seed=seed))
                sim_outs.append(sim)
    return refs, psnr_db(np.stack(fp_outs), np.stack(sim_outs))


def request(phases, server, refs, inputs, a_idx, s_idx):
    """bind_lora if the adapter differs from the bound one, then infer."""
    rec = phases.rec
    with phases.request_id(), rec.operation("request") as op:
        x, cond = inputs.samples[s_idx]
        before = rec.slowdown()
        t0 = time.perf_counter()
        swap = None
        if server.bound != a_idx:
            t1 = time.perf_counter()
            rt.bind_lora(server.session, server.packs[a_idx])
            swap = time.perf_counter() - t1
            server.bound = a_idx
        out = rt.infer(server.session, x, cond, seed=inputs.noise_seeds[s_idx])
        dt = time.perf_counter() - t0
        slowdown = (before + rec.slowdown()) / 2
        if swap is not None:
            rec.add("swap", swap, slowdown)
        rec.add("request", dt, slowdown)
        op.expect(same_bits(out, refs[a_idx, s_idx]),
                  f"adapter {a_idx} sample {s_idx}: served output differs from QuantSim")


def memory_pass(model, pack, inputs, check_overlaps):
    """tracemalloc peak of load + first bind + one infer, and the plan."""
    x, cond = inputs.samples[0]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        session = rt.load_model(model)
        rt.bind_lora(session, pack)
        rt.infer(session, x, cond, seed=inputs.noise_seeds[0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    mem = {"ram_peak_bytes": peak, "arena_bytes": len(session.arena),
           "planned_ram_bytes": len(session.arena) + session.adapter_buffer_bytes}
    if check_overlaps:
        mem["plan_overlaps"] = sum(
            len(rt.check_plan(rt.lifetime_items(session.model.graphs[role]), plan))
            for role, plan in session.plans.items())
    return mem


class Phases:
    """Set-up repetitions and the measured loop of rounds, traced when asked."""

    def __init__(self, rec, tracer):
        self.rec = rec
        self.tracer = tracer
        self.aux_wall = 0.0    # interleaved aux samples, without their probes

    def excluded(self):
        """Wall time so far that is not the loop's own work."""
        return self.aux_wall + self.rec.probe_wall

    @contextmanager
    def traced(self, phase, op):
        if self.tracer is None:
            yield
            return
        self.tracer.phase, self.tracer.op = phase, op
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.tracer.phase = self.tracer.op = None

    def setups(self, reps, setup_fn, artifact_fn):
        """Repeat set-up; every repetition must give the first one's artifacts."""
        states = []
        for rep in range(reps):
            gc.collect()
            with self.traced("setup", rep), self.rec.operation(f"setup {rep}"):
                states.append(self.rec.timed("setup", setup_fn))
        if not states:
            raise SetupFailed("; ".join(self.rec.errors))
        first = artifact_fn(states[0])
        for rep, state in enumerate(states[1:], 1):
            with self.rec.operation(f"setup {rep} artifacts") as op:
                op.expect(artifact_fn(state) == first, f"setup {rep}: artifacts differ from setup 0")
        return states[-1]

    def loop(self, seconds, round_fn):
        """Rounds until `seconds` pass; with a tracer every other round is traced.

        Returns the loop's wall time and, split by traced or not, each
        round's time, both without interleaved ``aux`` samples and probes.
        """
        gc.collect()
        round_times = {False: [], True: []}
        excluded_before = self.excluded()
        start = time.perf_counter()
        i = 0
        while i < MIN_ROUNDS or time.perf_counter() - start < seconds:
            traced = self.tracer is not None and i % 2 == 1
            with self.traced("loop", i) if traced else nullcontext():
                before = self.excluded()
                t0 = time.perf_counter()
                round_fn(i)
                round_times[traced].append(
                    time.perf_counter() - t0 - (self.excluded() - before))
            i += 1
        wall = time.perf_counter() - start - (self.excluded() - excluded_before)
        return wall, round_times

    @contextmanager
    def request_id(self):
        """Tag spans with ``<round>.<n>``, so the spans of one request share an id."""
        if self.tracer is None or self.tracer.op is None:
            yield
            return
        outer = self.tracer.op
        self.tracer.op = f"{outer}.{len(self.rec.times['request'])}"
        try:
            yield
        finally:
            self.tracer.op = outer

    @contextmanager
    def aux(self, what):
        """One interleaved sample of a stage that the loop itself does not run.

        Spreading these samples over the whole loop, instead of taking
        them in one block, keeps their medians from landing in a single
        slow stretch of a shared machine.  Their wall time is left out of
        the loop's, and a trace files their spans under phase "aux".
        """
        tracing = self.tracer is not None and self.tracer.phase == "loop"
        if tracing:
            self.tracer.phase = "aux"
        t0 = time.perf_counter()
        probes = self.rec.probe_wall
        try:
            with self.rec.operation(what) as op:
                yield op
        finally:
            self.aux_wall += time.perf_counter() - t0 - (self.rec.probe_wall - probes)
            if tracing:
                self.tracer.phase = "loop"


class Deployment:
    """Compile + pack, then a cold load, once per round; the bytes must repeat."""

    def __init__(self, rec, bundle, profile, adapters, name):
        self.rec = rec
        self.build_args = (bundle, profile, adapters, name)
        self.model = self.packs = None

    def cold_start(self):
        """A freshly loaded server, or None when compiling or loading failed."""
        with self.rec.operation("compile") as op:
            model, packs = self.rec.timed("compile", compile_and_pack, *self.build_args)
            if self.model is None:
                self.model, self.packs = model, packs
            op.expect((model, packs) == (self.model, self.packs), "compile: artifacts differ")
        if self.model is None:
            return None
        server = SimpleNamespace(session=None, packs=self.packs, bound=None)
        with self.rec.operation("load"):
            server.session = self.rec.timed("load", rt.load_model, self.model)
        return server if server.session is not None else None

    def built(self):
        if self.model is None:
            raise SetupFailed("no round compiled: " + "; ".join(self.rec.errors))
        return self.model, self.packs


# ---------------------------------------------------------------------------
# Workloads


def serve_wide(cfg, inputs, seconds, phases):
    """Set-up compiles once; the loop binds and infers.

    Each round serves a burst of requests, then takes interleaved samples
    of cold loads and recompiles, and every other round a distillation
    or a unified profile, which this workload's set-up does not repeat.
    """
    rec = phases.rec
    calib = inputs.samples[:cfg.calib_samples]
    data = [(x, c, None) for x, c in calib]

    def setup():
        bundle = ms.build_bundle(ms.parse_model_spec(inputs.spec_text))
        adapters = [ms.build_adapter(bundle, spec) for spec in inputs.adapter_specs]
        shared = rec.timed("profile", sv.unified_profile, bundle, adapters, calib, POLICY,
                           lora_bits=LORA_BITS, seed=inputs.calib_seed)
        model, packs = rec.timed("compile", compile_and_pack, bundle, shared, adapters, cfg.name)
        session = rec.timed("load", rt.load_model, model)
        rt.bind_lora(session, packs[0])
        return SimpleNamespace(bundle=bundle, adapters=adapters, profile=shared, model=model,
                               packs=packs, session=session, bound=0)

    st = phases.setups(cfg.setup_reps, setup,
                       lambda s: digest(s.model, *s.packs, qt.profile_to_text(s.profile)))
    profile_text = qt.profile_to_text(st.profile)
    refs, psnr = references(st.bundle, st.profile, st.adapters, st.adapters, inputs)
    dcfg = distill_config(cfg, inputs.calib_seed)
    distilled = []

    def round_(i):
        for _ in range(cfg.requests_per_round):
            request(phases, st, refs, inputs, inputs.requests.randrange(len(st.adapters)),
                    inputs.requests.randrange(len(inputs.samples)))
        for _ in range(LOADS_PER_ROUND):
            with phases.aux("load"):
                rec.timed("load", rt.load_model, st.model)
        with phases.aux("compile") as op:
            model, packs = rec.timed("compile", compile_and_pack, st.bundle, st.profile,
                                     st.adapters, cfg.name)
            op.expect(model == st.model and packs == st.packs, "recompile: artifacts differ")
        if i % 4 == 1:
            with phases.aux("distill") as op:
                (tuned, _), = rec.timed("distill", dst.align_adapters, st.bundle,
                                        st.adapters[:1], st.profile, data, dcfg)
                distilled.append(adapter_digest([tuned]))
                op.expect(distilled[-1] == distilled[0], "distill: factors differ")
        if i % 4 == 3:
            with phases.aux("profile") as op:
                again = rec.timed("profile", sv.unified_profile, st.bundle, st.adapters, calib,
                                  POLICY, lora_bits=LORA_BITS, seed=inputs.calib_seed)
                op.expect(qt.profile_to_text(again) == profile_text, "profile differs")

    wall, round_times = phases.loop(seconds, round_)
    return SimpleNamespace(wall=wall, round_times=round_times, psnr=psnr, model=st.model,
                           packs=st.packs, qss_rule="unified", distilled=distilled[:1])


def compile_deep(cfg, inputs, seconds, phases):
    """Each round compiles, packs, cold-loads and serves a few requests.

    The non-anchor adapter is distilled once before the loop (that is
    what gets packed); each round also takes an interleaved distillation
    sample, and every third round a shared-profile sample.
    """
    rec = phases.rec
    calib = inputs.samples[:cfg.calib_samples]
    data = [(x, c, None) for x, c in calib]

    def setup():
        bundle = ms.build_bundle(ms.parse_model_spec(inputs.spec_text))
        adapters = [ms.build_adapter(bundle, spec) for spec in inputs.adapter_specs]
        shared, report = rec.timed("profile", sv.build_shared_profile, bundle, adapters, calib,
                                   POLICY, TIE_EPSILON, lora_bits=LORA_BITS, seed=inputs.calib_seed)
        return SimpleNamespace(bundle=bundle, adapters=adapters, shared=shared, report=report)

    def profile_key(shared, report):
        return digest(qt.profile_to_text(shared), report.to_text())

    st = phases.setups(cfg.setup_reps, setup, lambda s: profile_key(s.shared, s.report))
    exclude = set() if st.report.anchor == sv.UNIFIED else {st.report.anchor}
    dcfg = distill_config(cfg, inputs.calib_seed)
    deployed = [a for a, _ in dst.align_adapters(st.bundle, st.adapters, st.shared, data, dcfg,
                                                  exclude=exclude)]
    want_factors = adapter_digest(deployed)
    want_profile = profile_key(st.shared, st.report)
    refs, psnr = references(st.bundle, st.shared, deployed, st.adapters, inputs)
    deployment = Deployment(rec, st.bundle, st.shared, deployed, cfg.name)

    def round_(i):
        server = deployment.cold_start()
        if server is not None:
            for _ in range(cfg.requests_per_round):
                request(phases, server, refs, inputs, inputs.requests.randrange(len(deployed)),
                        inputs.requests.randrange(len(inputs.samples)))
        with phases.aux("distill") as op:
            results = rec.timed("distill", dst.align_adapters, st.bundle, st.adapters, st.shared,
                                data, dcfg, exclude=exclude)
            op.expect(adapter_digest([a for a, _ in results]) == want_factors,
                      "distill: factors differ")
        if i % 3 == 2:
            with phases.aux("profile") as op:
                got = rec.timed("profile", sv.build_shared_profile, st.bundle, st.adapters, calib,
                                POLICY, TIE_EPSILON, lora_bits=LORA_BITS, seed=inputs.calib_seed)
                op.expect(profile_key(*got) == want_profile, "profile or QSS report differs")

    wall, round_times = phases.loop(seconds, round_)
    model, packs = deployment.built()
    return SimpleNamespace(wall=wall, round_times=round_times, psnr=psnr, model=model,
                           packs=packs, qss_rule=st.report.rule, distilled=[want_factors])


def adapt_mid(cfg, inputs, seconds, phases):
    """Each round profiles (calibration + QSS), aligns, then deploys the result."""
    rec = phases.rec
    data = [(x, c, None) for x, c in inputs.samples]

    def setup():
        bundle = ms.build_bundle(ms.parse_model_spec(inputs.spec_text))
        adapters = [ms.build_adapter(bundle, spec) for spec in inputs.adapter_specs]
        return SimpleNamespace(bundle=bundle, adapters=adapters)

    st = phases.setups(cfg.setup_reps, setup, lambda s: adapter_digest(s.adapters))
    dcfg = distill_config(cfg, inputs.calib_seed)

    def profile_and_align(timed):
        shared, report = timed("profile", sv.build_shared_profile, st.bundle, st.adapters,
                               inputs.samples, POLICY, TIE_EPSILON, lora_bits=LORA_BITS,
                               seed=inputs.calib_seed)
        exclude = set() if report.anchor == sv.UNIFIED else {report.anchor}
        results = timed("distill", dst.align_adapters, st.bundle, st.adapters, shared, data,
                        dcfg, exclude=exclude)
        return shared, report, [a for a, _ in results], exclude

    shared, report, deployed, exclude = profile_and_align(untimed)
    want = (qt.profile_to_text(shared), report.to_text(), adapter_digest(deployed))
    teachers = [a if a.adapter_id not in exclude else None for a in st.adapters]
    refs, psnr = references(st.bundle, shared, deployed, teachers, inputs)
    deployment = Deployment(rec, st.bundle, shared, deployed, cfg.name)

    def round_(_i):
        with rec.operation("profile+distill") as op:
            got = profile_and_align(rec.timed)
            op.expect((qt.profile_to_text(got[0]), got[1].to_text(), adapter_digest(got[2])) == want,
                      "profile text, QSS report or distilled factors differ")
        server = deployment.cold_start()
        if server is None:
            return
        order = list(range(len(deployed)))
        inputs.requests.shuffle(order)
        for a_idx in order:
            request(phases, server, refs, inputs, a_idx, inputs.requests.randrange(len(inputs.samples)))

    wall, round_times = phases.loop(seconds, round_)
    model, packs = deployment.built()
    return SimpleNamespace(wall=wall, round_times=round_times, psnr=psnr, model=model,
                           packs=packs, qss_rule=report.rule, distilled=[want[2]])


WORKLOADS = {"serve_wide": serve_wide, "compile_deep": compile_deep, "adapt_mid": adapt_mid}


# ---------------------------------------------------------------------------
# Results


def environment(seed):
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    caps = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "thread_caps": caps,
        "platform": platform.platform(),
        "seed": seed,
    }


def stage_stats(rec):
    """Sample count and quantiles of every timed stage, in seconds, as
    timed and scaled to nominal machine speed."""
    out = {}
    for kind, series in (("timed", rec.times), ("scaled", rec.scaled)):
        for stage, v in sorted(series.items()):
            q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
            out[f"{stage}.{kind}"] = {"n": len(v), "min": min(v), "p25": q[0], "p50": q[1],
                                      "p75": q[2], "max": max(v)}
    return out


def end_to_end(rec, out, mem):
    """The 14 end-to-end metrics; None where a run cannot report one.

    Each timed metric also carries ``timed``, its value as timed.
    """
    def figures(series):
        med = lambda stage, scale=1.0: (
            statistics.median(series[stage]) * scale if series[stage] else None)
        lat = series["request"]
        p90 = None
        if len(lat) >= 2:
            cut = statistics.quantiles(lat, n=10)[-1]
            if sum(1 for v in lat if v > cut) >= P90_TAIL:
                p90 = cut * 1e3
        return {"setup_s": med("setup"), "request_ms_p50": med("request", 1e3),
                "request_ms_p90": p90, "swap_ms_p50": med("swap", 1e3),
                "load_ms_p50": med("load", 1e3), "compile_s": med("compile"),
                "profile_s": med("profile"), "distill_s": med("distill")}

    timed = figures(rec.times)
    values = {
        **figures(rec.scaled),
        "requests_per_s": len(rec.times["request"]) / out.wall,
        "ram_peak_bytes": mem["ram_peak_bytes"],
        "model_bytes": len(out.model),
        "pack_bytes": statistics.fmean(len(p) for p in out.packs),
        "output_psnr_db": out.psnr,
        "error_rate": rec.failed / max(rec.attempted, 1),
    }
    result = {}
    for name, unit, better in E2E_METRICS:
        result[name] = {"value": values[name], "unit": unit, "better": better}
        if name in timed:
            result[name]["timed"] = timed[name]
    return result


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(spans, out, mem, setup_reps):
    """Layer metrics; loop-phase values are per traced round, set-up ones
    per set-up repetition, and graph-structure ones per compile."""
    n_traced = len(out.round_times[True])
    loop = aggregate(spans, {"loop"}, n_traced)
    setup = aggregate(spans, {"setup"}, setup_reps)
    calls = aggregate(spans, {"setup", "loop", "aux"}, 1)
    m = {}
    for name in ("tensor.matmul", "qparams.dequantize_array", "qparams.quantize_array",
                 "qparams.fake_quant", "graph.run_graph", "graph.validate", "quant.calibrate",
                 "quant.execute_quantsim", "sensitivity.qss", "distill.student_step",
                 "runtime.plan_memory"):
        m[f"{name}.calls"] = loop.get(f"{name}.calls", 0.0)
    for name in ("tensor.matmul", "tensor.activation", "qparams.dequantize_array",
                 "qparams.quantize_array", "qparams.fake_quant", "graph.validate",
                 "quant.calibrate", "quant.execute_quantsim", "sensitivity.qss",
                 "sensitivity.unified_profile", "distill.student_step",
                 *(f"compiler.{p}" for p in COMPILER_PASSES), "compiler.freeze",
                 "compiler.pack_lora", "compiler.load_compiled", "compiler.unpack_lora",
                 "runtime.plan_memory", "runtime.bind_lora", "runtime.infer"):
        m[f"{name}.s"] = loop.get(f"{name}.s", 0.0)
    m["tensor.matmul.macs"] = loop.get("tensor.matmul.macs", 0.0)
    m["qparams.dequantize_array.elems"] = loop.get("qparams.dequantize_array.elems", 0.0)
    m["qparams.quantize_array.saturated_frac"] = _share(
        loop.get("qparams.quantize_array.saturated", 0.0),
        loop.get("qparams.quantize_array.elems", 0.0))
    m["graph.run_graph.self_s"] = loop.get("graph.run_graph.self_s", 0.0)
    m["graph.run_graph.nodes"] = loop.get("graph.run_graph.nodes", 0.0)
    m["sensitivity.unified_fallbacks"] = _share(
        calls.get("sensitivity.build_shared_profile.fallback", 0.0),
        calls.get("sensitivity.build_shared_profile.calls", 0.0))
    m["distill.recon_final"] = _share(
        calls.get("distill.finetune_adapter.recon_final", 0.0),
        calls.get("distill.finetune_adapter.calls", 0.0))
    compiles = calls.get("compiler.optimize_for_freeze.calls", 0.0)
    for p in COMPILER_PASSES:
        m[f"compiler.{p}.nodes_out"] = _share(calls.get(f"compiler.{p}.nodes_out", 0.0), compiles)
    m["compiler.qlinear_nodes"] = _share(
        calls.get("compiler.optimize_for_freeze.qlinear_nodes", 0.0), compiles)
    m["runtime.arena_bytes"] = mem["arena_bytes"]
    m["runtime.planned_ram_bytes"] = mem["planned_ram_bytes"]
    m["runtime.peak_over_plan"] = (
        mem["ram_peak_bytes"] / mem["planned_ram_bytes"] if mem["planned_ram_bytes"] else None)
    m["runtime.plan_overlaps"] = mem["plan_overlaps"]
    m["setup.modelspec.build_bundle.s"] = setup.get("modelspec.build_bundle.s", 0.0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = loop[f"layer.{layer}.self_s"]
        m[f"setup.{layer}.self_s"] = setup[f"layer.{layer}.self_s"]
    untraced = statistics.median(out.round_times[False])
    traced = statistics.median(out.round_times[True]) if out.round_times[True] else untraced
    m["trace.overhead_frac"] = traced / untraced - 1.0
    return m


def run_workload(name, seed, seconds, trace, toy, out_dir):
    """Run one workload; returns the result record (see ``run.py``)."""
    cfg = CONFIGS[name]
    inputs = make_inputs(cfg, seed, toy)
    rec = Recorder()
    tracer = Tracer() if trace else None
    phases = Phases(rec, tracer)
    out = WORKLOADS[name](cfg, inputs, seconds, phases)
    mem = dict.fromkeys(("ram_peak_bytes", "arena_bytes", "planned_ram_bytes", "plan_overlaps"))
    with rec.operation("memory pass"):
        mem.update(memory_pass(out.model, out.packs[0], inputs, check_overlaps=trace))
    if trace:
        with rec.operation("plan overlaps") as op:
            op.expect(mem["plan_overlaps"] == 0, f"{mem['plan_overlaps']} overlapping plan items")
    e2e = end_to_end(rec, out, mem)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "env": environment(seed),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "end_to_end": e2e,
        "planned_ram_bytes": mem["planned_ram_bytes"],
        "stages": stage_stats(rec),
        "rounds": len(out.round_times[False]) + len(out.round_times[True]),
        "fingerprint": {
            "artifact_sha256": digest(out.model, *out.packs),
            "distilled_sha256": out.distilled,
            "model_bytes": e2e["model_bytes"]["value"],
            "pack_bytes": e2e["pack_bytes"]["value"],
            "output_psnr_db": e2e["output_psnr_db"]["value"],
            "qss_rule": out.qss_rule,
            "spec_lines": inputs.spec_text.count("\n"),
            "graph_nodes": {role: len(g.nodes)
                            for role, g in sorted(cp.load_compiled(out.model).graphs.items())},
            "sample_shapes": [list(x.shape) + list(c.shape) for x, c in inputs.samples],
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    if trace:
        result["per_layer"] = per_layer(tracer.spans, out, mem, cfg.setup_reps)
        stem = os.path.join(out_dir, f"{name}-seed{seed}")
        tracer.write_jsonl(stem + ".spans.jsonl")
        with open(stem + ".layers.txt", "w") as fh:
            for key in sorted(result["per_layer"]):
                fh.write(f"{key} {result['per_layer'][key]!r}\n")
    with open(os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result
