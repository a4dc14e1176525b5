"""Batch is a run parameter: a run carries one column block per sample.

* ``graph.run_bundle`` takes one noise seed per column block.  Each
  block of an fp, observer, QuantSim and taped QuantSim run has the bits
  of its own run, for 1, 2 and 3 blocks.
* ``sensitivity.qss`` and each ``distill.student_step`` make one run
  over their samples, and equal the per-sample loops they replace, also
  when a step's batch repeats samples.
* A wrong column count raises ``ShapeError``; a runtime session, and an
  input that is not 2-D, keep their exact shapes; a graph that would mix
  columns refuses more than one block.
* ``tensor.matmul`` past its plane cap equals the per-k loop.
* Calibration, QSS and distillation refuse a sample holding a NaN or an
  infinity before any run.
* One ``align_adapters`` call quantizes each weight once, and takes the
  teachers that ``build_shared_profile`` hands back.
"""

import numpy as np
import pytest
from test_distill import fp_seeds
from test_tensor import per_k_matmul

from onegraph import compiler as cp
from onegraph import distill as dst
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph import sensitivity as sv
from onegraph import tensor as tz
from onegraph.errors import CalibrationError, RangeError, ShapeError
from onegraph.rng import Rng

SEEDS = (5, 9, 2)


@pytest.fixture(params=("toy", "w64"))
def case(request, toy_bundle, toy_adapter, toy_samples, toy_profile):
    """(bundle, adapter, three samples, profile)."""
    if request.param == "toy":
        return toy_bundle, toy_adapter, toy_samples[:3], toy_profile
    bundle, adapters, _, profile = request.getfixturevalue("w64")
    return bundle, adapters[1], ms.make_samples(bundle, 3, 77), profile


def run(kind, bundle, adapter, profile, x, cond, seed):
    """(output, what else the run leaves: observers or tape)."""
    if kind == "fp":
        return gr.run_bundle(bundle, x, cond, adapter, noise_seed=seed), None
    if kind == "observer":
        observers = {}
        out = gr.run_bundle(bundle, x, cond, adapter, noise_seed=seed,
                            hooks=qt.ObserverHooks(observers))
        return out, observers
    tape = gr.Tape() if kind == "taped" else None
    return qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=seed, tape=tape), tape


@pytest.mark.parametrize("kind", ("fp", "observer", "quantsim", "taped"))
@pytest.mark.parametrize("blocks", (1, 2, 3))
def test_each_block_equals_its_own_run(kind, blocks, case):
    bundle, adapter, samples, profile = case
    data = samples[:blocks]
    x, cond = gr.stack_samples(data)
    out, extra = run(kind, bundle, adapter, profile, x, cond, SEEDS[:blocks])
    own = [run(kind, bundle, adapter, profile, xi, ci, s) for (xi, ci), s in zip(data, SEEDS)]
    assert out.shape[1] == x.shape[1]
    for block, (want, _) in zip(gr.split_blocks(out, blocks), own):
        assert block.tobytes() == want.tobytes()
    if kind == "observer":
        ranges = {}
        for _, observers in own:
            for key, o in observers.items():
                lo, hi = ranges.get(key, (np.inf, -np.inf))
                ranges[key] = (min(lo, o.running_min), max(hi, o.running_max))
        assert {k: (o.running_min, o.running_max) for k, o in extra.items()} == ranges
    if kind == "taped":
        # every entry of the one tape holds the bits of each sample's tape:
        # a column-shaped value block by block, a factor's value whole
        for j, (_, tape) in enumerate(own):
            assert len(extra.entries) == len(tape.entries)
            for (op, _, value, _), (own_op, _, own_value, _) in zip(extra.entries, tape.entries):
                assert op == own_op
                if value.shape != own_value.shape:
                    value = gr.split_blocks(value, blocks)[j]
                assert value.tobytes() == own_value.tobytes()


def reference_qss(bundle, adapter, profile, data, seed):
    """The per-sample loop that ``qss`` replaced."""
    total = 0.0
    for i, (x, cond) in enumerate(data):
        ref = gr.execute_fp(bundle, x, cond, adapter, noise_seed=seed + i)
        sim = qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=seed + i)
        lo, hi = float(min(ref.min(), sim.min())), float(max(ref.max(), sim.max()))
        if hi > lo:
            total += sv.js_divergence(sv._distribution(ref, lo, hi), sv._distribution(sim, lo, hi))
    return total / len(data)


@pytest.mark.parametrize("count", (1, 2, 3))
def test_qss_equals_the_per_sample_loop(count, case):
    bundle, adapter, samples, profile = case
    data = samples[:count]
    want = reference_qss(bundle, adapter, profile, data, seed=4)
    assert sv.qss(bundle, adapter, profile, data, seed=4) == want
    refs = [gr.execute_fp(bundle, x, c, adapter, noise_seed=4 + i) for i, (x, c) in enumerate(data)]
    assert sv.qss(bundle, adapter, profile, data, seed=4, refs=refs) == want


def reference_step(bundle, shared, adapter, batch, teachers, lambda_task, seed_base=0, hooks=None):
    """The per-sample loop that ``student_step`` replaced: one taped run
    per sample, its gradients added in sample order from 0.0."""
    recon_sum = task_sum = 0.0
    grads_total = {}
    inv = np.float32(1.0 / len(batch))
    factors = {(nid, which): getattr(entry, which)
               for nid, entry in adapter.entries.items() for which in ("A", "B")}
    for idx, x, cond, target in batch:
        tape = gr.Tape()
        student = qt.execute_quantsim(bundle, shared, adapter, x, cond, seed=seed_base + idx,
                                      tape=tape, hooks=hooks)
        teacher = teachers[idx]
        recon_sum += dst.recon_loss(teacher, student)
        seed_g = (np.float32(2.0 / student.size) * inv) * (student - teacher)
        if lambda_task > 0 and target is not None:
            task_sum += dst.recon_loss(target, student)
            seed_g = seed_g + (np.float32(2.0 * lambda_task / student.size) * inv) * (student - target)
        grads = dst._backward(tape, {id(student): seed_g}, factors.values())
        for key, arr in factors.items():
            if id(arr) in grads:
                grads_total[key] = grads_total.get(key, 0.0) + grads[id(arr)]
    recon, task = recon_sum / len(batch), task_sum / len(batch)
    return recon, task, recon + lambda_task * task, grads_total


def aligned(bundle, adapters, profile, data, cfg):
    results = dst.align_adapters(bundle, adapters, profile, data, cfg)
    return [(b"".join(e.A.tobytes() + e.B.tobytes() for e in a.entries.values()), trace.to_csv())
            for a, trace in results]


@pytest.mark.parametrize("batch", (2, 5))
@pytest.mark.parametrize("lambda_task", (0.0, 0.3))
def test_align_adapters_equals_the_per_sample_loop(batch, lambda_task, w64, monkeypatch):
    """Two samples, so a batch of 5 repeats them; with a task loss, one
    sample has a target and the other none."""
    bundle, adapters, samples, profile = w64
    rng = Rng(8)
    data = [(x, c, rng.uniform(x.shape, -1, 1) if i == 0 else None)
            for i, (x, c) in enumerate(samples)]
    cfg = dst.DistillConfig(steps=3, learning_rate=1e-3, lambda_task=lambda_task, batch=batch, seed=6)
    got = aligned(bundle, adapters, profile, data, cfg)
    monkeypatch.setattr(dst, "student_step", reference_step)
    assert got == aligned(bundle, adapters, profile, data, cfg)


def test_a_wrong_column_count_is_a_shape_error(toy_bundle, toy_samples):
    x, c = toy_samples[0]
    two = gr.stack_samples(toy_samples[:2])
    three = gr.stack_samples(toy_samples[:3])
    with pytest.raises(ShapeError, match="input 'x'"):
        gr.run_bundle(toy_bundle, *two, noise_seed=1)
    with pytest.raises(ShapeError, match="input 'x'"):
        gr.run_bundle(toy_bundle, *three, noise_seed=[1, 2])
    with pytest.raises(ShapeError, match="input 'cond'"):
        gr.run_bundle(toy_bundle, two[0], c, noise_seed=[1, 2])
    with pytest.raises(ShapeError, match="0 column blocks"):
        gr.run_bundle(toy_bundle, x[:, :0], c[:, :0], noise_seed=[])


def test_a_session_refuses_any_batch_but_its_own(toy_bundle, toy_profile, toy_adapter, toy_samples):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    session = rt.load_model(cp.freeze(frozen, toy_profile, descriptors, name="toy"))
    rt.bind_lora(session, cp.pack_lora(toy_adapter, descriptors, toy_profile))
    x, cond = toy_samples[0]
    before = rt.infer(session, x, cond, seed=3)
    two = gr.stack_samples(toy_samples[:2])
    with pytest.raises(ShapeError, match=r"expected shape \(6, 1\)"):
        rt.infer(session, *two, seed=3)
    with pytest.raises(ShapeError, match=r"expected shape \(6, 1\)"):
        gr.run_bundle(session.bundle, *two, noise_seed=[3, 4], programs=session.programs)
    assert rt.infer(session, x, cond, seed=3).tobytes() == before.tobytes()


def scale_graph():
    """out = x * s, with x [3, 2] and a 1-D s."""
    return gr.Graph(nodes=[gr.Node(0, "scale", [0, 1], 2)],
                    inputs=[gr.GraphInput("x", 0, (3, 2)), gr.GraphInput("s", 1, (1,))],
                    outputs=[("out", 2)], constants={})


def test_an_input_that_is_not_2d_keeps_its_exact_shape():
    p = gr.prepare(scale_graph())
    x = Rng(1).uniform((3, 4), -1, 1)
    s = np.array([1.5], dtype=np.float32)
    out = gr.invoke(p, {"x": x, "s": s}, blocks=2)["out"]
    for block, xb in zip(gr.split_blocks(out, 2), gr.split_blocks(x, 2)):
        assert block.tobytes() == gr.invoke(p, {"x": xb, "s": s})["out"].tobytes()
    with pytest.raises(ShapeError, match=r"input 's': expected shape \(1,\)"):
        gr.invoke(p, {"x": x, "s": np.array([1.5, 1.5], dtype=np.float32)}, blocks=2)


@pytest.mark.parametrize("mixing", ("concat on the columns", "a constant added"))
def test_a_graph_that_mixes_columns_runs_one_block_only(mixing):
    g = scale_graph()
    if mixing == "concat on the columns":
        g.nodes.append(gr.Node(1, "concat", [2, 0], 3, {"axis": 1}))
    else:
        g.constants[4] = np.ones((3, 2), dtype=np.float32)
        g.nodes.append(gr.Node(1, "add", [2, 4], 3))
    g.outputs = [("out", 3)]
    gr.validate(g)
    assert not gr.blockwise(g)
    p = gr.prepare(g)
    s = np.array([2.0], dtype=np.float32)
    gr.invoke(p, {"x": np.ones((3, 2), np.float32), "s": s})
    with pytest.raises(ShapeError, match="cannot run 2 column blocks"):
        gr.invoke(p, {"x": np.ones((3, 4), np.float32), "s": s}, blocks=2)


@pytest.mark.parametrize("m, k, n, slices", ((256, 256, 80, 2), (300, 64, 60, 2), (2, 24, 9000, 2),
                                             (600, 300, 40, 2), (40, 300, 600, 2), (256, 64, 64, 1),
                                             (256, 256, 32, 1), (256, 64, 16, 1)))
def test_matmul_past_the_plane_cap_equals_the_per_k_loop(m, k, n, slices, monkeypatch):
    """256 x 64 is the cap itself and takes one plane, as do 256 x 32
    (serve_wide's W x over its two calibration samples) and 256 x 16.  A
    slice of 600 x 300 x 40 or 40 x 300 x 600 still takes its k in
    blocks."""
    rng = Rng(m + k + n)
    a, b = rng.uniform((m, k), -2, 2), rng.uniform((k, n), -2, 2)
    planes = []
    product = tz._product
    monkeypatch.setattr(tz, "_product", lambda a, b: planes.append(a.shape[0] * b.shape[1])
                        or product(a, b))
    got = tz.matmul(a, b)
    assert len(planes) == slices and max(planes) <= tz.MATMUL_PLANE_FLOATS
    assert got.flags.c_contiguous and got.tobytes() == per_k_matmul(a, b).tobytes()


def non_finite(bundle, where, value):
    """Three toy samples with ``value`` in sample 1's ``where``."""
    samples = [(x.copy(), c.copy(), Rng(3).uniform(x.shape, -1, 1))
               for x, c in ms.make_samples(bundle, 3, 5)]
    samples[1][("x", "cond", "target").index(where)][0, 0] = value
    return samples


def runs(monkeypatch):
    calls = []
    real = gr.run_bundle
    monkeypatch.setattr(gr, "run_bundle", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("stage", ("calibrate", "unified", "shared", "qss", "finetune"))
def test_a_non_finite_sample_is_refused_before_any_run(stage, value, toy_bundle, toy_adapter,
                                                       toy_profile, monkeypatch):
    calls = runs(monkeypatch)
    policy = qt.Policy("w8a16")
    for where in ("x", "cond") + (("target",) if stage == "finetune" else ()):
        data = non_finite(toy_bundle, where, value)
        pairs = [(x, c) for x, c, _ in data]
        with pytest.raises(RangeError, match=f"sample 1: {where} holds a NaN or an infinity"):
            if stage == "calibrate":
                qt.calibrate(toy_bundle, pairs, policy, adapter=toy_adapter)
            elif stage == "unified":
                sv.unified_profile(toy_bundle, [toy_adapter], pairs, policy)
            elif stage == "shared":
                sv.build_shared_profile(toy_bundle, [toy_adapter], pairs, policy)
            elif stage == "qss":
                sv.qss(toy_bundle, toy_adapter, toy_profile, pairs)
            else:
                cfg = dst.DistillConfig(steps=1, learning_rate=1e-3, batch=1)
                dst.finetune_adapter(toy_bundle, toy_adapter, toy_profile, data, cfg)
    assert calls == []


@pytest.mark.parametrize("stage", ("calibrate", "unified"))
def test_no_sample_is_a_calibration_error(stage, toy_bundle, toy_adapter):
    """Not numpy's error for stacking nothing."""
    with pytest.raises(CalibrationError, match="at least one sample"):
        if stage == "calibrate":
            qt.calibrate(toy_bundle, [], qt.Policy("w8a16"), adapter=toy_adapter)
        else:
            sv.unified_profile(toy_bundle, [toy_adapter], [], qt.Policy("w8a16"))


def test_align_adapters_quantizes_each_weight_once_per_call(w64, monkeypatch):
    bundle, adapters, samples, profile = w64
    quantized = []
    real = qp.quantize_array
    monkeypatch.setattr(qp, "quantize_array", lambda t, p: quantized.append(id(t)) or real(t, p))
    cfg = dst.DistillConfig(steps=2, learning_rate=1e-4, batch=2, seed=4)
    results = dst.align_adapters(bundle, adapters, profile, [(x, c, None) for x, c in samples], cfg)
    assert len(results) == 2 and all(trace is not None for _, trace in results)
    weights = [id(g.constants[t]) for _, g in bundle.graphs() for t in gr.weight_tids(g)]
    assert sorted(quantized) == sorted(weights)


def test_teachers_from_the_shared_profile_skip_the_fp_runs(toy_bundle, toy_adapter, toy_samples,
                                                           monkeypatch):
    spiked = ms.build_adapter(toy_bundle, ms.AdapterSpec("spiked", seed=5, rank=2, amplitude=1.5))
    adapters = [toy_adapter, spiked]
    teachers = {}
    shared, _ = sv.build_shared_profile(toy_bundle, adapters, toy_samples, qt.Policy("w8a16"), 0.0,
                                        seed=4, outputs=teachers)
    assert sorted(teachers) == ["spiked", "style"] and len(teachers["style"]) == len(toy_samples)
    data = [(x, c, None) for x, c in toy_samples]
    cfg = dst.DistillConfig(steps=3, learning_rate=1e-3, batch=3, seed=4)
    want = aligned(toy_bundle, adapters, shared, data, cfg)
    seeds = fp_seeds(monkeypatch)
    results = dst.align_adapters(toy_bundle, adapters, shared, data, cfg, teachers=teachers)
    assert seeds == []
    assert [(b"".join(e.A.tobytes() + e.B.tobytes() for e in a.entries.values()), t.to_csv())
            for a, t in results] == want
    with pytest.raises(ValueError, match="3 teacher outputs for 4 samples"):
        dst.finetune_adapter(toy_bundle, toy_adapter, shared, data, cfg,
                             teachers=teachers["style"][:3])

