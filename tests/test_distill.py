"""Adaptation computes only what its results read, with the same bits.

* ``distill._backward`` differentiates the factor arrays it is given:
  it returns their gradients only, puts no straight-through mask over a
  frozen tensor, and matches a sweep over the whole tape bit for bit.
* ``finetune_adapter`` runs a teacher pass only for the samples its
  schedule visits.
* ``build_shared_profile`` scores QSS against the fp runs of each
  adapter's calibration, and equals calibrate then qss called apart.
* Distilling factors that partly lie outside their slots' ranges keeps
  the bits pinned in ``SATURATED``.
* One ``finetune_adapter`` or ``qss`` call quantizes each frozen weight
  once, and QuantSim hooks reused across bundles give a fresh object's
  bits.
* One QuantSim run asks its per-tensor hooks once per tensor, at
  prepare, however many backbone passes it makes.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from conftest import W64_MODEL, all16_profile

from onegraph import distill as dst
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import sensitivity as sv
from onegraph.errors import DivergenceError
from onegraph.qparams import ste_mask

# Recorded when QuantSim fake-quantized each factor once per backbone
# step: the factors' SHA-256 after two steps, and the trace.
SATURATED = {
    "factors": "1866fa48011718a9d57f1b144b5aa637fb77839e759a10f797d08d21ad97da45",
    "trace": "step,recon,task,total\n0,286.1326985369455,0.0,286.1326985369455\n"
             "1,369.6015069421062,0.0,369.6015069421062\n",
}


def factor_arrays(adapter):
    return [getattr(e, which) for e in adapter.entries.values() for which in ("A", "B")]


@pytest.fixture(params=("twolayer", "w64"))
def quantsim_case(request, twolayer_bundle, twolayer_adapter, twolayer_samples):
    """(bundle, adapter, x, cond, profile) for one QuantSim tape."""
    if request.param == "twolayer":
        x, cond = twolayer_samples[0]
        return twolayer_bundle, twolayer_adapter, x, cond, all16_profile(twolayer_bundle, 2.0)
    bundle, adapters, samples, profile = request.getfixturevalue("w64")
    x, cond = samples[0]
    return bundle, adapters[1], x, cond, profile


def test_backward_differentiates_the_factors_only(quantsim_case, monkeypatch):
    bundle, adapter, x, cond, profile = quantsim_case
    tape = gr.Tape()
    out = qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=3, tape=tape)
    w = np.random.default_rng(5).normal(size=out.shape).astype(np.float32)
    factors = factor_arrays(adapter)

    # with every array on the tape differentiated, the walk is the full sweep
    everything = list({id(a): a for _op, ins, _o, _c in tape.entries for a in ins}.values())
    full = dst._backward(tape, {id(out): w}, everything)

    frozen = {id(arr) for _role, g in bundle.graphs() for arr in g.constants.values()}
    frozen.add(id(x))
    masked = []
    real_mask = dst.ste_mask

    def spy(t, p):
        masked.append(id(t))
        return real_mask(t, p)

    monkeypatch.setattr(dst, "ste_mask", spy)
    grads = dst._backward(tape, {id(out): w}, factors)

    assert set(grads) == {id(f) for f in factors}
    for f in factors:
        assert grads[id(f)].tobytes() == full[id(f)].tobytes()
    assert masked and not frozen.intersection(masked)


def fp_seeds(monkeypatch):
    """The noise seed of every ``graph.execute_fp`` call from here on."""
    seeds = []
    real = gr.execute_fp

    def spy(*args, **kwargs):
        seeds.append(kwargs["noise_seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(gr, "execute_fp", spy)
    return seeds


@pytest.mark.parametrize("steps, batch, teachers", ((1, 1, 1), (2, 1, 2), (3, 2, 4)))
def test_teachers_only_for_visited_samples(steps, batch, teachers, toy_bundle, toy_adapter,
                                           toy_profile, toy_samples, monkeypatch):
    calls = fp_seeds(monkeypatch)
    cfg = dst.DistillConfig(steps=steps, learning_rate=1e-3, batch=batch, seed=2)
    dst.finetune_adapter(toy_bundle, toy_adapter, toy_profile,
                         [(x, c, None) for x, c in toy_samples], cfg)
    assert len(toy_samples) == 4
    assert calls == [2 + i for i in range(teachers)]


def test_shared_profile_scores_calibrations_own_fp_runs(toy_bundle, toy_adapter, toy_samples,
                                                        monkeypatch):
    spiked = ms.build_adapter(toy_bundle, ms.AdapterSpec("spiked", seed=5, rank=2, amplitude=1.5))
    adapters = [toy_adapter, spiked]
    policy = qt.Policy("w8a16")
    profiles = {a.adapter_id: qt.calibrate(toy_bundle, toy_samples, policy, adapter=a, seed=4)
                for a in adapters}
    scores = {a.adapter_id: sv.qss(toy_bundle, a, profiles[a.adapter_id], toy_samples, seed=4)
              for a in adapters}
    want = sv.qss_report(scores, 0.0)
    assert want.rule == "argmax"

    calls = fp_seeds(monkeypatch)
    shared, report = sv.build_shared_profile(toy_bundle, adapters, toy_samples, policy, 0.0, seed=4)
    assert calls == []
    assert report.to_text() == want.to_text()
    assert qt.profile_to_text(shared) == qt.profile_to_text(profiles[want.anchor])


@pytest.mark.parametrize("setting", ({"learning_rate": math.nan}, {"learning_rate": math.inf},
                                     {"lambda_task": math.nan}, {"lambda_task": math.inf}))
def test_non_finite_settings_are_refused(setting):
    kwargs = {"steps": 1, "learning_rate": 1e-3, **setting}
    with pytest.raises(ValueError, match="finite"):
        dst.DistillConfig(**kwargs)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_divergent_last_update_raises(toy_bundle, toy_adapter, toy_profile, toy_samples):
    # a finite Python float that overflows to inf as the float32 learning rate
    cfg = dst.DistillConfig(steps=1, learning_rate=1e300, batch=1)
    with pytest.raises(DivergenceError) as err:
        dst.finetune_adapter(toy_bundle, toy_adapter, toy_profile,
                             [(x, c, None) for x, c in toy_samples], cfg)
    assert err.value.step == 0


def test_saturated_factors_distill_to_pinned_bits(w64):
    """Slot ranges from one adapter, factors from a wider one: a third of
    the entries lie outside, so the straight-through mask has zeros on
    every step of a two-pass bundle."""
    bundle, adapters, samples, _ = w64
    profile = qt.calibrate(bundle, samples, qt.Policy("w8a16"), adapter=adapters[0], seed=1)
    wide = ms.build_adapter(bundle, ms.AdapterSpec("wide", seed=23, rank=8, amplitude=0.15))
    outside = sum(int((ste_mask(getattr(e, which), profile.lora(nid, which)) == 0).sum())
                  for nid, e in wide.entries.items() for which in ("A", "B"))
    assert bundle.steps >= 2 and outside == 1392
    cfg = dst.DistillConfig(steps=2, learning_rate=1e-4, batch=2, seed=4)
    tuned, trace = dst.finetune_adapter(bundle, wide, profile, [(x, c, None) for x, c in samples], cfg)
    h = hashlib.sha256()
    for nid in sorted(tuned.entries):
        h.update(tuned.entries[nid].A.tobytes() + tuned.entries[nid].B.tobytes())
    assert h.hexdigest() == SATURATED["factors"]
    assert trace.to_csv() == SATURATED["trace"]


@pytest.mark.parametrize("call", ("finetune", "qss"))
def test_each_weight_is_quantized_once_per_call(call, w64, monkeypatch):
    """Two steps of two samples, or two samples scored: every encoder,
    backbone and decoder weight is quantized exactly once."""
    bundle, adapters, samples, profile = w64
    quantized = []
    real = qp.quantize_array
    monkeypatch.setattr(qp, "quantize_array", lambda t, p: quantized.append(id(t)) or real(t, p))
    if call == "finetune":
        cfg = dst.DistillConfig(steps=2, learning_rate=1e-4, batch=2, seed=4)
        dst.finetune_adapter(bundle, adapters[1], profile, [(x, c, None) for x, c in samples], cfg)
    else:
        sv.qss(bundle, adapters[1], profile, samples, seed=4)
    weights = {role: [id(g.constants[t]) for t in gr.weight_tids(g)] for role, g in bundle.graphs()}
    assert len(samples) == 2 and all(weights.values())
    assert sorted(quantized) == sorted(i for ids in weights.values() for i in ids)


def test_reused_hooks_give_fresh_bits(w64):
    """One hooks object serves a bundle, another bundle with the same
    tensor ids but other weights, then the first again."""
    bundle, adapters, samples, profile = w64
    other = ms.build_bundle(ms.parse_model_spec(W64_MODEL.replace("seed 3", "seed 4")))
    for (_, g), (_, h) in zip(bundle.graphs(), other.graphs()):
        assert g.constants.keys() == h.constants.keys()
    x, cond = samples[0]
    hooks = qt.QuantSimHooks(profile)
    for b, a in ((bundle, adapters[0]), (other, adapters[1]), (bundle, adapters[1])):
        got = qt.execute_quantsim(b, profile, a, x, cond, seed=3, hooks=hooks)
        assert got.tobytes() == qt.execute_quantsim(b, profile, a, x, cond, seed=3).tobytes()


def test_hooks_of_another_profile_are_refused(toy_bundle, toy_adapter, toy_profile, toy_samples):
    x, cond = toy_samples[0]
    hooks = qt.QuantSimHooks(all16_profile(toy_bundle))
    with pytest.raises(ValueError, match="another profile"):
        qt.execute_quantsim(toy_bundle, toy_profile, toy_adapter, x, cond, hooks=hooks)


class _CountingHooks(qt.QuantSimHooks):
    """QuantSim that lists the tensors its per-tensor hooks are asked for."""

    def __init__(self, profile):
        super().__init__(profile)
        self.asked = {"weight_value": [], "lora_factor": [], "act_fn": []}

    def weight_value(self, role, tid, value, tape):
        self.asked["weight_value"].append((role, tid))
        return super().weight_value(role, tid, value, tape)

    def lora_factor(self, role, node_id, which, value, tape):
        self.asked["lora_factor"].append((node_id, which))
        return super().lora_factor(role, node_id, which, value, tape)

    def act_fn(self, role, tid):
        self.asked["act_fn"].append((role, tid))
        return super().act_fn(role, tid)


@pytest.mark.parametrize("steps", (1, 2, 5))
def test_quantsim_asks_each_tensor_once_per_run(steps, toy_bundle, toy_adapter, toy_profile, toy_samples):
    """``weight_value`` once per weight, ``lora_factor`` once per factor and
    ``act_fn`` once per activation of each graph, in the order ``prepare``
    meets them, whatever the number of backbone passes; same bits."""
    bundle = dataclasses.replace(toy_bundle, steps=steps)
    x, cond = toy_samples[0]
    hooks = _CountingHooks(toy_profile)
    got = qt.execute_quantsim(bundle, toy_profile, toy_adapter, x, cond, seed=3, hooks=hooks)
    for name, tids in (("weight_value", gr.weight_tids), ("act_fn", gr.act_tids)):
        assert hooks.asked[name] == [(role, t) for role, g in bundle.graphs() for t in tids(g)]
    assert hooks.asked["lora_factor"] == [(n.id, w) for n in bundle.backbone.lora_nodes() for w in "AB"]
    assert got.tobytes() == qt.execute_quantsim(bundle, toy_profile, toy_adapter, x, cond, seed=3).tobytes()
