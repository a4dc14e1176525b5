"""Adaptation computes only what its results read, with the same bits.

* ``distill._backward`` differentiates the factor arrays it is given:
  it returns their gradients only, puts no straight-through mask over a
  frozen tensor, and matches a sweep over the whole tape bit for bit.
* ``finetune_adapter`` runs a teacher pass only for the samples its
  schedule visits.
* ``build_shared_profile`` scores QSS against the fp runs of each
  adapter's calibration, and equals calibrate then qss called apart.
"""

import math

import numpy as np
import pytest
from conftest import all16_profile

from onegraph import distill as dst
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import quant as qt
from onegraph import sensitivity as sv
from onegraph.errors import DivergenceError


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
