"""Anchor selection: the QSS rule and the inputs it refuses."""

import pytest
from conftest import copy_adapter

from onegraph import modelspec as ms
from onegraph import quant as qt
from onegraph import sensitivity as sv
from onegraph.errors import RangeError


@pytest.mark.parametrize("scores, anchor, rule", [
    ({"a": 0.3}, "a", "single"),
    ({"a": 0.1, "b": 0.3}, "b", "argmax"),
    ({"a": 0.3, "b": 0.3}, sv.UNIFIED, "unified-fallback"),
    ({"a": 0.0, "b": 0.0}, sv.UNIFIED, "unified-fallback"),
])
def test_qss_report_rule(scores, anchor, rule):
    report = sv.qss_report(scores, 0.05)
    assert (report.anchor, report.rule, report.scores) == (anchor, rule, scores)


def test_duplicate_adapter_ids_are_refused(toy_bundle, toy_adapter, toy_samples):
    twin = copy_adapter(toy_adapter)
    with pytest.raises(RangeError, match="duplicate adapter ids"):
        sv.build_shared_profile(toy_bundle, [toy_adapter, twin], toy_samples, qt.Policy("w8a16"))


@pytest.mark.parametrize("policy", ("w8a16", "mixed:50"))
def test_the_unified_fallback_observes_each_adapter_once(toy_bundle, toy_samples, monkeypatch, policy):
    """The fallback's profile is ``unified_profile``'s, byte for byte, from
    the provisional calibrations' observers: one fp run per adapter, not
    two."""
    adapters = [ms.build_adapter(toy_bundle, ms.AdapterSpec(f"t{i}", seed=30 + i, rank=2, amplitude=0.4))
                for i in range(3)]
    policy = qt.Policy.parse(policy)
    runs = []
    observe = qt.observe_bundle

    def spy(*args):
        runs.append(args[2].adapter_id)
        return observe(*args)

    monkeypatch.setattr(qt, "observe_bundle", spy)
    shared, report = sv.build_shared_profile(toy_bundle, adapters, toy_samples, policy, 0.99, seed=3)
    assert report.rule == "unified-fallback" and runs == ["t0", "t1", "t2"]
    want = sv.unified_profile(toy_bundle, adapters, toy_samples, policy, seed=3)
    assert qt.profile_to_text(shared) == qt.profile_to_text(want)
