"""Anchor selection: the QSS rule and the inputs it refuses."""

import pytest
from conftest import copy_adapter

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
