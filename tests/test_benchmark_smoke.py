"""One toy-sized run of each benchmark workload.

Each compiles, cold-loads and serves through the session's fused graphs,
and the harness checks every served output against QuantSim bit for
bit.  Each repeats the shared-profile and distillation stages and checks
that their profiles, QSS reports and factors match the first run.  Any
mismatch or exception counts as a failed operation.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ("serve_wide", "compile_deep", "adapt_mid"))
def test_workload_smoke_run(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    result = harness.run_workload(workload, seed=1, seconds=0.5, trace=False, toy=True,
                                  out_dir=tmp_path)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
