"""One toy-sized run of the benchmark's compile_deep workload.

It compiles, cold-loads and serves through the session's fused graphs,
and the harness checks every served output against QuantSim bit for
bit; any mismatch or exception counts as a failed operation.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_compile_deep_smoke_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    result = harness.run_workload("compile_deep", seed=1, seconds=0.5, trace=False, toy=True,
                                  out_dir=tmp_path)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
