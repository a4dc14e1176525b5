"""Tests of the benchmark itself, on the TOY_MODEL-sized smoke configuration.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
ALL_E2E = ("setup_s", "request_ms_p50", "request_ms_p90", "requests_per_s", "swap_ms_p50",
           "load_ms_p50", "compile_s", "profile_s", "distill_s", "ram_peak_bytes",
           "model_bytes", "pack_bytes", "output_psnr_db", "error_rate")
COMPILE_STEPS = ("rewrite_lora_as_input", "constant_fold", "dead_code_eliminate",
                 "materialize_quantsim", "scale_fold", "freeze", "pack_lora", "load_compiled")


def run_bench(tmp_path, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", "all", "--seed", "3", "--seconds", "0.3",
           "--toy", "--out", str(tmp_path), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    proc = run_bench(tmp_path_factory.mktemp("untraced"), "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc = run_bench(out, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 2 <= len(WORKLOADS) <= 8 and all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))


def test_layer_map_covers_every_per_layer_metric():
    mapped = [m for group in LAYER_MAP["groups"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    e2e = set(ALL_E2E)
    for group in LAYER_MAP["groups"]:
        for workload, metrics in group["moves"].items():
            assert workload in WORKLOADS
            assert set(metrics) <= e2e


def test_untraced_run_prints_every_metric(untraced):
    result = json.loads(untraced[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {tuple(line.split()[:2]) for line in untraced[:-1]}
    for workload in WORKLOADS:
        for metric in ALL_E2E:
            assert (workload, metric) in printed
    assert all(f"{w} error_rate 0 fraction" in untraced for w in WORKLOADS)


def test_traced_run_emits_every_layer_metric_and_the_intended_split(traced):
    out, result = traced
    assert result["correct"]
    for workload in WORKLOADS:
        for m in BENCH["per_layer"]:
            assert f"{workload}.{m['name']}" in result["metrics"]
        assert (out / f"{workload}-seed3.spans.jsonl").stat().st_size > 0
        assert (out / f"{workload}-seed3.layers.txt").stat().st_size > 0
        assert result["metrics"][f"{workload}.runtime.plan_overlaps"]["value"] == 0
    value = lambda w, m: result["metrics"][f"{w}.{m}"]["value"]
    for step in COMPILE_STEPS:
        assert value("serve_wide", f"compiler.{step}.s") == 0
    assert value("serve_wide", "qparams.fake_quant.calls") == 0
    assert value("compile_deep", "qparams.fake_quant.calls") == 0
    assert value("adapt_mid", "qparams.fake_quant.calls") > 0
    assert value("compile_deep", "compiler.materialize_quantsim.s") > 0


def test_spans_nest(traced):
    out, _ = traced
    spans = [json.loads(line) for line in (out / "compile_deep-seed3.spans.jsonl").open()]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["phase"] in (s["phase"], "loop")


def test_same_seed_same_fields_other_seed_same_shapes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "selfcheck.py"), "--workload", "adapt_mid", "--seed", "5",
         "--seconds", "0.3", "--toy", "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path / "out", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_mismatches_are_counted_not_fatal(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import harness
    from onegraph import runtime

    served = runtime.infer
    monkeypatch.setattr(runtime, "infer", lambda *args, **kw: served(*args, **kw) + 1)
    result = harness.run_workload("serve_wide", 3, 0.3, False, True, str(tmp_path))
    requests = result["stages"]["request.timed"]["n"]
    assert requests >= 3 and result["failed"] == requests
    assert result["end_to_end"]["error_rate"]["value"] == requests / result["attempted"]
