"""Benchmark of onegraph: serving, deep compiles and adapter alignment.

    python3 perfbench/run.py --workload serve_wide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  The lines before it print every
end-to-end metric by name and unit, and the full record (environment,
counts, fingerprint, errors) goes to ``.perfbench_out/``.

Times are reported at a nominal machine speed: every timed sample is
bracketed by a fixed harness-owned probe kernel and scaled by how much
slower or faster than nominal the probe ran (``harness.speed_probe``).
The values as timed are printed beside them and kept in the record.

``--workload all`` runs every workload in turn.  ``--toy`` shrinks every
workload to the conftest TOY_MODEL shape, so the whole harness runs in
seconds; the benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread: the kernels are numpy loops, and BLAS threads would only
# add scheduling noise on a small machine.  Set before numpy loads.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="TOY_MODEL-sized smoke run")
    ap.add_argument("--out", default=str(ROOT / ".perfbench_out"),
                    help="directory for result records and traces")
    return ap.parse_args(argv)


def print_table(result):
    name = result["workload"]
    for metric, rec in result["end_to_end"].items():
        value = "n/a" if rec["value"] is None else f"{rec['value']:.6g}"
        timed = "" if rec.get("timed") is None else f" (as timed: {rec['timed']:.6g})"
        print(f"{name} {metric} {value} {rec['unit']}{timed}")
    print(f"{name} planned_ram_bytes {result['planned_ram_bytes']} B")
    for key, value in sorted(result.get("per_layer", {}).items()):
        print(f"{name} {key} {value:.6g}")
    for err in result["errors"]:
        print(f"{name} error {err}")


def summary(result, bench, trace):
    """The last output line: BENCHMARK.json's metrics for this mode."""
    if trace:
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = result["per_layer"]
    else:
        wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {k: v["value"] for k, v in result["end_to_end"].items()}
    missing = [k for k in wanted if values.get(k) is None]
    if missing:
        raise RuntimeError(f"{result['workload']}: no value for {', '.join(missing)}")
    metrics = {k: {"value": float(values[k]), "unit": unit} for k, unit in wanted.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    if not (SRC / "onegraph" / "__init__.py").is_file():
        print(f"error: no onegraph sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(SRC))
    import onegraph
    if Path(onegraph.__file__).resolve().parent != SRC / "onegraph":
        print(f"error: imported onegraph from {onegraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    names = list(harness.CONFIGS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = harness.run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          args.toy, args.out)
        except harness.SetupFailed as exc:
            print(f"error: {name}: set-up failed: {exc}", file=sys.stderr)
            return 1
        print(f"{name} env {json.dumps(result['env'], sort_keys=True)}")
        print_table(result)
        results.append(result)
    lines = [summary(r, bench, args.trace) for r in results]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{k}": v for r, line in zip(results, lines)
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
