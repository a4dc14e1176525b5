"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py --workload serve_wide --seed 1 --seconds 5 [--toy]

Runs the workload three times: twice with ``--seed`` and once with
``--seed + 1``.  The two same-seed runs must agree on every non-time
field of the result record (artifact and distilled-factor SHA-256,
model and pack bytes, PSNR, the QSS rule, graph node counts, failures);
the other seed must change the artifacts but no shape.  Exits 0 when
all checks hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SHAPE_FIELDS = ("pack_bytes", "spec_lines", "sample_shapes", "graph_nodes")


def run(workload, seed, seconds, toy, out):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    if toy:
        cmd.append("--toy")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
    with open(Path(out) / f"{workload}-seed{seed}-trace0.json") as fh:
        record = json.load(fh)
    return {**record["fingerprint"], "failed": record["failed"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--out", default=str(HERE.parent / ".perfbench_out" / "selfcheck"))
    args = ap.parse_args(argv)

    first = run(args.workload, args.seed, args.seconds, args.toy, Path(args.out) / "a")
    again = run(args.workload, args.seed, args.seconds, args.toy, Path(args.out) / "b")
    other = run(args.workload, args.seed + 1, args.seconds, args.toy, Path(args.out) / "c")
    problems = [f"same seed, {k}: {first[k]!r} != {again[k]!r}"
                for k in first if first[k] != again[k]]
    problems += [f"other seed, {k}: {first[k]!r} != {other[k]!r}"
                 for k in SHAPE_FIELDS if first[k] != other[k]]
    if other["artifact_sha256"] == first["artifact_sha256"]:
        problems.append("other seed produced the same artifacts")
    if first["failed"]:
        problems.append(f"{first['failed']} failed operations")
    for line in problems:
        print(f"selfcheck {args.workload}: {line}")
    print(f"selfcheck {args.workload}: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
