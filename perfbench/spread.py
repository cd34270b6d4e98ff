#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload paper_sweep --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median of the runs and the distance between the first and third
quartile as a share of that median (Python's `statistics.quantiles(n=4)`),
next to the metric's bound from BENCHMARK.json. Per-run results are appended
as JSON lines to perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    log = BENCH / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "wall_s": time.perf_counter() - t0, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s")
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        print(f"  {metric['name']:<14} median {q2:.6g} {metric['unit']:<4} "
              f"spread {(q3 - q1) / q2:.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
