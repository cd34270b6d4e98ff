#!/usr/bin/env python3
"""Record the correctness reference: per-group aggregates from many trials and
the byte digest of each workload's fixed-seed CSV output.

    python3 perfbench/make_reference.py

Rerun only when a change is meant to alter results, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from run import BENCH, CANONICAL_TRIALS, OUT, Runner, git_commit, import_package
from gate import TOLERANCE_SE, Gate
from workloads import WORKLOADS, Plan

# Reference trial seeds start here, far above the benchmark's (seed + 1) * 1e6.
REFERENCE_SEED = 500_000_000
# Trials per swept value (or `run` calls) behind each reference aggregate.
REFERENCE_TRIALS = {"paper_sweep": 2000, "trend_axes": 1000, "node_scale": 1000, "single_run": 3000}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    _, cli = import_package()
    reference = {"git_commit": git_commit(), "tolerance_se": TOLERANCE_SE, "reference_seed": REFERENCE_SEED,
                 "trials": {}, "digests": {}, "aggregates": {}}
    for name, workload in WORKLOADS.items():
        trials = REFERENCE_TRIALS[name]
        gate = Gate()
        runner = Runner(cli, gate)
        canonical = Plan(workload, OUT / "reference" / name / "canonical", 0, trials=CANONICAL_TRIALS)
        reference["digests"][name] = hashlib.sha256(runner.canonical_bytes(canonical)).hexdigest()
        if workload.is_run:
            plan = Plan(workload, OUT / "reference" / name, REFERENCE_SEED)
            requests = [plan.request(i) for i in range(trials)]
        else:
            plan = Plan(workload, OUT / "reference" / name, REFERENCE_SEED, trials=trials)
            requests = [plan.request(0)]
        for request in requests:
            _, error, stdout = runner.execute(request)
            runner.check(request, error, stdout)
        if gate.messages:
            raise SystemExit(f"{name}: reference outputs fail the row checks: {gate.messages}")
        reference["trials"][name] = trials
        reference["aggregates"][name] = {"|".join(k): m.summary() for k, m in gate.groups.items()}
        print(f"{name}: {len(gate.groups)} groups from {trials} trials each", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
