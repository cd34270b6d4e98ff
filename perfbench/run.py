#!/usr/bin/env python3
"""Benchmark of the crn-multicast command line, end to end and per layer.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0

Drives `crn_multicast.cli.main` (`sweep`, `plot`, `run`) in this process,
one call after another, on config files generated for the workload, and
checks every output (see gate.py). With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it spends half the time untraced and half with
every layer wrapped (see tracing.py) and prints the per-layer metrics. The
last line of standard output is one JSON object; a fuller record of the run,
with the machine it ran on and the raw wall-clock values, goes to
perfbench/out/. Reported times are scaled to a reference host speed measured
by a probe loop run between requests (see latency_metrics).

The package is imported from src/ next to this directory; without it the
benchmark exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from gate import Gate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ALL_SCHEMES, ALL_TREES, README_SCENARIO, WORKLOADS, Plan  # noqa: E402

CANONICAL_SEED = 7  # fixed trial seed of the byte-drift calls
CANONICAL_TRIALS = 2
SETUP_REPEATS = 7
# Host-speed normalisation (see latency_metrics): a probe runs before a
# request whenever PROBE_GAP_S has passed since the last one, and request
# times are scaled to a host on which the probe takes PROBE_REF_MS.
PROBE_GAP_S = 0.1
PROBE_REF_MS = 1.85
PROBE_WINDOW = 2  # probes taken on each side of a request's start

# A fresh interpreter imports the package and loads and validates the
# workload's config files; it prints the seconds that took.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from crn_multicast.config import load_config, sweep_from_config
for path in sys.argv[3:]:
    cfg = load_config(path)
    if sys.argv[2] == "sweep":
        sweep_from_config(cfg)
print(time.perf_counter() - t0)
"""


def import_package():
    src = ROOT / "src"
    if not (src / "crn_multicast" / "cli.py").is_file():
        raise SystemExit(f"error: package source not found under {src}")
    sys.path.insert(0, str(src))
    import crn_multicast
    from crn_multicast import cli

    if Path(crn_multicast.__file__).resolve().parent != (src / "crn_multicast").resolve():
        raise SystemExit(f"error: imported crn_multicast from {crn_multicast.__file__}, not {src}")
    return crn_multicast, cli


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_ms() -> float:
    """Time of a fixed pure-Python loop, in ms: the host's speed at this
    moment, independent of the package."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def measure_setup(plan: Plan, repeats: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of `repeats` fresh interpreters, and the host factor
    (median of three probes, over PROBE_REF_MS) taken just before each."""
    kind = "run" if plan.workload.is_run else "sweep"
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"), kind, *map(str, plan.configs)]
    times, factors = [], []
    for _ in range(repeats):
        factors.append(statistics.median(probe_ms() for _ in range(3)) / PROBE_REF_MS)
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times, factors


class Runner:
    """Executes requests through the CLI and feeds their outputs to the gate."""

    def __init__(self, cli, gate: Gate):
        self.cli = cli
        self.gate = gate
        self.tracer: Tracer | None = None

    def execute(self, request) -> tuple[float, str | None, str]:
        """Run one request; returns (wall seconds, error or None, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in request.argvs:
                try:
                    if self.tracer is None:
                        code = self.cli.main(list(argv))
                    else:
                        code = self.tracer.call(self.cli.main, list(argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    error = f"exit {exc.code}: {err.getvalue().strip()}"
                    break
                except Exception:  # a crash is a failed request, not a failed benchmark
                    error = traceback.format_exc(limit=3)
                    break
                if code != 0:
                    error = f"exit {code}: {err.getvalue().strip()}"
                    break
        return time.perf_counter() - t0, error, out.getvalue()

    def check(self, request, error: str | None, stdout: str) -> None:
        gate = self.gate
        keys = [(request.index, "run", "-", 0)] if request.is_run else [
            (request.index, sweep.variable, v, i)
            for sweep, _ in request.outputs for v in sweep.values for i in range(request.trials_per_value)
        ]
        if error is not None:
            gate.fail(keys, f"request {request.index} {request.argvs[0]}: {error}")
            return
        try:
            if request.is_run:
                self._check_run(request, stdout)
                return
            for sweep, out in request.outputs:
                text = (out / "trials.csv").read_text(encoding="utf-8")
                gate.check_trials_csv(text, request.index, sweep, request.trials_per_value)
            if any(argv[0] == "plot" for argv in request.argvs):
                charts = [ln for ln in stdout.splitlines() if ln.startswith("wrote ") and ln.endswith(".svg")]
                expected = sum(2 * len(sweep.trees) for sweep, _ in request.outputs)
                if len(charts) != expected:
                    gate.fail(keys, f"request {request.index}: plot wrote {len(charts)} charts, expected {expected}")
        except (OSError, ValueError, KeyError) as exc:
            gate.fail(keys, f"request {request.index}: unreadable output ({exc!r})")

    def _check_run(self, request, stdout: str) -> None:
        report, _, _ = stdout.partition("\nwrote ")
        payload = json.loads(report)
        if payload.get("seed") != request.seed:
            raise ValueError(f"report seed {payload.get('seed')} != {request.seed}")
        pairs = [(t, s) for t in ALL_TREES for s in ALL_SCHEMES]
        self.gate.check_run_json(payload, request.index, pairs, README_SCENARIO["n_dest"])
        out = request.outputs[0][1]
        for tree, scheme in pairs:
            csv = (out / f"session_{tree}_{scheme}.csv").read_text(encoding="utf-8")
            summary = csv.splitlines()[-1].split(",")
            entry = payload[f"{tree}/{scheme}"]
            if summary[0] != "summary" or float(summary[1]) != entry["pdr"] \
                    or float(summary[2]) != entry["total_throughput_bps"]:
                raise ValueError(f"session_{tree}_{scheme}.csv summary {summary} disagrees with the report")

    def phase(self, plan: Plan, start: int, seconds: float) -> dict:
        """Closed loop of requests from index `start` for `seconds`, with
        host-speed probes between requests."""
        latencies, starts, trials = [], [], 0
        probe_times, probes = [], []
        cpu0, t0 = time.process_time(), time.perf_counter()
        deadline = t0 + seconds
        index = start
        while True:
            now = time.perf_counter()
            if not probe_times or now - probe_times[-1] >= PROBE_GAP_S:
                probe_times.append(now)
                probes.append(probe_ms())
            request = plan.request(index)
            starts.append(time.perf_counter())
            dt, error, stdout = self.execute(request)
            self.check(request, error, stdout)
            latencies.append(dt)
            trials += request.trials
            index += 1
            if time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - t0
        return {"next": index, "latencies": latencies, "starts": starts, "trials": trials,
                "probe_times": probe_times, "probes_ms": probes,
                "cpu_share": (time.process_time() - cpu0) / wall}

    def canonical_bytes(self, plan: Plan) -> bytes:
        """Output CSV bytes of the workload's fixed-seed requests."""
        request = plan.request(0, seed=CANONICAL_SEED)
        _, error, _ = self.execute(request)
        if error is not None:
            self.gate.messages.append(f"fixed-seed request {request.argvs[0]} failed: {error}")
            return b""
        if request.is_run:
            return b"".join(p.read_bytes() for p in sorted(request.outputs[0][1].glob("session_*.csv")))
        return b"".join((out / "trials.csv").read_bytes() for _, out in request.outputs)


def latency_metrics(stats: dict) -> dict:
    """Throughput and request latency percentiles of one phase, raw and
    scaled to the reference host speed.

    On a shared 2-vCPU virtual machine (Intel Xeon) the same work ran up to
    twice as slow for seconds to minutes at a time, and the ten-run spread of
    raw throughput on a sweep workload reached 0.31. The probe loop slows in
    step with the program, so each request's time is divided by the host
    factor h = (median of the probes nearest its start) / PROBE_REF_MS; this
    cut the spread of a sweep workload's throughput from 0.11-0.13 to 0.03-0.04.
    The raw values stay in the record; `setup_s` is scaled the same way.
    """
    lat_ms = [t * 1e3 for t in stats["latencies"]]
    probe_times, probes = stats["probe_times"], stats["probes_ms"]
    factors = []
    for t in stats["starts"]:
        k = bisect.bisect(probe_times, t)
        window = probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW]
        factors.append(statistics.median(window) / PROBE_REF_MS)
    scaled = [ms / h for ms, h in zip(lat_ms, factors)]

    def pct(values):
        if len(values) < 2:
            return values * 19
        return statistics.quantiles(values, n=20, method="inclusive")

    q, raw = pct(scaled), pct(lat_ms)
    return {
        "trials_per_s": stats["trials"] * 1e3 / sum(scaled),
        "run_ms_p50": q[9],
        "run_ms_p90": q[17],
        "run_ms_p95": q[18],
        "raw_trials_per_s": stats["trials"] * 1e3 / sum(lat_ms),
        "raw_run_ms_p50": raw[9],
        "raw_run_ms_p90": raw[17],
        "raw_run_ms_p95": raw[18],
        "host_factor_median": statistics.median(factors),
    }


E2E_UNITS = {"trials_per_s": "1/s", "run_ms_p50": "ms", "run_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, trials: int | None = None) -> dict:
    """One benchmark run; returns the full result record."""
    workload = WORKLOADS[workload_name]
    env = environment()
    env["load_before"] = os.getloadavg()
    env["probe_ms_before"] = probe_ms()
    package, cli = import_package()
    import numpy

    from crn_multicast.example_case import builtin_fixture, check_fixture

    env["numpy"] = numpy.__version__
    env["package"] = package.__version__
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    gate = Gate()
    runner = Runner(cli, gate)
    work = OUT / f"work-{workload_name}-{os.getpid()}"
    record: dict = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "env": env}
    try:
        try:
            fixture_ok = check_fixture(builtin_fixture())[0]
        except Exception:  # a crashing replay is a failed check, reported with the rest
            gate.messages.append(traceback.format_exc(limit=3))
            fixture_ok = False
        if not fixture_ok:
            gate.messages.append("built-in worked example does not verify")
        plan = Plan(workload, work / "timed", base_seed=(seed + 1) * 1_000_000, trials=trials)
        canonical = runner.canonical_bytes(Plan(workload, work / "canonical", 0, trials=CANONICAL_TRIALS))
        digest = hashlib.sha256(canonical).hexdigest()
        bytes_match = digest == reference["digests"].get(workload_name)
        record["csv_digest"] = {"sha256": digest, "matches_baseline": bytes_match}
        if not trace:
            setup, setup_factors = measure_setup(plan, setup_repeats)
            stats = runner.phase(plan, 0, seconds)
            values = latency_metrics(stats)
            values["setup_s"] = statistics.median(t / h for t, h in zip(setup, setup_factors))
            values["raw_setup_s"] = statistics.median(setup)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
            record["latency"] = values
            record["samples"] = {"requests": len(stats["latencies"]), "setup": setup,
                                 "setup_host_factors": setup_factors,
                                 "latency_ms": [round(t * 1e3, 3) for t in stats["latencies"]],
                                 "probes_ms": [round(p, 4) for p in stats["probes_ms"]]}
            record["cpu_share"] = stats["cpu_share"]
            attempted = stats["trials"]
        else:
            plain = runner.phase(plan, 0, seconds / 2)
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                traced_canonical = runner.canonical_bytes(
                    Plan(workload, work / "canonical-traced", 0, trials=CANONICAL_TRIALS))
                tracer.reset()  # keep only the timed phase's spans and counts
                traced = runner.phase(plan, plain["next"], seconds / 2)
            finally:
                tracer.uninstall()
                runner.tracer = None
            if traced_canonical != canonical:
                gate.messages.append("traced run wrote different CSV bytes than the untraced run")
            metrics = tracer.layer_metrics(traced["trials"])
            untraced_e2e, traced_e2e = latency_metrics(plain), latency_metrics(traced)
            if workload.is_run:
                overhead = traced_e2e["run_ms_p50"] / untraced_e2e["run_ms_p50"] - 1.0
            else:
                overhead = untraced_e2e["trials_per_s"] / traced_e2e["trials_per_s"] - 1.0
            metrics["trace_overhead_frac"] = overhead, "fraction"
            metrics["csv.bytes_match"] = float(bytes_match), "count"
            spans = OUT / f"spans-{workload_name}-seed{seed}.tsv"
            tracer.write_spans(spans)
            record["spans_file"] = str(spans.relative_to(ROOT))
            record["missing"] = tracer.missing
            record["traced_identical_csv"] = traced_canonical == canonical
            record["untraced"] = untraced_e2e
            record["cpu_share"] = [plain["cpu_share"], traced["cpu_share"]]
            attempted = plain["trials"] + traced["trials"]
        record["reference_groups"] = gate.compare_reference(reference["aggregates"][workload_name])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["load_after"] = os.getloadavg()
    env["probe_ms_after"] = probe_ms()
    failed = len(gate.failed_trials)
    record.update({
        "correct": fixture_ok and not gate.messages and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "messages": gate.messages,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    env = record["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} numpy={env['numpy']} "
          f"commit={env['git_commit']} load={env['load_before'][0]:.2f}->{env['load_after'][0]:.2f} "
          f"cpu_share={record['cpu_share']} probe_ms={env['probe_ms_before']:.2f}->{env['probe_ms_after']:.2f}")
    if "latency" in record:
        lat = record["latency"]
        print(f"host factor {lat['host_factor_median']:.3f}; raw wall clock: "
              f"trials_per_s = {lat['raw_trials_per_s']:.6g} 1/s, run_ms_p50 = {lat['raw_run_ms_p50']:.6g} ms, "
              f"run_ms_p90 = {lat['raw_run_ms_p90']:.6g} ms, setup_s = {lat['raw_setup_s']:.6g} s")
    drift = record["csv_digest"]["matches_baseline"]
    print(f"byte drift: output CSV bytes {'match' if drift else 'DIFFER FROM'} the baseline digest")
    print(f"failed_frac = {record['failed_frac']:.6g} ({record['failed']} of {record['attempted']} trials)")
    for message in record["messages"]:
        print(f"check failed: {message}")
    if record.get("missing"):
        print(f"trace: not found in the package, reported as missing: {', '.join(record['missing'])}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
