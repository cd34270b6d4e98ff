#!/usr/bin/env python3
"""Before-and-after bench of the sweep path: a parent tree against this one.

    python tools/bench_pr.py --parent DIR --out BENCH.json

DIR is a checkout of the commit to compare against (made with `git clone` or
`git archive`); the other tree is the one holding this script. Both run the
README's example config (the block from its `# scenario` line to the end of
the code fence) with `trials` set to --trials, in --pairs pairs whose order
alternates (parent first, then change first, and so on), each tree in fresh
interpreters with PYTHONPATH set to its src/. There are 10 pairs by
default: on a 2-vCPU host 5 pairs read stage ratios of up to 1.24 on
unchanged code, too wide to resolve a 10% stage change. It measures:

- sweep_wall_s: the wall time of `python -m crn_multicast.cli sweep` on the
  config, interpreter start-up and CSV writing included;
- stages: per-stage medians, in ms, on one fixed block of 32 trial seeds
  from the config's seed, through functions both trees have:
  `experiment._block_stages` (geometry and slot index), `session.draw_raw`
  of its slot index under each swept value's mean idle durations
  (`ScenarioParams.mu_idle`), on generators seeded afresh
  from `seeding.stream_words` (the draws), and `experiment.run_sweep` of
  the config with `trials` set to 32, one block at every swept value (`sweep_block`:
  geometry, draws, link metrics, every scheme's channels and the
  judgement). `_block_stages` is also timed on each of the block's
  first 20 seeds alone (`block_stages_one_seed`, the block of `run`),
  and with that block's raw draws under the config's first mean idle durations
  (`run_one_seed`: all of `run` before link metrics, so every generator
  of the seed), and on the node_scale benchmark's blocks: the first 6
  seeds, both tree kinds, 4 destinations, at 40, 80 and 160 nodes
  (`block_stages_n40` ...). Two more stages time whole CLI calls in the
  same process, the way perfbench's workloads make them: `run_cli` is 20
  `run --json --out DIR` calls on seeds from the config's, and
  `sweep_plot_cli` 20 `sweep` + `plot` pairs of the config at 8 trials,
  each stage into one directory that all its calls reuse (so every call
  after the first rewrites existing files), with stdout to the null
  device; each call (each pair) is one timing. `trend_axes_cli` is 20
  requests shaped like perfbench's trend_axes workload, each five `sweep`
  calls of the config with pos on the SPT at 5 trials, one per axis (bw, M,
  pt, p_idle and packet_bits, each over that workload's values), every
  axis into its own reused directory; each request is one timing. Each
  axis's config is the README config with its schemes, trees,
  sweep_variable and sweep_values lines set in place, since a config file
  may set a key only once. `config_load` is 20 rounds of
  `config.load_config` on those five configs, the parsing and checking that
  perfbench traces as its config.load layer; each round is one timing.
  Each is timed --repeats times per pair.

trials_per_s is trials x swept values over the median sweep wall time.
stages pools each tree's timings of a stage over all pairs, so host drift
between pairs can read as a difference; stage_ratio is the median over
pairs of each pair's change/parent ratio of the stage's medians, which
compares the two trees only within a pair. The output is one JSON object:
{machine, python, numpy, scenario, trials, pairs, stages, stage_ratio,
trials_per_s, sweep_wall_s}, with "parent" and "change" entries in stages,
trials_per_s and sweep_wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
BLOCK_SEEDS = 32
ONE_SEED_CALLS = 20  # one-seed blocks, on seeds from the config's, timed per repeat
CLI_CALLS = 20  # run calls, and sweep + plot pairs, per repeat
CLI_TRIALS = 8  # trials per value of each sweep call, as perfbench's paper_sweep
# trend_axes_cli's sweeps: each axis and its values, as perfbench's trend_axes
TREND_AXES = {
    "bw": "0.5e6,1e6,2e6,3e6",
    "M": "5,10,20,30",
    "pt": "0.05,0.1,0.5",
    "p_idle": "0.1,0.5,0.9",
    "packet_bits": "16384,32768,65536,131072",
}
TREND_TRIALS = 5

# Run in a fresh interpreter: argv is src, config, repeats and the directory
# holding trend_axes_cli's configs, one <axis>.cfg per TREND_AXES key.
# Prints the package's location and each stage's times in ms as one JSON
# object.
STAGES_CODE = """
import contextlib, json, os, sys, tempfile, time
from dataclasses import replace
sys.path.insert(0, sys.argv[1])
import crn_multicast
from crn_multicast import experiment, seeding, session
from crn_multicast.cli import main
from crn_multicast.config import load_config
from crn_multicast.session import TreeKind

spec, repeats = load_config(sys.argv[2]), int(sys.argv[3])
seeds = range(spec.seed, spec.seed + %d)
mu_idles = [params.mu_idle() for _, params in spec.scenarios()]
block_spec = replace(spec, trials=len(seeds))
node_scale = {n: replace(spec.base, n_nodes=n, n_dest=4) for n in (40, 80, 160)}
times = {"block_stages": [], "raw": [], "sweep_block": [], "block_stages_one_seed": [], "run_one_seed": []}
times.update({"block_stages_n%%d" %% n: [] for n in node_scale})
times.update({"config_load": [], "run_cli": [], "sweep_plot_cli": [], "trend_axes_cli": []})
run_out, sweep_out, trend_out = (tempfile.mkdtemp(dir=".") for _ in range(3))
trend_configs = [(os.path.join(sys.argv[4], axis + ".cfg"), os.path.join(trend_out, axis)) for axis in %r]
cli_argvs = {
    "run_cli": [
        [["run", "--config", sys.argv[2], "--seed", str(spec.seed + i), "--json", "--out", run_out]]
        for i in range(%d)
    ],
    "sweep_plot_cli": [
        [
            ["sweep", "--config", sys.argv[2], "--seed", str(spec.seed + i * %d), "--trials", "%d", "--out", sweep_out],
            ["plot", os.path.join(sweep_out, "aggregate.csv"), "--out", sweep_out],
        ]
        for i in range(%d)
    ],
    "trend_axes_cli": [
        [["sweep", "--config", cfg, "--seed", str(spec.seed + i * %d), "--trials", "%d", "--out", out] for cfg, out in trend_configs]
        for i in range(%d)
    ],
}

def cli(argvs):
    for argv in argvs:
        if main(argv) != 0:
            raise SystemExit("error: %%s exited non-zero" %% " ".join(argv))

def draws(slots, mu_idle, seeds):
    words = seeding.stream_words(seeds, experiment._events_streams(spec.trees)).reshape(-1, 4)
    return session.draw_raw(slots, mu_idle, seeding.generators(words))

def timed(stage, call):
    start = time.perf_counter()
    out = call()
    times[stage].append((time.perf_counter() - start) * 1e3)
    return out

for _ in range(repeats):
    slots = timed("block_stages", lambda: experiment._block_stages(spec.base, spec.trees, seeds))[0]
    for mu_idle in mu_idles:
        timed("raw", lambda: draws(slots, mu_idle, seeds))
    timed("sweep_block", lambda: experiment.run_sweep(block_spec))
    for seed in seeds[:%d]:
        timed("block_stages_one_seed", lambda: experiment._block_stages(spec.base, spec.trees, [seed]))
    for seed in seeds[:%d]:
        timed("run_one_seed", lambda: draws(experiment._block_stages(spec.base, spec.trees, [seed])[0], mu_idles[0], [seed]))
    for n, params in node_scale.items():
        timed("block_stages_n%%d" %% n, lambda: experiment._block_stages(params, (TreeKind.SPT, TreeKind.MST), seeds[:6]))
    for _ in range(%d):
        timed("config_load", lambda: [load_config(cfg) for cfg, _ in trend_configs])
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        for stage, calls in cli_argvs.items():
            for argvs in calls:
                timed(stage, lambda: cli(argvs))
print(json.dumps({"package": crn_multicast.__file__, "times": times}))
""" % (
    BLOCK_SEEDS, TREND_AXES, CLI_CALLS, CLI_TRIALS, CLI_TRIALS, CLI_CALLS, TREND_TRIALS, TREND_TRIALS, CLI_CALLS,
    ONE_SEED_CALLS, ONE_SEED_CALLS, CLI_CALLS,
)


def config_with(config: str, **values) -> str:
    """config with each key of values set to its value: on the key's own
    line where config sets it, since a config file may set a key only once,
    else on a line of its own at the end."""
    lines = []
    for line in config.splitlines():
        key = line.split("#")[0].split("=")[0].strip()
        lines.append(f"{key} = {values.pop(key)}" if key in values else line)
    return "\n".join(lines + [f"{key} = {value}" for key, value in values.items()]) + "\n"


def readme_config(trials: int) -> str:
    """The README's example config with trials set to trials."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("# scenario")
    return config_with("\n".join(lines[start:lines.index("```", start)]), trials=trials)


def scenario(config: str) -> dict:
    """Key-value pairs of a config file, comments dropped."""
    pairs = (line.split("#")[0].split("=", 1) for line in config.splitlines())
    return {p[0].strip(): p[1].strip() for p in pairs if len(p) == 2}


def cpu_name() -> str:
    """The CPU's model name where /proc/cpuinfo gives it, else the machine type."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), platform.machine())
    except OSError:
        return platform.machine()


def run_tree(tree: Path, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True)


def sweep_wall(tree: Path, config: Path, work: Path) -> float:
    """Seconds of one `python -m crn_multicast.cli sweep` of config."""
    out = work / "out"
    start = time.perf_counter()
    run_tree(tree, ["-m", "crn_multicast.cli", "sweep", "--config", str(config), "--out", str(out)], work)
    return time.perf_counter() - start


def stage_times(tree: Path, config: Path, repeats: int, work: Path) -> dict[str, list[float]]:
    argv = ["-c", STAGES_CODE, str(tree / "src"), str(config), str(repeats), str(work / "trend")]
    done = run_tree(tree, argv, work)
    result = json.loads(done.stdout.splitlines()[-1])
    if Path(result["package"]).resolve().parent != (tree / "src" / "crn_multicast").resolve():
        raise SystemExit(f"error: imported crn_multicast from {result['package']}, not from {tree / 'src'}")
    return result["times"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the tree to compare against")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="alternating parent/change pairs (default 10)")
    parser.add_argument("--trials", type=int, default=1000, help="trials of the README config (default 1000)")
    parser.add_argument("--repeats", type=int, default=5, help="stage timings per tree and pair (default 5)")
    args = parser.parse_args(argv)
    if min(args.pairs, args.trials, args.repeats) < 1:
        parser.error("--pairs, --trials and --repeats must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for name, tree in trees.items():
        if not (tree / "src" / "crn_multicast" / "cli.py").is_file():
            parser.error(f"{name} tree {tree} has no src/crn_multicast/cli.py")
    config_text = readme_config(args.trials)
    walls = {name: [] for name in trees}
    stages = {name: {} for name in trees}  # stage: its times of each pair
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = work / "readme.cfg"
        config.write_text(config_text, encoding="utf-8")
        (work / "trend").mkdir()
        for axis, values in TREND_AXES.items():
            trend = config_with(config_text, schemes="pos", trees="spt", sweep_variable=axis, sweep_values=values)
            (work / "trend" / f"{axis}.cfg").write_text(trend, encoding="utf-8")
        for pair in range(args.pairs):
            for name in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                walls[name].append(sweep_wall(trees[name], config, work))
                for stage, times in stage_times(trees[name], config, args.repeats, work).items():
                    stages[name].setdefault(stage, []).append(times)
                print(f"pair {pair + 1}/{args.pairs} {name}: sweep {walls[name][-1]:.3f} s", file=sys.stderr)
    values = len(scenario(config_text)["sweep_values"].split(","))
    record = {
        "machine": {"cpu": cpu_name(), "nproc": os.cpu_count(), "system": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scenario": scenario(config_text),
        "trials": args.trials,
        "pairs": args.pairs,
        "stages": {
            name: {f"{stage}_ms": statistics.median(sum(pairs, [])) for stage, pairs in per_tree.items()}
            for name, per_tree in stages.items()
        },
        "stage_ratio": {
            f"{stage}_ms": statistics.median(
                statistics.median(change) / statistics.median(parent)
                for change, parent in zip(pairs, stages["parent"][stage])
            )
            for stage, pairs in stages["change"].items()
        },
        "trials_per_s": {name: args.trials * values / statistics.median(w) for name, w in walls.items()},
        "sweep_wall_s": walls,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name in trees:
        print(f"{name}: {record['trials_per_s'][name]:.1f} trials/s, "
              + ", ".join(f"{k} {v:.3f}" for k, v in record["stages"][name].items()))
    print("change/parent: " + ", ".join(f"{k} {v:.3f}" for k, v in record["stage_ratio"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
