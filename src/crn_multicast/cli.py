"""Command-line front end.

Commands:
  example   replay the built-in worked example and verify its outcome
  run       run one seeded scenario and report per-destination results
  sweep     run a Monte Carlo parameter sweep and write CSV files
  plot      render an aggregate CSV to SVG line charts

Exit codes: 0 success, 1 example verification mismatch, 2 usage/config error,
3 internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path

from .assignment import Scheme
from .config import SWEEP_OUT_DIR, Config, ConfigError, load_config
from .example_case import builtin_fixture, check_fixture
from .experiment import (
    DataFormatError, read_aggregate_csv, run_scenario_sessions, run_sweep, write_output, write_sweep_csv,
)
from .phy import LinkBudgetError
from .plotting import write_charts
from .session import TreeKind, session_to_csv


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every later
    main call in the process: parsing leaves the parser unchanged, and each
    parse gets a fresh namespace, with fresh lists for repeated flags."""
    parser = argparse.ArgumentParser(
        prog="crn-multicast",
        description="Monte Carlo simulator for tree-based multicast in cognitive radio networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_example = sub.add_parser("example", help="replay and verify the built-in worked example")
    p_example.add_argument("--fixture", metavar="PATH", help="JSON fixture to replay instead of the built-in one")
    p_example.add_argument("--json", action="store_true", help="emit a machine-readable report")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--seed", type=int, help="base random seed (overrides config)")
    common.add_argument("--trials", type=int, help="trials per sweep value (overrides config)")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides config out_dir)")
    common.add_argument(
        "--scheme", action="append", choices=[s.value for s in Scheme],
        help="channel assignment scheme, repeatable (overrides config)",
    )
    common.add_argument(
        "--tree", action="append", choices=[t.value for t in TreeKind],
        help="tree kind, repeatable (overrides config)",
    )

    p_run = sub.add_parser("run", parents=[common], help="run one seeded scenario")
    p_run.add_argument("--json", action="store_true", help="emit a machine-readable report")

    sub.add_parser("sweep", parents=[common], help="run a parameter sweep and write CSV files")

    p_plot = sub.add_parser("plot", help="render an aggregate CSV to SVG charts")
    p_plot.add_argument("csv", metavar="CSV", help="aggregate CSV produced by the sweep command")
    p_plot.add_argument("--out", metavar="DIR", default=".", help="output directory for the charts")

    return parser


def _config_from_args(args) -> Config:
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "out_dir": args.out,
        "schemes": tuple(Scheme(s) for s in args.scheme) if args.scheme else None,
        "trees": tuple(TreeKind(t) for t in args.tree) if args.tree else None,
    }
    return load_config(args.config, overrides)


def cmd_example(args) -> int:
    if args.fixture:
        path = Path(args.fixture)
        if not path.is_file():
            raise ConfigError(f"fixture file not found: {path}")
        try:
            fixture = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or UTF-8, or an integer literal too long to convert
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    else:
        fixture = builtin_fixture()
    try:
        ok, lines, payload = check_fixture(fixture)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"fixture is not a valid worked-example replay: {exc}") from None
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        print("result: OK" if ok else "result: MISMATCH")
    return 0 if ok else 1


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    table, _, judged = run_scenario_sessions(cfg.base, cfg.schemes, cfg.trees, cfg.seed)
    n_dest = cfg.base.n_dest
    # Python values, whose repr is the reports', indexed [tree][scheme], then by destination.
    delivered, throughput = (a.transpose(0, 2, 1).tolist() for a in (judged.delivered, judged.throughput))
    total = judged.total.tolist()
    avg, pdr = (a.tolist() for a in judged.averages())
    dests = [table.slots.destinations[j * n_dest:(j + 1) * n_dest] for j in range(len(cfg.trees))]
    sessions = [
        (j, k, f"{tree.value}/{scheme.value}")
        for j, tree in enumerate(cfg.trees)
        for k, scheme in enumerate(cfg.schemes)
    ]
    if args.json:
        payload = {
            name: {
                "pdr": pdr[j][k],
                "avg_throughput_bps": avg[j][k],
                "total_throughput_bps": total[j][k],
                "throughput_bps": {str(d): t for d, t in zip(dests[j], throughput[j][k])},
            }
            for j, k, name in sessions
        }
        payload["seed"] = cfg.seed
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"seed {cfg.seed}: {cfg.base.n_nodes} nodes, {n_dest} destinations")
        for j, k, name in sessions:
            print(
                f"{name}: delivered {sum(delivered[j][k])}/{n_dest} "
                f"(pdr {pdr[j][k]:.2f}), avg throughput {avg[j][k] / 1e6:.4f} Mbps"
            )
            for dest, ok, t in zip(dests[j], delivered[j][k], throughput[j][k]):
                print(f"  dest {dest}: {'delivered' if ok else 'missed'}, {t / 1e6:.4f} Mbps")
    if cfg.out_dir:
        for j, k, name in sessions:
            path = out / f"session_{name.replace('/', '_')}.csv"
            write_output(path, session_to_csv(dests[j], delivered[j][k], throughput[j][k], total[j][k]))
            print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    out = Path(cfg.out_dir or SWEEP_OUT_DIR)
    out.mkdir(parents=True, exist_ok=True)
    avg, pdr = run_sweep(cfg)
    trials_path, agg_path = write_sweep_csv(cfg, avg, pdr, out)
    print(f"wrote {trials_path} ({avg.size} rows)")
    print(f"wrote {agg_path} ({avg.size // cfg.trials} rows)")
    return 0


def cmd_plot(args) -> int:
    path = Path(args.csv)
    if not path.is_file():
        raise ConfigError(f"CSV file not found: {path}")
    rows = read_aggregate_csv(path)
    if not rows:
        raise ConfigError(f"{path}: no aggregate rows to plot")
    for chart in write_charts(rows, args.out):
        print(f"wrote {chart}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"example": cmd_example, "run": cmd_run, "sweep": cmd_sweep, "plot": cmd_plot}
    try:
        return handlers[args.command](args)
    except (ConfigError, DataFormatError, LinkBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # anything else is a defect; exit 1 stays reserved for example mismatches
        print(f"internal error:\n{traceback.format_exc()}", file=sys.stderr, end="")
        return 3


if __name__ == "__main__":
    sys.exit(main())
