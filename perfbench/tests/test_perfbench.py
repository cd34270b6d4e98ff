"""Tests of the benchmark itself: metric names and units, trace neutrality,
and that the correctness gate catches wrong results.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from gate import TRIALS_HEADER, Gate  # noqa: E402
from workloads import WORKLOADS, Plan, Sweep  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    record = run.run(workload, seed=3, seconds=0.2, trace=trace, setup_repeats=1, trials=2)
    assert record["correct"], record["messages"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in record["metrics"].items()} == expected
    assert record["csv_digest"]["matches_baseline"]


def test_tracing_leaves_csv_bytes_identical(tmp_path):
    _, cli = run.import_package()
    runner = run.Runner(cli, Gate())
    workload = WORKLOADS["paper_sweep"]
    plain = runner.canonical_bytes(Plan(workload, tmp_path / "plain", 0, trials=2))
    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.canonical_bytes(Plan(workload, tmp_path / "traced", 0, trials=2))
    finally:
        tracer.uninstall()
    assert plain and traced == plain
    assert tracer.missing == []
    recorded = {tracer.names[tracer.spans[k + 2]] for k in range(0, len(tracer.spans), 6)}
    assert recorded == set(tracer.names)
    # The layer self times and the unattributed remainder add up to the wall time.
    metrics = {k: v for k, (v, _) in tracer.layer_metrics(trials=1).items()}
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layers + metrics["trace.unattributed_ms"] == pytest.approx(metrics["trace.wall_ms"])


def test_missing_wrapped_name_is_reported(monkeypatch):
    run.import_package()
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (("phy", "no_such_function", "phy.link"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["phy.no_such_function"]


def _trials_csv(rows) -> str:
    lines = [TRIALS_HEADER]
    lines += [f"spt,pos,p_idle,{v!r},{i},{tp!r},{pdr!r}" for v, i, tp, pdr in rows]
    return "\n".join(lines) + "\n"


SWEEP = Sweep("p_idle", (0.1, 0.9), ("pos",), ("spt",))


def test_gate_accepts_valid_rows():
    gate = Gate()
    gate.check_trials_csv(_trials_csv([(0.1, 0, 0.0, 0.0), (0.9, 0, 1.5e6, 0.5)]), 0, SWEEP, 1)
    assert not gate.failed_trials and not gate.messages


@pytest.mark.parametrize(
    "row",
    [
        (0.9, 0, 1.5e6, -0.5),  # negated PDR
        (0.9, 0, 1.5e6, 0.51),  # not a multiple of 1/16
        (0.9, 0, 0.0, 0.5),  # delivered packets but zero throughput
        (0.9, 0, float("inf"), 0.5),
    ],
    ids=["negated_pdr", "off_grid_pdr", "zero_throughput", "infinite_throughput"],
)
def test_gate_trips_on_planted_wrong_row(row):
    gate = Gate()
    gate.check_trials_csv(_trials_csv([(0.1, 0, 0.0, 0.0), row]), 0, SWEEP, 1)
    assert gate.failed_trials == {(0, "p_idle", 0.9, 0)}


def test_gate_trips_on_duplicate_row():
    gate = Gate()
    gate.check_trials_csv(_trials_csv([(0.9, 0, 1.5e6, 0.5), (0.9, 0, 1.5e6, 0.5)]), 0, SWEEP, 1)
    assert len(gate.failed_trials) == 2


def test_gate_trips_on_missing_rows():
    gate = Gate()
    gate.check_trials_csv(_trials_csv([(0.1, 0, 0.0, 0.0)]), 0, SWEEP, 1)
    assert len(gate.failed_trials) == 2


def test_gate_trips_on_shifted_aggregate():
    reference = {"p_idle|0.9|spt|pos": {"n": 1000, "pdr_mean": 0.8, "pdr_sd": 0.1,
                                        "tp_mean": 1e6, "tp_sd": 1e5}}
    ok, shifted = Gate(), Gate()
    for i in range(100):
        ok.add_row(("p_idle", "0.9", "spt", "pos"), (0, "p_idle", 0.9, i), 0.8125, 1.01e6, 16)
        shifted.add_row(("p_idle", "0.9", "spt", "pos"), (0, "p_idle", 0.9, i), 0.6875, 1.01e6, 16)
    ok.compare_reference(reference)
    shifted.compare_reference(reference)
    assert not ok.failed_trials
    assert len(shifted.failed_trials) == 100
