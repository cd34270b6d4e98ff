"""Smoke test of tools/bench_pr.py: one pair on a tiny config, the working
tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_writes_its_record(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pr.py"), "--parent", str(ROOT), "--out", str(out),
         "--pairs", "1", "--trials", "2", "--repeats", "1"],
        check=True, capture_output=True, timeout=120,
    )
    record = json.loads(out.read_text())
    assert set(record) >= {
        "machine", "python", "numpy", "scenario", "trials", "stages", "stage_ratio", "trials_per_s", "sweep_wall_s",
    }
    assert record["trials"] == 2 and record["scenario"]["trials"] == "2"
    stages = {
        "block_stages_ms", "raw_ms", "sweep_block_ms", "block_stages_one_seed_ms", "run_one_seed_ms",
        "block_stages_n40_ms", "block_stages_n80_ms", "block_stages_n160_ms", "config_load_ms", "run_cli_ms",
        "sweep_plot_cli_ms", "trend_axes_cli_ms",
    }
    # one pair: each ratio is that pair's change median over its parent median
    assert set(record["stage_ratio"]) == stages
    for stage, ratio in record["stage_ratio"].items():
        assert ratio == record["stages"]["change"][stage] / record["stages"]["parent"][stage]
    for name in ("parent", "change"):
        assert set(record["stages"][name]) == stages
        assert all(ms > 0.0 for ms in record["stages"][name].values())
        assert len(record["sweep_wall_s"][name]) == 1 and record["trials_per_s"][name] > 0.0
