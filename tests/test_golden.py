"""Golden regression: committed runs must reproduce their committed outputs.

Criterion 9 compares two runs of the same code, so it cannot see drift
between versions; these files can. The sweep files pin per-value averages,
the nodes/ sweep the geometry of each swept node count (SPTs, deep MSTs,
pruning and layer order), the sparse/ sweep placements that are redrawn or
whose range grows, the long/ sweep the summation order of means and CIs over
more trials than numpy's 8-element pairwise block, the idle/ sweep every
p_idle value of two blocks judged together over one link table, with events
that have no idle channel beside ones that have, the wide/ sweep a block of
trial seeds on both sides of 2**32, whose generators are seeded from one and
from two 32-bit entropy words, the run files
per-destination throughputs of every tree and scheme, and the example files
both reports of the worked example. A change that alters them
on purpose regenerates them with

    crn-multicast sweep --config tests/golden/sweep.cfg --out tests/golden
    crn-multicast sweep --config tests/golden/nodes/sweep.cfg --out tests/golden/nodes
    crn-multicast sweep --config tests/golden/sparse/sweep.cfg --out tests/golden/sparse
    crn-multicast sweep --config tests/golden/long/sweep.cfg --out tests/golden/long
    crn-multicast sweep --config tests/golden/idle/sweep.cfg --out tests/golden/idle
    crn-multicast sweep --config tests/golden/wide/sweep.cfg --out tests/golden/wide
    crn-multicast run --config tests/golden/run.cfg --seed 7 --json --out tests/golden/run \
        | grep -v '^wrote ' > tests/golden/run/run.json
    crn-multicast example > tests/golden/example/example.txt
    crn-multicast example --json > tests/golden/example/example.json

and says why in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

import pytest

from crn_multicast.cli import main

GOLDEN = Path(__file__).parent / "golden"
NODES_GOLDEN = GOLDEN / "nodes"
SPARSE_GOLDEN = GOLDEN / "sparse"
LONG_GOLDEN = GOLDEN / "long"
IDLE_GOLDEN = GOLDEN / "idle"
WIDE_GOLDEN = GOLDEN / "wide"
RUN_GOLDEN = GOLDEN / "run"
SESSION_FILES = sorted(p.name for p in RUN_GOLDEN.glob("session_*.csv"))


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["sweep", "--config", str(GOLDEN / "sweep.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["trials.csv", "aggregate.csv"])
def test_sweep_reproduces_golden_bytes(rerun, name):
    assert (rerun / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rerun_nodes(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_nodes")
    assert main(["sweep", "--config", str(NODES_GOLDEN / "sweep.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["trials.csv", "aggregate.csv"])
def test_node_count_sweep_reproduces_golden_bytes(rerun_nodes, name):
    assert (rerun_nodes / name).read_bytes() == (NODES_GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rerun_sparse(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_sparse")
    assert main(["sweep", "--config", str(SPARSE_GOLDEN / "sweep.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["trials.csv", "aggregate.csv"])
def test_sparse_sweep_reproduces_golden_bytes(rerun_sparse, name):
    assert (rerun_sparse / name).read_bytes() == (SPARSE_GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rerun_long(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_long")
    assert main(["sweep", "--config", str(LONG_GOLDEN / "sweep.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["trials.csv", "aggregate.csv"])
def test_long_sweep_reproduces_golden_bytes(rerun_long, name):
    assert (rerun_long / name).read_bytes() == (LONG_GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rerun_idle(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_idle")
    assert main(["sweep", "--config", str(IDLE_GOLDEN / "sweep.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["trials.csv", "aggregate.csv"])
def test_idle_sweep_reproduces_golden_bytes(rerun_idle, name):
    assert (rerun_idle / name).read_bytes() == (IDLE_GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rerun_wide(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_wide")
    assert main(["sweep", "--config", str(WIDE_GOLDEN / "sweep.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["trials.csv", "aggregate.csv"])
def test_wide_seed_sweep_reproduces_golden_bytes(rerun_wide, name):
    assert (rerun_wide / name).read_bytes() == (WIDE_GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rerun_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_run")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run", "--config", str(GOLDEN / "run.cfg"), "--seed", "7", "--json", "--out", str(out)]) == 0
    report = "".join(line for line in stdout.getvalue().splitlines(keepends=True) if not line.startswith("wrote "))
    return out, report


def test_run_covers_every_tree_and_scheme():
    assert len(SESSION_FILES) == 8


def test_run_reproduces_golden_report(rerun_run):
    _, report = rerun_run
    assert report.encode() == (RUN_GOLDEN / "run.json").read_bytes()


@pytest.mark.parametrize("name", SESSION_FILES)
def test_run_reproduces_golden_session_bytes(rerun_run, name):
    out, _ = rerun_run
    assert (out / name).read_bytes() == (RUN_GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, argv", [("example.txt", ["example"]), ("example.json", ["example", "--json"])])
def test_example_reproduces_golden_report(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "example" / name).read_bytes()
