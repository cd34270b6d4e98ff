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
from two 32-bit entropy words, the bw/ sweep values that share a block's
draws and are judged in one pass, each on its own radio's link metrics, the
pt/ sweep transmit powers and the packet_bits/ sweep packet sizes judged the
same way, the M/ sweep values that share a block's geometry with draws each,
the M1/ sweep one channel, which gets mu_min_s, beside two, the n_dest/
sweep one destination, five, and every node but the root, each value
pruning the trees to its own kept nodes, the run files both run reports
and the per-destination throughputs of every tree and scheme, the example
files both reports of the worked example, and the charts/ files the SVG
charts of the top-level aggregate. The overwrite
tests write the sweep, its charts and the run into a directory where every
output name already holds a longer junk file, a symlink or a directory. A
change that alters them on purpose regenerates them with

    crn-multicast sweep --config tests/golden/sweep.cfg --out tests/golden
    crn-multicast sweep --config tests/golden/nodes/sweep.cfg --out tests/golden/nodes
    crn-multicast sweep --config tests/golden/sparse/sweep.cfg --out tests/golden/sparse
    crn-multicast sweep --config tests/golden/long/sweep.cfg --out tests/golden/long
    crn-multicast sweep --config tests/golden/idle/sweep.cfg --out tests/golden/idle
    crn-multicast sweep --config tests/golden/wide/sweep.cfg --out tests/golden/wide
    crn-multicast sweep --config tests/golden/bw/sweep.cfg --out tests/golden/bw
    crn-multicast sweep --config tests/golden/M/sweep.cfg --out tests/golden/M
    crn-multicast sweep --config tests/golden/M1/sweep.cfg --out tests/golden/M1
    crn-multicast sweep --config tests/golden/pt/sweep.cfg --out tests/golden/pt
    crn-multicast sweep --config tests/golden/packet_bits/sweep.cfg --out tests/golden/packet_bits
    crn-multicast sweep --config tests/golden/n_dest/sweep.cfg --out tests/golden/n_dest
    crn-multicast run --config tests/golden/run.cfg --seed 7 --json --out tests/golden/run \
        | grep -v '^wrote ' > tests/golden/run/run.json
    crn-multicast run --config tests/golden/run.cfg --seed 7 > tests/golden/run/run.txt
    crn-multicast example > tests/golden/example/example.txt
    crn-multicast example --json > tests/golden/example/example.json
    crn-multicast plot tests/golden/aggregate.csv --out tests/golden/charts

and says why in CHANGES.md.
"""

import contextlib
import io
import os
import stat
from pathlib import Path

import pytest

from crn_multicast.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUN_GOLDEN = GOLDEN / "run"
SESSION_FILES = sorted(p.name for p in RUN_GOLDEN.glob("session_*.csv"))
SWEEP_FILES = ["trials.csv", "aggregate.csv"]
# Every golden sweep, as the directory of its sweep.cfg under GOLDEN ("." for the top-level one).
SWEEPS = sorted(cfg.parent.relative_to(GOLDEN).as_posix() for cfg in GOLDEN.rglob("sweep.cfg"))


@pytest.fixture(scope="module")
def rerun(request, tmp_path_factory):
    """The golden sweep in directory request.param, rerun into a new
    directory: the golden directory and the new one."""
    golden, out = GOLDEN / request.param, tmp_path_factory.mktemp("golden")
    assert main(["sweep", "--config", str(golden / "sweep.cfg"), "--out", str(out)]) == 0
    return golden, out


def test_every_golden_sweep_is_found():
    assert set(SWEEPS) == {".", "nodes", "sparse", "long", "idle", "wide", "bw", "M", "M1", "pt", "packet_bits", "n_dest"}


@pytest.mark.parametrize(
    "rerun, name",
    [
        pytest.param(sweep, name, id=name if sweep == "." else f"{sweep}-{name}")
        for sweep in SWEEPS
        for name in SWEEP_FILES
    ],
    indirect=["rerun"],
)
def test_sweep_reproduces_golden_bytes(rerun, name):
    golden, out = rerun
    assert (out / name).read_bytes() == (golden / name).read_bytes()


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


def test_run_reproduces_golden_text_report(capsys):
    assert main(["run", "--config", str(GOLDEN / "run.cfg"), "--seed", "7"]) == 0
    assert capsys.readouterr().out.encode() == (RUN_GOLDEN / "run.txt").read_bytes()


@pytest.mark.parametrize("name", SESSION_FILES)
def test_run_reproduces_golden_session_bytes(rerun_run, name):
    out, _ = rerun_run
    assert (out / name).read_bytes() == (RUN_GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, argv", [("example.txt", ["example"]), ("example.json", ["example", "--json"])])
def test_example_reproduces_golden_report(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "example" / name).read_bytes()


CHART_FILES = [f"{metric}_{tree}.svg" for metric in ("throughput", "pdr") for tree in ("spt", "mst")]
CHART_GOLDEN = GOLDEN / "charts"
OUTPUT_FILES = SWEEP_FILES + CHART_FILES + SESSION_FILES
JUNK = bytes(range(256)) * 256  # 64 KB, longer than every output
PLANTED_MODE = 0o640
LINKED = "session_spt_pos.csv"  # planted as a symlink to a file in another directory


def _write_golden_outputs(out):
    """The golden sweep, its charts and the golden run, all into out; the
    exit code of each command."""
    with contextlib.redirect_stdout(io.StringIO()):
        return [
            main(["sweep", "--config", str(GOLDEN / "sweep.cfg"), "--out", str(out)]),
            main(["plot", str(out / "aggregate.csv"), "--out", str(out)]),
            main(["run", "--config", str(GOLDEN / "run.cfg"), "--seed", "7", "--json", "--out", str(out)]),
        ]


@pytest.fixture(scope="module")
def charts(tmp_path_factory):
    """The charts of the golden aggregate, plotted into an empty directory."""
    out = tmp_path_factory.mktemp("golden_charts")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["plot", str(GOLDEN / "aggregate.csv"), "--out", str(out)]) == 0
    return out


def _expected_bytes(name):
    if name in SWEEP_FILES:
        return (GOLDEN / name).read_bytes()
    if name in CHART_FILES:
        return (CHART_GOLDEN / name).read_bytes()
    return (RUN_GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def overwritten(tmp_path_factory):
    """Every output name planted with 64 KB of junk (one of them as a symlink
    to a junk file elsewhere), then the golden outputs written over them.
    Returns the directory, the link's target, each planted file's
    (inode, mode) and the commands' exit codes."""
    out = tmp_path_factory.mktemp("overwritten")
    target = tmp_path_factory.mktemp("link_target") / "target.csv"
    target.write_bytes(JUNK)
    (out / LINKED).symlink_to(target)
    planted = {}
    for name in OUTPUT_FILES:
        path = out / name
        if name != LINKED:
            path.write_bytes(JUNK)
        path.chmod(PLANTED_MODE)
        st = path.stat()
        planted[name] = (st.st_ino, st.st_mode)
    return out, target, planted, _write_golden_outputs(out)


def test_chart_names_are_every_chart_plot_writes(charts):
    assert sorted(p.name for p in charts.iterdir()) == sorted(CHART_FILES)
    assert sorted(p.name for p in CHART_GOLDEN.iterdir()) == sorted(CHART_FILES)


@pytest.mark.parametrize("name", CHART_FILES)
def test_charts_reproduce_golden_bytes(charts, name):
    assert (charts / name).read_bytes() == (CHART_GOLDEN / name).read_bytes()


def test_every_command_succeeds_over_planted_files(overwritten):
    assert overwritten[3] == [0, 0, 0]


@pytest.mark.parametrize("name", OUTPUT_FILES)
def test_overwrite_leaves_exactly_the_golden_bytes(overwritten, name):
    out = overwritten[0]
    assert (out / name).read_bytes() == _expected_bytes(name)


@pytest.mark.parametrize("name", OUTPUT_FILES)
def test_overwrite_keeps_the_planted_files_inode_and_mode(overwritten, name):
    out, _, planted, _ = overwritten
    st = (out / name).stat()
    assert (st.st_ino, st.st_mode) == planted[name]
    assert stat.S_IMODE(st.st_mode) == PLANTED_MODE


def test_overwrite_through_a_symlink_keeps_the_link_and_fills_its_target(overwritten):
    out, target = overwritten[:2]
    assert (out / LINKED).is_symlink()
    assert Path(os.readlink(out / LINKED)) == target
    assert target.read_bytes() == (RUN_GOLDEN / LINKED).read_bytes()


def test_new_output_gets_the_mode_write_text_gives(tmp_path):
    """Under one umask, a missing output is created with the mode that
    Path.write_text gives a new file."""
    previous = os.umask(0o027)
    try:
        assert _write_golden_outputs(tmp_path / "out") == [0, 0, 0]
        (tmp_path / "probe.txt").write_text("probe", encoding="utf-8")
    finally:
        os.umask(previous)
    mode = (tmp_path / "probe.txt").stat().st_mode
    for name in OUTPUT_FILES:
        path = tmp_path / "out" / name
        assert path.stat().st_mode == mode, name
        assert path.read_bytes() == _expected_bytes(name)


@pytest.mark.parametrize("command, name", [("sweep", "aggregate.csv"), ("plot", "pdr_mst.svg"), ("run", LINKED)])
def test_directory_at_an_output_name_is_usage_error(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = {
        "sweep": ["sweep", "--config", str(GOLDEN / "sweep.cfg"), "--out", str(out)],
        "plot": ["plot", str(GOLDEN / "aggregate.csv"), "--out", str(out)],
        "run": ["run", "--config", str(GOLDEN / "run.cfg"), "--seed", "7", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert (out / name).is_dir()


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_output_symlinked_to_the_null_device_is_written(tmp_path):
    """A device is written but never cut: truncating /dev/null fails."""
    out = tmp_path / "out"
    out.mkdir()
    (out / LINKED).symlink_to(os.devnull)
    assert _write_golden_outputs(out) == [0, 0, 0]
    assert Path(os.readlink(out / LINKED)) == Path(os.devnull)
