import json

import pytest

from crn_multicast.cli import main
from crn_multicast.example_case import builtin_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExampleCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "example")
        assert code == 0
        assert "channel 5" in out and "channel 6" in out and "channel 4" in out
        assert "packet delivery rate: 0.60" in out
        assert "result: OK" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "example", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["selected_channels"] == [5, 6, 4]
        assert payload["pdr"] == 0.6

    def test_fixture_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(builtin_fixture()), encoding="utf-8")
        code, out, _ = run_cli(capsys, "example", "--fixture", str(path))
        assert code == 0

    def test_tampered_fixture_fails(self, tmp_path, capsys):
        fixture = builtin_fixture()
        fixture["events"][0]["pos"]["2"][4] = 0.2  # drags the chosen column down
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(fixture), encoding="utf-8")
        code, out, _ = run_cli(capsys, "example", "--fixture", str(path))
        assert code == 1
        assert "MISMATCH" in out

    def test_unreadable_fixture_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "example", "--fixture", str(path))
        assert code == 2
        assert "error" in err

    def test_structurally_invalid_fixture_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(capsys, "example", "--fixture", str(path))
        assert code == 2

    @pytest.mark.parametrize("channel_id", [0, 7], ids=["zero", "m_plus_one"])
    def test_channel_id_outside_range_is_usage_error(self, tmp_path, capsys, channel_id):
        # ids are 1..M (M = 6); 0 must not wrap around to channel M
        fixture = builtin_fixture()
        fixture["events"][0]["idle_channels"].append(channel_id)
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture), encoding="utf-8")
        code, out, err = run_cli(capsys, "example", "--fixture", str(path))
        assert code == 2
        assert err.startswith("error:") and f"idle channel ids [{channel_id}] outside 1..6" in err
        assert out == ""


SMALL_CONFIG = """
# compact scenario for fast tests
n_nodes = 12
n_dest = 4
m_channels = 6
trials = 3
seed = 9
schemes = pos,rs
trees = spt
sweep_variable = p_idle
sweep_values = 0.3,0.8
"""


class TestRunCommand:
    def test_reports_every_combination(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert "spt/pos" in out and "spt/rs" in out

    def test_same_seed_same_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        _, out1, _ = run_cli(capsys, "run", "--config", str(cfg), "--json")
        _, out2, _ = run_cli(capsys, "run", "--config", str(cfg), "--json")
        assert out1 == out2

    def test_writes_session_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["session_spt_pos.csv", "session_spt_rs.csv"]
        text = (out_dir / "session_spt_pos.csv").read_text(encoding="utf-8")
        assert text.startswith("dest,delivered,throughput_bps\n")

    def test_scheme_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--scheme", "masa")
        assert code == 0
        assert "spt/masa" in out and "spt/pos" not in out

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_nodez = 12\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "n_nodez" in err

    def test_bad_combination_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_nodes = 5\nn_dest = 7\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "nope.txt"))
        assert code == 2


@pytest.fixture()
def no_trials(monkeypatch):
    """Make any trial the CLI starts fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("crn_multicast.cli.run_sweep", fail)
    monkeypatch.setattr("crn_multicast.cli.run_scenario_sessions", fail)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unwritable_out_is_usage_error_before_any_trial(tmp_path, capsys, no_trials, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CONFIG, encoding="utf-8")
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(blocker / "x"))
    assert code == 2
    assert err.startswith("error:") and str(blocker) in err
    assert out == ""


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("run", "comm_range_m = nan\n", "comm_range_m must be finite, got nan"),
        ("run", "pt_watts = inf\n", "pt_watts must be finite, got inf"),
        ("run", "pt_watts = nan\n", "pt_watts must be finite, got nan"),
        ("run", "bandwidth_hz = nan\n", "bandwidth_hz must be finite, got nan"),
        ("sweep", "sweep_variable = pt\nsweep_values = 0.1,nan\n", "pt = nan: pt_watts must be finite"),
        (
            "run", "n_nodes = 12\nn_dest = 3\ncarrier_freq_hz = 1e-300\n",
            "pt_watts = 0.1 and carrier_freq_hz = 1e-300 give a non-finite link budget",
        ),
        (
            "run", "n_nodes = 12\nn_dest = 3\npt_watts = 1e300\ncarrier_freq_hz = 1e-10\n",
            "pt_watts = 1e+300 and carrier_freq_hz = 1e-10 give a non-finite link budget",
        ),
    ],
    ids=["range_nan", "pt_inf", "pt_nan", "bw_nan", "swept_pt_nan", "wavelength_inf", "link_budget_inf"],
)
def test_non_finite_parameter_is_usage_error_before_any_trial(tmp_path, capsys, no_trials, command, lines, message):
    # before: a NaN range hung, an infinite power ended in a traceback, a
    # NaN power or bandwidth exited 0 with every destination missed, and an
    # infinite wavelength or link budget gave zero air time and a traceback
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(lines, encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert out == ""


def test_run_writes_to_config_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CONFIG, encoding="utf-8")
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert list(tmp_path.iterdir()) == [cfg]  # neither out_dir nor --out: nothing written
    cfg.write_text(SMALL_CONFIG + f"out_dir = {tmp_path / 'from_config'}\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    written = sorted(p.name for p in (tmp_path / "from_config").iterdir())
    assert written == ["session_spt_pos.csv", "session_spt_rs.csv"]
    assert f"wrote {tmp_path / 'from_config' / 'session_spt_pos.csv'}" in out


def test_sweep_without_out_dir_writes_to_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CONFIG, encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["aggregate.csv", "trials.csv"]


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("crn_multicast.cli.cmd_run", broken)
    code, out, err = run_cli(capsys, "run")
    assert code == 3  # never 1, which means the example did not verify
    assert err.startswith("internal error:")
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert out == ""


class TestSweepAndPlot:
    @pytest.fixture()
    def sweep_dir(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        return out_dir

    def test_sweep_writes_both_files(self, sweep_dir):
        trials = (sweep_dir / "trials.csv").read_text(encoding="utf-8")
        agg = (sweep_dir / "aggregate.csv").read_text(encoding="utf-8")
        assert trials.startswith("tree,scheme,variable,value,trial,avg_throughput_bps,pdr\n")
        # 2 values x 3 trials x 2 schemes x 1 tree data rows
        assert len(trials.strip().split("\n")) == 1 + 12
        assert len(agg.strip().split("\n")) == 1 + 4

    def test_sweep_is_reproducible(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(a))
        run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(b))
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()

    def test_plot_renders_one_polyline_per_scheme(self, sweep_dir, tmp_path, capsys):
        charts = tmp_path / "charts"
        code, out, _ = run_cli(capsys, "plot", str(sweep_dir / "aggregate.csv"), "--out", str(charts))
        assert code == 0
        svg_names = sorted(p.name for p in charts.iterdir())
        assert svg_names == ["pdr_spt.svg", "throughput_spt.svg"]
        svg = (charts / "throughput_spt.svg").read_text(encoding="utf-8")
        assert svg.count("<polyline") == 2  # pos and rs
        assert "<svg" in svg and "</svg>" in svg

    def test_plot_on_malformed_csv_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "agg.csv"
        bad.write_text(
            "tree,scheme,variable,value,mean_throughput_bps,ci95_throughput,mean_pdr,ci95_pdr,trials\n"
            "spt,pos,p_idle,0.3,1.0\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "plot", str(bad))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("spt,pos,p_idle,0.3,nan,0.0,1.0,0.0,2\n", "line 3: numbers must be finite"),
            ("spt,pos,p_idle,0.3,1.0,inf,1.0,0.0,2\n", "line 3: numbers must be finite"),
            ("spt,pos,p_idle,nan,1.0,0.0,1.0,0.0,2\n", "line 3: numbers must be finite"),
            ("spt,rs,M,4,1.0,0.0,1.0,0.0,2\n", "line 3: variable 'M' differs from 'p_idle'"),
        ],
        ids=["mean_nan", "ci_inf", "value_nan", "two_variables"],
    )
    def test_plot_rejects_csv_it_cannot_draw(self, tmp_path, capsys, rows, message):
        # before: nan/inf exited 0 with nan coordinates in the SVG, and a
        # second variable was drawn into the first one's chart
        bad = tmp_path / "agg.csv"
        bad.write_text(
            "tree,scheme,variable,value,mean_throughput_bps,ci95_throughput,mean_pdr,ci95_pdr,trials\n"
            "spt,pos,p_idle,0.5,2.0,0.1,0.5,0.1,2\n" + rows,
            encoding="utf-8",
        )
        charts = tmp_path / "charts"
        code, out, err = run_cli(capsys, "plot", str(bad), "--out", str(charts))
        assert code == 2
        assert err.startswith("error:") and f"{bad}, {message}" in err
        assert out == "" and not charts.exists()

    def test_plot_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "plot", str(tmp_path / "none.csv"))
        assert code == 2


class TestBadSweepFailsFast:
    """A bad swept value is a config error (exit 2) found before any trial,
    so no output is written; exit 1 stays reserved for example mismatches."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("sweep_variable = M\nsweep_values = 4,5.0\n", "m_channels must be an integer, got 5.0"),
            ("n_dest = 16\nsweep_variable = n_nodes\nsweep_values = 40,16\n", "n_nodes = 16: n_dest"),
            ("sweep_variable = p_idle\nsweep_values = 0.5,1.0\n", "p_idle = 1.0: p_idle"),
            ("sweep_variable = frequency\n", "unknown sweep variable 'frequency'"),
            ("sweep_values =\n", "sweep needs at least one value"),
            ("sweep_variable = bw\nsweep_values = 1e6,1000000\n", "bw = 1000000 equals an earlier swept value"),
            (f"sweep_variable = pt\nsweep_values = {'9' * 400}\n", "pt_watts must be finite"),
            (
                "carrier_freq_hz = 1e-10\nsweep_variable = pt\nsweep_values = 0.1,1e300\n",
                "pt = 1e+300: pt_watts = 1e+300 and carrier_freq_hz = 1e-10 give a non-finite link budget",
            ),
        ],
        ids=[
            "non_integral_M", "n_nodes_not_above_n_dest", "p_idle_one", "unknown_variable", "no_values",
            "repeated_value", "integer_beyond_float_range", "link_budget_inf",
        ],
    )
    def test_bad_swept_value_is_usage_error(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(lines + "trials = 2\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not out_dir.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
