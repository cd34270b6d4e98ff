import json
import math
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crn_multicast
from crn_multicast.cli import _build_parser, _run_report, main
from crn_multicast.example_case import builtin_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A value that assert_fixture_rejected deletes instead of setting.
DELETE = object()


def assert_fixture_rejected(tmp_path, capsys, path, value, message):
    """Set the built-in fixture's value at path (a list index one past the
    end appends, DELETE removes the key) and require `example --fixture` to
    exit 2 with message."""
    fixture = builtin_fixture()
    *keys, last = path
    target = fixture
    for key in keys:
        target = target[key]
    if value is DELETE:
        del target[last]
    elif isinstance(target, list) and last == len(target):
        target.append(value)
    else:
        target[last] = value
    file = tmp_path / "fixture.json"
    file.write_text(json.dumps(fixture), encoding="utf-8")
    code, out, err = run_cli(capsys, "example", "--fixture", str(file))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


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

    def test_builtin_fixture_is_a_fresh_copy(self):
        # Editing one copy's expected block, nested dicts included, leaves
        # the next copy as it was.
        fixture = builtin_fixture()
        del fixture["expected"]["throughput_bps"]["6"]
        fixture["expected"]["selected_channels"].append(1)
        assert "6" in builtin_fixture()["expected"]["throughput_bps"]
        assert builtin_fixture()["expected"]["selected_channels"] == [5, 6, 4]

    def test_unreadable_fixture_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "example", "--fixture", str(path))
        assert code == 2
        assert "error" in err

    def test_integer_too_long_to_read_is_usage_error(self, tmp_path, capsys):
        # before: an integer literal beyond Python's 4300-digit conversion
        # limit ended in a traceback (exit 3)
        path = tmp_path / "long.json"
        path.write_text('{"root": ' + "9" * 5000 + "}", encoding="utf-8")
        code, _, err = run_cli(capsys, "example", "--fixture", str(path))
        assert code == 2
        assert err.startswith("error:") and "not valid JSON" in err

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


    # Event 0 is node 1 -> 2, 6, 8, 9 with channels 2 and 3 busy; channel 5 is chosen.
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("events", 0, "tx_time_s", "6", 4), 0.0,
             "event of transmitter 1, receiver 6, channel 5: air time on an idle channel must be positive"),
            (("events", 0, "tx_time_s", "6", 4), -0.001, "positive (null: infinite), got -0.001"),
            (("events", 0, "tx_time_s", "8", 0), math.nan, "positive (null: infinite), got nan"),
            (("events", 0, "available_time_s", 4), None,
             "channel 5: availability of an idle channel must be a number >= 0, got nan"),
            (("events", 1, "available_time_s", 2), -0.001, "a number >= 0, got -0.001"),
            (("mu_ms", 5), -60, "mu_ms must be a list of finite positive numbers"),
            (("mu_ms", 0), 0.0, "mu_ms must be a list of finite positive numbers"),
            (("mu_ms", 0), math.inf, "mu_ms must be a list of finite positive numbers"),
            (("packet_bits",), -5, "packet_bits must be a positive integer, got -5"),
            (("packet_bits",), 0.5, "packet_bits must be a positive integer, got 0.5"),
            (("packet_bits",), 10**400, "packet_bits must not exceed the largest float"),
            (("packet_bits",), 10**308, "channel 1: packet_bits / air time overflows the data rate"),
            (("events", 0, "pos", "9", 3), 1.5, "receiver 9, channel 4: pos must lie in [0, 1], got 1.5"),
            (("events", 2, "pos", "7", 0), -0.1, "pos must lie in [0, 1], got -0.1"),
            (("mu_ms", 0), "10", "mu_ms: '10' is not a number"),
            (("mu_ms", 5), True, "mu_ms: True is not a number"),
            (("events", 0, "pos", "6", 0), "0.534", "event of transmitter 1, receiver 6, pos: '0.534' is not a number"),
            (("events", 2, "pos", "7", 2), True, "event of transmitter 8, receiver 7, pos: True is not a number"),
            (("events", 0, "tx_time_s", "6", 4), "0.0059",
             "event of transmitter 1, receiver 6, tx_time_s: '0.0059' is not a number"),
            (("events", 1, "tx_time_s", "10", 2), False, "receiver 10, tx_time_s: False is not a number"),
            (("events", 0, "available_time_s", 4), True, "event of transmitter 1, available_time_s: True is not a number"),
            (("events", 2, "available_time_s", 3), "0.003", "available_time_s: '0.003' is not a number"),
            (("mu_ms",), 10, "mu_ms must be a list, got 10"),
            (("events", 0, "pos", "6"), DELETE, "event of transmitter 1, pos has no '6'"),
            (("packet_bits",), DELETE, "fixture has no 'packet_bits'"),
            (("events", 0, "pos"), [[0.534, 0.0, 0.0, 0.7716, 0.8895, 0.9073]],
             "event of transmitter 1, pos must be a JSON object, got list"),
            (("events", 0, "pos", "6", 6), 0.5,
             "event of transmitter 1, receiver 6, pos must hold 6 numbers, one per channel, got 7"),
            (("events", 1, "tx_time_s", "10", 5), DELETE,
             "receiver 10, tx_time_s must hold 6 numbers, one per channel, got 5"),
            (("events", 1, "available_time_s", 5), DELETE,
             "event of transmitter 2, available_time_s must hold 6 numbers, one per channel, got 5"),
            (("events", 0, "pos", "6", 0), 10**400, "receiver 6, pos: an integer beyond float range is not a number"),
            (("expected",), DELETE, "fixture has no 'expected'"),
            (("expected", "selected_channels"), DELETE, "expected has no 'selected_channels'"),
            (("expected", "selected_channels"), 5, "expected selected_channels must be a list, got 5"),
            (("expected", "throughput_bps", "6"), DELETE, "expected throughput_bps has no '6'"),
            (("expected", "pdr"), None, "expected pdr: None is not a number"),
            (("expected", "pdr"), "0.6", "expected pdr: '0.6' is not a number"),
            (("expected", "total_throughput_bps"), 10**400,
             "expected total_throughput_bps: an integer beyond float range"),
        ],
        ids=[
            "air_time_zero", "air_time_negative", "air_time_nan", "availability_missing", "availability_negative",
            "mu_negative", "mu_zero", "mu_inf", "packet_bits_negative", "packet_bits_fraction",
            "packet_bits_beyond_float", "packet_bits_infinite_rate", "pos_above_one", "pos_negative",
            "mu_string", "mu_bool", "pos_string", "pos_bool", "air_time_string", "air_time_bool",
            "availability_bool", "availability_string", "mu_not_list", "pos_receiver_missing",
            "packet_bits_missing", "pos_not_object", "pos_row_long", "air_time_row_short", "availability_row_short",
            "pos_beyond_float", "expected_missing", "expected_selections_missing", "expected_selections_not_list",
            "expected_destination_missing", "expected_pdr_null", "expected_pdr_string", "expected_total_beyond_float",
        ],
    )
    def test_bad_fixture_value_is_usage_error(self, tmp_path, capsys, path, value, message):
        # before: a zero air time on the chosen channel ended in a traceback
        # (exit 3), a negative one delivered at a negative throughput, and a
        # negative mean availability or a negative or fractional packet size
        # changed the outcome or the throughputs without an error; a packet
        # size beyond float range ended in a traceback, and one whose rate
        # overflowed gave a RuntimeWarning and infinite throughputs; a number
        # given as a string or a bool was read as that number; a missing key,
        # or a number or list where a list or object belongs, gave Python's
        # own message, which named neither the field nor the event; so did a
        # row of the wrong length unless every row had it, a missing or null
        # expected value, and an integer beyond float range, which ended in a
        # traceback; an expected value given as a string was read as a number
        assert_fixture_rejected(tmp_path, capsys, path, value, message)

    # Edges 1->2, 1->6, 1->8, 1->9, 2->10, 8->7; events of transmitters 1, 2 and 8.
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("events", 0, "idle_channels", 2), 4.9, "event of transmitter 1, idle channels: 4.9 is not an integer id"),
            (("destinations", 0), 6.5, "destinations: 6.5 is not an integer id"),
            (("tree_edges", 5), [8, 7.7], "tree edge [8, 7.7]: 7.7 is not an integer id"),
            (("root",), True, "root: True is not an integer id"),
            (("events", 1, "transmitter"), "2", "transmitter: '2' is not an integer id"),
            (("events", 2, "receivers", 0), 7.0, "receivers of transmitter 8: 7.0 is not an integer id"),
            (("tree_edges", 6), [1, 6], "node 6 has two parent edges, from 1 and from 1"),
            (("tree_edges", 6), [2, 1], "tree edge [2, 1] leads into the root 1"),
            (("tree_edges", 2), [7, 8], "nodes [7, 8] have no path to the root 1 along tree_edges"),
            (("destinations", 5), 10, "destinations: an id is listed twice in [6, 7, 8, 9, 10, 10]"),
        ],
        ids=[
            "idle_channel_float", "destination_float", "edge_float", "root_bool", "transmitter_string",
            "receiver_float", "child_with_two_parents", "edge_into_root", "cycle", "destination_twice",
        ],
    )
    def test_fixture_tree_and_ids_checked_not_truncated(self, tmp_path, capsys, path, value, message):
        # before: int() truncated 4.9, 6.5 and 7.7 and read true as 1, and the
        # last parent of a child listed twice won, each ending in "result:
        # OK"; a cycle away from the root never finished, and a destination
        # listed twice was counted twice
        assert_fixture_rejected(tmp_path, capsys, path, value, message)

    def test_null_air_time_on_an_idle_channel_is_an_infinite_one(self, tmp_path, capsys):
        fixture = builtin_fixture()
        fixture["events"][0]["tx_time_s"]["6"][4] = None  # zero rate: destination 6 misses the packet
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture), encoding="utf-8")
        code, out, err = run_cli(capsys, "example", "--fixture", str(path))
        assert (code, err) == (1, "")
        assert "destination 6: missed" in out


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


# Floats json writes in every spelling it has: zeros of both signs,
# subnormals, the edge of the float range and the three non-finite values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2e-308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


@st.composite
def run_reports(draw):
    """A seed and the report lists of 1-2 trees and 1-4 schemes, a scheme
    possibly repeated: the (j, k, name) sessions, each tree's dests, 1-16
    distinct ids in 1..200 so that their string order differs from their
    numeric order, and pdr, avg, total and throughput indexed [tree][scheme]."""
    numbers = st.floats() | st.sampled_from(EDGE_FLOATS)
    trees = draw(st.lists(st.sampled_from(["spt", "mst"]), min_size=1, max_size=2, unique=True))
    schemes = draw(st.lists(st.sampled_from(["pos", "masa", "mdr", "rs"]), min_size=1, max_size=4))
    dests = [draw(st.lists(st.integers(1, 200), min_size=1, max_size=16, unique=True)) for _ in trees]
    pdr, avg, total = ([[draw(numbers) for _ in schemes] for _ in trees] for _ in range(3))
    throughput = [[draw(st.lists(numbers, min_size=len(d), max_size=len(d))) for _ in schemes] for d in dests]
    sessions = [(j, k, f"{tree}/{scheme}") for j, tree in enumerate(trees) for k, scheme in enumerate(schemes)]
    seed = draw(st.sampled_from([0, 2**64, 2**64 + 1]) | st.integers(0, 2**70))
    return seed, sessions, dests, pdr, avg, total, throughput


@settings(max_examples=200, deadline=None)
@given(run_reports())
def test_run_report_is_json_dumps_of_its_payload(report):
    # The stdlib is the oracle: the writer's text is json.dumps of the
    # payload it stands for, byte for byte.
    seed, sessions, dests, pdr, avg, total, throughput = report
    payload = {
        name: {
            "pdr": pdr[j][k],
            "avg_throughput_bps": avg[j][k],
            "total_throughput_bps": total[j][k],
            "throughput_bps": {str(d): t for d, t in zip(dests[j], throughput[j][k])},
        }
        for j, k, name in sessions
    }
    payload["seed"] = seed
    assert _run_report(*report) == json.dumps(payload, indent=2, sort_keys=True)


def readme_config(tmp_path) -> str:
    """The README's example config without its out_dir line, so that stdout
    is the report alone."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(# scenario\n.*?)```", readme, re.DOTALL).group(1)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(re.sub(r"(?m)^out_dir = .*\n", "", block), encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("config, seeds", [("readme", 50), ("golden_run_cfg", 10), ("default", 10)])
def test_run_json_report_round_trips_through_json(tmp_path, capsys, config, seeds):
    # The stdlib is an independent oracle of the run --json report: json
    # reads every report back and writes it again, sorted and indented, to
    # exactly the same text, for the README config, the golden run config
    # and the default config.
    flags = {
        "readme": ["--config", readme_config(tmp_path)],
        "golden_run_cfg": ["--config", str(Path(__file__).parent / "golden" / "run.cfg")],
        "default": [],
    }[config]
    for seed in range(1, seeds + 1):
        code, out, err = run_cli(capsys, "run", *flags, "--seed", str(seed), "--json")
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", seed


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
        (
            "run", "n_nodes = 12\nn_dest = 3\nnoise_psd = 1e-300\nbandwidth_hz = 1e-300\n",
            "bandwidth_hz = 1e-300 and noise_psd = 1e-300 give a noise power bandwidth_hz * noise_psd that underflows to 0",
        ),
        (
            "run", "area_side_m = 1e300\n",
            "area_side_m = 1e+300 gives a squared diagonal 2 * area_side_m**2 that overflows",
        ),
        (
            "sweep", "area_side_m = 1e300\n",
            "area_side_m = 1e+300 gives a squared diagonal 2 * area_side_m**2 that overflows",
        ),
        (
            "run", "area_side_m = 1e-300\ncomm_range_m = 1e-300\n",
            "area_side_m = 1e-300 gives a square area_side_m**2 below the smallest normal float",
        ),
        (
            "sweep", "area_side_m = 1e-170\ncomm_range_m = 1e-170\n",
            "area_side_m = 1e-170 gives a square area_side_m**2 below the smallest normal float",
        ),
    ],
    ids=[
        "range_nan", "pt_inf", "pt_nan", "bw_nan", "swept_pt_nan", "wavelength_inf", "link_budget_inf",
        "noise_power_underflow", "run_area_diagonal_overflow", "sweep_area_diagonal_overflow",
        "run_area_square_underflow", "sweep_area_square_underflow",
    ],
)
def test_non_finite_parameter_is_usage_error_before_any_trial(tmp_path, capsys, no_trials, command, lines, message):
    # before: a NaN range hung, an infinite power ended in a traceback, a
    # NaN power or bandwidth exited 0 with every destination missed, an
    # infinite wavelength or link budget gave zero air time and a traceback,
    # and an area whose squared diagonal overflows, or whose square
    # underflows, exited 3 on an infinite or unorderable distance
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(lines, encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert out == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_overflowing_signal_to_noise_ratio_is_usage_error(tmp_path, capsys, command):
    # pt_watts = 1e308 passes every parameter check: the signal to noise ratio
    # overflows only at short distances. The infinite rate gave zero air time
    # and a ZeroDivisionError, exit 3.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_nodes = 12\nn_dest = 3\npt_watts = 1e308\ntrials = 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error: pt_watts = 1e+308 against a noise power") and "data rate is not finite" in err
    assert out == ""


@pytest.mark.parametrize(
    "variable, values, radio",
    [
        ("pt", "0.1,1e308", "pt_watts = 1e+308 against a noise power bandwidth_hz * noise_psd = 1e-12 W"),
        ("bw", "1e6,1e-300", "pt_watts = 0.1 against a noise power bandwidth_hz * noise_psd = 1e-318 W"),
    ],
)
def test_overflow_in_one_swept_radio_names_that_radio(tmp_path, capsys, variable, values, radio):
    # The values of a radio sweep share a block's draws and are judged
    # together; the error still names the one value whose rate overflows,
    # and the sweep writes no CSV.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"n_nodes = 12\nn_dest = 3\nsweep_variable = {variable}\nsweep_values = {values}\ntrials = 2\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == (
        f"error: {radio} overflows the signal to noise ratio: a data rate is not finite\n"
    )
    assert out == "" and not (tmp_path / "out" / "trials.csv").exists()


@pytest.mark.parametrize(
    "lines, mst_mdr_pdr, pdr",
    [("mu_max_s = 1e308\n", 0.875, 1.0), ("mu_min_s = 1e-320\nmu_max_s = 1e-320\n", 0.0, 0.0)],
    ids=["near_float_max", "subnormal"],
)
def test_extreme_mean_idle_durations_run_without_warnings(tmp_path, capsys, lines, mst_mdr_pdr, pdr):
    # Each overflowed in numpy: a RuntimeWarning on stderr, and exit 3 under
    # -W error::RuntimeWarning or pytest's filter. Their limits are an
    # infinite availability and a pos of 0.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(lines, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--seed", "1", "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    sessions = [f"{tree}/{scheme}" for tree in ("spt", "mst") for scheme in ("pos", "masa", "mdr", "rs")]
    assert {name: report[name]["pdr"] for name in sessions} == {
        name: mst_mdr_pdr if name == "mst/mdr" else pdr for name in sessions
    }


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


# A valid aggregate row, the first of most CSVs plot must reject.
GOOD_ROW = "spt,pos,p_idle,0.5,2.0,0.1,0.5,0.1,2\n"


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

    def test_repeated_scheme_and_tree_flags_count_once(self, tmp_path, capsys):
        # The golden sweep (2 values x 4 trials) with pos and spt each named
        # twice: every row once, equal to the golden files' spt/pos rows.
        golden = Path(__file__).parent / "golden"
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(golden / "sweep.cfg"), "--out", str(out_dir),
            "--scheme", "pos", "--scheme", "pos", "--tree", "spt", "--tree", "spt",
        )
        assert code == 0
        assert out == f"wrote {out_dir / 'trials.csv'} (8 rows)\nwrote {out_dir / 'aggregate.csv'} (2 rows)\n"
        for name in ("trials.csv", "aggregate.csv"):
            header, *rows = (golden / name).read_text(encoding="utf-8").splitlines(keepends=True)
            want = header + "".join(row for row in rows if row.startswith("spt,pos,"))
            assert (out_dir / name).read_text(encoding="utf-8") == want

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
            (GOOD_ROW + "spt,pos,p_idle,0.3,nan,0.0,1.0,0.0,2\n", "line 3: numbers must be finite"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,1.0,inf,1.0,0.0,2\n", "line 3: numbers must be finite"),
            (GOOD_ROW + "spt,pos,p_idle,nan,1.0,0.0,1.0,0.0,2\n", "line 3: numbers must be finite"),
            (GOOD_ROW + "spt,rs,M,4,1.0,0.0,1.0,0.0,2\n", "line 3: variable 'M' differs from 'p_idle'"),
            (GOOD_ROW + "spt,pos,a&b<c,0.5,1e6,0,0.5,0,10\n", "line 3: unknown sweep variable 'a&b<c'"),
            (GOOD_ROW + "spt,pos,p_idle,5e-1,1.0,0.0,1.0,0.0,2\n", "line 3: spt/pos at 0.5 repeats line 2"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,1e308,1e308,1.0,0.0,2\n", "line 3: 1.05 x (mean + CI) overflows"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,1.75e308,0.0,1.0,0.0,2\n", "line 3: 1.05 x (mean + CI) overflows"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,1.0,0.0,5.0,0.0,2\n", "line 3: mean_pdr must lie in [0, 1], got 5.0"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,1.0,0.0,-0.2,0.0,2\n", "line 3: mean_pdr must lie in [0, 1], got -0.2"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,-3.0,0.0,1.0,0.0,2\n", "line 3: means and CIs must not be negative"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,1.0,-0.5,1.0,0.0,2\n", "line 3: means and CIs must not be negative"),
            (GOOD_ROW + "spt,pos,p_idle,0.3,1.0,0.0,1.0,-0.1,2\n", "line 3: means and CIs must not be negative"),
            (GOOD_ROW + "spt,pos,p_idle,5,1e6,0,0.5,0,10\n", "line 3: p_idle must lie strictly between 0 and 1, got 5"),
            (GOOD_ROW + "spt,pos,p_idle,0,1e6,0,0.5,0,10\n", "line 3: p_idle must lie strictly between 0 and 1, got 0"),
            (GOOD_ROW + "spt,rs,p_idle,0.9,1.0,0.0,1.0,0.0,2\nspt,rs,p_idle,1e308,1.0,0.0,1.0,0.0,2\n",
             "line 4: p_idle must lie strictly between 0 and 1, got 1e+308"),
            ("spt,pos,packet_bits,-1.7976931348623157e308,1e6,0,0.5,0,10\n",
             "line 2: packet_bits must be an integer, got -1.7976931348623157e+308"),
            ("spt,pos,packet_bits,1.5,1e6,0,0.5,0,10\n", "line 2: packet_bits must be an integer, got 1.5"),
            ("spt,pos,packet_bits,-16384,1e6,0,0.5,0,10\n", "line 2: packet_bits must be strictly positive, got -16384"),
            ("spt,pos,M,5,1e6,0,0.5,0,10\nspt,pos,M,0,1e6,0,0.5,0,10\n", "line 3: m_channels must be at least 1, got 0"),
            ("spt,pos,n_nodes,1,1e6,0,0.5,0,10\n", "line 2: n_nodes must be at least 2, got 1"),
        ],
        ids=[
            "mean_nan", "ci_inf", "value_nan", "two_variables", "unknown_variable", "repeated_key",
            "mean_plus_ci_overflows", "y_margin_overflows", "pdr_above_one", "pdr_negative",
            "throughput_negative", "throughput_ci_negative", "pdr_ci_negative", "p_idle_5", "p_idle_0",
            "p_idle_1e308", "packet_bits_most_negative", "packet_bits_fraction", "packet_bits_negative", "M_0",
            "n_nodes_1",
        ],
    )
    def test_plot_rejects_csv_it_cannot_draw(self, tmp_path, capsys, rows, message):
        # before: nan/inf exited 0 with nan coordinates in the SVG, a second
        # variable was drawn into the first one's chart, a repeated (tree,
        # scheme, value) as a zig-zag, and values or means near the float
        # limit gave nan and inf coordinates; a mean PDR above 1 or a negative
        # mean drew its point off the chart; a variable holding XML specials
        # was written raw into both charts, which no XML parser then read; a
        # swept value that no sweep writes, such as a negative, fractional or
        # huge packet_bits or a p_idle of 5, was charted with exit 0
        bad = tmp_path / "agg.csv"
        bad.write_text(
            "tree,scheme,variable,value,mean_throughput_bps,ci95_throughput,mean_pdr,ci95_pdr,trials\n" + rows,
            encoding="utf-8",
        )
        charts = tmp_path / "charts"
        code, out, err = run_cli(capsys, "plot", str(bad), "--out", str(charts))
        assert code == 2
        assert err.startswith("error:") and f"{bad}, {message}" in err
        assert out == "" and not charts.exists()

    @pytest.mark.parametrize("value", ["1e17", "1.7976931348623157e308", "40"])
    def test_plot_charts_an_aggregate_of_one_value(self, tmp_path, capsys, value):
        # before: one swept value so large that value +- 0.5 rounds back to it
        # left a zero-width axis, a ZeroDivisionError (exit 3) and the chart
        # directory behind. Each chart now puts the value's points on one
        # vertical line within the axis, with finite coordinates. bw takes
        # any positive float, where packet_bits takes only integers.
        agg = tmp_path / "agg.csv"
        agg.write_text(
            "tree,scheme,variable,value,mean_throughput_bps,ci95_throughput,mean_pdr,ci95_pdr,trials\n"
            f"spt,pos,bw,{value},1e6,0,0.5,0,10\nspt,rs,bw,{value},2e6,1e5,0.7,0.1,10\n",
            encoding="utf-8",
        )
        charts = tmp_path / "charts"
        code, out, err = run_cli(capsys, "plot", str(agg), "--out", str(charts))
        assert (code, err) == (0, "")
        assert out == "".join(f"wrote {charts / name}\n" for name in ("throughput_spt.svg", "pdr_spt.svg"))
        for name in ("throughput_spt.svg", "pdr_spt.svg"):
            svg = xml.dom.minidom.parse(str(charts / name))
            xs = {float(c.getAttribute("cx")) for c in svg.getElementsByTagName("circle")}
            assert len(xs) == 1 and 70.0 <= xs.pop() <= 480.0
            assert "nan" not in (charts / name).read_text(encoding="utf-8")

    def test_plot_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "plot", str(tmp_path / "none.csv"))
        assert code == 2


class TestBadSweepFailsFast:
    """A bad swept value is a config error (exit 2) for every command, found
    before any trial, so no output is written; exit 1 stays reserved for
    example mismatches."""

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
            (
                "noise_psd = 1e-30\nsweep_variable = bw\nsweep_values = 1e6,1e-300\n",
                "bw = 1e-300: bandwidth_hz = 1e-300 and noise_psd = 1e-30 give a noise power",
            ),
        ],
        ids=[
            "non_integral_M", "n_nodes_not_above_n_dest", "p_idle_one", "unknown_variable", "no_values",
            "repeated_value", "integer_beyond_float_range", "link_budget_inf", "noise_power_underflow",
        ],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bad_swept_value_is_usage_error(self, tmp_path, capsys, command, lines, message):
        # run checks the whole config too, sweep section included
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(lines + "trials = 2\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_repeated_config_key_is_usage_error_before_any_trial(tmp_path, capsys, no_trials, command):
    # the later line no longer wins unseen: the file names both lines
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CONFIG + "p_idle = 0.5\np_idle = 0.7\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out_dir))
    assert code == 2
    first = SMALL_CONFIG.count("\n") + 1
    assert err == f"error: {cfg}, line {first + 1}: config key 'p_idle' repeats line {first}\n"
    assert out == "" and not out_dir.exists()


def test_parser_is_reused_across_calls_without_carrying_state(tmp_path, capsys):
    # main builds its parser once per process; each call must still print
    # what a fresh process prints, whatever the calls before it parsed.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CONFIG, encoding="utf-8")
    calls = [
        ["run", "--config", str(cfg), "--json", "--scheme", "masa", "--scheme", "mdr", "--tree", "mst"],
        ["example", "--json"],
        ["run", "--config", str(cfg), "--json"],
        ["sweep", "--config", str(cfg), "--scheme", "rs", "--trials", "2", "--out", str(tmp_path / "sweep")],
        ["run", "--config", str(cfg), "--json", "--scheme", "pos", "--seed", "4"],
    ]
    in_process = []
    for argv in calls:
        in_process.append(run_cli(capsys, *argv))
    assert _build_parser.cache_info().misses <= 1
    src = str(Path(crn_multicast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "crn_multicast.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert json.loads(in_process[0][1]).keys() == {"mst/masa", "mst/mdr", "seed"}
    assert json.loads(in_process[2][1]).keys() == {"spt/pos", "spt/rs", "seed"}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
