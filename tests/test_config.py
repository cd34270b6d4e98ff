import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crn_multicast.assignment import Scheme
from crn_multicast.config import (
    Config,
    ConfigError,
    load_config,
    parse_config_text,
    sweep_from_config,
)
from crn_multicast.experiment import SWEEP_VARIABLES, ScenarioParams, SweepSpec
from crn_multicast.session import TreeKind

FLOAT_KEYS = [f.name for f in fields(ScenarioParams) if f.type == "float"]


def test_readme_config_block_is_every_default():
    # The README's example config documents each key at its default value.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(# scenario\n.*?)```", readme, re.DOTALL).group(1)
    assert load_config(None, parse_config_text(block)) == Config(out_dir="out")


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2.*n_nodez"):
        parse_config_text("n_nodes = 12\nn_nodez = 9\n")


def test_missing_equals_sign_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


def test_comments_and_blank_lines_ignored():
    values = parse_config_text("\n# full line comment\nn_nodes = 12  # trailing comment\n")
    assert values == {"n_nodes": 12}


def test_list_values_parse():
    values = parse_config_text("schemes = pos, rs\ntrees = mst\nsweep_values = 0.1,0.9\n")
    assert values["schemes"] == (Scheme.POS, Scheme.RS)
    assert values["trees"] == (TreeKind.MST,)
    assert values["sweep_values"] == (0.1, 0.9)


@pytest.mark.parametrize(
    "line, message",
    [
        ("schemes = pos,Nope\n", "unknown scheme 'nope', expected pos, masa, mdr or rs"),
        ("trees = spt, TREE\n", "unknown tree kind 'tree', expected spt or mst"),
    ],
    ids=["scheme", "tree"],
)
def test_unknown_list_value_rejected(line, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text(line)
    assert str(err.value) == message


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("seed = 3\ntrials = 50\n", encoding="utf-8")
    cfg = load_config(path, {"seed": 9, "trials": None})
    assert cfg.seed == 9  # flag wins
    assert cfg.trials == 50  # absent flag leaves the file value


def test_inconsistent_scenario_rejected():
    with pytest.raises(ConfigError, match="n_dest"):
        load_config(None, {"n_nodes": 5, "n_dest": 7})


def test_bad_numeric_value_names_key():
    with pytest.raises(ConfigError, match="p_idle"):
        parse_config_text("p_idle = often\n")


def test_unknown_sweep_variable_rejected():
    with pytest.raises(ConfigError, match="frequency"):
        load_config(None, {"sweep_variable": "frequency"})


@pytest.mark.parametrize(
    "key, value, message",
    [("trials", 0, "trials must be at least 1"), ("seed", -1, "seed must be non-negative")],
)
def test_bad_harness_value_gives_sweep_spec_message(key, value, message):
    with pytest.raises(ConfigError) as err:
        load_config(None, parse_config_text(f"{key} = {value}\n"))
    assert str(err.value) == message


def test_sweep_from_config_builds_spec():
    spec = sweep_from_config(Config())
    assert spec.variable == "p_idle"
    assert spec.values == (0.1, 0.5, 0.9)
    assert spec.trials == 1000


@settings(max_examples=300, deadline=None)
@given(
    key=st.sampled_from(FLOAT_KEYS),
    value=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]) | st.floats(),
)
def test_float_scenario_value_loads_or_raises_config_error(key, value):
    # a value either loads as given, finite, or is a ConfigError; nothing else escapes
    text = f"{key} = {value!r}\n"
    try:
        cfg = load_config(None, parse_config_text(text))
    except ConfigError as exc:
        assert key in str(exc)
        return
    loaded = getattr(cfg.base, key)
    assert math.isfinite(loaded) and loaded == value


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_names_the_key(value):
    with pytest.raises(ConfigError, match=f"pt_watts must be finite, got {value}"):
        load_config(None, parse_config_text(f"pt_watts = {value}\n"))


SWEEP_NAMES = [*SWEEP_VARIABLES, "frequency", "m", "P_IDLE", "n-nodes", ""]
SWEEP_TOKENS = (
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1" * 400, "0", "-1", "4", "5.0", "0.5", "1e6", "1000000"])
    | st.sampled_from(["x", " ", "1_000", "0x10"])
    | st.integers(-5, 200).map(str)
    | st.floats().map(repr)
)


@settings(max_examples=300, deadline=None)
@given(variable=st.sampled_from(SWEEP_NAMES), tokens=st.lists(SWEEP_TOKENS, max_size=5))
def test_sweep_text_builds_a_valid_spec_or_raises_config_error(variable, tokens):
    # known and unknown names, non-finite, duplicate, non-integral and empty
    # values: either every swept scenario is valid or a ConfigError says why
    text = f"sweep_variable = {variable}\nsweep_values = {','.join(tokens)}\n"
    try:
        spec = sweep_from_config(load_config(None, parse_config_text(text)))
    except ConfigError:
        return
    assert spec.variable in SWEEP_VARIABLES
    assert spec.values and len(set(spec.values)) == len(spec.values)
    for value, params in spec.scenarios():
        assert math.isfinite(value)
        params.validate()


# Good and bad values of every sweep variable: non-finite, zero, negative and
# beyond float range for all; non-integral for the integer fields; n_dest and
# n_nodes against each other; a bandwidth whose noise power underflows; the
# p_idle bounds; and bool and numpy scalars, whose types a scenario keeps.
COMMON_VALUES = [math.nan, math.inf, -math.inf, 0, 0.0, -1, 10**400, True]
SWEPT_VALUES = {
    "bw": [0.5e6, 2e6, 1000000, 1e-300, 1e-310, np.float64(3e6)],
    "packet_bits": [1, 16384, 5.0, 16384.0, np.int64(65536)],
    "M": [1, 5, 30, 5.0, np.int64(10)],
    "pt": [0.05, 1, 1e300, 1e308, np.float64(0.5)],
    "p_idle": [0.1, 0.5, 0.9, 1, 1.0, np.float64(0.5)],
    "n_dest": [1, 4, 39, 40, 41, 5.0, np.int64(8)],
    "n_nodes": [2, 16, 17, 40, 160, 5.0, np.int64(80)],
}
BASES = {
    "defaults": ScenarioParams(),
    # small n_nodes, a tiny noise density and a low carrier, so the
    # cross-field checks fail at other values
    "tight": ScenarioParams(n_nodes=10, n_dest=9, noise_psd=1e-300, carrier_freq_hz=1e3),
}


def _typed_fields(params):
    return [(f.name, getattr(params, f.name), type(getattr(params, f.name))) for f in fields(params)]


@pytest.mark.parametrize("base", BASES.values(), ids=BASES.keys())
@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_swept_scenario_is_the_scenario_built_with_its_value(variable, base):
    # each swept scenario equals the one built directly with its value, field
    # by field and type by type, or both raise the same message
    name = SWEEP_VARIABLES[variable]
    for value in SWEPT_VALUES[variable] + COMMON_VALUES:
        try:
            direct = ScenarioParams(**{**asdict(base), name: value})
        except ValueError as exc:
            with pytest.raises(ValueError) as swept:
                SweepSpec(base, variable, (value,))
            assert str(swept.value) == f"{variable} = {value!r}: {exc}"
            continue
        ((swept_value, swept),) = SweepSpec(base, variable, (value,)).scenarios()
        assert swept_value is value
        assert _typed_fields(swept) == _typed_fields(direct)
        assert swept == direct and hash(swept) == hash(direct)


# perfbench's trend_axes workload: five sweeps, 18 values in all.
TREND_AXES = {
    "bw": "0.5e6,1e6,2e6,3e6",
    "M": "5,10,20,30",
    "pt": "0.05,0.1,0.5",
    "p_idle": "0.1,0.5,0.9",
    "packet_bits": "16384,32768,65536,131072",
}


def test_a_sweep_checks_its_base_in_full_once_and_each_value_by_its_field(monkeypatch):
    # ScenarioParams.validate() is the full check; validate(name) runs the
    # checks that read field name
    calls = []
    validate = ScenarioParams.validate

    def counted(self, *args):
        calls.append(args)
        return validate(self, *args)

    monkeypatch.setattr(ScenarioParams, "validate", counted)
    for variable, values in TREND_AXES.items():
        start = len(calls)
        cfg = load_config(None, parse_config_text(f"sweep_variable = {variable}\nsweep_values = {values}\n"))
        assert calls[start:] == [()] + [(SWEEP_VARIABLES[variable],)] * len(cfg.values)
    assert calls.count(()) == len(TREND_AXES)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p_idle = 0.5\n# the same key again\np_idle = 0.7\n", "cfg.txt, line 3: config key 'p_idle' repeats line 1"),
        ("sweep_values = 0.1,0.5\nsweep_values = 0.1,0.5\n", "cfg.txt, line 2: config key 'sweep_values' repeats line 1"),
    ],
    ids=["other_value", "same_value"],
)
def test_repeated_key_names_the_key_and_both_lines(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, source="cfg.txt")
    assert str(err.value) == message
