import math
import re
from dataclasses import fields
from pathlib import Path

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
from crn_multicast.experiment import SWEEP_VARIABLES, ScenarioParams
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
