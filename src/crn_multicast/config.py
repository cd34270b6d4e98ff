"""Flat `key = value` config files with command-line overrides.

The format is a plain text file: one `key = value` pair per line, `#` starts
a comment, blank lines ignored. List values are comma separated. Unknown keys
are rejected so typos fail loudly, and so is a key set twice, which would
otherwise let the later line win unseen. Command-line flags win over file
values.

A loaded file is a Config: a SweepSpec plus out_dir. SweepSpec holds the
defaults and the checks of every harness value and swept scenario, so `run`
and `sweep` accept and reject the same files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .assignment import Scheme
from .experiment import ScenarioParams, SweepSpec, _parse_number
from .session import TreeKind


class ConfigError(Exception):
    """Bad configuration input (unknown key, unparsable value, bad combination)."""


def _enum_list(kind, noun: str):
    """Parser of a comma-separated list of kind's values, any case."""
    names = [k.value for k in kind]
    expected = f"{', '.join(names[:-1])} or {names[-1]}"

    def parse(text: str) -> tuple:
        out = []
        for part in text.split(","):
            name = part.strip().lower()
            try:
                out.append(kind(name))
            except ValueError:
                raise ConfigError(f"unknown {noun} {name!r}, expected {expected}") from None
        return tuple(out)

    return parse


def _parse_values(text: str) -> tuple:
    try:
        return tuple(_parse_number(p.strip()) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep_values: {exc}") from None


@dataclass(frozen=True)
class Config(SweepSpec):
    """Everything a command needs: the sweep, checked as a whole by SweepSpec
    for every command, plus where output goes."""

    out_dir: str | None = None  # unset: run writes no files, sweep writes to SWEEP_OUT_DIR


SWEEP_OUT_DIR = "out"


# Each scenario key is cast with the type of its field's default (int or float).
_SCENARIO_KEYS = {f.name: type(f.default) for f in fields(ScenarioParams)}

# Each harness key: the Config field it sets and its parser.
_HARNESS_KEYS = {
    "schemes": ("schemes", _enum_list(Scheme, "scheme")),
    "trees": ("trees", _enum_list(TreeKind, "tree kind")),
    "sweep_variable": ("variable", str.strip),
    "sweep_values": ("values", _parse_values),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "out_dir": ("out_dir", str.strip),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into typed values; an unknown key, or a key
    set twice, is an error."""
    values: dict = {}
    set_on: dict = {}  # key: the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key in _SCENARIO_KEYS:
            caster = _SCENARIO_KEYS[key]
        elif key in _HARNESS_KEYS:
            caster = _HARNESS_KEYS[key][1]
        else:
            raise ConfigError(f"{source}, line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"{source}, line {lineno}: config key {key!r} repeats line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = caster(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{source}, line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def load_config(path=None, overrides: dict | None = None) -> Config:
    """Build a Config from an optional file plus override values (flags win).
    The scenario, the harness values and every swept scenario are checked
    here, so every command rejects a bad file before any trial runs."""
    values: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(parse_config_text(p.read_text(encoding="utf-8"), source=str(p)))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    scenario = {k: v for k, v in values.items() if k in _SCENARIO_KEYS}
    harness = {_HARNESS_KEYS[k][0]: v for k, v in values.items() if k in _HARNESS_KEYS}
    try:
        return Config(ScenarioParams(**scenario), **harness)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def sweep_from_config(cfg: Config) -> SweepSpec:
    """The sweep a config describes: the config itself, checked when it was built.

    The package no longer needs it. It stays because the benchmark's set-up
    probe (perfbench/run.py) imports it, and goes when the benchmark stops
    doing so."""
    return cfg
