"""Flat `key = value` config files with command-line overrides.

The format is a plain text file: one `key = value` pair per line, `#` starts
a comment, blank lines ignored. List values are comma separated. Unknown keys
are rejected so typos fail loudly. Command-line flags win over file values.
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
class Config:
    """Everything a command needs: scenario, scheme/tree lists, sweep and output."""

    params: ScenarioParams = ScenarioParams()
    schemes: tuple[Scheme, ...] = (Scheme.POS, Scheme.MASA, Scheme.MDR, Scheme.RS)
    trees: tuple[TreeKind, ...] = (TreeKind.SPT, TreeKind.MST)
    sweep_variable: str = "p_idle"
    sweep_values: tuple = (0.1, 0.5, 0.9)
    trials: int = 1000
    seed: int = 1
    out_dir: str | None = None  # unset: run writes no files, sweep writes to SWEEP_OUT_DIR


SWEEP_OUT_DIR = "out"


# Each scenario key is cast with the type of its field's default (int or float).
_SCENARIO_KEYS = {f.name: type(f.default) for f in fields(ScenarioParams)}

_HARNESS_KEYS = {
    "schemes": _enum_list(Scheme, "scheme"),
    "trees": _enum_list(TreeKind, "tree kind"),
    "sweep_variable": str.strip,
    "sweep_values": _parse_values,
    "trials": int,
    "seed": int,
    "out_dir": str.strip,
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into typed values; unknown keys are an error."""
    values: dict = {}
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
            caster = _HARNESS_KEYS[key]
        else:
            raise ConfigError(f"{source}, line {lineno}: unknown config key {key!r}")
        try:
            values[key] = caster(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{source}, line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def load_config(path=None, overrides: dict | None = None) -> Config:
    """Build a Config from an optional file plus override values (flags win)."""
    values: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(parse_config_text(p.read_text(encoding="utf-8"), source=str(p)))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    scenario_kwargs = {k: v for k, v in values.items() if k in _SCENARIO_KEYS}
    try:
        params = ScenarioParams(**scenario_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    harness_kwargs = {k: v for k, v in values.items() if k in _HARNESS_KEYS}
    cfg = Config(params=params, **harness_kwargs)
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if not cfg.schemes:
        raise ConfigError("need at least one scheme")
    if not cfg.trees:
        raise ConfigError("need at least one tree kind")
    return cfg


def sweep_from_config(cfg: Config) -> SweepSpec:
    try:
        return SweepSpec(
            base=cfg.params,
            variable=cfg.sweep_variable,
            values=cfg.sweep_values,
            trials=cfg.trials,
            seed=cfg.seed,
            schemes=cfg.schemes,
            trees=cfg.trees,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def default_config_text() -> str:
    """A commented template with every recognized key at its default."""
    lines = ["# scenario"]
    for f in fields(ScenarioParams):
        lines.append(f"{f.name} = {getattr(ScenarioParams(), f.name)}")
    cfg = Config()
    lines += [
        "",
        "# harness",
        f"schemes = {','.join(s.value for s in cfg.schemes)}",
        f"trees = {','.join(t.value for t in cfg.trees)}",
        f"sweep_variable = {cfg.sweep_variable}",
        f"sweep_values = {','.join(str(v) for v in cfg.sweep_values)}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"# out_dir = {SWEEP_OUT_DIR}  # unset: run writes no files, sweep writes to {SWEEP_OUT_DIR}",
    ]
    return "\n".join(lines) + "\n"
