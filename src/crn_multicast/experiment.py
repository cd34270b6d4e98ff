"""Monte Carlo harness: paired trials, parameter sweeps, aggregation, CSV files.

A trial fixes one topology and destination set from its seed, then replays the
same pre-drawn channel states and fading gains under every requested scheme
(common random numbers), so scheme comparisons differ only in channel choice.
Sweeps repeat trials with seeds seed+i at each value of one swept variable and
aggregate means with 95% normal-approximation confidence intervals. A sweep
runs seed by seed: what a seed fixes regardless of the swept value (its
geometry, and its raw draws once per distinct channel count) is built once
and shared by every value, while rows stay in value-major order.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .assignment import Scheme
from .channel import ChannelModel, make_channels
from .phy import SPEED_OF_LIGHT, PhyParams
from .session import (
    SessionResult,
    TreeKind,
    draw_raw,
    execute_schedule,
    link_metrics,
    slot_distances,
    starts_of,
    threshold_draws,
)
from .topology import LayerSchedule, build_mst, build_spt, generate_topology, layerize, prune_tree


class DataFormatError(ValueError):
    """A results file does not match the expected CSV schema."""


def _finite(x) -> bool:
    # Bounds, not math.isfinite, which overflows on ints beyond float range.
    return -sys.float_info.max <= x <= sys.float_info.max


@dataclass(frozen=True)
class ScenarioParams:
    """Full parameter set for one simulated scenario, validated on construction."""

    n_nodes: int = 40
    n_dest: int = 16
    m_channels: int = 20
    bandwidth_hz: float = 1e6
    packet_bits: int = 32768  # 4 KB at 1024 bytes per KB
    pt_watts: float = 0.1
    p_idle: float = 0.9
    mu_min_s: float = 0.002
    mu_max_s: float = 0.070
    noise_psd: float = 1e-18
    path_loss_exp: float = 4.0
    carrier_freq_hz: float = 600e6
    area_side_m: float = 200.0
    comm_range_m: float = 60.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not _finite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("n_nodes", "n_dest", "m_channels", "packet_bits"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        if not 1 <= self.n_dest < self.n_nodes:
            raise ValueError("n_dest must satisfy 1 <= n_dest < n_nodes")
        if self.m_channels < 1:
            raise ValueError("m_channels must be at least 1")
        if not 0.0 < self.p_idle < 1.0:
            raise ValueError("p_idle must lie strictly between 0 and 1")
        for name in (
            "bandwidth_hz",
            "packet_bits",
            "pt_watts",
            "mu_min_s",
            "mu_max_s",
            "noise_psd",
            "path_loss_exp",
            "carrier_freq_hz",
            "area_side_m",
            "comm_range_m",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.mu_min_s > self.mu_max_s:
            raise ValueError("mu_min_s must not exceed mu_max_s")
        # Received power is this constant over d**path_loss_exp times a gain;
        # x * x, unlike x ** 2, gives inf rather than OverflowError.
        half_wave = SPEED_OF_LIGHT / self.carrier_freq_hz / (4.0 * math.pi)
        if not _finite(self.pt_watts * half_wave * half_wave):
            raise ValueError(
                f"pt_watts = {self.pt_watts!r} and carrier_freq_hz = {self.carrier_freq_hz!r} give a "
                "non-finite link budget pt_watts * (wavelength / 4 pi)**2"
            )

    def phy(self) -> PhyParams:
        return PhyParams.from_carrier(
            pt=self.pt_watts,
            path_loss_exp=self.path_loss_exp,
            carrier_freq_hz=self.carrier_freq_hz,
            noise_psd=self.noise_psd,
            bandwidth=self.bandwidth_hz,
            packet_bits=self.packet_bits,
        )

    def channels(self) -> ChannelModel:
        return make_channels(self.m_channels, self.mu_min_s, self.mu_max_s, self.p_idle)


# The swept variable names accepted by SweepSpec, mapped to ScenarioParams fields.
SWEEP_VARIABLES = {
    "bw": "bandwidth_hz",
    "packet_bits": "packet_bits",
    "M": "m_channels",
    "pt": "pt_watts",
    "p_idle": "p_idle",
    "n_dest": "n_dest",
    "n_nodes": "n_nodes",
}

_TREE_CODE = {TreeKind.SPT: 0, TreeKind.MST: 1}
_SCHEME_CODE = {Scheme.POS: 0, Scheme.MASA: 1, Scheme.MDR: 2, Scheme.RS: 3}

# Sub-stream tags hashed into per-purpose generators, so adding schemes or
# tree kinds never shifts anyone else's draws.
_STREAM_TOPOLOGY = 0
_STREAM_DESTINATIONS = 1
_STREAM_EVENTS = 2
_STREAM_SELECTION = 3


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, *stream))


@dataclass(frozen=True)
class TreeStages:
    """One pruned tree of a trial seed, ready for draws: its layer schedule,
    each receiver slot's parent-edge distance and each event's first slot."""

    schedule: LayerSchedule
    distances: np.ndarray
    starts: np.ndarray


@dataclass(frozen=True)
class SeedStages:
    """What a trial seed fixes before link metrics: the destination set, per
    tree kind the pruned tree's stages, and the raw draws taken so far."""

    seed: int
    destinations: frozenset[int]
    trees: dict[TreeKind, TreeStages]
    _raw: dict = field(default_factory=dict, repr=False, compare=False)

    def raw(self, tree_kind: TreeKind, model: ChannelModel):
        """The tree's raw draws (session.draw_raw) under model, taken when
        first asked for. They are keyed on what draw_raw reads of the model,
        its mean idle durations (whose length is M), so models differing
        only in p_idle share them."""
        key = (tree_kind, model.mu_idle.tobytes())
        if key not in self._raw:
            rng = _rng(self.seed, _STREAM_EVENTS, _TREE_CODE[tree_kind])
            self._raw[key] = draw_raw(self.trees[tree_kind].schedule, model, rng)
        return self._raw[key]


def seed_stages(params: ScenarioParams, trees, seed: int) -> SeedStages:
    """Topology, destinations, pruned trees and layer schedules of one seed.

    These depend on the seed, n_nodes, n_dest, area and range only.
    """
    topo = generate_topology(
        params.n_nodes, params.area_side_m, params.comm_range_m, _rng(seed, _STREAM_TOPOLOGY)
    )
    dest_rng = _rng(seed, _STREAM_DESTINATIONS)
    destinations = frozenset(
        int(v) for v in dest_rng.choice(np.arange(1, params.n_nodes), size=params.n_dest, replace=False)
    )
    stages = {}
    for tree_kind in trees:
        build = build_spt if tree_kind is TreeKind.SPT else build_mst
        pruned = prune_tree(build(topo, 0), destinations)
        schedule = layerize(pruned)
        stages[tree_kind] = TreeStages(schedule, slot_distances(pruned, schedule), starts_of(schedule))
    return SeedStages(seed, destinations, stages)


def run_scenario_sessions(
    params: ScenarioParams,
    schemes,
    trees,
    seed: int,
    channel_model: ChannelModel | None = None,
    stages: SeedStages | None = None,
) -> dict[tuple[TreeKind, Scheme], SessionResult]:
    """One seeded scenario: full session results per (tree kind, scheme).

    All schemes of one tree kind see bitwise-identical channel states and
    gains; only their channel decisions (and hence successes) differ.
    channel_model defaults to the one params describes, and stages to
    seed_stages(params, trees, seed); a sweep passes stages it shares across
    values, which must equal what that default would build.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if stages is not None and stages.seed != seed:
        raise ValueError(f"stages were built for seed {stages.seed}, not {seed}")
    model = channel_model if channel_model is not None else params.channels()
    phy = params.phy()
    stages = stages if stages is not None else seed_stages(params, trees, seed)
    results: dict[tuple[TreeKind, Scheme], SessionResult] = {}
    for tree_kind in trees:
        tree = stages.trees[tree_kind]
        draws = threshold_draws(stages.raw(tree_kind, model), model.p_idle)
        table = link_metrics(phy, tree.distances, draws, model.mu_idle, tree.starts)
        for scheme in schemes:
            rs = scheme is Scheme.RS  # only random selection draws, so only rs gets a generator
            sel_rng = _rng(seed, _STREAM_SELECTION, _TREE_CODE[tree_kind], _SCHEME_CODE[scheme]) if rs else None
            results[(tree_kind, scheme)] = execute_schedule(
                tree.schedule, table, stages.destinations, phy.packet_bits, scheme, sel_rng
            )
    return results


@dataclass(frozen=True)
class SweepSpec:
    base: ScenarioParams
    variable: str
    values: tuple
    trials: int
    seed: int
    schemes: tuple[Scheme, ...] = (Scheme.POS, Scheme.MASA, Scheme.MDR, Scheme.RS)
    trees: tuple[TreeKind, ...] = (TreeKind.SPT, TreeKind.MST)

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"unknown sweep variable {self.variable!r}, expected one of {sorted(SWEEP_VARIABLES)}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.schemes or not self.trees:
            raise ValueError("sweep needs at least one scheme and one tree kind")
        # Every swept scenario is built, and so validated, here, so a bad
        # value fails before the first trial runs rather than partway through.
        self.scenarios()
        # Equal values would be aggregated as one point with every seed counted twice.
        repeats = [v for i, v in enumerate(self.values) if v in self.values[:i]]
        if repeats:
            raise ValueError(f"{self.variable} = {repeats[0]!r} equals an earlier swept value")

    def scenarios(self) -> list[tuple[float | int, ScenarioParams]]:
        """(swept value, full scenario) pairs in sweep order."""
        name = SWEEP_VARIABLES[self.variable]
        out = []
        for value in self.values:
            try:
                out.append((value, replace(self.base, **{name: value})))
            except ValueError as exc:
                raise ValueError(f"{self.variable} = {value!r}: {exc}") from None
        return out


@dataclass(frozen=True)
class TrialRow:
    tree: TreeKind
    scheme: Scheme
    variable: str
    value: float | int
    trial: int
    avg_throughput_bps: float
    pdr: float


@dataclass(frozen=True)
class AggregateRow:
    tree: TreeKind
    scheme: Scheme
    variable: str
    value: float | int
    mean_throughput_bps: float
    ci95_throughput: float
    mean_pdr: float
    ci95_pdr: float
    trials: int


def _mean_ci95(values: list[float]) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(len(values))
    return mean, half


def aggregate_trials(rows: list[TrialRow]) -> list[AggregateRow]:
    """Collapse per-trial rows into mean and CI rows, one per
    (tree, scheme, value), in first-seen order."""
    groups: dict[tuple, list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.tree, row.scheme, row.variable, row.value), []).append(row)
    out = []
    for (tree, scheme, variable, value), members in groups.items():
        mean_tp, ci_tp = _mean_ci95([r.avg_throughput_bps for r in members])
        mean_pdr, ci_pdr = _mean_ci95([r.pdr for r in members])
        out.append(
            AggregateRow(tree, scheme, variable, value, mean_tp, ci_tp, mean_pdr, ci_pdr, len(members))
        )
    return out


# Swept fields that change a trial seed's geometry, so seed_stages cannot be shared.
_GEOMETRY_FIELDS = {"n_nodes", "n_dest"}


def run_sweep(spec: SweepSpec) -> tuple[list[TrialRow], list[AggregateRow]]:
    """Run trials at every swept value with trial seeds seed+i and aggregate.

    Reusing trial seeds across values pairs the sweep points through common
    topologies and draws, which keeps trends smooth at modest trial counts.
    Trials run seed by seed, so a seed's stages, and the raw draws they take,
    are built once for all values unless the geometry is swept, and only one
    seed's are alive at a time; channel models are built once per value.
    Rows come out value-major.
    """
    points = [(value, params, params.channels()) for value, params in spec.scenarios()]
    shared = SWEEP_VARIABLES[spec.variable] not in _GEOMETRY_FIELDS
    blocks: list[list[TrialRow]] = [[] for _ in points]
    for i in range(spec.trials):
        seed = spec.seed + i
        stages = seed_stages(spec.base, spec.trees, seed) if shared else None
        for block, (value, params, model) in zip(blocks, points):
            sessions = run_scenario_sessions(params, spec.schemes, spec.trees, seed, model, stages)
            for (tree, scheme), res in sessions.items():
                block.append(TrialRow(tree, scheme, spec.variable, value, i, res.avg_throughput, res.pdr))
    rows = [row for block in blocks for row in block]
    return rows, aggregate_trials(rows)


TRIALS_HEADER = "tree,scheme,variable,value,trial,avg_throughput_bps,pdr"
AGGREGATE_HEADER = (
    "tree,scheme,variable,value,mean_throughput_bps,ci95_throughput,mean_pdr,ci95_pdr,trials"
)


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def trials_to_csv(rows: list[TrialRow]) -> str:
    lines = [TRIALS_HEADER]
    for r in rows:
        lines.append(
            f"{r.tree.value},{r.scheme.value},{r.variable},{_fmt(r.value)},"
            f"{r.trial},{r.avg_throughput_bps!r},{r.pdr!r}"
        )
    return "\n".join(lines) + "\n"


def aggregate_to_csv(rows: list[AggregateRow]) -> str:
    lines = [AGGREGATE_HEADER]
    for r in rows:
        lines.append(
            f"{r.tree.value},{r.scheme.value},{r.variable},{_fmt(r.value)},"
            f"{r.mean_throughput_bps!r},{r.ci95_throughput!r},{r.mean_pdr!r},{r.ci95_pdr!r},{r.trials}"
        )
    return "\n".join(lines) + "\n"


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_csv(text: str, header: str, path) -> list[tuple[int, list[str]]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise DataFormatError(f"{path}, line 1: expected header {header!r}")
    n_fields = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise DataFormatError(f"{path}, line {lineno}: expected {n_fields} fields, got {len(fields)}")
        rows.append((lineno, fields))
    return rows


def read_trials_csv(path) -> list[TrialRow]:
    rows = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, f in _parse_csv(text, TRIALS_HEADER, path):
        try:
            rows.append(
                TrialRow(
                    TreeKind(f[0]), Scheme(f[1]), f[2], _parse_number(f[3]),
                    int(f[4]), float(f[5]), float(f[6]),
                )
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {lineno}: {exc}") from exc
    return rows


def read_aggregate_csv(path) -> list[AggregateRow]:
    rows = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, f in _parse_csv(text, AGGREGATE_HEADER, path):
        try:
            row = AggregateRow(
                TreeKind(f[0]), Scheme(f[1]), f[2], _parse_number(f[3]),
                float(f[4]), float(f[5]), float(f[6]), float(f[7]), int(f[8]),
            )
            values = (row.value, row.mean_throughput_bps, row.ci95_throughput, row.mean_pdr, row.ci95_pdr)
            if not all(_finite(x) for x in values):
                raise ValueError(f"numbers must be finite, got {values}")
            if rows and row.variable != rows[0].variable:
                raise ValueError(f"variable {row.variable!r} differs from {rows[0].variable!r} above")
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {lineno}: {exc}") from exc
        rows.append(row)
    return rows


def write_sweep_csv(rows: list[TrialRow], agg: list[AggregateRow], out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / "trials.csv"
    agg_path = out / "aggregate.csv"
    trials_path.write_text(trials_to_csv(rows), encoding="utf-8", newline="\n")
    agg_path.write_text(aggregate_to_csv(agg), encoding="utf-8", newline="\n")
    return trials_path, agg_path
