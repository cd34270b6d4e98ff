"""Monte Carlo harness: paired trials, parameter sweeps, aggregation, CSV files.

A trial fixes one topology and destination set from its seed, then replays the
same pre-drawn channel states and fading gains under every requested scheme
(common random numbers), so scheme comparisons differ only in channel choice.
Sweeps repeat trials with seeds seed+i at each value of one swept variable and
aggregate means with 95% normal-approximation confidence intervals.

Every trial is judged in a block of trial seeds, in three stages. The
first two are shared by every swept value that agrees on what they read,
and the third judges all of those values at once:

- the geometry (_block_stages) reads n_nodes, n_dest, the area and the
  range. It stacks the tree of every (seed, tree kind), seed after seed with
  tree kinds in order, into one slot index, and hashes the seed words of
  every generator of the block in one pass (seeding.stream_words): each
  seed's topology and destination generators and each tree's events
  generator, every one numpy's default_rng((seed, *stream)) in state. The
  block is placed and its trees built as parent arrays a chunk of seeds at
  a time, each chunk in the same numpy calls (topology.chunk_seeds), and
  session.slot_index prunes every tree of the stack at once, walks only the
  pruned trees level by level, and lays them out as one index;
- the raw draws (session.draw_raw) also read the channel count and mean
  idle durations: each tree's channel states, gains and rs picks from its
  own events generator;
- the judgement (_judge_block) reads everything else: the radio
  (phy.RADIO_FIELDS) and the idle probabilities. It judges every value of a
  draw set in one pass: one link table (session.EventTable) with a layer per
  distinct radio (one layer when the values share one), each value's idle
  flags thresholded from the shared uniforms, every scheme's channels under
  every value's flags against its radio's layer, and one judgement over
  values x schemes columns, each column on its value's radio. A chosen
  channel is always an idle one, so its fit against the shared table is the
  fit a value judged alone reads.

A sweep nests its values in one plan by the first two keys (run_sweep),
geometry, then draw set, then values: the values of a p_idle, bw, pt or
packet_bits sweep share a block's geometry and draws and are judged in one
call; M shares the geometry, with draws per value; n_nodes and n_dest get a
geometry per value. Each value fills its slice of the sweep's per-trial
arrays, as if every trial had run on its own. A run is a block of one seed
through the same three calls, and fixture replays are tables of one tree
on one radio.

Every output file of the package, the sweep CSVs, run's session CSVs and
the SVG charts, is written by write_output: rewritten in place to exactly
the new bytes, so a file that already exists keeps its inode, mode and
links, and a repeated run into the same directory skips the cost of
truncating each file to zero first.
"""

from __future__ import annotations

import math
import numbers
import os
import stat
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .assignment import Scheme, choose_channels
from .phy import RADIO_FIELDS, SPEED_OF_LIGHT
from .session import (
    EventTable,
    Judgement,
    SlotIndex,
    TreeKind,
    draw_raw,
    idle_flags,
    judge,
    link_metrics,
    slot_index,
)
from .seeding import generators, stream_words
from .topology import chunk_seeds, mst_stack, place_stack, spt_stack


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
        """Check the scenario, raising ValueError at the first failing check.
        Every check runs, in a fixed order, on every scenario built: a swept
        scenario (SweepSpec) is its base with one field set, built and
        checked like any other."""
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            # An exact int or float is tested first: the numbers ABC checks are slow.
            if (type(value) in (int, float) or isinstance(value, numbers.Real)) and not _finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if name in _INTEGER_FIELDS and type(value) is not int and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        if not 1 <= self.n_dest < self.n_nodes:
            raise ValueError("n_dest must satisfy 1 <= n_dest < n_nodes")
        if self.m_channels < 1:
            raise ValueError("m_channels must be at least 1")
        if not 0.0 < self.p_idle < 1.0:
            raise ValueError("p_idle must lie strictly between 0 and 1")
        for name in _FIELD_NAMES:
            if name in _POSITIVE_FIELDS and getattr(self, name) <= 0:
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
        # Node distances come from squared coordinate differences of up to the
        # area side: an overflowing squared diagonal makes them infinite, and
        # a square below the smallest normal float loses them to underflow.
        side_sq = self.area_side_m * self.area_side_m
        if not _finite(side_sq + side_sq):
            raise ValueError(
                f"area_side_m = {self.area_side_m!r} gives a squared diagonal 2 * area_side_m**2 that overflows"
            )
        if side_sq < sys.float_info.min:
            raise ValueError(
                f"area_side_m = {self.area_side_m!r} gives a square area_side_m**2 below the smallest normal float"
            )
        # A zero noise power would divide every received power by zero.
        if self.bandwidth_hz * self.noise_psd == 0.0:
            raise ValueError(
                f"bandwidth_hz = {self.bandwidth_hz!r} and noise_psd = {self.noise_psd!r} give a noise power "
                "bandwidth_hz * noise_psd that underflows to 0"
            )

    def mu_idle(self) -> np.ndarray:
        """The (M,) mean idle durations of the scenario's channels, s: evenly
        spaced over [mu_min_s, mu_max_s], mu_min_s for a single channel."""
        return np.linspace(self.mu_min_s, self.mu_max_s, self.m_channels)


# Checks run per field in field order, the order of _FIELD_NAMES.
_FIELD_NAMES = tuple(f.name for f in fields(ScenarioParams))
_INTEGER_FIELDS = frozenset({"n_nodes", "n_dest", "m_channels", "packet_bits"})
# The counts' least values; n_dest's bound by n_nodes is a cross-field check.
_LEAST_COUNTS = {"n_nodes": 2, "n_dest": 1, "m_channels": 1}
_POSITIVE_FIELDS = frozenset(
    {
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
    }
)


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

# Sub-stream tags hashed into per-purpose generators, so adding tree kinds
# never shifts anyone else's draws: every generator is
# default_rng((seed, *stream)), seeded a block at a time (seeding).
_STREAM_TOPOLOGY = (0,)
_STREAM_DESTINATIONS = (1,)


def _events_streams(trees) -> tuple[tuple[int, int], ...]:
    return tuple((2, _TREE_CODE[t]) for t in trees)


def _block_stages(params: ScenarioParams, trees, seeds) -> tuple[SlotIndex, np.ndarray]:
    """The slot index of every (seed, tree kind) of a block, seed after seed
    with tree kinds in order, and the (trees, 4) PCG64 seed words of each
    tree's events generator, in the same order. Each seed's topology and
    destinations come from its own generators, seeded together with every
    events generator of the block in one hashing pass
    (seeding.stream_words), so a bad seed fails here, before any draw. The
    block is placed and its trees built in chunks of seeds
    (topology.chunk_seeds), each chunk's placements and trees in the same
    numpy calls (place_stack, spt_stack, mst_stack); the block's (trees, n)
    stack of parent arrays is pruned, walked level by level and laid out as
    slots, every tree at once (session.slot_index). These depend on the
    seeds, n_nodes, n_dest, area and range only."""
    n = params.n_nodes
    builders = {TreeKind.SPT: spt_stack, TreeKind.MST: mst_stack}
    words = stream_words(seeds, (_STREAM_TOPOLOGY, _STREAM_DESTINATIONS, *_events_streams(trees)))
    parent = np.empty((len(seeds), len(trees), n), dtype=np.intp)
    dist = np.empty((len(seeds), len(trees), n))
    destinations = np.empty((len(seeds), len(trees), params.n_dest), dtype=np.intp)
    rngs = generators(words[:, :2].reshape(-1, 4))  # each seed's topology, then destination generator
    topology_rngs = rngs[0::2]
    for i, rng in enumerate(rngs[1::2]):
        destinations[i] = rng.choice(np.arange(1, n), size=params.n_dest, replace=False)
    step = chunk_seeds(n)
    for first in range(0, len(seeds), step):
        chunk = slice(first, first + step)
        weights = place_stack(n, params.area_side_m, params.comm_range_m, topology_rngs[chunk])[1]
        for j, kind in enumerate(trees):
            parent[chunk, j], dist[chunk, j] = builders[kind](weights, 0)
        del weights  # gone before the next chunk is placed, so one chunk is alive at a time
    slots = slot_index(parent.reshape(-1, n), dist.reshape(-1, n), destinations.reshape(-1, params.n_dest))
    # The one check on distances: link_metrics runs the link equations unchecked.
    if not (slots.distances > 0.0).all():
        raise ValueError("distance must be positive (co-located nodes)")
    return slots, words[:, 2:].reshape(-1, 4)


def _judge_block(
    scenarios, mu_idle: np.ndarray, schemes, slots: SlotIndex, raw
) -> tuple[EventTable, np.ndarray, Judgement]:
    """Judge a block's slots and raw draws (session.draw_raw) over mean idle
    durations mu_idle under V values in one pass, value v being scenarios[v]:
    one event table with one layer for all values when they agree on every
    phy.RADIO_FIELDS field and one per value otherwise, each value's idle
    flags from the draws at its scenario's p_idle on every channel, every
    scheme's channels under every value's flags from the table
    (assignment.choose_channels), rs from the draws' pick uniforms, and one
    judgement of their (entries, values x schemes) columns, value after
    value."""
    radios = scenarios[:1] if len(set(map(attrgetter(*RADIO_FIELDS), scenarios))) == 1 else list(scenarios)
    table = link_metrics(radios, raw, mu_idle, slots)
    idle = idle_flags(raw, np.array([[params.p_idle] for params in scenarios]))  # (V, 1): one for every channel
    channels = np.empty((len(slots.starts), len(scenarios), len(schemes)), dtype=np.intp)
    for k, scheme in enumerate(schemes):
        channels[:, :, k] = choose_channels(scheme, table, idle).T
    channels = channels.reshape(len(channels), -1)
    return table, channels, judge(table, channels)


def run_scenario_sessions(
    params: ScenarioParams, schemes, trees, seed: int
) -> tuple[EventTable, np.ndarray, Judgement]:
    """One seeded scenario: its event table, its (entries, schemes) chosen
    channels and their Judgement. Tree j is trees[j], a repeated tree kind
    counting once in first-seen order, and column k is schemes[k].

    All schemes of one tree kind see bitwise-identical channel states and
    gains; only their channel decisions (and hence successes) differ.
    The scenario is a block of one seed through the three calls that judge
    each block of a sweep: _block_stages, draw_raw over params.mu_idle()
    and _judge_block. A negative seed is a ValueError, and one that is not
    an integer a TypeError, from the block's seeding, before any draw.
    """
    mu_idle = params.mu_idle()
    slots, words = _block_stages(params, tuple(dict.fromkeys(trees)), [seed])
    raw = draw_raw(slots, mu_idle, generators(words))
    return _judge_block([params], mu_idle, schemes, slots, raw)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: the base scenario, the swept variable and its
    values, trials per value, base seed, schemes and tree kinds. Every field
    and every swept scenario is checked on construction; the defaults are the
    config file's. Each swept scenario is the base with the swept field
    set (dataclasses.replace), built and checked like any ScenarioParams, so
    a bad value raises what a scenario built with it raises, after
    "<variable> = <value>: ". A repeated scheme or tree kind counts once, in
    first-seen order."""

    base: ScenarioParams = ScenarioParams()
    variable: str = "p_idle"
    values: tuple = (0.1, 0.5, 0.9)
    trials: int = 1000
    seed: int = 1
    schemes: tuple[Scheme, ...] = (Scheme.POS, Scheme.MASA, Scheme.MDR, Scheme.RS)
    trees: tuple[TreeKind, ...] = (TreeKind.SPT, TreeKind.MST)

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(dict.fromkeys(self.schemes)))
        object.__setattr__(self, "trees", tuple(dict.fromkeys(self.trees)))
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"unknown sweep variable {self.variable!r}, expected one of {sorted(SWEEP_VARIABLES)}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")
        # Trial seeds are hashed as 32-bit words (seeding.stream_words), so only integers reach them.
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.schemes or not self.trees:
            raise ValueError("sweep needs at least one scheme and one tree kind")
        # Every swept scenario is built and checked here, once (scenarios
        # keeps them), so a bad value fails before the first trial runs rather
        # than partway through.
        self.scenarios()
        # Equal values would be aggregated as one point with every seed counted twice.
        repeats = [v for i, v in enumerate(self.values) if v in self.values[:i]]
        if repeats:
            raise ValueError(f"{self.variable} = {repeats[0]!r} equals an earlier swept value")

    def scenarios(self) -> list[tuple[float | int, ScenarioParams]]:
        """(swept value, full scenario) pairs in sweep order, built once per spec."""
        return list(self._scenarios)

    @cached_property
    def _scenarios(self) -> tuple[tuple[float | int, ScenarioParams], ...]:
        name = SWEEP_VARIABLES[self.variable]
        out = []
        for value in self.values:
            try:
                out.append((value, replace(self.base, **{name: value})))
            except ValueError as exc:
                raise ValueError(f"{self.variable} = {value!r}: {exc}") from None
        return tuple(out)


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


def aggregate_trials(spec: SweepSpec, avg: np.ndarray, pdr: np.ndarray) -> list[AggregateRow]:
    """Mean and CI rows of a sweep's per-trial arrays (run_sweep), one per
    (value, tree, scheme) in that order.

    Each point's mean and standard deviation (ddof=1) are numpy's over its
    own trials, reduced along the contiguous trial axis, so numpy sums them
    pairwise as it sums a list of them. A single trial has a CI of 0."""
    n = spec.trials
    stats = []
    for column in (np.ascontiguousarray(avg), np.ascontiguousarray(pdr)):
        stats.append(column.mean(axis=-1).tolist())
        ci = 1.96 * column.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(column.shape[:-1])
        stats.append(ci.tolist())
    return [
        AggregateRow(tree, scheme, spec.variable, value, *(stat[v][t][s] for stat in stats), n)
        for v, value in enumerate(spec.values)
        for t, tree in enumerate(spec.trees)
        for s, scheme in enumerate(spec.schemes)
    ]


# Trial seeds judged together: the trees of a block's seeds are stacked into
# one table, so per-call overhead is paid per block rather than per seed.
# On a 1000-trial sweep 32 was within 3% of the fastest size, 64, at about 40%
# of its block memory (README "Sweeps" has the measurement).
BLOCK_SEEDS = 32


def run_sweep(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Run trials at every swept value with trial seeds seed+i: each trial's
    average throughput and PDR, as float64 arrays shaped (values, trees,
    schemes, trials) in the spec's order, the trial axis contiguous.

    Reusing trial seeds across values pairs the sweep points through common
    topologies and draws, which keeps trends smooth at modest trial counts.
    The plan nests the values by what each stage reads: geometry by n_nodes,
    n_dest, area and range, and raw draws also by the channel count and
    mean idle durations, with one params.mu_idle() per draw set. Trials
    run in blocks of up to BLOCK_SEEDS seeds, and each block takes one
    _block_stages per geometry and one draw_raw and one _judge_block per
    draw set, which judges every value of the set, whatever its radio and
    idle probability, each alive only inside its own loop. These are the
    calls run_scenario_sessions makes on its block of one seed, so every
    trial equals run_scenario_sessions at its seed.
    """
    scenarios = [params for _, params in spec.scenarios()]
    plan: dict = {}  # geometry -> (params, {(M, mu_min, mu_max) -> (mean idle durations, values)})
    for v, params in enumerate(scenarios):
        geometry = (params.n_nodes, params.n_dest, params.area_side_m, params.comm_range_m)
        draw_sets = plan.setdefault(geometry, (params, {}))[1]
        key = (params.m_channels, params.mu_min_s, params.mu_max_s)
        if key not in draw_sets:
            draw_sets[key] = (params.mu_idle(), [])
        draw_sets[key][1].append(v)
    shape = (len(scenarios), len(spec.trees), len(spec.schemes), spec.trials)
    avg, pdr = np.empty(shape), np.empty(shape)
    for first in range(0, spec.trials, BLOCK_SEEDS):
        seeds = range(spec.seed + first, spec.seed + min(first + BLOCK_SEEDS, spec.trials))
        trials = slice(first, first + len(seeds))
        for params, draw_sets in plan.values():
            slots, words = _block_stages(params, spec.trees, seeds)
            for mu_idle, values in draw_sets.values():
                raw = draw_raw(slots, mu_idle, generators(words))
                judged = _judge_block([scenarios[v] for v in values], mu_idle, spec.schemes, slots, raw)[2]
                # Tree j of the block is seed j // len(trees) on tree kind j % len(trees), and
                # column c is value values[c // len(schemes)] under scheme c % len(schemes).
                split = (len(seeds), shape[1], len(values), shape[2])
                for out, per_tree in zip((avg, pdr), judged.averages()):
                    out[values, :, :, trials] = per_tree.reshape(split).transpose(2, 1, 3, 0)
                del raw  # gone before the next draws are taken, so one set is alive at a time
            del slots, words  # gone before the next geometry is built, so one block is alive at a time
    return avg, pdr


TRIALS_HEADER = "tree,scheme,variable,value,trial,avg_throughput_bps,pdr"
AGGREGATE_HEADER = (
    "tree,scheme,variable,value,mean_throughput_bps,ci95_throughput,mean_pdr,ci95_pdr,trials"
)


def _fmt(v) -> str:
    # float() first: a float subclass such as numpy.float64 reprs as np.float64(0.1).
    return repr(float(v)) if isinstance(v, float) else str(v)


def trials_to_csv(spec: SweepSpec, avg: np.ndarray, pdr: np.ndarray) -> str:
    """One line per trial of a sweep's per-trial arrays (run_sweep), in
    value, trial, tree, scheme order."""
    labels = [f"{tree.value},{scheme.value}" for tree in spec.trees for scheme in spec.schemes]
    # (values, trials, trees x schemes) nested lists of floats, whose repr is the CSV's.
    by_trial = [a.reshape(len(spec.values), len(labels), spec.trials).transpose(0, 2, 1).tolist() for a in (avg, pdr)]
    lines = [TRIALS_HEADER]
    for value, avg_v, pdr_v in zip(spec.values, *by_trial):
        point = f"{spec.variable},{_fmt(value)}"
        for i, (avg_i, pdr_i) in enumerate(zip(avg_v, pdr_v)):
            lines += [f"{label},{point},{i},{a!r},{p!r}" for label, a, p in zip(labels, avg_i, pdr_i)]
    return "\n".join(lines) + "\n"


def aggregate_to_csv(rows: list[AggregateRow]) -> str:
    lines = [AGGREGATE_HEADER]
    for r in rows:
        lines.append(
            f"{r.tree.value},{r.scheme.value},{r.variable},{_fmt(r.value)},"
            f"{r.mean_throughput_bps!r},{r.ci95_throughput!r},{r.mean_pdr!r},{r.ci95_pdr!r},{r.trials}"
        )
    return "\n".join(lines) + "\n"


# Charts' y-axis headroom: the axis of a mean metric ends this factor above
# its largest mean + CI (plotting.render_chart).
_Y_HEADROOM = 1.05


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


def read_aggregate_csv(path) -> list[AggregateRow]:
    """Aggregate rows of a CSV file that charts can draw: finite numbers,
    means and CIs that are not negative with a mean PDR of at most 1, one
    swept variable of SWEEP_VARIABLES (which charts write into their SVG
    unescaped), each value in its field's own range (which keeps the span
    of the values finite), one row per (tree, scheme, value), and y-axis
    ranges that stay finite (_Y_HEADROOM x (mean + CI)). An aggregate holds
    no base scenario, so no cross-field check applies."""
    rows, seen = [], {}
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
            if not 0.0 <= row.mean_pdr <= 1.0:
                raise ValueError(f"mean_pdr must lie in [0, 1], got {row.mean_pdr!r}")
            if min(values[1:]) < 0.0:
                raise ValueError(f"means and CIs must not be negative, got {values[1:]}")
            if row.variable not in SWEEP_VARIABLES:
                raise ValueError(f"unknown sweep variable {row.variable!r}, not one of {', '.join(SWEEP_VARIABLES)}")
            if rows and row.variable != rows[0].variable:
                raise ValueError(f"variable {row.variable!r} differs from {rows[0].variable!r} above")
            name = SWEEP_VARIABLES[row.variable]
            if name in _INTEGER_FIELDS and type(row.value) is not int:
                raise ValueError(f"{name} must be an integer, got {row.value!r}")
            if row.value < _LEAST_COUNTS.get(name, -math.inf):
                raise ValueError(f"{name} must be at least {_LEAST_COUNTS[name]}, got {row.value!r}")
            if name == "p_idle" and not 0.0 < row.value < 1.0:
                raise ValueError(f"p_idle must lie strictly between 0 and 1, got {row.value!r}")
            if name in _POSITIVE_FIELDS and row.value <= 0:
                raise ValueError(f"{name} must be strictly positive, got {row.value!r}")
            key = (row.tree, row.scheme, float(row.value))
            if key in seen:
                raise ValueError(f"{row.tree.value}/{row.scheme.value} at {row.value!r} repeats line {seen[key]}")
            seen[key] = lineno
            for mean, ci in ((row.mean_throughput_bps, row.ci95_throughput), (row.mean_pdr, row.ci95_pdr)):
                if not _finite(_Y_HEADROOM * (mean + ci)):
                    raise ValueError(f"{_Y_HEADROOM} x (mean + CI) overflows for mean {mean!r} and CI {ci!r}")
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {lineno}: {exc}") from exc
        rows.append(row)
    return rows


def write_output(path, text: str) -> None:
    """Make the file at path hold exactly text, encoded as UTF-8 with no
    newline translation, rewriting it in place.

    A missing file is created with the mode open(path, "w") gives it. An
    existing one keeps its inode, mode and links, and a symlink its target:
    the new bytes are written over the old ones from offset 0, then a regular
    file is cut at their end (a device such as /dev/null is not cut). Not
    truncating to zero first is what makes a rewrite cheap: on an ext4 root
    mounted with `discard`, rewriting a 2.5 KB file took a median 12 us in
    place, 131 us through Path.write_text and 81 us as a temporary file
    renamed over it. A crash mid-write can leave the new bytes followed by
    the old file's tail, where truncating first would leave a short file."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def write_sweep_csv(spec: SweepSpec, avg: np.ndarray, pdr: np.ndarray, out_dir) -> tuple[Path, Path]:
    """trials.csv and aggregate.csv of a sweep's per-trial arrays (run_sweep)
    in out_dir, each rewritten in place (write_output)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / "trials.csv"
    agg_path = out / "aggregate.csv"
    write_output(trials_path, trials_to_csv(spec, avg, pdr))
    write_output(agg_path, aggregate_to_csv(aggregate_trials(spec, avg, pdr)))
    return trials_path, agg_path
