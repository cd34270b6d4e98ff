"""Reference engine: the per-event session pipeline the event-table engine replaced.

Kept only as a test oracle. Every layer entry is drawn, evaluated, selected
and judged on its own (draw_events -> link_metrics -> select_channel ->
execute_schedule), exactly as sessions ran before whole-tree tables. The
equivalence tests require the package's engine to reproduce these results
bit for bit, hops and control trace included.

Results are returned as (SessionResult, control trace) pairs, so they can be
compared with `==` against the package's results and their derived traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from crn_multicast.assignment import Decision, LinkMetrics, Scheme
from crn_multicast.channel import ChannelModel, EventState, sample_event_state, sample_gain
from crn_multicast.phy import PhyParams, data_rate, pos, received_power, tx_time
from crn_multicast.session import HopRecord, InjectedEvent, SessionConfig, SessionResult, TreeKind
from crn_multicast.topology import (
    LayerSchedule,
    Topology,
    Tree,
    build_mst,
    build_spt,
    generate_topology,
    layerize,
    prune_tree,
)

_TREE_CODE = {TreeKind.SPT: 0, TreeKind.MST: 1}
_SCHEME_CODE = {Scheme.POS: 0, Scheme.MASA: 1, Scheme.MDR: 2, Scheme.RS: 3}
_STREAM_TOPOLOGY = 0
_STREAM_DESTINATIONS = 1
_STREAM_EVENTS = 2
_STREAM_SELECTION = 3


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, *stream))


def select_channel(scheme: Scheme, metrics: LinkMetrics, rng: np.random.Generator | None = None) -> Decision:
    idle_idx = np.flatnonzero(metrics.idle)
    if idle_idx.size == 0:
        return Decision(None, 0.0)
    if scheme is Scheme.POS:
        worst = metrics.pos[:, idle_idx].min(axis=0)
        j = idle_idx[int(np.argmax(worst))]
    elif scheme is Scheme.MASA:
        j = idle_idx[int(np.argmax(metrics.mu_idle[idle_idx]))]
    elif scheme is Scheme.MDR:
        worst = metrics.rate[:, idle_idx].min(axis=0)
        j = idle_idx[int(np.argmax(worst))]
    elif scheme is Scheme.RS:
        if rng is None:
            raise ValueError("random selection needs an rng")
        j = idle_idx[int(rng.integers(idle_idx.size))]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return Decision(int(j), float(metrics.pos[:, j].min()))


@dataclass(frozen=True)
class EventDraw:
    state: EventState
    gains: np.ndarray


def draw_events(schedule: LayerSchedule, model: ChannelModel, rng: np.random.Generator) -> list[EventDraw]:
    out = []
    for entry in schedule.entries:
        state = sample_event_state(model, rng)
        gains = sample_gain(rng, size=(len(entry.receivers), model.m))
        out.append(EventDraw(state, gains))
    return out


def link_metrics(phy: PhyParams, distances: np.ndarray, draw: EventDraw, mu_idle: np.ndarray, receivers) -> LinkMetrics:
    pr = received_power(phy, distances[:, None], draw.gains)
    rate = data_rate(phy, pr)
    t = tx_time(phy, rate)
    p = np.where(draw.state.idle[None, :], pos(t, mu_idle[None, :]), 0.0)
    return LinkMetrics(tuple(receivers), p, rate, t, mu_idle, draw.state.idle)


def execute_schedule(schedule, per_event, destinations, packet_bits, scheme, rng=None, replay_all=False):
    root = schedule.entries[0].transmitter
    reached = {root}
    air_time = {root: 0.0}
    hops = []
    trace = []
    for entry, (metrics, avail) in zip(schedule.entries, per_event):
        live = entry.transmitter in reached
        if not live and not replay_all:
            continue
        for r in entry.receivers:
            trace.append(("MA", entry.transmitter, r))
        for r in entry.receivers:
            trace.append(("ACK", r, entry.transmitter))
        decision = select_channel(scheme, metrics, rng)
        if decision.channel is None:
            times = tuple(math.nan for _ in entry.receivers)
            success = tuple(False for _ in entry.receivers)
            hop_avail = math.nan
        else:
            hop_avail = float(avail[decision.channel])
            times = tuple(float(t) for t in metrics.tx_time[:, decision.channel])
            success = tuple(t <= hop_avail for t in times)
        hops.append(HopRecord(entry.transmitter, entry.receivers, decision.channel, times, success, hop_avail))
        if live:
            for r, t, ok in zip(entry.receivers, times, success):
                if ok:
                    reached.add(r)
                    air_time[r] = air_time[entry.transmitter] + t
    dests = sorted(destinations)
    delivered = {k: k in reached for k in dests}
    throughput = {k: (packet_bits / air_time[k] if delivered[k] else 0.0) for k in dests}
    total = sum(throughput.values())
    result = SessionResult(
        delivered=delivered,
        throughput=throughput,
        total_throughput=total,
        avg_throughput=total / len(dests),
        pdr=sum(delivered.values()) / len(dests),
        hops=tuple(hops),
    )
    return result, tuple(trace)


def _check_pruned(tree: Tree, destinations) -> None:
    dests = set(destinations)
    if not dests:
        raise ValueError("a session needs at least one destination")
    if tree.root in dests:
        raise ValueError("the root cannot be one of its own destinations")
    spanned = set(tree.nodes())
    if not dests <= spanned:
        raise ValueError(f"destinations not spanned by the tree: {sorted(dests - spanned)}")
    stray = [u for u in tree.leaves() if u not in dests]
    if stray:
        raise ValueError(f"tree is not pruned to the destination set, stray leaves: {stray}")


def run_session(topology: Topology, tree: Tree, cfg: SessionConfig, channel_model: ChannelModel, rng):
    _check_pruned(tree, cfg.destinations)
    bad = [u for u in tree.nodes() if not 0 <= u < topology.n]
    if bad:
        raise ValueError(f"tree nodes outside the topology: {bad}")
    schedule = layerize(tree)
    draws = draw_events(schedule, channel_model, rng)
    per_event = []
    for entry, draw in zip(schedule.entries, draws):
        distances = np.array([tree.edge_dist[r] for r in entry.receivers])
        metrics = link_metrics(cfg.phy, distances, draw, channel_model.mu_idle, entry.receivers)
        per_event.append((metrics, draw.state.available_time))
    return execute_schedule(schedule, per_event, cfg.destinations, cfg.phy.packet_bits, cfg.scheme, rng)


def inject_metrics_session(
    tree: Tree,
    events: list[InjectedEvent],
    destinations,
    packet_bits: int,
    mu_idle: np.ndarray | None = None,
    scheme: Scheme = Scheme.POS,
    rng: np.random.Generator | None = None,
):
    _check_pruned(tree, destinations)
    schedule = layerize(tree)
    if len(events) != len(schedule.entries):
        raise ValueError(f"expected {len(schedule.entries)} events for this tree, got {len(events)}")
    if mu_idle is None:
        if scheme is Scheme.MASA:
            raise ValueError("availability-based selection needs mu_idle")
        mu_idle = np.full(events[0].idle.size, np.nan)
    per_event = []
    for entry, ev in zip(schedule.entries, events):
        if ev.transmitter != entry.transmitter or set(ev.receivers) != set(entry.receivers):
            raise ValueError("event does not match the schedule entry")
        order = [ev.receivers.index(r) for r in entry.receivers]
        with np.errstate(divide="ignore"):
            rate = np.where(ev.tx_time > 0.0, packet_bits / ev.tx_time, np.inf)
        metrics = LinkMetrics(
            entry.receivers,
            np.asarray(ev.pos, dtype=float)[order],
            rate[order],
            np.asarray(ev.tx_time, dtype=float)[order],
            np.asarray(mu_idle, dtype=float),
            np.asarray(ev.idle, dtype=bool),
        )
        per_event.append((metrics, np.asarray(ev.available_time, dtype=float)))
    return execute_schedule(schedule, per_event, destinations, packet_bits, scheme, rng, replay_all=True)


def run_scenario_sessions(params, schemes, trees, seed: int, channel_model: ChannelModel | None = None):
    """Per (tree kind, scheme): (SessionResult, control trace) of one seeded scenario."""
    params.validate()
    model = channel_model if channel_model is not None else params.channels()
    topo = generate_topology(
        params.n_nodes, params.area_side_m, params.comm_range_m, _rng(seed, _STREAM_TOPOLOGY)
    )
    dest_rng = _rng(seed, _STREAM_DESTINATIONS)
    destinations = frozenset(
        int(v) for v in dest_rng.choice(np.arange(1, params.n_nodes), size=params.n_dest, replace=False)
    )
    phy = params.phy()
    results = {}
    for tree_kind in trees:
        build = build_spt if tree_kind is TreeKind.SPT else build_mst
        pruned = prune_tree(build(topo, 0), destinations)
        schedule = layerize(pruned)
        draws = draw_events(schedule, model, _rng(seed, _STREAM_EVENTS, _TREE_CODE[tree_kind]))
        per_event = []
        for entry, draw in zip(schedule.entries, draws):
            distances = np.array([pruned.edge_dist[r] for r in entry.receivers])
            metrics = link_metrics(phy, distances, draw, model.mu_idle, entry.receivers)
            per_event.append((metrics, draw.state.available_time))
        for scheme in schemes:
            sel_rng = _rng(seed, _STREAM_SELECTION, _TREE_CODE[tree_kind], _SCHEME_CODE[scheme])
            results[(tree_kind, scheme)] = execute_schedule(
                schedule, per_event, destinations, phy.packet_bits, scheme, sel_rng
            )
    return results
