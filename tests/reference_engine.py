"""Reference engine: the per-event session pipeline the event-table engine replaced.

Kept only as a test oracle, independent of the package's draw, metric and
selection code, and of its placement, connectivity and MST code. Every layer entry is drawn, evaluated, selected and judged
on its own (draw_event -> link_metrics -> select_channel ->
execute_schedule), exactly as sessions ran before whole-tree tables; fixture
replays are parsed into the same per-event metrics. The equivalence tests
require the package's engine to reproduce these results bit for bit, hops
and control trace included.

Results are returned as (SessionResult, control trace) pairs, so they can be
compared with `==` against the package's results and their derived traces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from crn_multicast.assignment import Scheme
from crn_multicast.channel import ChannelModel
from crn_multicast.phy import PhyParams, data_rate, pos, received_power, tx_time
from crn_multicast.session import HopRecord, SessionResult, TreeKind
from crn_multicast.topology import (
    LayerSchedule,
    Topology,
    Tree,
    build_spt,
    layerize,
    prune_tree,
    tree_from_parents,
)

_TREE_CODE = {TreeKind.SPT: 0, TreeKind.MST: 1}
_SCHEME_CODE = {Scheme.POS: 0, Scheme.MASA: 1, Scheme.MDR: 2, Scheme.RS: 3}
_STREAM_TOPOLOGY = 0
_STREAM_DESTINATIONS = 1
_STREAM_EVENTS = 2
_STREAM_SELECTION = 3


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, *stream))


# Geometry as the package had it before connectivity and MST rooting were
# folded into one distance matrix and build_spt, kept verbatim as an oracle.

def _pair_edges(pts: np.ndarray, comm_range: float) -> tuple[tuple[int, int, float], ...]:
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu, ju = np.triu_indices(len(pts), k=1)
    keep = dist[iu, ju] <= comm_range
    return tuple((int(u), int(v), float(d)) for u, v, d in zip(iu[keep], ju[keep], dist[iu, ju][keep]))


def _is_connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def generate_topology(
    n: int,
    area_side: float,
    comm_range: float,
    rng: np.random.Generator,
    max_retries: int = 100,
) -> Topology:
    """Place n nodes uniformly in a square and connect pairs within range.

    Disconnected placements are redrawn up to max_retries times; after that the
    last placement is kept and the range grown by 10% steps until the graph
    connects (guaranteed at the area diagonal, where the graph is complete).
    """
    if n < 2:
        raise ValueError("a topology needs at least 2 nodes")
    if not (0.0 < area_side < math.inf and 0.0 < comm_range < math.inf):
        raise ValueError("area_side and comm_range must be positive and finite")
    for _ in range(max_retries):
        pts = rng.uniform(0.0, area_side, size=(n, 2))
        edges = _pair_edges(pts, comm_range)
        if _is_connected(n, edges):
            break
    else:
        grown = comm_range
        while True:
            grown *= 1.1
            edges = _pair_edges(pts, grown)
            if _is_connected(n, edges):
                comm_range = grown
                break
    return Topology(pts, edges, area_side, comm_range)


def build_mst(topology: Topology, root: int) -> Tree:
    """Minimum spanning tree (Kruskal), re-rooted at root.

    Equal-weight ties are broken by lexicographic (u, v) edge order, so the
    edge set is deterministic and independent of the chosen root.
    """
    if not 0 <= root < topology.n:
        raise ValueError(f"root {root} is not a node of the topology")
    rank = [0] * topology.n
    head = list(range(topology.n))

    def find(x: int) -> int:
        while head[x] != x:
            head[x] = head[head[x]]
            x = head[x]
        return x

    chosen: list[tuple[int, int, float]] = []
    for u, v, w in sorted(topology.edges, key=lambda e: (e[2], e[0], e[1])):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
        head[rv] = ru
        if rank[ru] == rank[rv]:
            rank[ru] += 1
        chosen.append((u, v, w))
        if len(chosen) == topology.n - 1:
            break
    if len(chosen) != topology.n - 1:
        raise ValueError("topology is not connected")

    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(topology.n)}
    for u, v, w in chosen:
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent: dict[int, int] = {}
    edge_dist: dict[int, float] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, w in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                edge_dist[v] = w
                queue.append(v)
    return tree_from_parents(root, parent, edge_dist)


@dataclass(frozen=True)
class EventMetrics:
    """Link metrics of one transmitter event: (receivers x channels) tables
    plus the event's (channels,) idle flags and sampled availability."""

    pos: np.ndarray
    rate: np.ndarray
    tx_time: np.ndarray
    mu_idle: np.ndarray
    idle: np.ndarray
    available_time: np.ndarray  # NaN on busy channels


def select_channel(scheme: Scheme, metrics: EventMetrics, rng: np.random.Generator | None = None) -> int | None:
    """The event's chosen channel, or None when no channel is idle."""
    idle_idx = np.flatnonzero(metrics.idle)
    if idle_idx.size == 0:
        return None
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
    return int(j)


@dataclass(frozen=True)
class EventDraw:
    idle: np.ndarray
    available_time: np.ndarray
    gains: np.ndarray


def draw_event(model: ChannelModel, n_receivers: int, rng: np.random.Generator) -> EventDraw:
    """One event: idle flags, then residual availability of every channel
    (busy ones included), then the gains of its receivers."""
    idle = rng.random(model.m) < model.p_idle
    residual = rng.exponential(model.mu_idle)
    gains = rng.exponential(1.0, (n_receivers, model.m))
    return EventDraw(idle, np.where(idle, residual, np.nan), gains)


def draw_events(schedule: LayerSchedule, model: ChannelModel, rng: np.random.Generator) -> list[EventDraw]:
    return [draw_event(model, len(entry.receivers), rng) for entry in schedule.entries]


def link_metrics(phy: PhyParams, distances: np.ndarray, draw: EventDraw, mu_idle: np.ndarray) -> EventMetrics:
    pr = received_power(phy, distances[:, None], draw.gains)
    rate = data_rate(phy, pr)
    t = tx_time(phy, rate)
    p = np.where(draw.idle[None, :], pos(t, mu_idle[None, :]), 0.0)
    return EventMetrics(p, rate, t, mu_idle, draw.idle, draw.available_time)


def execute_schedule(schedule, per_event, destinations, packet_bits, scheme, rng=None, replay_all=False):
    root = schedule.entries[0].transmitter
    reached = {root}
    air_time = {root: 0.0}
    hops = []
    trace = []
    for entry, metrics in zip(schedule.entries, per_event):
        live = entry.transmitter in reached
        if not live and not replay_all:
            continue
        for r in entry.receivers:
            trace.append(("MA", entry.transmitter, r))
        for r in entry.receivers:
            trace.append(("ACK", r, entry.transmitter))
        channel = select_channel(scheme, metrics, rng)
        if channel is None:
            times = tuple(math.nan for _ in entry.receivers)
            success = tuple(False for _ in entry.receivers)
            hop_avail = math.nan
        else:
            hop_avail = float(metrics.available_time[channel])
            times = tuple(float(t) for t in metrics.tx_time[:, channel])
            success = tuple(t <= hop_avail for t in times)
        hops.append(HopRecord(entry.transmitter, entry.receivers, channel, times, success, hop_avail))
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


def run_fixture(fixture: dict, scheme: Scheme = Scheme.POS, rng: np.random.Generator | None = None):
    """Replay a worked-example fixture dict: one EventMetrics per event, rows
    in schedule order, rates recovered from the air times."""
    parent = {int(v): int(u) for u, v in fixture["tree_edges"]}
    tree = tree_from_parents(int(fixture["root"]), parent, {v: math.nan for v in parent})
    destinations = [int(d) for d in fixture["destinations"]]
    _check_pruned(tree, destinations)
    schedule = layerize(tree)
    if len(fixture["events"]) != len(schedule.entries):
        raise ValueError("event count does not match the schedule")
    packet_bits = int(fixture["packet_bits"])
    mu_idle = np.asarray(fixture["mu_ms"], dtype=float) / 1000.0
    per_event = []
    for entry, ev in zip(schedule.entries, fixture["events"]):
        if int(ev["transmitter"]) != entry.transmitter or {int(r) for r in ev["receivers"]} != set(entry.receivers):
            raise ValueError("event does not match the schedule entry")
        idle = np.zeros(mu_idle.size, dtype=bool)
        idle[[int(c) - 1 for c in ev["idle_channels"]]] = True
        tx = np.array(
            [[math.inf if t is None else t for t in ev["tx_time_s"][str(r)]] for r in entry.receivers], dtype=float
        )
        with np.errstate(divide="ignore"):
            rate = np.where(tx > 0.0, packet_bits / tx, np.inf)
        pos_rows = np.array([ev["pos"][str(r)] for r in entry.receivers], dtype=float)
        avail = np.array([math.nan if a is None else a for a in ev["available_time_s"]], dtype=float)
        per_event.append(EventMetrics(pos_rows, rate, tx, mu_idle, idle, avail))
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
        per_event = [
            link_metrics(phy, np.array([pruned.edge_dist[r] for r in entry.receivers]), draw, model.mu_idle)
            for entry, draw in zip(schedule.entries, draws)
        ]
        for scheme in schemes:
            sel_rng = _rng(seed, _STREAM_SELECTION, _TREE_CODE[tree_kind], _SCHEME_CODE[scheme])
            results[(tree_kind, scheme)] = execute_schedule(
                schedule, per_event, destinations, phy.packet_bits, scheme, sel_rng
            )
    return results
