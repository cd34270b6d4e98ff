"""Reference engine: the per-event session pipeline the event-table engine replaced.

Kept only as a test oracle, independent of the package's draw, link-budget,
metric and selection code, of its placement, connectivity, SPT and MST
code, which work on a weight matrix where these copies keep edge tuples and
adjacency lists, and of its pruning, layering and slot layout, which work
on parent arrays where these copies keep a dict tree and a layer schedule
(slot_index and stack_slots lay a schedule out as the package's SlotIndex,
so the layouts compare array for array). Each tree's draws are taken in the
package's stream layout (draw_events: four generator calls per tree) and
split into one draw per layer entry; every entry is then evaluated,
selected and judged on its own (link_metrics -> select_channel ->
execute_schedule), as sessions ran before whole-tree tables, rs indexing
the entry's idle channels with its pick uniform. Fixture replays are parsed
into the same per-event metrics, with one pick uniform per event. The
equivalence tests require the package's engine to reproduce these results
bit for bit, link tables, hops and control trace included.

Results are returned as (Result, control trace) pairs. Result holds each
session's outcome (delivery and throughput per destination, total and
average throughput, PDR) plus its hop records, built in the loop: every
entry whose transmitter had the packet, or every entry in a fixture replay.
The equivalence tests compare them field by field with the package's
event table, chosen channels and Judgement.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from crn_multicast.assignment import Scheme
from crn_multicast.session import SlotIndex, TreeKind

_SPEED_OF_LIGHT = 299_792_458.0  # m/s
_TREE_CODE = {TreeKind.SPT: 0, TreeKind.MST: 1}
_STREAM_TOPOLOGY = 0
_STREAM_DESTINATIONS = 1
_STREAM_EVENTS = 2


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, *stream))


# Trees, pruning, layering and slot layouts as the package had them before
# it moved to parent arrays and one level pass per block, kept verbatim as
# an oracle: a dict tree, root-path walks and a breadth-first queue.

@dataclass(frozen=True)
class Tree:
    """Rooted tree over a subset of node ids.

    parent maps every non-root node to its parent; children holds every
    spanned node (leaves map to an empty list, entries sorted by id);
    edge_dist maps each non-root node to the length of its parent edge.
    """

    root: int
    parent: dict[int, int]
    children: dict[int, list[int]]
    edge_dist: dict[int, float]

    def nodes(self) -> list[int]:
        return [self.root, *self.parent]

    @property
    def n_edges(self) -> int:
        return len(self.parent)

    def leaves(self) -> list[int]:
        return [u for u in self.nodes() if not self.children[u]]

    def path_to_root(self, v: int) -> list[int]:
        """Nodes from v up to and including the root."""
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def path_distance(self, v: int) -> float:
        return sum(self.edge_dist[u] for u in self.path_to_root(v)[:-1])


@dataclass(frozen=True)
class LayerEntry:
    transmitter: int
    receivers: tuple[int, ...]


@dataclass(frozen=True)
class LayerSchedule:
    """One entry per internal tree node, in breadth-first order from the root."""

    entries: tuple[LayerEntry, ...]


def tree_from_parents(root: int, parent: dict[int, int], edge_dist: dict[int, float]) -> Tree:
    """Assemble a Tree from a child-to-parent map; children lists sorted by id."""
    children: dict[int, list[int]] = {root: []}
    for v in parent:
        children.setdefault(v, [])
    for v in sorted(parent):
        children.setdefault(parent[v], []).append(v)
    return Tree(root, dict(parent), children, dict(edge_dist))


def prune_tree(tree: Tree, destinations) -> Tree:
    """Keep only the union of root-to-destination paths.

    Every leaf of the result is a destination. Pruning an already pruned tree
    is a no-op.
    """
    dests = set(destinations)
    if not dests:
        raise ValueError("destination set is empty, nothing to multicast")
    if tree.root in dests:
        raise ValueError("the root cannot be one of its own destinations")
    spanned = set(tree.nodes())
    missing = dests - spanned
    if missing:
        raise ValueError(f"destinations not spanned by the tree: {sorted(missing)}")
    keep: set[int] = set()
    for d in dests:
        for u in tree.path_to_root(d):
            if u in keep:
                break
            keep.add(u)
    parent = {v: tree.parent[v] for v in keep if v != tree.root}
    edge_dist = {v: tree.edge_dist[v] for v in parent}
    return tree_from_parents(tree.root, parent, edge_dist)


def layerize(tree: Tree) -> LayerSchedule:
    """Breadth-first transmission schedule: one entry per internal node,
    grouping all of its children as one multicast event."""
    if tree.n_edges == 0:
        raise ValueError("tree has no edges to schedule")
    entries: list[LayerEntry] = []
    queue = deque([tree.root])
    while queue:
        u = queue.popleft()
        kids = tree.children[u]
        if kids:
            entries.append(LayerEntry(u, tuple(kids)))
            queue.extend(kids)
    return LayerSchedule(tuple(entries))


def slot_index(tree: Tree, schedule: LayerSchedule, destinations) -> SlotIndex:
    """Slot index of a tree's layer schedule whose destinations are all receivers."""
    receivers = [r for entry in schedule.entries for r in entry.receivers]
    slot_of = {r: s for s, r in enumerate(receivers)}
    counts = [len(entry.receivers) for entry in schedule.entries]
    tx_slot = [slot_of.get(entry.transmitter, -1) for entry in schedule.entries]
    dests = tuple(sorted(destinations))
    # In breadth-first order the last receiver is a deepest one.
    height = len(tree.path_to_root(receivers[-1])) - 1
    return SlotIndex(
        np.cumsum([0, *counts[:-1]]), np.repeat(np.arange(len(counts)), counts), np.array(tx_slot),
        np.array([entry.transmitter for entry in schedule.entries]), np.array(receivers),
        height, np.array([[slot_of[k] for k in dests]]),
        np.array([tree.edge_dist[r] for r in receivers]), np.array([0, len(counts)]),
    )


def stack_slots(indexes) -> SlotIndex:
    """One index over several indexes' slots, each one's entries and slots
    after the previous one's. Every tree must have equally many destinations."""
    n_entries = [len(x.starts) for x in indexes]
    n_slots = [len(x.event) for x in indexes]
    n_trees = [len(x.dest_slot) for x in indexes]
    entry_off = np.cumsum([0, *n_entries])
    slot_off = np.cumsum([0, *n_slots])
    # Each index's first slot or first entry, once per value of an array:
    # slot numbers held per entry, entry numbers held per slot, and so on.
    slot_per_entry = np.repeat(slot_off[:-1], n_entries)
    tx_slot = np.concatenate([x.tx_slot for x in indexes])
    return SlotIndex(
        np.concatenate([x.starts for x in indexes]) + slot_per_entry,
        np.concatenate([x.event for x in indexes]) + np.repeat(entry_off[:-1], n_slots),
        np.where(tx_slot < 0, -1, tx_slot + slot_per_entry),
        np.concatenate([x.transmitter for x in indexes]),
        np.concatenate([x.receiver for x in indexes]),
        max(x.height for x in indexes),
        np.concatenate([x.dest_slot for x in indexes]) + np.repeat(slot_off[:-1], n_trees)[:, None],
        np.concatenate([x.distances for x in indexes]),
        np.append(np.concatenate([x.tree_starts[:-1] for x in indexes]) + np.repeat(entry_off[:-1], n_trees),
                  entry_off[-1]),
    )


# Geometry as the package had it before it moved to one weight matrix per
# topology, kept verbatim as an oracle: tuple edges, adjacency lists, the heap
# Dijkstra, and sorted-key Kruskal rooted by breadth-first search.

@dataclass(frozen=True, eq=False)
class Topology:
    """Connected undirected graph over node positions, an (n, 2) array in
    meters; edges are (u, v, d) with u < v, d in meters."""

    points: np.ndarray
    edges: tuple[tuple[int, int, float], ...]
    area_side: float
    comm_range: float

    @property
    def n(self) -> int:
        return len(self.points)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, d in self.edges:
            adj[u].append((v, d))
            adj[v].append((u, d))
        return adj


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


def build_spt(topology: Topology, root: int) -> Tree:
    """Shortest path tree rooted at root (Dijkstra).

    Equal-distance ties keep the lowest-id predecessor strictly closer to
    the root, so a node never hangs from one it ties over a zero edge.
    """
    if not 0 <= root < topology.n:
        raise ValueError(f"root {root} is not a node of the topology")
    adj = topology.adjacency()
    dist: dict[int, float] = {root: 0.0}
    parent: dict[int, int] = {}
    edge_dist: dict[int, float] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, root)]
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            if v in done:
                continue
            nd = du + w
            old = dist.get(v)
            if old is None or nd < old:
                dist[v] = nd
                parent[v] = u
                edge_dist[v] = w
                heapq.heappush(heap, (nd, v))
            elif nd == old and du < nd and u < parent[v]:
                parent[v] = u
                edge_dist[v] = w
    if len(done) != topology.n:
        raise ValueError("topology is not connected")
    return tree_from_parents(root, parent, edge_dist)


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
class HopRecord:
    """What happened at one transmitter event."""

    transmitter: int
    receivers: tuple[int, ...]
    chosen_channel: int | None
    tx_time: tuple[float, ...]  # per receiver, on the chosen channel; NaN if none
    success: tuple[bool, ...]
    available_time: float  # sampled availability of the chosen channel; NaN if none


@dataclass(frozen=True)
class Result:
    """Outcome of one session, with every hop record."""

    delivered: dict[int, bool]
    throughput: dict[int, float]
    total_throughput: float
    avg_throughput: float
    pdr: float
    hops: tuple[HopRecord, ...]


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
    pick: float | None = None  # rs pick uniform in [0, 1); None without an rng


def select_channel(scheme: Scheme, metrics: EventMetrics) -> int | None:
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
        if metrics.pick is None:
            raise ValueError("random selection needs an rng")
        j = idle_idx[math.floor(metrics.pick * idle_idx.size)]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return int(j)


@dataclass(frozen=True)
class EventDraw:
    idle: np.ndarray
    available_time: np.ndarray
    gains: np.ndarray
    pick: float


def draw_events(schedule: LayerSchedule, channels, rng: np.random.Generator) -> list[EventDraw]:
    """One tree's draws over channels, a pair of (M,) arrays of mean idle
    durations and idle probabilities: idle uniforms of every entry, then
    residual availability of every entry's channels (busy ones included),
    then the gains of every receiver in schedule order, then one pick
    uniform per entry, each as one generator call; split into one draw per
    entry."""
    mu_idle, p_idle = channels
    n, m = len(schedule.entries), len(mu_idle)
    uniform = rng.random((n, m))
    residual = rng.exponential(mu_idle, (n, m))
    gains = rng.exponential(1.0, (sum(len(entry.receivers) for entry in schedule.entries), m))
    picks = rng.random(n)
    draws, row = [], 0
    for e, entry in enumerate(schedule.entries):
        idle = uniform[e] < p_idle
        rows = gains[row:row + len(entry.receivers)]
        row += len(entry.receivers)
        draws.append(EventDraw(idle, np.where(idle, residual[e], np.nan), rows, float(picks[e])))
    return draws


def link_metrics(params, distances: np.ndarray, draw: EventDraw, mu_idle: np.ndarray) -> EventMetrics:
    """One event's link equations, written out here rather than read from
    the package: Friis received power over the receiver's distance and
    fading gain, Shannon rate over the channel's noise power, air time of
    one packet (infinite at zero rate), and the chance exp(-t / mu) that
    it ends within the channel's idle period (zero on busy channels)."""
    wavelength = _SPEED_OF_LIGHT / params.carrier_freq_hz
    pr = params.pt_watts / distances[:, None] ** params.path_loss_exp * (wavelength / (4.0 * math.pi)) ** 2 * draw.gains
    rate = params.bandwidth_hz * np.log2(1.0 + pr / (params.bandwidth_hz * params.noise_psd))
    with np.errstate(divide="ignore"):
        t = np.where(rate > 0.0, params.packet_bits / rate, np.inf)
    p = np.where(draw.idle[None, :], np.exp(-t / mu_idle[None, :]), 0.0)
    return EventMetrics(p, rate, t, mu_idle, draw.idle, draw.available_time, draw.pick)


def execute_schedule(schedule, per_event, destinations, packet_bits, scheme, replay_all=False):
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
        channel = select_channel(scheme, metrics)
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
    result = Result(
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
    in schedule order, rates recovered from the air times, and rs picks from
    one rng call of one uniform per event."""
    parent = {int(v): int(u) for u, v in fixture["tree_edges"]}
    tree = tree_from_parents(int(fixture["root"]), parent, {v: math.nan for v in parent})
    destinations = [int(d) for d in fixture["destinations"]]
    _check_pruned(tree, destinations)
    schedule = layerize(tree)
    if len(fixture["events"]) != len(schedule.entries):
        raise ValueError("event count does not match the schedule")
    packet_bits = int(fixture["packet_bits"])
    mu_idle = np.asarray(fixture["mu_ms"], dtype=float) / 1000.0
    picks = [None] * len(schedule.entries) if rng is None else rng.random(len(schedule.entries)).tolist()
    per_event = []
    for entry, ev, pick in zip(schedule.entries, fixture["events"], picks):
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
        per_event.append(EventMetrics(pos_rows, rate, tx, mu_idle, idle, avail, pick))
    return execute_schedule(schedule, per_event, destinations, packet_bits, scheme, replay_all=True)


def scenario_channels(params):
    """A scenario's channels: (M,) arrays of mean idle durations and of idle
    probabilities, params.p_idle on every channel."""
    return params.mu_idle(), np.full(params.m_channels, params.p_idle)


def scenario_events(params, trees, seed: int, channels):
    """One seeded scenario's destinations and, per tree kind, its layer
    schedule and the per-event metrics of each entry, over channels (as
    scenario_channels gives them)."""
    topo = generate_topology(
        params.n_nodes, params.area_side_m, params.comm_range_m, _rng(seed, _STREAM_TOPOLOGY)
    )
    dest_rng = _rng(seed, _STREAM_DESTINATIONS)
    destinations = frozenset(
        int(v) for v in dest_rng.choice(np.arange(1, params.n_nodes), size=params.n_dest, replace=False)
    )
    events = {}
    for tree_kind in trees:
        build = build_spt if tree_kind is TreeKind.SPT else build_mst
        pruned = prune_tree(build(topo, 0), destinations)
        schedule = layerize(pruned)
        draws = draw_events(schedule, channels, _rng(seed, _STREAM_EVENTS, _TREE_CODE[tree_kind]))
        events[tree_kind] = schedule, [
            link_metrics(params, np.array([pruned.edge_dist[r] for r in entry.receivers]), draw, channels[0])
            for entry, draw in zip(schedule.entries, draws)
        ]
    return destinations, events


def run_scenario_sessions(params, schemes, trees, seed: int, channels=None):
    """Per (tree kind, scheme): (Result, control trace) of one seeded
    scenario, over channels (default: scenario_channels(params))."""
    params.validate()
    channels = channels if channels is not None else scenario_channels(params)
    destinations, events = scenario_events(params, trees, seed, channels)
    results = {}
    for tree_kind, (schedule, per_event) in events.items():
        for scheme in schemes:
            results[(tree_kind, scheme)] = execute_schedule(
                schedule, per_event, destinations, params.packet_bits, scheme
            )
    return results
