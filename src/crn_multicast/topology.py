"""Random node placements, multicast trees, and layered transmission schedules.

A topology is a connected unit-disk graph: nodes placed uniformly in a square
area, with an edge between every pair within communication range, weighted by
Euclidean distance. Trees are rooted at the multicast source, pruned to the
destination set, and split into breadth-first layers where each internal node
transmits once to all of its children.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np


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


def generate_topology(
    n: int,
    area_side: float,
    comm_range: float,
    rng: np.random.Generator,
    max_retries: int = 100,
) -> Topology:
    """Place n nodes uniformly in a square and connect pairs within range.

    A disconnected placement is redrawn, up to max_retries placements in all;
    after that the last placement is kept and the range grown in 10% steps
    until the graph connects (guaranteed at the area diagonal, where the graph
    is complete). The returned comm_range is the range actually used, so a
    grown range shows there and nowhere else.
    """
    if n < 2:
        raise ValueError("a topology needs at least 2 nodes")
    if not (0.0 < area_side < math.inf and 0.0 < comm_range < math.inf):
        raise ValueError("area_side and comm_range must be positive and finite")
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1, the placement that range growth keeps")
    for attempt in itertools.count():
        if attempt < max_retries:
            pts = rng.uniform(0.0, area_side, size=(n, 2))
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
        else:
            comm_range *= 1.1
        # Connected iff the frontier grown from node 0 along in-range pairs reaches every node.
        within = dist <= comm_range
        reach, size = within[0], 0
        while np.count_nonzero(reach) > size:
            size = np.count_nonzero(reach)
            reach = within[reach].any(axis=0)
        if size == n:
            break
    iu, ju = np.triu_indices(n, k=1)
    d = dist[iu, ju]
    keep = d <= comm_range
    edges = tuple(zip(iu[keep].tolist(), ju[keep].tolist(), d[keep].tolist()))
    return Topology(pts, edges, area_side, comm_range)


def tree_from_parents(root: int, parent: dict[int, int], edge_dist: dict[int, float]) -> Tree:
    """Assemble a Tree from a child-to-parent map; children lists sorted by id."""
    children: dict[int, list[int]] = {root: []}
    for v in parent:
        children.setdefault(v, [])
    for v in sorted(parent):
        children.setdefault(parent[v], []).append(v)
    return Tree(root, dict(parent), children, dict(edge_dist))


def build_spt(topology: Topology, root: int) -> Tree:
    """Shortest path tree rooted at root (Dijkstra).

    Equal-distance ties keep the predecessor with the lower node id.
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
            elif nd == old and u < parent[v]:
                parent[v] = u
                edge_dist[v] = w
    if len(done) != topology.n:
        raise ValueError("topology is not connected")
    return tree_from_parents(root, parent, edge_dist)


def build_mst(topology: Topology, root: int) -> Tree:
    """Minimum spanning tree (Kruskal), rooted at root.

    Equal-weight ties are broken by lexicographic (u, v) edge order, so the
    edge set is deterministic and independent of the chosen root. A tree has
    one path to each node, so its shortest path tree is the tree itself,
    rooted; build_spt does the rooting.
    """
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
        head[rv] = ru
        chosen.append((u, v, w))
        if len(chosen) == topology.n - 1:
            break
    if len(chosen) != topology.n - 1:
        raise ValueError("topology is not connected")
    return build_spt(Topology(topology.points, tuple(chosen), topology.area_side, topology.comm_range), root)


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
