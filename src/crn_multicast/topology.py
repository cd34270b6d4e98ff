"""Random node placements, multicast trees, and layered transmission schedules.

A topology is a connected unit-disk graph: nodes placed uniformly in a square
area, with an edge between every pair within communication range, held as one
(n, n) matrix of Euclidean edge lengths, inf off the edges. Trees are rooted
at the multicast source (shortest paths by min-plus relaxation, giving the
tree Dijkstra's algorithm builds; minimum spanning by Kruskal's algorithm),
pruned to the destination set and split into breadth-first layers where each
internal node transmits once to all of its children.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Topology:
    """Connected undirected graph over node positions, an (n, 2) array in
    meters; weights is the symmetric (n, n) matrix of edge lengths in meters,
    inf on the diagonal and wherever two nodes share no edge."""

    points: np.ndarray
    weights: np.ndarray
    area_side: float
    comm_range: float

    @classmethod
    def from_edges(cls, points, edges, area_side: float, comm_range: float) -> Topology:
        weights = np.full((len(points), len(points)), math.inf)
        for u, v, d in edges:
            weights[u, v] = weights[v, u] = d
        return cls(np.asarray(points, dtype=float), weights, area_side, comm_range)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(u, v, d) per edge with u < v, in (u, v) order."""
        u, v = np.nonzero(np.triu(self.weights < math.inf))
        return tuple(zip(u.tolist(), v.tolist(), self.weights[u, v].tolist()))


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
    n: int, area_side: float, comm_range: float, rng: np.random.Generator, max_retries: int = 100
) -> Topology:
    """Place n nodes uniformly in a square and connect pairs within range.

    A disconnected placement is redrawn, up to max_retries placements in all;
    then the last one is kept and the range grown in 10% steps until the graph
    connects (at the latest at the area diagonal). The returned comm_range is
    the range used, the only place a grown range shows.
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
            dx, dy = pts.T[:, :, None] - pts.T[:, None, :]
            dist = np.sqrt(dx * dx + dy * dy)
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
    weights = np.where(within & ~np.eye(n, dtype=bool), dist, math.inf)
    return Topology(pts, weights, area_side, comm_range)


def tree_from_parents(root: int, parent: dict[int, int], edge_dist: dict[int, float]) -> Tree:
    """Assemble a Tree from a child-to-parent map; children lists sorted by id."""
    children: dict[int, list[int]] = {root: []}
    for v in parent:
        children.setdefault(v, [])
    for v in sorted(parent):
        children.setdefault(parent[v], []).append(v)
    return Tree(root, dict(parent), children, dict(edge_dist))


def build_spt(topology: Topology, root: int) -> Tree:
    """Shortest path tree rooted at root: the tree Dijkstra's algorithm builds.

    Distances relax as best[v] = min over u of best[u] + w[u, v] until none
    changes; the parent of v is the lowest-id u closer to the root with
    best[u] + w[u, v] == best[v], Dijkstra's rule for equal-distance ties."""
    if not 0 <= root < topology.n:
        raise ValueError(f"root {root} is not a node of the topology")
    w = topology.weights
    best, relaxed = None, np.where(np.arange(topology.n) == root, 0.0, math.inf)
    while not np.array_equal(best, relaxed):
        best = relaxed
        relaxed = np.minimum(best, (best[:, None] + w).min(axis=0))
    if np.isinf(best).any():
        raise ValueError("topology is not connected")
    on_path = (best[:, None] + w == best) & (best[:, None] < best)
    kids = np.flatnonzero(on_path.any(axis=0))
    if len(kids) != topology.n - 1:
        raise ValueError("edge lengths too short to order the shortest paths")
    parents = on_path[:, kids].argmax(axis=0)
    keys = kids.tolist()
    return tree_from_parents(root, dict(zip(keys, parents.tolist())), dict(zip(keys, w[parents, kids].tolist())))


def build_mst(topology: Topology, root: int) -> Tree:
    """Minimum spanning tree (Kruskal, equal lengths taken in (u, v) order, so
    the edge set does not depend on the root), rooted by a walk from root."""
    n = topology.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} is not a node of the topology")
    flat = np.flatnonzero((topology.weights < math.inf) & ~np.tri(n, dtype=bool))  # u * n + v with u < v
    lengths = topology.weights.ravel()[flat]
    order = np.argsort(lengths, kind="stable")  # equal lengths stay in (u, v) order
    head = list(range(n))

    def find(x: int) -> int:
        while head[x] != x:
            head[x] = head[head[x]]
            x = head[x]
        return x

    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    joined = 1
    for x, w in zip(flat[order].tolist(), lengths[order].tolist()):
        a, b = divmod(x, n)
        ra, rb = find(a), find(b)
        if ra != rb:
            head[rb] = ra
            adj[a].append((b, w))
            adj[b].append((a, w))
            joined += 1
            if joined == n:
                break
    if joined != n:
        raise ValueError("topology is not connected")
    parent, edge_dist, stack = {}, {}, [root]
    while stack:
        x = stack.pop()
        for y, w in adj[x]:
            if y != root and y not in parent:
                parent[y], edge_dist[y] = x, w
                stack.append(y)
    return tree_from_parents(root, parent, edge_dist)


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
