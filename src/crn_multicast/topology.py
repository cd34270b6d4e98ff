"""Random node placements, multicast trees as parent arrays, and their levels.

A topology is a connected unit-disk graph: nodes placed uniformly in a square
area, with an edge between every pair within communication range, held as one
(n, n) matrix of Euclidean edge lengths, inf off the edges. Trees are rooted
at the multicast source (shortest paths by min-plus relaxation, giving the
tree Dijkstra's algorithm builds; minimum spanning by Kruskal's algorithm)
and held as (n,) arrays of each node's parent and parent-edge length;
build_spt and build_mst wrap them as a Tree of dicts. tree_levels walks a
stack of such trees down from their roots one level at a time, every tree of
the stack in the same numpy calls, in breadth-first order;
session.slot_index prunes the levels to the destinations and lays the
result out as transmission slots.
"""

from __future__ import annotations

import itertools
import math
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
    """Rooted tree over a subset of node ids: parent maps every non-root node
    to its parent, edge_dist to the length of its parent edge."""

    root: int
    parent: dict[int, int]
    edge_dist: dict[int, float]

    @property
    def n_edges(self) -> int:
        return len(self.parent)

    def path_distance(self, v: int) -> float:
        """Summed edge lengths from v up to the root, v's edge first."""
        total = 0
        while v != self.root:
            total += self.edge_dist[v]
            v = self.parent[v]
        return total


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
            x, y = pts.T.copy()  # contiguous rows, so every (n, n) array below is row-major
            dist = x[:, None] - x
            dist *= dist
            dy = y[:, None] - y
            dy *= dy
            dist += dy
            np.sqrt(dist, out=dist)
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
    # Edge lengths in place, now that range growth no longer reads dist.
    np.putmask(dist, ~within, math.inf)
    np.fill_diagonal(dist, math.inf)
    return Topology(pts, dist, area_side, comm_range)


def _tree(root: int, parent: np.ndarray, dist: np.ndarray) -> Tree:
    kids = np.flatnonzero(parent >= 0)
    keys = kids.tolist()
    return Tree(root, dict(zip(keys, parent[kids].tolist())), dict(zip(keys, dist[kids].tolist())))


def spt_parents(topology: Topology, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortest path tree rooted at root, the tree Dijkstra's algorithm
    builds, as (n,) arrays: each node's parent (-1 at the root) and the
    length of its parent edge.

    Distances relax as best[v] = min over u of best[u] + w[u, v] until none
    changes, each pass over the u whose best fell in the pass before; the
    parent of v is the lowest-id u closer to the root with
    best[u] + w[u, v] == best[v], Dijkstra's rule for equal-distance ties."""
    if not 0 <= root < topology.n:
        raise ValueError(f"root {root} is not a node of the topology")
    w = topology.weights
    best, changed = np.where(np.arange(topology.n) == root, 0.0, math.inf), [root]
    while len(changed):
        relaxed = np.minimum(best, (best[changed][:, None] + w[changed]).min(axis=0))
        best, changed = relaxed, np.flatnonzero(relaxed < best)
    if np.isinf(best).any():
        raise ValueError("topology is not connected")
    on_path = (best[:, None] + w == best) & (best[:, None] < best)
    if np.count_nonzero(on_path.any(axis=0)) != topology.n - 1:
        raise ValueError("edge lengths too short to order the shortest paths")
    parent = on_path.argmax(axis=0)
    parent[root] = -1
    dist = w[parent, np.arange(topology.n)]
    dist[root] = 0.0
    return parent, dist


# Edges per node that Kruskal sorts first. Median us of mst_parents over 200
# default placements (2-vCPU x86), with 4n / 5n / 6n / all edges first: N = 40
# 93 / 87 / 87 / 87, N = 80 205 / 199 / 200 / 202, N = 160 503 / 462 / 458 / 588.
MST_PREFIX = 6


def mst_parents(topology: Topology, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree (Kruskal, equal lengths taken in (u, v) order, so
    the edge set does not depend on the root), rooted by a walk from root,
    as spt_parents' arrays."""
    n = topology.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} is not a node of the topology")
    w = topology.weights
    flat = np.flatnonzero((w < math.inf) & ~np.tri(n, dtype=bool))  # u * n + v with u < v
    lengths = w.ravel()[flat]
    # Edges no longer than the k-th shortest first, the rest only if needed:
    # each part sorted stably is that part of the stable order of all edges.
    k = MST_PREFIX * n
    prefix = lengths <= (np.partition(lengths, k - 1)[k - 1] if len(flat) > k else math.inf)
    head = list(range(n))
    adj: list[list[int]] = [[] for _ in range(n)]
    joined = 1
    for part in (prefix, ~prefix):
        edges = flat[part][np.argsort(lengths[part], kind="stable")]
        for a, b in zip((edges // n).tolist(), (edges % n).tolist()):
            ra, rb = a, b
            while head[ra] != ra:
                head[ra] = head[head[ra]]
                ra = head[ra]
            while head[rb] != rb:
                head[rb] = head[head[rb]]
                rb = head[rb]
            if ra != rb:
                head[rb] = ra
                adj[a].append(b)
                adj[b].append(a)
                joined += 1
                if joined == n:
                    break
        if joined == n:
            break
    if joined != n:
        raise ValueError("topology is not connected")
    parent, stack = [-1] * n, [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != root and parent[y] < 0:
                parent[y] = x
                stack.append(y)
    parent = np.array(parent)
    return parent, np.where(parent >= 0, w[parent, np.arange(n)], 0.0)


def build_spt(topology: Topology, root: int) -> Tree:
    """spt_parents' tree as a Tree."""
    return _tree(root, *spt_parents(topology, root))


def build_mst(topology: Topology, root: int) -> Tree:
    """mst_parents' tree as a Tree."""
    return _tree(root, *mst_parents(topology, root))


def tree_levels(parent: np.ndarray, root: int) -> list[np.ndarray]:
    """Breadth-first levels of a stack of trees over the same n node ids,
    given as a (trees, n) parent array with -1 at the root and at nodes
    outside a tree. Nodes are flat ids, tree * n + node. Level 0 holds every
    tree's root, and level k + 1 the children of level k's nodes, ordered by
    (tree, parent's place in level k, id): the order a breadth-first walk
    that visits each node's children by id gives, tree after tree. A node no
    parent edges join to the root is in no level."""
    trees, n = parent.shape
    flat = np.where(parent >= 0, parent + np.arange(0, trees * n, n)[:, None], trees * n).ravel()
    # Children grouped by parent, by id within a parent: those of node p are
    # kids[first[p]:first[p] + n_kids[p]].
    kids = np.argsort(flat, kind="stable")
    first = np.searchsorted(flat[kids], np.arange(trees * n + 1))
    n_kids = np.diff(first)
    levels = [np.arange(root, trees * n, n)]
    while True:
        level = levels[-1]
        counts = n_kids[level]
        ends = counts.cumsum()
        if not ends[-1]:
            return levels
        levels.append(kids[np.arange(ends[-1]) + (first[level] - ends + counts).repeat(counts)])
