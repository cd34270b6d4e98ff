"""Random node placements, multicast trees as parent arrays, and their levels.

A topology is a connected unit-disk graph: nodes placed uniformly in a square
area, with an edge between every pair within communication range, held as one
(n, n) matrix of Euclidean edge lengths, inf off the edges. Trees are rooted
at the multicast source (shortest paths by min-plus relaxation, giving the
tree Dijkstra's algorithm builds; minimum spanning by Kruskal's algorithm)
and held as arrays of each node's parent and parent-edge length.

Every stage takes a stack of seeds, one seed being a stack of one, as
(seeds, n, n) weights and (seeds, n) parent arrays: place_stack places and
connects every seed's nodes from the seed's own generator, measuring and
checking the whole stack in the same numpy calls and redrawing only the
disconnected placements; spt_stack relaxes every seed's distances together;
mst_stack lists the stack's edges in one pass and runs Kruskal seed by seed.
A block of trial seeds is built in chunks of chunk_seeds(n) seeds, so each
chunk's (seeds, n, n) arrays hold at most CHUNK_CELLS cells (or one seed).
tree_levels walks a stack of trees down from their roots one level at a
time, every tree of the stack in the same numpy calls, in breadth-first
order; session.slot_index prunes the trees to their destinations, walks
only the pruned trees, and lays the levels out as transmission slots.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


# Cells, seeds x n x n, of one chunk of a block's geometry (chunk_seeds):
# 20 seeds at N = 40, 5 at N = 80, 1 at N = 160. README "Sweeps" has the
# measurements behind it.
CHUNK_CELLS = 2**15


def chunk_seeds(n: int) -> int:
    """Seeds whose (seeds, n, n) distances fit in CHUNK_CELLS, at least one."""
    return max(1, CHUNK_CELLS // (n * n))


def _distances(points: np.ndarray, out: np.ndarray) -> None:
    """Euclidean distances of a (seeds, n, 2) stack of placements into the
    (seeds, n, n) array out."""
    x, y = points.transpose(2, 0, 1)
    np.subtract(x[:, :, None], x[:, None, :], out=out)
    out *= out
    dy = y[:, :, None] - y[:, None, :]
    dy *= dy
    out += dy
    np.sqrt(out, out=out)


def _connected(within: np.ndarray) -> np.ndarray:
    """Whether each graph of a (seeds, n, n) stack of adjacency matrices is
    connected: the frontier grown from node 0 reaches every node. One matrix
    product per step grows every seed's frontier; its sums of 0s and 1s are
    exact in float32."""
    adjacent = within.astype(np.float32)
    reach, size = adjacent[:, :1], 0
    while (grown := np.count_nonzero(reach)) > size:
        size = grown
        reach = np.minimum(reach @ adjacent, 1.0)
    return reach[:, 0].all(axis=1)


def place_stack(
    n: int, area_side: float, comm_range: float, rngs, max_retries: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place n nodes uniformly in a square per generator of rngs and connect
    pairs within range, every placement of the stack measured and checked in
    the same numpy calls.

    A disconnected placement is redrawn from its own generator, up to
    max_retries placements in all; then the last one is kept and its range
    grown in 10% steps until the graph connects (at the latest at the area
    diagonal). Each generator makes its own draws, so a placement does not
    depend on the others of its stack.

    Returns (seeds, n, 2) points in meters, (seeds, n, n) weights (the
    symmetric edge lengths in meters, inf on the diagonal and between nodes
    out of range) and each placement's (seeds,) range used: the only place a
    grown range shows.
    """
    if n < 2:
        raise ValueError("a topology needs at least 2 nodes")
    if not (0.0 < area_side < math.inf and 0.0 < comm_range < math.inf):
        raise ValueError("area_side and comm_range must be positive and finite")
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1, the placement that range growth keeps")
    rngs = list(rngs)
    points, dist = np.empty((len(rngs), n, 2)), np.empty((len(rngs), n, n))
    for i, rng in enumerate(rngs):
        points[i] = rng.uniform(0.0, area_side, size=(n, 2))
    _distances(points, dist)
    ranges = np.full(len(rngs), float(comm_range))
    within = dist <= comm_range
    for i in np.flatnonzero(~_connected(within)).tolist():
        one = slice(i, i + 1)
        for attempt in itertools.count(1):
            if attempt < max_retries:
                points[i] = rngs[i].uniform(0.0, area_side, size=(n, 2))
                _distances(points[one], dist[one])
            else:
                ranges[i] *= 1.1
            np.less_equal(dist[one], ranges[i], out=within[one])
            if _connected(within[one])[0]:
                break
    # Edge lengths in place, now that range growth no longer reads dist: a
    # distance over True is itself, and one out of range (so positive) over
    # False is inf, in one branch-free pass.
    with np.errstate(divide="ignore"):
        np.divide(dist, within, out=dist)
    dist.reshape(len(rngs), n * n)[:, :: n + 1] = math.inf  # the diagonals
    return points, dist, ranges


def _check_root(weights: np.ndarray, root: int) -> None:
    if not 0 <= root < weights.shape[-1]:
        raise ValueError(f"root {root} is not a node of the topology")


def _flat_rows(parent: np.ndarray) -> np.ndarray:
    """Each (seeds, n) parent id as a row of the stack's seeds * n rows."""
    seeds, n = parent.shape
    return parent + np.arange(0, seeds * n, n)[:, None]


def _edge_lengths(weights: np.ndarray, rows: np.ndarray, root: int) -> np.ndarray:
    """Each node's parent-edge length, its parent given as _flat_rows, 0 at the root."""
    n = rows.shape[1]
    lengths = weights.reshape(-1, n)[rows, np.arange(n)]
    lengths[:, root] = 0.0
    return lengths


def spt_stack(weights: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortest path tree rooted at root of each graph of a (seeds, n, n)
    stack of weights, the tree Dijkstra's algorithm builds, as (seeds, n)
    arrays: each node's parent (-1 at the root) and the length of its parent
    edge.

    Distances relax as best[v] = min over u of best[u] + w[u, v] until none
    changes, every seed at once, each pass over the u whose best fell in the
    pass before in any seed (a u whose best did not fall lowers nothing);
    the parent of v is the lowest-id u closer to the root with
    best[u] + w[u, v] == best[v], Dijkstra's rule for equal-distance ties."""
    _check_root(weights, root)
    seeds, n, _ = weights.shape
    # The first pass, from the root alone: 0 + w is w.
    best = weights[:, root].copy()
    best[:, root] = 0.0
    changed = best < math.inf
    changed[:, root] = False
    while (nodes := changed.any(axis=0).nonzero()[0]).size:
        sums = weights.take(nodes, axis=1)
        sums += best.take(nodes, axis=1)[:, :, None]
        relaxed = np.minimum(best, sums.min(axis=1))
        changed = relaxed < best
        best = relaxed
    if np.isinf(best).any():
        raise ValueError("topology is not connected")
    # sums[s, v, u] = best[u] + w[u, v], w being symmetric: the relaxation
    # leaves each v's least sum equal to best[v], and argmin takes its
    # lowest-id u.
    sums = best[:, None, :] + weights
    parent = sums.argmin(axis=2)
    rows = _flat_rows(parent)
    if np.count_nonzero(best.ravel()[rows] < best) != seeds * (n - 1):
        # That u ties v's distance over a zero or negligible edge: only the
        # u closer to the root may be v's parent.
        sums[best[:, None, :] >= best[:, :, None]] = math.inf
        if np.count_nonzero(sums.min(axis=2) == best) != seeds * (n - 1):
            raise ValueError("edge lengths too short to order the shortest paths")
        parent = sums.argmin(axis=2)
        rows = _flat_rows(parent)
    parent[:, root] = -1
    return parent, _edge_lengths(weights, rows, root)


# Edges per node that Kruskal sorts first. Median us of mst_stack on one seed
# over 200 default placements (2-vCPU x86), with 4n / 5n / 6n / all edges
# first: N = 40 93 / 87 / 87 / 87, N = 80 205 / 199 / 200 / 202, N = 160
# 503 / 462 / 458 / 588.
MST_PREFIX = 6


@lru_cache(maxsize=8)
def _upper(n: int) -> np.ndarray:
    """(n, n) mask of the pairs u < v."""
    return ~np.tri(n, dtype=bool)


def mst_stack(weights: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree of each graph of a (seeds, n, n) stack of
    weights (Kruskal, equal lengths taken in (u, v) order, so the edge set
    does not depend on the root), rooted at root, as spt_stack's arrays.
    The edges of the whole stack are listed in one pass; Kruskal runs seed
    by seed."""
    _check_root(weights, root)
    seeds, n, _ = weights.shape
    # seed * n * n + u * n + v with u < v, seed after seed
    flat = np.flatnonzero((weights < math.inf) & _upper(n))
    lengths = weights.ravel()[flat]
    ends = flat % (n * n)
    bounds = np.searchsorted(flat, np.arange(0, (seeds + 1) * n * n, n * n)).tolist()
    parent = np.empty((seeds, n), dtype=np.intp)
    for s, lo, hi in zip(range(seeds), bounds, bounds[1:]):
        parent[s] = _kruskal(ends[lo:hi], lengths[lo:hi], n, root)
    return parent, _edge_lengths(weights, _flat_rows(parent), root)


def _kruskal(flat: np.ndarray, lengths: np.ndarray, n: int, root: int) -> list[int]:
    """Parent list of the minimum spanning tree over edges u * n + v of the
    given lengths, in (u, v) order, rooted at root."""
    # Edges no longer than the k-th shortest first, the rest only if needed:
    # each part sorted stably is that part of the stable order of all edges.
    k = MST_PREFIX * n
    parts = [slice(None)]
    if len(flat) > k:
        prefix = lengths <= np.partition(lengths, k - 1)[k - 1]
        parts = [prefix, ~prefix]
    # Each node's component, each component's nodes, and each component as a
    # tree of parent pointers: a join hangs the smaller component from the
    # larger, re-rooted at its end of the edge by reversing the path from
    # that end to its root, and relabels its nodes.
    comp, members, parent = list(range(n)), [[x] for x in range(n)], [-1] * n
    joined = 1
    for part in parts:
        edges = flat[part][np.argsort(lengths[part], kind="stable")]
        u, v = np.divmod(edges, n)
        for a, b in zip(u.tolist(), v.tolist()):
            ca, cb = comp[a], comp[b]
            if ca != cb:
                if len(members[ca]) < len(members[cb]):
                    a, b, ca, cb = b, a, cb, ca
                x, up = b, a
                while x >= 0:
                    parent[x], x, up = up, parent[x], x
                for x in members[cb]:
                    comp[x] = ca
                members[ca] += members[cb]
                joined += 1
                if joined == n:
                    break
        if joined == n:
            break
    if joined != n:
        raise ValueError("topology is not connected")
    x, up = root, -1
    while x >= 0:
        parent[x], x, up = up, parent[x], x
    return parent


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
