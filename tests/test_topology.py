import itertools
import math

import numpy as np
import pytest

from crn_multicast.topology import (
    LayerEntry,
    Topology,
    build_mst,
    build_spt,
    generate_topology,
    layerize,
    prune_tree,
    tree_from_parents,
)


# ---------------------------------------------------------------- oracles

def bfs_reachable(n, edges, start=0):
    adj = {i: [] for i in range(n)}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, todo = {start}, [start]
    while todo:
        u = todo.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def floyd_warshall(n, edges):
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for u, v, w in edges:
        dist[u][v] = min(dist[u][v], w)
        dist[v][u] = min(dist[v][u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def min_spanning_weight_bruteforce(n, edges):
    best = math.inf
    for combo in itertools.combinations(edges, n - 1):
        head = list(range(n))

        def find(x):
            while head[x] != x:
                head[x] = head[head[x]]
                x = head[x]
            return x

        joined = 0
        for u, v, _ in combo:
            ru, rv = find(u), find(v)
            if ru != rv:
                head[ru] = rv
                joined += 1
        if joined == n - 1:
            best = min(best, sum(w for _, _, w in combo))
    return best


def random_connected_topology(rng, n_max=12, n_min=4):
    n = int(rng.integers(n_min, n_max + 1))
    return generate_topology(n, area_side=100.0, comm_range=55.0, rng=rng)


def point_distance(topo, u, v):
    # same operation order as the vectorized pair distances, so bit-identical
    dx, dy = topo.points[u] - topo.points[v]
    return math.sqrt(dx * dx + dy * dy)


def path_topology(*weights):
    # nodes 0..k on a line with the given consecutive gaps
    xs = [0.0]
    for w in weights:
        xs.append(xs[-1] + w)
    points = np.column_stack([xs, np.zeros(len(xs))])
    edges = tuple((i, i + 1, float(w)) for i, w in enumerate(weights))
    return Topology(points, edges, area_side=max(xs), comm_range=max(weights))


# ---------------------------------------------------------------- generation

class TestGenerateTopology:
    def test_two_nodes_in_range_get_one_edge(self):
        rng = np.random.default_rng(0)
        topo = generate_topology(2, area_side=10.0, comm_range=20.0, rng=rng)
        assert len(topo.edges) == 1
        u, v, d = topo.edges[0]
        assert d == pytest.approx(point_distance(topo, u, v))

    def test_same_seed_same_topology(self):
        a = generate_topology(25, 200.0, 60.0, np.random.default_rng(5))
        b = generate_topology(25, 200.0, 60.0, np.random.default_rng(5))
        assert np.array_equal(a.points, b.points)
        assert (a.edges, a.area_side, a.comm_range) == (b.edges, b.area_side, b.comm_range)

    def test_connectivity_over_many_seeds(self):
        for seed in range(100):
            topo = generate_topology(40, 200.0, 60.0, np.random.default_rng(seed))
            assert bfs_reachable(topo.n, topo.edges) == set(range(topo.n))

    def test_edges_exactly_within_range(self):
        topo = generate_topology(30, 200.0, 60.0, np.random.default_rng(3))
        have = {(u, v) for u, v, _ in topo.edges}
        for u in range(topo.n):
            for v in range(u + 1, topo.n):
                d = point_distance(topo, u, v)
                assert ((u, v) in have) == (d <= topo.comm_range)

    def test_range_grows_when_placements_cannot_connect(self):
        # 2 nodes with a tiny range almost never connect at first try
        topo = generate_topology(2, area_side=1000.0, comm_range=1e-6, rng=np.random.default_rng(1), max_retries=3)
        assert bfs_reachable(topo.n, topo.edges) == {0, 1}
        assert topo.comm_range > 1e-6

    def test_positions_inside_area(self):
        topo = generate_topology(50, 120.0, 50.0, np.random.default_rng(8))
        assert topo.points.shape == (50, 2)
        assert np.all((0.0 <= topo.points) & (topo.points <= 120.0))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            generate_topology(1, 100.0, 30.0, np.random.default_rng(0))

    @pytest.mark.parametrize("max_retries", [0, -1])
    def test_no_placement_rejected(self, max_retries):
        # with no placement drawn, range growth had nothing to grow on and
        # raised UnboundLocalError
        with pytest.raises(ValueError, match="max_retries must be at least 1"):
            generate_topology(10, 100.0, 30.0, np.random.default_rng(0), max_retries)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["area_side", "comm_range"])
    def test_non_positive_or_non_finite_area_and_range_rejected(self, which, bad):
        # a NaN range used to grow forever, because no distance is <= NaN
        kwargs = {"area_side": 100.0, "comm_range": 30.0, which: bad}
        with pytest.raises(ValueError, match="positive and finite"):
            generate_topology(10, rng=np.random.default_rng(0), **kwargs)


# ---------------------------------------------------------------- SPT

class TestShortestPathTree:
    def test_path_graph(self):
        topo = path_topology(1.0, 2.0)
        tree = build_spt(topo, 0)
        assert tree.parent == {1: 0, 2: 1}
        assert tree.edge_dist == {1: 1.0, 2: 2.0}

    def test_eight_node_tree_has_seven_edges(self):
        topo = generate_topology(8, 80.0, 45.0, np.random.default_rng(2))
        assert build_spt(topo, 0).n_edges == 7

    def test_distances_match_floyd_warshall(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            topo = random_connected_topology(rng)
            tree = build_spt(topo, 0)
            dist = floyd_warshall(topo.n, topo.edges)
            for v in range(topo.n):
                assert tree.path_distance(v) == pytest.approx(dist[0][v], abs=1e-9)

    def test_tie_breaks_prefer_lower_predecessor(self):
        # 0-1 and 0-2 weight 1; both 1-3 and 2-3 weight 1: two equal paths to 3
        points = np.column_stack([np.arange(4.0), np.zeros(4)])
        edges = ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0))
        topo = Topology(points, edges, 4.0, 2.0)
        tree = build_spt(topo, 0)
        assert tree.parent[3] == 1

    def test_determinism(self):
        topo = generate_topology(20, 150.0, 60.0, np.random.default_rng(9))
        assert build_spt(topo, 0) == build_spt(topo, 0)


# ---------------------------------------------------------------- MST

class TestMinimumSpanningTree:
    def test_triangle(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        edges = ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0))
        topo = Topology(points, edges, 3.0, 3.0)
        tree = build_mst(topo, 0)
        kept = {(min(v, p), max(v, p)) for v, p in tree.parent.items()}
        assert kept == {(0, 1), (0, 2)}
        assert sum(tree.edge_dist.values()) == pytest.approx(3.0)

    def test_weight_matches_bruteforce_enumeration(self):
        for seed in range(12):
            rng = np.random.default_rng(1000 + seed)
            topo = random_connected_topology(rng, n_max=7, n_min=4)
            tree = build_mst(topo, 0)
            best = min_spanning_weight_bruteforce(topo.n, topo.edges)
            assert sum(tree.edge_dist.values()) == pytest.approx(best, abs=1e-9)

    def test_edge_set_independent_of_root(self):
        topo = random_connected_topology(np.random.default_rng(77), n_max=10)
        t0 = build_mst(topo, 0)
        t1 = build_mst(topo, topo.n - 1)
        edges0 = {(min(v, p), max(v, p)) for v, p in t0.parent.items()}
        edges1 = {(min(v, p), max(v, p)) for v, p in t1.parent.items()}
        assert edges0 == edges1

    def test_n_minus_one_edges(self):
        topo = generate_topology(8, 80.0, 45.0, np.random.default_rng(4))
        assert build_mst(topo, 0).n_edges == 7

    def test_spt_paths_never_longer_than_mst_paths(self):
        for seed in range(40):
            rng = np.random.default_rng(3000 + seed)
            topo = random_connected_topology(rng)
            spt = build_spt(topo, 0)
            mst = build_mst(topo, 0)
            for v in range(topo.n):
                assert spt.path_distance(v) <= mst.path_distance(v) + 1e-9


# ---------------------------------------------------------------- pruning and layering

def example_tree():
    # Source 1 reaches 6, 8, 9 directly, 7 through 8, 10 through 2;
    # 14 hangs off 8 and 11 off 2 without being destinations.
    parent = {2: 1, 6: 1, 8: 1, 9: 1, 10: 2, 7: 8, 14: 8, 11: 2}
    return tree_from_parents(1, parent, {v: 10.0 for v in parent})


class TestPruneTree:
    def test_non_destination_branches_removed(self):
        pruned = prune_tree(example_tree(), {6, 7, 8, 9, 10})
        assert set(pruned.nodes()) == {1, 2, 6, 7, 8, 9, 10}
        assert 14 not in pruned.parent and 11 not in pruned.parent
        assert pruned.parent[7] == 8  # relay hop retained
        assert set(pruned.leaves()) <= {6, 7, 8, 9, 10}

    def test_unchanged_when_everything_is_a_destination(self):
        tree = example_tree()
        assert prune_tree(tree, set(tree.nodes()) - {1}) == tree

    def test_star_with_single_destination(self):
        tree = tree_from_parents(0, {1: 0, 2: 0, 3: 0}, {1: 1.0, 2: 1.0, 3: 1.0})
        pruned = prune_tree(tree, {2})
        assert pruned.n_edges == 1
        assert pruned.parent == {2: 0}

    def test_idempotent(self):
        dests = {6, 7, 9}
        once = prune_tree(example_tree(), dests)
        assert prune_tree(once, dests) == once

    def test_empty_destinations_rejected(self):
        with pytest.raises(ValueError):
            prune_tree(example_tree(), set())

    def test_root_as_destination_rejected(self):
        with pytest.raises(ValueError):
            prune_tree(example_tree(), {1, 6})


class TestLayerize:
    def test_single_edge(self):
        tree = tree_from_parents(0, {5: 0}, {5: 2.0})
        schedule = layerize(tree)
        assert schedule.entries == (LayerEntry(0, (5,)),)

    def test_example_layering(self):
        pruned = prune_tree(example_tree(), {6, 7, 8, 9, 10})
        schedule = layerize(pruned)
        assert [e.transmitter for e in schedule.entries] == [1, 2, 8]
        assert set(schedule.entries[0].receivers) == {2, 6, 8, 9}
        assert schedule.entries[1].receivers == (10,)
        assert schedule.entries[2].receivers == (7,)

    def test_chain_gives_one_entry_per_hop(self):
        k = 5
        parent = {i + 1: i for i in range(k)}
        tree = tree_from_parents(0, parent, {v: 1.0 for v in parent})
        schedule = layerize(tree)
        assert len(schedule.entries) == k
        assert all(len(e.receivers) == 1 for e in schedule.entries)

    def test_receiver_slots_cover_all_non_root_nodes(self):
        pruned = prune_tree(example_tree(), {6, 7, 8, 9, 10})
        schedule = layerize(pruned)
        receivers = [r for e in schedule.entries for r in e.receivers]
        assert sorted(receivers) == sorted(set(pruned.nodes()) - {pruned.root})

    def test_transmitters_receive_before_transmitting(self):
        pruned = prune_tree(example_tree(), {6, 7, 8, 9, 10})
        schedule = layerize(pruned)
        seen = {pruned.root}
        for entry in schedule.entries:
            assert entry.transmitter in seen
            seen.update(entry.receivers)
