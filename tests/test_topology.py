import collections
import itertools
import math

import numpy as np
import pytest

import reference_engine as ref
from crn_multicast import experiment
from crn_multicast.experiment import ScenarioParams
from crn_multicast.session import TreeKind, slot_index
from crn_multicast.topology import (
    MST_PREFIX,
    Topology,
    build_mst,
    build_spt,
    generate_topology,
    mst_parents,
    place_stack,
    spt_parents,
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
    return Topology.from_edges(points, edges, area_side=max(xs), comm_range=max(weights))


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


def test_stack_places_every_seed_as_it_would_alone():
    # One stack of 8 placements with max_retries = 3: four connect on their
    # first draw, three are redrawn, and one keeps its third draw and grows
    # its range. Each equals the reference engine's placement of its seed
    # on its own: points, every weight and the range.
    n, area, comm_range, max_retries = 8, 100.0, 45.0, 3
    rngs = [np.random.default_rng(seed) for seed in range(8)]
    points, weights, ranges = place_stack(n, area, comm_range, rngs, max_retries)
    kinds = collections.Counter()
    for seed in range(8):
        want = ref.generate_topology(n, area, comm_range, np.random.default_rng(seed), max_retries)
        assert points[seed].tobytes() == want.points.tobytes()
        assert np.array_equal(weights[seed], Topology.from_edges(want.points, want.edges, area, comm_range).weights)
        assert ranges[seed] == want.comm_range
        first_draw = np.random.default_rng(seed).uniform(0.0, area, size=(n, 2))
        kinds["grown" if want.comm_range > comm_range else
              "first" if np.array_equal(want.points, first_draw) else "redrawn"] += 1
    assert kinds == {"first": 4, "redrawn": 3, "grown": 1}


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
        topo = Topology.from_edges(points, edges, 4.0, 2.0)
        tree = build_spt(topo, 0)
        assert tree.parent[3] == 1

    def test_determinism(self):
        topo = generate_topology(20, 150.0, 60.0, np.random.default_rng(9))
        assert build_spt(topo, 0) == build_spt(topo, 0)

    # Equal path sums over one hop and over two or three; every sum is exact
    # in binary, so the tie is exact. Dijkstra keeps the lower-id predecessor
    # strictly closer to the root, whichever of the two paths that lies on.
    @pytest.mark.parametrize(
        "root, edges, node, parent",
        [
            (0, ((0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)), 1, 0),
            (1, ((1, 2, 2.0), (0, 1, 1.0), (0, 2, 1.0)), 2, 0),
            (0, ((0, 3, 2.0), (0, 1, 0.5), (1, 2, 0.5), (2, 3, 1.0)), 3, 0),
            (3, ((0, 3, 2.0), (2, 3, 0.5), (1, 2, 0.5), (0, 1, 1.0)), 0, 1),
            # node 1 ties node 3's distance over a zero edge with a lower id
            # than node 2, but only node 2 is closer to the root
            (0, ((0, 2, 1.0), (2, 3, 1.0), (1, 2, 1.0), (1, 3, 0.0)), 3, 2),
        ],
        ids=[
            "direct_lower_two_hops", "relay_lower_two_hops", "direct_lower_three_hops", "relay_lower_three_hops",
            "zero_edge_tie_takes_the_closer_node",
        ],
    )
    def test_equal_sums_over_different_hop_counts(self, root, edges, node, parent):
        n = 1 + max(max(u, v) for u, v, _ in edges)
        points = np.zeros((n, 2))
        tree = build_spt(Topology.from_edges(points, edges, 1.0, 2.0), root)
        assert tree.parent[node] == parent
        want = ref.build_spt(ref.Topology(points, edges, 1.0, 2.0), root)
        assert (tree.parent, tree.edge_dist) == (want.parent, want.edge_dist)

    def test_distances_that_improve_over_several_passes(self):
        # A chain 0-1-...-9 of unit edges with shortcuts: node 9 is first
        # reached straight from the root (20), then over node 5 (10.5), and
        # only along the chain (9) after as many passes as the chain has hops.
        chain = tuple((i, i + 1, 1.0) for i in range(9))
        edges = chain + ((0, 9, 20.0), (0, 5, 6.0), (5, 9, 4.5), (0, 7, 7.5), (2, 8, 6.25))
        points = np.zeros((10, 2))
        topo = Topology.from_edges(points, edges, 1.0, 20.0)
        tree = build_spt(topo, 0)
        dist = floyd_warshall(topo.n, topo.edges)
        assert [tree.path_distance(v) for v in range(10)] == dist[0] == [float(v) for v in range(10)]
        want = ref.build_spt(ref.Topology(points, edges, 1.0, 20.0), 0)
        assert (tree.parent, tree.edge_dist) == (want.parent, want.edge_dist)

    def test_co_located_tie_takes_the_closer_parent(self):
        # node 1 sits on node 3 (a zero edge) and ties its distance, 2, with a
        # lower id than node 2; only node 2 is closer to the root, so node 3
        # hangs from node 2
        edges = ((0, 2, 1.0), (2, 3, 1.0), (1, 2, 1.0), (1, 3, 0.0))
        tree = build_spt(Topology.from_edges(np.zeros((4, 2)), edges, 1.0, 2.0), 0)
        assert tree.parent == {1: 2, 2: 0, 3: 2}
        assert tree.edge_dist == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_edge_too_short_to_order_paths_rejected(self):
        # node 1 sits at zero distance from the root, so no node is closer
        # to the root than it and it has no parent to take
        topo = Topology.from_edges(np.zeros((3, 2)), ((0, 1, 0.0), (1, 2, 1.0)), 1.0, 1.0)
        with pytest.raises(ValueError, match="edge lengths too short"):
            build_spt(topo, 0)


# ---------------------------------------------------------------- MST

class TestMinimumSpanningTree:
    def test_triangle(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        edges = ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0))
        topo = Topology.from_edges(points, edges, 3.0, 3.0)
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

    def test_tied_lengths_across_the_sorted_prefix(self):
        # Two 10-node cliques of distinct short edges, joined by 50 cross
        # edges of one length and 50 longer ones: the tied run spans the
        # MST_PREFIX * n-th shortest edge, and the one join between the
        # cliques is its first edge in (u, v) order.
        n, k = 20, MST_PREFIX * 20
        intra = [(u, v) for u, v in itertools.combinations(range(n), 2) if (u < 10) == (v < 10)]
        cross = [(u, v) for u in range(10) for v in range(10, n)]
        edges = tuple((u, v, 1.0 + i / 128) for i, (u, v) in enumerate(intra))
        edges += tuple((u, v, 3.0 if (u + v) % 2 else 4.0) for u, v in cross)
        lengths = sorted(d for _, _, d in edges)
        assert lengths[len(intra)] == lengths[k - 1] == lengths[k] == 3.0
        points = np.zeros((n, 2))
        tree = build_mst(Topology.from_edges(points, edges, 1.0, 4.0), 0)
        want = ref.build_mst(ref.Topology(points, edges, 1.0, 4.0), 0)
        assert (tree.parent, tree.edge_dist) == (want.parent, want.edge_dist)
        assert tree.parent[11] == 0

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


@pytest.mark.parametrize("build", [build_spt, build_mst])
def test_disconnected_graph_rejected_by_both_builders(build):
    topo = Topology.from_edges(np.zeros((4, 2)), ((0, 1, 1.0), (2, 3, 1.0)), 1.0, 1.0)
    with pytest.raises(ValueError, match="topology is not connected"):
        build(topo, 0)


# ---------------------------------------------------------------- pruning and layering

def slots_of(parent, root, destinations):
    """Slot index of one tree given as a child-to-parent dict, every edge of
    length 10, pruned to destinations."""
    n = 1 + max(root, *parent, *parent.values())
    parents = np.full(n, -1)
    parents[list(parent)] = list(parent.values())
    return slot_index(parents[None], np.full((1, n), 10.0), np.array([sorted(destinations)]), root)


def entries(slots):
    """(transmitter, receivers) of each entry: the layer schedule the slots lay out."""
    bounds = [*slots.starts.tolist(), len(slots.receiver)]
    receivers = [tuple(slots.receiver[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    return list(zip(slots.transmitter.tolist(), receivers))


def kept_parent(slots):
    """Child-to-parent dict of the pruned tree the slots cover."""
    return {r: tx for tx, receivers in entries(slots) for r in receivers}


def example_tree():
    # Source 1 reaches 6, 8, 9 directly, 7 through 8, 10 through 2;
    # 14 hangs off 8 and 11 off 2 without being destinations.
    return {2: 1, 6: 1, 8: 1, 9: 1, 10: 2, 7: 8, 14: 8, 11: 2}


class TestPruneTree:
    def test_non_destination_branches_removed(self):
        pruned = kept_parent(slots_of(example_tree(), 1, {6, 7, 8, 9, 10}))
        assert {1, *pruned} == {1, 2, 6, 7, 8, 9, 10}
        assert 14 not in pruned and 11 not in pruned
        assert pruned[7] == 8  # relay hop retained
        assert set(pruned) - set(pruned.values()) <= {6, 7, 8, 9, 10}  # every leaf a destination

    def test_unchanged_when_everything_is_a_destination(self):
        tree = example_tree()
        assert kept_parent(slots_of(tree, 1, set(tree))) == tree

    def test_star_with_single_destination(self):
        slots = slots_of({1: 0, 2: 0, 3: 0}, 0, {2})
        assert len(slots.receiver) == 1
        assert kept_parent(slots) == {2: 0}

    def test_idempotent(self):
        dests = {6, 7, 9}
        once = slots_of(example_tree(), 1, dests)
        assert_same_slots(slots_of(kept_parent(once), 1, dests), once)

    def test_empty_destinations_rejected(self):
        with pytest.raises(ValueError):
            slots_of(example_tree(), 1, set())

    def test_root_as_destination_rejected(self):
        with pytest.raises(ValueError):
            slots_of(example_tree(), 1, {1, 6})


class TestLayerize:
    def test_single_edge(self):
        assert entries(slots_of({5: 0}, 0, {5})) == [(0, (5,))]

    def test_example_layering(self):
        schedule = entries(slots_of(example_tree(), 1, {6, 7, 8, 9, 10}))
        assert [tx for tx, _ in schedule] == [1, 2, 8]
        assert set(schedule[0][1]) == {2, 6, 8, 9}
        assert schedule[1][1] == (10,)
        assert schedule[2][1] == (7,)

    def test_chain_gives_one_entry_per_hop(self):
        k = 5
        schedule = entries(slots_of({i + 1: i for i in range(k)}, 0, {k}))
        assert len(schedule) == k
        assert all(len(receivers) == 1 for _, receivers in schedule)

    def test_receiver_slots_cover_all_non_root_nodes(self):
        slots = slots_of(example_tree(), 1, {6, 7, 8, 9, 10})
        receivers = [r for _, rs in entries(slots) for r in rs]
        assert sorted(receivers) == sorted(set(kept_parent(slots))) == [2, 6, 7, 8, 9, 10]

    def test_transmitters_receive_before_transmitting(self):
        seen = {1}
        for tx, receivers in entries(slots_of(example_tree(), 1, {6, 7, 8, 9, 10})):
            assert tx in seen
            seen.update(receivers)


# ---------------------------------------------------------------- block slot index against the reference

SLOT_ARRAYS = ("starts", "event", "tx_slot", "transmitter", "receiver", "dest_slot", "distances", "tree_starts")


def assert_same_slots(got, want):
    for name in SLOT_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.height, got.destinations) == (want.height, want.destinations)
    assert np.array_equal(got.dest_paths, want.dest_paths)


def reference_slots(trees, destinations):
    """The reference engine's layout of each tree pruned to its destinations
    and layered, stacked tree after tree."""
    indexes = []
    for tree, dests in zip(trees, destinations):
        pruned = ref.prune_tree(tree, dests)
        indexes.append(ref.slot_index(pruned, ref.layerize(pruned), dests))
    return ref.stack_slots(indexes)


REF_BUILD = {TreeKind.SPT: ref.build_spt, TreeKind.MST: ref.build_mst}
TREE_ORDERS = [(TreeKind.SPT,), (TreeKind.MST,), (TreeKind.SPT, TreeKind.MST), (TreeKind.MST, TreeKind.SPT)]


# (n_nodes, n_dest, seeds in the block): one node pair, every node a
# destination, and blocks of 1, 3 and 32 seeds up to 160 nodes.
@pytest.mark.parametrize(
    "n, n_dest, block",
    [(2, 1, 1), (20, 19, 3), (20, 4, 32), (40, 8, 1), (40, 16, 32), (80, 16, 3), (160, 4, 3), (160, 32, 32)],
)
def test_block_slot_index_matches_reference(n, n_dest, block):
    # The whole block in one level pass against each tree built, pruned,
    # layered and laid out on its own by the reference engine's dict code.
    params = ScenarioParams(n_nodes=n, n_dest=n_dest)
    seeds = range(100 * n, 100 * n + block)
    trees, dests = {}, {}
    for seed in seeds:
        topo = ref.generate_topology(n, params.area_side_m, params.comm_range_m, ref._rng(seed, ref._STREAM_TOPOLOGY))
        dests[seed] = ref._rng(seed, ref._STREAM_DESTINATIONS).choice(np.arange(1, n), size=n_dest, replace=False)
        for kind, build in REF_BUILD.items():
            trees[seed, kind] = build(topo, 0)
    for order in TREE_ORDERS:
        got = experiment._block_stages(params, order, seeds).slots
        keys = [(seed, kind) for seed in seeds for kind in order]
        assert_same_slots(got, reference_slots([trees[k] for k in keys], [dests[seed] for seed, _ in keys]))


def test_equal_lengths_keep_kruskal_order_and_lower_id_predecessor():
    # A 4 x 4 grid with every edge of length 1: many shortest paths and
    # spanning trees tie, so the SPT takes Dijkstra's lower-id predecessor and
    # the MST Kruskal's (u, v) order, in the block as in the reference.
    side = 4
    points = np.array([(i % side, i // side) for i in range(side * side)], dtype=float)
    edges = tuple(
        (u, v, 1.0) for u in range(side * side) for v in (u + 1, u + side)
        if v < side * side and (v == u + side or v % side)
    )
    topo, want = Topology.from_edges(points, edges, side, 1.0), ref.Topology(points, edges, side, 1.0)
    dests = [5, 10, 15, 12]
    arrays = {TreeKind.SPT: spt_parents(topo, 0), TreeKind.MST: mst_parents(topo, 0)}
    for order in TREE_ORDERS:
        parent = np.stack([arrays[kind][0] for kind in order])
        dist = np.stack([arrays[kind][1] for kind in order])
        got = slot_index(parent, dist, np.array([dests] * len(order)))
        assert_same_slots(got, reference_slots([REF_BUILD[kind](want, 0) for kind in order], [dests] * len(order)))
