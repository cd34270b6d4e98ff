import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from crn_multicast import experiment
from crn_multicast.experiment import ScenarioParams
from crn_multicast.session import TreeKind, slot_index
from crn_multicast.topology import MST_PREFIX, mst_stack, place_stack, spt_stack


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
    """place_stack's (1, n, 2) points, (1, n, n) weights and (1,) range of
    one placement of n_min to n_max nodes drawn from rng."""
    n = int(rng.integers(n_min, n_max + 1))
    return place_stack(n, 100.0, 55.0, [rng])


def weights_of(n, edges):
    """(n, n) weight matrix of (u, v, d) edges, inf off them."""
    weights = np.full((n, n), math.inf)
    for u, v, d in edges:
        weights[u, v] = weights[v, u] = d
    return weights


def edges_of(weights):
    """(u, v, d) per edge of an (n, n) weight matrix, u < v, in (u, v) order."""
    u, v = np.nonzero(np.triu(weights < math.inf))
    return tuple(zip(u.tolist(), v.tolist(), weights[u, v].tolist()))


def dict_trees(parent, dist, root):
    """Each tree of a (seeds, n) stack of parent arrays (spt_stack,
    mst_stack) as the reference engine's dict tree."""
    trees = []
    for p, d in zip(parent.tolist(), dist.tolist()):
        kids = [v for v, u in enumerate(p) if u >= 0]
        trees.append(ref.tree_from_parents(root, {v: p[v] for v in kids}, {v: d[v] for v in kids}))
    return trees


def point_distance(points, u, v):
    # same operation order as the vectorized pair distances, so bit-identical
    dx, dy = points[u] - points[v]
    return math.sqrt(dx * dx + dy * dy)


# ---------------------------------------------------------------- placement

class TestPlaceStack:
    def test_two_nodes_in_range_get_one_edge(self):
        points, weights, _ = place_stack(2, 10.0, 20.0, [np.random.default_rng(0)])
        assert edges_of(weights[0]) == ((0, 1, point_distance(points[0], 0, 1)),)

    def test_same_seed_same_topology(self):
        a = place_stack(25, 200.0, 60.0, [np.random.default_rng(5)])
        b = place_stack(25, 200.0, 60.0, [np.random.default_rng(5)])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_connectivity_over_many_seeds(self):
        _, weights, _ = place_stack(40, 200.0, 60.0, [np.random.default_rng(seed) for seed in range(100)])
        for w in weights:
            assert bfs_reachable(40, edges_of(w)) == set(range(40))

    def test_edges_exactly_within_range(self):
        points, weights, ranges = place_stack(30, 200.0, 60.0, [np.random.default_rng(3)])
        have = {(u, v) for u, v, _ in edges_of(weights[0])}
        for u in range(30):
            for v in range(u + 1, 30):
                d = point_distance(points[0], u, v)
                assert ((u, v) in have) == (d <= ranges[0])
                assert weights[0, u, v] == weights[0, v, u] == (d if d <= ranges[0] else math.inf)
        assert np.all(np.diagonal(weights[0]) == math.inf)

    def test_range_grows_when_placements_cannot_connect(self):
        # 2 nodes with a tiny range almost never connect at first try
        _, weights, ranges = place_stack(2, 1000.0, 1e-6, [np.random.default_rng(1)], max_retries=3)
        assert bfs_reachable(2, edges_of(weights[0])) == {0, 1}
        assert ranges[0] > 1e-6

    def test_positions_inside_area(self):
        points, _, _ = place_stack(50, 120.0, 50.0, [np.random.default_rng(8)])
        assert points.shape == (1, 50, 2)
        assert np.all((0.0 <= points) & (points <= 120.0))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            place_stack(1, 100.0, 30.0, [np.random.default_rng(0)])

    @pytest.mark.parametrize("max_retries", [0, -1])
    def test_no_placement_rejected(self, max_retries):
        # with no placement drawn, range growth had nothing to grow on and
        # raised UnboundLocalError
        with pytest.raises(ValueError, match="max_retries must be at least 1"):
            place_stack(10, 100.0, 30.0, [np.random.default_rng(0)], max_retries)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["area_side", "comm_range"])
    def test_non_positive_or_non_finite_area_and_range_rejected(self, which, bad):
        # a NaN range used to grow forever, because no distance is <= NaN
        kwargs = {"area_side": 100.0, "comm_range": 30.0, which: bad}
        with pytest.raises(ValueError, match="positive and finite"):
            place_stack(10, rngs=[np.random.default_rng(0)], **kwargs)


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
        assert np.array_equal(weights[seed], weights_of(n, want.edges))
        assert ranges[seed] == want.comm_range
        first_draw = np.random.default_rng(seed).uniform(0.0, area, size=(n, 2))
        kinds["grown" if want.comm_range > comm_range else
              "first" if np.array_equal(want.points, first_draw) else "redrawn"] += 1
    assert kinds == {"first": 4, "redrawn": 3, "grown": 1}


# ---------------------------------------------------------------- SPT

class TestShortestPathTree:
    def test_path_graph(self):
        parent, dist = spt_stack(weights_of(3, ((0, 1, 1.0), (1, 2, 2.0)))[None], 0)
        assert parent.tolist() == [[-1, 0, 1]]
        assert dist.tolist() == [[0.0, 1.0, 2.0]]

    def test_eight_node_tree_has_seven_edges(self):
        _, weights, _ = place_stack(8, 80.0, 45.0, [np.random.default_rng(2)])
        parent, _ = spt_stack(weights, 0)
        assert np.count_nonzero(parent >= 0) == 7

    def test_distances_match_floyd_warshall(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            _, weights, _ = random_connected_topology(rng)
            n = weights.shape[-1]
            [tree] = dict_trees(*spt_stack(weights, 0), 0)
            dist = floyd_warshall(n, edges_of(weights[0]))
            for v in range(n):
                assert tree.path_distance(v) == pytest.approx(dist[0][v], abs=1e-9)

    def test_tie_breaks_prefer_lower_predecessor(self):
        # 0-1 and 0-2 weight 1; both 1-3 and 2-3 weight 1: two equal paths to 3
        edges = ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0))
        parent, _ = spt_stack(weights_of(4, edges)[None], 0)
        assert parent[0, 3] == 1

    def test_determinism(self):
        _, weights, _ = place_stack(20, 150.0, 60.0, [np.random.default_rng(9)])
        a, b = spt_stack(weights, 0), spt_stack(weights, 0)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

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
        [tree] = dict_trees(*spt_stack(weights_of(n, edges)[None], root), root)
        assert tree.parent[node] == parent
        assert tree == ref.build_spt(ref.Topology(np.zeros((n, 2)), edges, 1.0, 2.0), root)

    def test_distances_that_improve_over_several_passes(self):
        # A chain 0-1-...-9 of unit edges with shortcuts: node 9 is first
        # reached straight from the root (20), then over node 5 (10.5), and
        # only along the chain (9) after as many passes as the chain has hops.
        chain = tuple((i, i + 1, 1.0) for i in range(9))
        edges = chain + ((0, 9, 20.0), (0, 5, 6.0), (5, 9, 4.5), (0, 7, 7.5), (2, 8, 6.25))
        [tree] = dict_trees(*spt_stack(weights_of(10, edges)[None], 0), 0)
        dist = floyd_warshall(10, edges)
        assert [tree.path_distance(v) for v in range(10)] == dist[0] == [float(v) for v in range(10)]
        assert tree == ref.build_spt(ref.Topology(np.zeros((10, 2)), edges, 1.0, 20.0), 0)

    def test_co_located_tie_takes_the_closer_parent(self):
        # node 1 sits on node 3 (a zero edge) and ties its distance, 2, with a
        # lower id than node 2; only node 2 is closer to the root, so node 3
        # hangs from node 2
        edges = ((0, 2, 1.0), (2, 3, 1.0), (1, 2, 1.0), (1, 3, 0.0))
        parent, dist = spt_stack(weights_of(4, edges)[None], 0)
        assert parent.tolist() == [[-1, 2, 0, 2]]
        assert dist.tolist() == [[0.0, 1.0, 1.0, 1.0]]

    def test_edge_too_short_to_order_paths_rejected(self):
        # node 1 sits at zero distance from the root, so no node is closer
        # to the root than it and it has no parent to take
        with pytest.raises(ValueError, match="edge lengths too short"):
            spt_stack(weights_of(3, ((0, 1, 0.0), (1, 2, 1.0)))[None], 0)


# ---------------------------------------------------------------- MST

class TestMinimumSpanningTree:
    def test_triangle(self):
        edges = ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0))
        [tree] = dict_trees(*mst_stack(weights_of(3, edges)[None], 0), 0)
        kept = {(min(v, p), max(v, p)) for v, p in tree.parent.items()}
        assert kept == {(0, 1), (0, 2)}
        assert sum(tree.edge_dist.values()) == pytest.approx(3.0)

    def test_weight_matches_bruteforce_enumeration(self):
        for seed in range(12):
            rng = np.random.default_rng(1000 + seed)
            _, weights, _ = random_connected_topology(rng, n_max=7, n_min=4)
            _, dist = mst_stack(weights, 0)
            best = min_spanning_weight_bruteforce(weights.shape[-1], edges_of(weights[0]))
            assert dist.sum() == pytest.approx(best, abs=1e-9)

    def test_edge_set_independent_of_root(self):
        _, weights, _ = random_connected_topology(np.random.default_rng(77), n_max=10)
        kept = []
        for root in (0, weights.shape[-1] - 1):
            [tree] = dict_trees(*mst_stack(weights, root), root)
            kept.append({(min(v, p), max(v, p)) for v, p in tree.parent.items()})
        assert kept[0] == kept[1]

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
        [tree] = dict_trees(*mst_stack(weights_of(n, edges)[None], 0), 0)
        assert tree == ref.build_mst(ref.Topology(np.zeros((n, 2)), edges, 1.0, 4.0), 0)
        assert tree.parent[11] == 0

    def test_n_minus_one_edges(self):
        _, weights, _ = place_stack(8, 80.0, 45.0, [np.random.default_rng(4)])
        parent, _ = mst_stack(weights, 0)
        assert np.count_nonzero(parent >= 0) == 7

    def test_spt_paths_never_longer_than_mst_paths(self):
        for seed in range(40):
            rng = np.random.default_rng(3000 + seed)
            _, weights, _ = random_connected_topology(rng)
            [spt] = dict_trees(*spt_stack(weights, 0), 0)
            [mst] = dict_trees(*mst_stack(weights, 0), 0)
            for v in range(weights.shape[-1]):
                assert spt.path_distance(v) <= mst.path_distance(v) + 1e-9


@pytest.mark.parametrize("build", [spt_stack, mst_stack])
def test_disconnected_graph_rejected_by_both_builders(build):
    with pytest.raises(ValueError, match="topology is not connected"):
        build(weights_of(4, ((0, 1, 1.0), (2, 3, 1.0)))[None], 0)


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
        got = experiment._block_stages(params, order, seeds)[0]
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
    want = ref.Topology(points, edges, side, 1.0)
    dests = [5, 10, 15, 12]
    weights = weights_of(side * side, edges)[None]
    arrays = {TreeKind.SPT: spt_stack(weights, 0), TreeKind.MST: mst_stack(weights, 0)}
    for order in TREE_ORDERS:
        parent = np.concatenate([arrays[kind][0] for kind in order])
        dist = np.concatenate([arrays[kind][1] for kind in order])
        got = slot_index(parent, dist, np.array([dests] * len(order)))
        assert_same_slots(got, reference_slots([REF_BUILD[kind](want, 0) for kind in order], [dests] * len(order)))


@st.composite
def tree_stacks(draw):
    """A stack of 1 to 4 random trees over the same n node ids (2 to 30)
    with one shared root, not always 0, as (trees, n) parent and parent-edge
    length arrays, and each tree's destinations, equally many per tree.
    Each tree spans the root and a random share of the other nodes, each
    hung from a node placed before it, or is a chain through every node
    whose deepest node is no destination."""
    n = draw(st.integers(min_value=2, max_value=30))
    root = draw(st.integers(min_value=0, max_value=n - 1))
    n_trees = draw(st.integers(min_value=1, max_value=4))
    parent = np.full((n_trees, n), -1)
    candidates = []
    for j in range(n_trees):
        nodes = [root, *draw(st.permutations([v for v in range(n) if v != root]))]
        chain = draw(st.booleans())
        if not chain:
            nodes = nodes[: draw(st.integers(min_value=2, max_value=n))]
        for i in range(1, len(nodes)):
            parent[j, nodes[i]] = nodes[i - 1] if chain else nodes[draw(st.integers(min_value=0, max_value=i - 1))]
        candidates.append(nodes[1:-1] if chain and len(nodes) > 2 else nodes[1:])
    n_dest = draw(st.integers(min_value=1, max_value=min(map(len, candidates))))
    dests = [draw(st.permutations(options))[:n_dest] for options in candidates]
    return root, parent, np.arange(1.0, n_trees * n + 1).reshape(n_trees, n), dests


@settings(max_examples=300, deadline=None)
@given(tree_stacks())
def test_random_tree_stack_slot_index_matches_reference(case):
    root, parent, dist, dests = case
    trees = [
        ref.tree_from_parents(root, {v: p for v, p in enumerate(row.tolist()) if p >= 0},
                              {v: float(d) for v, d in enumerate(lengths.tolist()) if row[v] >= 0})
        for row, lengths in zip(parent, dist)
    ]
    got = slot_index(parent, dist, np.array(dests), root)
    assert_same_slots(got, reference_slots(trees, dests))
