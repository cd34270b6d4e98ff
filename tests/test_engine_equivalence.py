"""Engine equivalence: the event-table engine against the per-event reference.

tests/reference_engine.py keeps the per-event pipeline that whole-tree tables
replaced. Both engines draw from the same generator calls in the same order
and apply the same arithmetic element by element, so their sessions must
agree: every decision, hop, control message, delivery and throughput, bit
for bit. The reference keeps a hop record per entry it ran; the package
keeps arrays (its event table, chosen channels and Judgement), so each
reference hop is compared field by field with what the arrays hold at its
entry.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from crn_multicast.assignment import Scheme, choose_channels
from crn_multicast.example_case import builtin_fixture, run_fixture
from crn_multicast.experiment import ScenarioParams, run_scenario_sessions
from crn_multicast.session import EventTable, TreeKind, slot_index
from crn_multicast.topology import mst_stack, place_stack, spt_stack
from test_experiment import channel_sessions
from test_topology import assert_same_slots, dict_trees, edges_of, reference_slots

SCHEMES = tuple(Scheme)
TREES = (TreeKind.SPT, TreeKind.MST)
SEEDS = range(100)
DEFAULTS = ScenarioParams()
MU_GRID = np.linspace(DEFAULTS.mu_min_s, DEFAULTS.mu_max_s, DEFAULTS.m_channels)

# Each case's scenario and, where it has channels no scenario allows, its
# (mean idle durations, idle probabilities) arrays.
CASES = {
    "defaults": (DEFAULTS, None),
    "p_idle_0.1": (replace(DEFAULTS, p_idle=0.1), None),
    "p_idle_0.5": (replace(DEFAULTS, p_idle=0.5), None),
    "n_nodes_160": (replace(DEFAULTS, n_nodes=160, n_dest=4), None),
    "one_channel": (replace(DEFAULTS, m_channels=1), None),
    "all_busy": (DEFAULTS, (MU_GRID, np.zeros_like(MU_GRID))),
    "always_idle": (DEFAULTS, (MU_GRID, np.ones_like(MU_GRID))),
}


def case_sessions(case, schemes, seed):
    """The package's sessions of a case: run_scenario_sessions, or the same
    stages on the case's own channel arrays."""
    params, channels = CASES[case]
    if channels is None:
        return run_scenario_sessions(params, schemes, TREES, seed)
    return channel_sessions(params, schemes, TREES, seed, *channels)


def recorded_entries(got, j, k, every_entry=False):
    """Entries of tree j the reference records under column k of a package
    result (table, channels, judgement): every entry of a fixture replay
    (every_entry), else those whose transmitter got the packet. A slot got
    it iff its hop's air time is a number and its transmitter's slot got
    it; every slot comes after its transmitter's, and air's last row, slot
    -1, stands for the roots."""
    table, _, judged = got
    slots = table.slots
    entries = range(*slots.tree_starts[j:j + 2].tolist())
    if every_entry:
        return list(entries)
    reached = np.append(~np.isnan(judged.air[:-1, k]), True)
    for s, e in enumerate(slots.event.tolist()):
        reached[s] &= reached[slots.tx_slot[e]]
    return [e for e in entries if reached[slots.tx_slot[e]]]


def entry_hop(got, e, k):
    """Entry e under column k of a package result on one radio, as the
    reference's hop record: its channel (None for -1), and each receiver's
    air time, its fit as judge decided it (a number in Judgement.air) and
    the availability on that channel (NaN, NaN and False without one)."""
    table, channels, judged = got
    slots = table.slots
    lo, hi = np.append(slots.starts, len(slots.receiver))[e:e + 2]
    ch = channels[e, k].item()
    receivers = tuple(slots.receiver[lo:hi].tolist())
    if ch < 0:
        nan = (math.nan,) * len(receivers)
        return ref.HopRecord(slots.transmitter[e].item(), receivers, None, nan, (False,) * len(receivers), math.nan)
    return ref.HopRecord(
        slots.transmitter[e].item(), receivers, ch, tuple(table.tx_time[0, lo:hi, ch].tolist()),
        tuple((~np.isnan(judged.air[lo:hi, k])).tolist()), table.available_time[e, ch].item(),
    )


def same_number(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same(got, j, k, want, every_entry=False):
    """Tree j under column k of a package result (table, channels,
    judgement) against the reference's (Result, control trace)."""
    result, trace = want
    table, _, judged = got
    n_dest = judged.delivered.shape[1]
    dests = table.slots.destinations[j * n_dest:(j + 1) * n_dest]
    avg, pdr = judged.averages()
    assert dict(zip(dests, judged.delivered[j, :, k].tolist())) == result.delivered
    assert dict(zip(dests, judged.throughput[j, :, k].tolist())) == result.throughput
    assert judged.total[j, k].item() == result.total_throughput
    assert avg[j, k].item() == result.avg_throughput
    assert pdr[j, k].item() == result.pdr
    hops = [entry_hop(got, e, k) for e in recorded_entries(got, j, k, every_entry)]
    assert len(hops) == len(result.hops)
    for mine, hop in zip(hops, result.hops):
        assert (mine.transmitter, mine.receivers) == (hop.transmitter, hop.receivers)
        assert mine.chosen_channel == hop.chosen_channel, hop
        assert len(mine.tx_time) == len(hop.tx_time) and all(map(same_number, mine.tx_time, hop.tx_time)), hop
        assert mine.success == hop.success, hop
        assert same_number(mine.available_time, hop.available_time), hop
    # Each recorded entry announces the packet to its receivers (MA), then collects their ACKs.
    expected = []
    for hop in hops:
        expected += [("MA", hop.transmitter, r) for r in hop.receivers]
        expected += [("ACK", r, hop.transmitter) for r in hop.receivers]
    assert tuple(expected) == trace


@pytest.mark.parametrize("case", list(CASES))
def test_scenario_sessions_match_reference(case):
    params, channels = CASES[case]
    for seed in SEEDS:
        got = case_sessions(case, SCHEMES, seed)
        want = ref.run_scenario_sessions(params, SCHEMES, TREES, seed, channels)
        assert list(want) == [(tree, scheme) for tree in TREES for scheme in SCHEMES]
        for j, tree in enumerate(TREES):
            for k, scheme in enumerate(SCHEMES):
                assert_same(got, j, k, want[(tree, scheme)])


@pytest.mark.parametrize("case", list(CASES))
def test_link_tables_match_reference(case):
    # Every receiver's air time and every entry's worst rate on every
    # channel, and its worst success probability on every idle one, equal
    # the minima of the reference's own per-receiver link equations bit for
    # bit, so a fault in the package's equations or in its reduction to the
    # worst receiver shows here even where it changes no decision (a pos
    # raised to any power keeps every pos choice).
    params, channels = CASES[case]
    channels = channels if channels is not None else ref.scenario_channels(params)
    for seed in range(10):
        table = case_sessions(case, SCHEMES[:1], seed)[0]
        _, events = ref.scenario_events(params, TREES, seed, channels)
        slots = table.slots
        bounds = np.append(slots.starts, len(slots.receiver))
        for j, (_, per_event) in enumerate(events.values()):
            entries = range(*slots.tree_starts[j:j + 2].tolist())
            assert len(entries) == len(per_event)
            for e, metrics in zip(entries, per_event):
                rows = slice(bounds[e], bounds[e + 1])
                assert np.array_equal(table.rate[0, e], metrics.rate.min(0))
                assert np.array_equal(table.tx_time[0, rows], metrics.tx_time)
                assert np.array_equal(table.pos[0, e, metrics.idle], metrics.pos[:, metrics.idle].min(0))


def test_cases_exercise_every_outcome():
    # The oracle is only as strong as its cases: together they must contain
    # events without an idle channel, failed hops and successful ones, and
    # relays that never got the packet and were skipped.
    hops, skipped = [], 0
    for case in CASES:
        got = case_sessions(case, SCHEMES, 0)
        slots = got[0].slots
        for j in range(len(TREES)):
            for k in range(len(SCHEMES)):
                entries = recorded_entries(got, j, k)
                hops += [entry_hop(got, e, k) for e in entries]
                skipped += len(entries) < slots.tree_starts[j + 1] - slots.tree_starts[j]
    assert any(hop.chosen_channel is None for hop in hops)
    assert any(True in hop.success for hop in hops)
    assert any(False in hop.success for hop in hops if hop.chosen_channel is not None)
    assert skipped


@pytest.mark.parametrize("scheme", [Scheme.POS, Scheme.MASA, Scheme.MDR])
def test_run_fixture_matches_reference(scheme):
    want = ref.run_fixture(builtin_fixture(), scheme=scheme)
    assert_same(run_fixture(builtin_fixture(), scheme=scheme), 0, 0, want, every_entry=True)


def test_random_replay_of_fixture_matches_reference():
    fixture = builtin_fixture()
    for engine in (run_fixture, ref.run_fixture):
        with pytest.raises(ValueError, match="needs an rng"):
            engine(fixture, scheme=Scheme.RS)
    for seed in range(50):
        got = run_fixture(fixture, Scheme.RS, rng=np.random.default_rng(seed))
        want = ref.run_fixture(fixture, Scheme.RS, rng=np.random.default_rng(seed))
        assert_same(got, 0, 0, want, every_entry=True)


@st.composite
def event_tables(draw):
    """Several events over M channels; values come from a small grid so that
    column minima tie often, and some events have no idle channel."""
    m = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    grid = st.sampled_from([0.0, 0.25, 0.5, 0.75])
    cells = st.lists(st.lists(grid, min_size=m, max_size=m), min_size=sum(counts), max_size=sum(counts))
    pos, rate = np.array(draw(cells)), np.array(draw(cells)) * 1e6
    idle = np.array(draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                  min_size=len(counts), max_size=len(counts))))
    starts = np.cumsum([0, *counts[:-1]])
    pos[~np.repeat(idle, counts, axis=0)] = 0.0
    mu = np.array(draw(st.lists(st.sampled_from([0.01, 0.02, 0.03]), min_size=m, max_size=m)))
    return starts, counts, pos, rate, mu, idle


def spine_table(counts, pos, rate, mu) -> EventTable:
    """A one-radio EventTable whose entries have counts[e] receivers, from
    one row of pos and rate per receiver slot, each reduced to its entry's
    worst receiver by SlotIndex.worst as a table's builders do: a tree
    where entry e's lowest receiver transmits entry e + 1, so breadth-first
    order is entry order, with every node a destination."""
    parent, spine = [-1], 0
    for c in counts:
        spine, parent = len(parent), parent + [spine] * c
    slots = slot_index(np.array([parent]), np.ones((1, len(parent))), np.arange(1, len(parent))[None])
    nan = np.full((len(counts), len(mu)), np.nan)
    worst_pos, worst_rate = slots.worst(pos[None]), slots.worst(rate[None])
    return EventTable(slots, nan, worst_pos, worst_rate, np.full((1, *pos.shape), np.inf), mu, np.ones(1))


@settings(max_examples=200, deadline=None)
@given(event_tables(), st.sampled_from([Scheme.POS, Scheme.MASA, Scheme.MDR]))
def test_table_choice_matches_per_event_choice(table, scheme):
    starts, counts, pos, rate, mu, idle = table
    chosen = choose_channels(scheme, spine_table(counts, pos, rate, mu), idle[None])[0]
    for e, (lo, n) in enumerate(zip(starts, counts)):
        rows = slice(lo, lo + n)
        one = ref.EventMetrics(pos[rows], rate[rows], np.zeros((n, len(mu))), mu, idle[e], np.full(len(mu), np.nan))
        want = ref.select_channel(scheme, one)
        assert chosen[e] == (-1 if want is None else want)


# (n, area_side, comm_range, max_retries, seeds, grown): grown is how many of
# the seeds end with a grown range, so the redraw path, range growth after
# one or two placements, and a mix of both are all exercised.
GEOMETRY_SETTINGS = [
    (12, 200.0, 60.0, 100, 100, 0),
    (40, 200.0, 60.0, 100, 100, 0),
    (80, 150.0, 35.0, 100, 40, 0),
    (160, 200.0, 60.0, 100, 20, 0),
    # About 32 edges per node, far more than Kruskal sorts first (MST_PREFIX
    # per node); seeds 8 and 9 join their last nodes only past that prefix.
    (300, 200.0, 60.0, 100, 10, 0),
    (20, 200.0, 30.0, 2, 100, 100),
    (40, 200.0, 20.0, 1, 100, 100),
    (12, 200.0, 70.0, 2, 100, 71),
]


@pytest.mark.parametrize("n, area, comm_range, max_retries, seeds, grown", GEOMETRY_SETTINGS)
def test_geometry_matches_reference(n, area, comm_range, max_retries, seeds, grown):
    # The setting's seeds placed as one stack, and the SPT and MST of the
    # whole stack at three roots, against the reference engine's copy of the
    # earlier geometry code on each seed alone: placement, edges, range
    # growth and trees. At root 0 the slot index of every seed's two trees,
    # pruned and layered in one level pass, must equal the reference's
    # layout of each tree on its own.
    rngs = [np.random.default_rng(seed) for seed in range(seeds)]
    points, weights, ranges = place_stack(n, area, comm_range, rngs, max_retries)
    want = [ref.generate_topology(n, area, comm_range, np.random.default_rng(seed), max_retries) for seed in range(seeds)]
    for seed, topo in enumerate(want):
        assert points[seed].tobytes() == topo.points.tobytes()
        assert edges_of(weights[seed]) == topo.edges
        assert ranges[seed] == topo.comm_range
    assert np.count_nonzero(ranges > comm_range) == grown
    for root in (0, n // 2, n - 1):
        for build, ref_build in ((spt_stack, ref.build_spt), (mst_stack, ref.build_mst)):
            assert dict_trees(*build(weights, root), root) == [ref_build(topo, root) for topo in want]
    # Tree j of the stack is seed j // 2's SPT (j even) or MST (j odd).
    arrays = [np.stack(pair, axis=1).reshape(2 * seeds, n) for pair in zip(spt_stack(weights, 0), mst_stack(weights, 0))]
    dests = [np.random.default_rng((seed, 1)).choice(np.arange(1, n), size=max(1, n // 3), replace=False)
             for seed in range(seeds)]
    slots = slot_index(*arrays, np.repeat(dests, 2, axis=0))
    trees = [build(topo, 0) for topo in want for build in (ref.build_spt, ref.build_mst)]
    assert_same_slots(slots, reference_slots(trees, np.repeat(dests, 2, axis=0)))
