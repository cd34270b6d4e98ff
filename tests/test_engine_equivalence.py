"""Engine equivalence: the event-table engine against the per-event reference.

tests/reference_engine.py keeps the per-event pipeline that whole-tree tables
replaced. Both engines draw from the same generator calls in the same order
and apply the same arithmetic element by element, so their session results
must be equal with `==`: every decision, hop record, control message,
delivery and throughput, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from crn_multicast.assignment import Scheme, choose_channels
from crn_multicast.channel import ChannelModel, ChannelParams
from crn_multicast.example_case import builtin_fixture, run_fixture
from crn_multicast.experiment import ScenarioParams, run_scenario_sessions, seed_stages
from crn_multicast.session import TreeKind
from crn_multicast.topology import build_mst, generate_topology, layerize, prune_tree

SCHEMES = tuple(Scheme)
TREES = (TreeKind.SPT, TreeKind.MST)
SEEDS = range(100)
DEFAULTS = ScenarioParams()
MU_GRID = np.linspace(DEFAULTS.mu_min_s, DEFAULTS.mu_max_s, DEFAULTS.m_channels)

CASES = {
    "defaults": (DEFAULTS, None),
    "p_idle_0.1": (replace(DEFAULTS, p_idle=0.1), None),
    "p_idle_0.5": (replace(DEFAULTS, p_idle=0.5), None),
    "n_nodes_160": (replace(DEFAULTS, n_nodes=160, n_dest=4), None),
    "one_channel": (replace(DEFAULTS, m_channels=1), None),
    "all_busy": (DEFAULTS, ChannelModel(tuple(ChannelParams(float(mu), 0.0) for mu in MU_GRID))),
    "always_idle": (DEFAULTS, ChannelModel(tuple(ChannelParams(float(mu), 1.0) for mu in MU_GRID))),
}


def assert_same(got, want):
    result, trace = want
    assert got == result
    assert got.control_trace == trace


@pytest.mark.parametrize("case", list(CASES))
def test_scenario_sessions_match_reference(case):
    params, model = CASES[case]
    for seed in SEEDS:
        got = run_scenario_sessions(params, SCHEMES, TREES, seed, channel_model=model)
        want = ref.run_scenario_sessions(params, SCHEMES, TREES, seed, channel_model=model)
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])


def test_cases_exercise_every_outcome():
    # The oracle is only as strong as its cases: together they must contain
    # events without an idle channel, failed hops and successful ones, and
    # relays that never got the packet and were skipped.
    hops, skipped = [], 0
    for params, model in CASES.values():
        stages = seed_stages(params, TREES, 0)
        for (tree, _), res in run_scenario_sessions(params, SCHEMES, TREES, 0, model, stages).items():
            hops += res.hops
            skipped += len(res.hops) < len(stages.trees[tree].schedule.entries)
    assert any(hop.chosen_channel is None for hop in hops)
    assert any(True in hop.success for hop in hops)
    assert any(False in hop.success for hop in hops if hop.chosen_channel is not None)
    assert skipped


@pytest.mark.parametrize("scheme", [Scheme.POS, Scheme.MASA, Scheme.MDR])
def test_run_fixture_matches_reference(scheme):
    assert_same(run_fixture(builtin_fixture(), scheme=scheme), ref.run_fixture(builtin_fixture(), scheme=scheme))


def test_random_replay_of_fixture_matches_reference():
    fixture = builtin_fixture()
    for engine in (run_fixture, ref.run_fixture):
        with pytest.raises(ValueError, match="needs an rng"):
            engine(fixture, scheme=Scheme.RS)
    for seed in range(50):
        got = run_fixture(fixture, Scheme.RS, rng=np.random.default_rng(seed))
        want = ref.run_fixture(fixture, Scheme.RS, rng=np.random.default_rng(seed))
        assert_same(got, want)


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


@settings(max_examples=200, deadline=None)
@given(event_tables(), st.sampled_from([Scheme.POS, Scheme.MASA, Scheme.MDR]))
def test_table_choice_matches_per_event_choice(table, scheme):
    starts, counts, pos, rate, mu, idle = table
    chosen = choose_channels(scheme, pos, rate, mu, idle, starts)
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
    (20, 200.0, 30.0, 2, 100, 100),
    (40, 200.0, 20.0, 1, 100, 100),
    (12, 200.0, 70.0, 2, 100, 71),
]


@pytest.mark.parametrize("n, area, comm_range, max_retries, seeds, grown", GEOMETRY_SETTINGS)
def test_geometry_matches_reference(n, area, comm_range, max_retries, seeds, grown):
    # Placement, edges, range growth and the MST at three roots against the
    # reference engine's copy of the earlier geometry code; the pruned tree
    # must match down to its dict order, and so must its layer schedule.
    n_grown = 0
    for seed in range(seeds):
        got = generate_topology(n, area, comm_range, np.random.default_rng(seed), max_retries)
        want = ref.generate_topology(n, area, comm_range, np.random.default_rng(seed), max_retries)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.edges == want.edges
        assert (got.area_side, got.comm_range) == (want.area_side, want.comm_range)
        n_grown += got.comm_range > comm_range
        dests = np.random.default_rng((seed, 1)).choice(np.arange(1, n), size=max(1, n // 3), replace=False)
        for root in (0, n // 2, n - 1):
            tree, ref_tree = build_mst(got, root), ref.build_mst(want, root)
            assert tree == ref_tree
            if root == 0:
                pruned, ref_pruned = prune_tree(tree, dests), prune_tree(ref_tree, dests)
                assert list(pruned.parent.items()) == list(ref_pruned.parent.items())
                assert pruned == ref_pruned
                assert layerize(pruned) == layerize(ref_pruned)
    assert n_grown == grown
