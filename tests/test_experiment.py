from dataclasses import replace

import numpy as np
import pytest

import reference_engine as ref
from crn_multicast import experiment, session
from crn_multicast.assignment import Scheme, choose_channels
from crn_multicast.experiment import (
    DataFormatError,
    ScenarioParams,
    SweepSpec,
    aggregate_to_csv,
    aggregate_trials,
    read_aggregate_csv,
    run_scenario_sessions,
    run_sweep,
    trials_to_csv,
    write_sweep_csv,
)
from crn_multicast.seeding import generators
from crn_multicast.session import TreeKind
from test_topology import weights_of

SMALL = ScenarioParams(n_nodes=14, n_dest=5, m_channels=8)
ALL_SCHEMES = (Scheme.POS, Scheme.MASA, Scheme.MDR, Scheme.RS)


def session_arrays(got, j, k):
    """Everything a result (table, channels, judgement) on one radio holds
    on tree j under column k: its destinations; each entry's transmitter,
    chosen channel and availability on every channel; each slot's receiver,
    air time on every channel and hop air time (NaN where the hop fails);
    each destination's delivery and throughput; and the total."""
    table, channels, judged = got
    slots = table.slots
    e0, e1 = slots.tree_starts[j:j + 2].tolist()
    s0, s1 = np.append(slots.starts, len(slots.event))[[e0, e1]].tolist()
    n_dest = judged.delivered.shape[1]
    return {
        "destinations": np.array(slots.destinations[j * n_dest:(j + 1) * n_dest]),
        "transmitter": slots.transmitter[e0:e1],
        "channels": channels[e0:e1, k],
        "available_time": table.available_time[e0:e1],
        "receiver": slots.receiver[s0:s1],
        "tx_time": table.tx_time[0, s0:s1],
        "air": judged.air[s0:s1, k],
        "delivered": judged.delivered[j, :, k],
        "throughput": judged.throughput[j, :, k],
        "total": judged.total[j, k],
    }


def judge_block(scenarios, slots, words):
    """_judge_block of a block's slots, every scheme, on the draws of its
    events words (_block_stages) under the mean idle durations of
    scenarios[0]: value v on the radio and p_idle of scenarios[v]."""
    mu_idle = scenarios[0].mu_idle()
    raw = session.draw_raw(slots, mu_idle, generators(words))
    return experiment._judge_block(scenarios, mu_idle, ALL_SCHEMES, slots, raw)


def channel_sessions(params, schemes, trees, seed, mu_idle, p_idle):
    """run_scenario_sessions with the scenario's channels given as (M,)
    arrays of mean idle durations and idle probabilities, which may hold
    values no scenario has (a channel never or always idle): _block_stages
    and draw_raw, then what _judge_block does for one value, with these idle
    probabilities: link_metrics, idle_flags, every scheme's choose_channels
    and judge."""
    slots, words = experiment._block_stages(params, tuple(dict.fromkeys(trees)), [seed])
    raw = session.draw_raw(slots, mu_idle, generators(words))
    table = session.link_metrics([params], raw, mu_idle, slots)
    idle = session.idle_flags(raw, np.asarray(p_idle)[None])  # one set of flags, on the table's one radio
    channels = np.concatenate([choose_channels(scheme, table, idle) for scheme in schemes]).T
    return table, channels, session.judge(table, channels)


def assert_same_session(got, want):
    """Two session_arrays results hold the same arrays, bit for bit."""
    assert got.keys() == want.keys()
    for name in got:
        assert np.array_equal(got[name], want[name], equal_nan=True), name


class TestRunTrial:
    def test_deterministic(self):
        a = run_scenario_sessions(SMALL, [Scheme.POS], [TreeKind.SPT], seed=42)
        b = run_scenario_sessions(SMALL, [Scheme.POS], [TreeKind.SPT], seed=42)
        assert_same_session(session_arrays(a, 0, 0), session_arrays(b, 0, 0))

    def test_schemes_and_trees_share_draws(self):
        # adding schemes or tree kinds must not disturb anyone else's streams
        alone = run_scenario_sessions(SMALL, [Scheme.POS], [TreeKind.SPT], seed=7)
        together = run_scenario_sessions(SMALL, ALL_SCHEMES, [TreeKind.SPT, TreeKind.MST], seed=7)
        assert_same_session(session_arrays(together, 0, 0), session_arrays(alone, 0, 0))

    def test_paired_schemes_see_identical_events(self):
        # availability is drawn once per (event, channel): every scheme, run
        # alone or beside the others, reads the same table, and schemes do
        # pick the same channel at the same hop
        found = 0
        for seed in range(10):
            table, channels, _ = run_scenario_sessions(SMALL, ALL_SCHEMES, [TreeKind.SPT], seed=seed)
            for k, scheme in enumerate(ALL_SCHEMES):
                alone, alone_channels, _ = run_scenario_sessions(SMALL, [scheme], [TreeKind.SPT], seed=seed)
                assert np.array_equal(alone_channels[:, 0], channels[:, k])
                assert np.array_equal(alone.available_time, table.available_time)
                assert np.array_equal(alone.tx_time, table.tx_time)
            found += sum(len(set(row)) < len(row) for row in channels.tolist() if -1 not in row)
        assert found > 0

    def test_single_idle_channel_removes_all_freedom(self):
        got = channel_sessions(SMALL, ALL_SCHEMES, [TreeKind.SPT], 11, np.array([0.050]), np.array([0.9]))
        for k in range(1, len(ALL_SCHEMES)):
            assert_same_session(session_arrays(got, 0, k), session_arrays(got, 0, 0))

    def test_always_idle_abundant_availability_delivers_all(self):
        _, _, judged = channel_sessions(
            SMALL, ALL_SCHEMES, [TreeKind.SPT, TreeKind.MST], 5, np.full(4, 1e6), np.ones(4)
        )
        assert (judged.averages()[1] == 1.0).all()

    # A mean idle duration near the float maximum overflowed draw_raw's
    # residual scaling, and a subnormal one phy.pos' t / mu_idle: each a
    # RuntimeWarning, an error under pytest's filter. Their limits are an
    # infinite availability and a pos of 0.
    def test_mean_idle_duration_near_float_max_is_available_for_ever(self):
        params = ScenarioParams(mu_max_s=1e308)
        table, _, judged = run_scenario_sessions(params, ALL_SCHEMES, [TreeKind.SPT, TreeKind.MST], seed=1)
        assert np.isinf(table.available_time[:, -1]).any()
        assert (table.pos[..., -1] == 1.0).all()
        assert judged.averages()[1].tolist() == [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.875, 1.0]]

    def test_subnormal_mean_idle_duration_gives_pos_zero(self):
        params = ScenarioParams(mu_min_s=1e-320, mu_max_s=1e-320)
        table, _, judged = run_scenario_sessions(params, ALL_SCHEMES, [TreeKind.SPT, TreeKind.MST], seed=1)
        assert (table.pos == 0.0).all()
        assert (judged.averages()[1] == 0.0).all()

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            run_scenario_sessions(SMALL, [Scheme.POS], [TreeKind.SPT], seed=-1)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            run_scenario_sessions(replace(SMALL, n_dest=14), [Scheme.POS], [TreeKind.SPT], seed=0)

    def test_stages_reused_across_scenarios_match_fresh_ones(self):
        # one block's geometry serving scenarios that differ in p_idle, M and
        # bandwidth, returning to the first one's mean idle durations last,
        # must give what each scenario builds alone, and so must
        # channel_sessions, which repeats _judge_block's stage for one value,
        # on the scenario's own channels
        trees, seeds = (TreeKind.SPT, TreeKind.MST), [9, 10]
        slots, words = experiment._block_stages(SMALL, trees, seeds)
        for params in (SMALL, replace(SMALL, m_channels=3), replace(SMALL, p_idle=0.3, bandwidth_hz=2e6)):
            shared = judge_block([params], slots, words)
            _, fresh_channels, fresh = judge_block([params], *experiment._block_stages(params, trees, seeds))
            assert np.array_equal(shared[1], fresh_channels)
            for name in ("air", "delivered", "throughput", "total"):
                assert np.array_equal(getattr(shared[2], name), getattr(fresh, name), equal_nan=True)
            p_idle = np.full(params.m_channels, params.p_idle)
            for j, seed in enumerate(seeds):
                alone = run_scenario_sessions(params, ALL_SCHEMES, trees, seed)
                arrays = channel_sessions(params, ALL_SCHEMES, trees, seed, params.mu_idle(), p_idle)
                assert np.array_equal(arrays[1], alone[1])
                for t in range(len(trees)):
                    for k in range(len(ALL_SCHEMES)):
                        assert_same_session(session_arrays(shared, len(trees) * j + t, k), session_arrays(alone, t, k))
                        assert_same_session(session_arrays(arrays, t, k), session_arrays(alone, t, k))

    def test_co_located_nodes_rejected_once_per_tree(self, monkeypatch):
        # link_metrics runs the link equations without range checks, so
        # _block_stages rejects a zero parent-edge length of a pruned tree.
        points = np.array([[(0.0, 0.0), (10.0, 0.0), (10.0, 0.0)]])
        placed = (points, weights_of(3, [(0, 1, 10.0), (1, 2, 0.0)])[None], np.array([60.0]))
        monkeypatch.setattr(experiment, "place_stack", lambda *args: placed)
        params = ScenarioParams(n_nodes=3, n_dest=2)
        with pytest.raises(ValueError, match="distance must be positive"):
            experiment._block_stages(params, [TreeKind.MST], [0])


class TestSweep:
    def test_single_trial_aggregate_equals_the_trial(self):
        spec = SweepSpec(base=SMALL, variable="p_idle", values=(0.5,), trials=1, seed=9,
                         schemes=(Scheme.POS,), trees=(TreeKind.SPT,))
        avg, pdr = run_sweep(spec)
        agg = aggregate_trials(spec, avg, pdr)
        assert avg.shape == pdr.shape == (1, 1, 1, 1) and len(agg) == 1
        assert agg[0].mean_throughput_bps == avg.item()
        assert agg[0].ci95_throughput == 0.0
        assert agg[0].mean_pdr == pdr.item()
        assert agg[0].trials == 1

    def test_throughput_rises_with_idle_probability(self):
        spec = SweepSpec(base=SMALL, variable="p_idle", values=(0.1, 0.5, 0.9), trials=150, seed=2,
                         schemes=(Scheme.POS, Scheme.RS), trees=(TreeKind.SPT,))
        agg = aggregate_trials(spec, *run_sweep(spec))
        for scheme in (Scheme.POS, Scheme.RS):
            means = [r.mean_throughput_bps for r in agg if r.scheme is scheme]
            assert means[0] < means[1] < means[2]

    def test_throughput_falls_with_packet_size(self):
        spec = SweepSpec(base=SMALL, variable="packet_bits", values=(16384, 32768, 65536, 131072),
                         trials=150, seed=2, schemes=(Scheme.POS,), trees=(TreeKind.SPT,))
        agg = aggregate_trials(spec, *run_sweep(spec))
        means = [r.mean_throughput_bps for r in agg]
        pdrs = [r.mean_pdr for r in agg]
        assert means == sorted(means, reverse=True)
        assert pdrs == sorted(pdrs, reverse=True)

    def test_row_counts(self):
        spec = SweepSpec(base=SMALL, variable="M", values=(4, 8), trials=3, seed=0,
                         schemes=(Scheme.POS, Scheme.RS), trees=(TreeKind.SPT, TreeKind.MST))
        avg, pdr = run_sweep(spec)
        agg = aggregate_trials(spec, avg, pdr)
        assert len(trials_to_csv(spec, avg, pdr).splitlines()) == 1 + 2 * 3 * 2 * 2
        assert len(agg) == 2 * 2 * 2
        assert all(r.trials == 3 for r in agg)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=SMALL, variable="frequency", values=(1,), trials=1, seed=0)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", 3.0), ("trials", 2.5), ("trials", 2.0)])
    def test_non_integer_seed_or_trials_rejected(self, field, value):
        # Found at construction, not as a TypeError inside run_sweep.
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            SweepSpec(base=SMALL, variable="p_idle", values=(0.5,), **{"trials": 1, "seed": 0, field: value})

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=SMALL, variable="bw", values=(), trials=1, seed=0)

    @pytest.mark.parametrize(
        "variable, good, bad",
        [
            ("M", 4, 5.0), ("n_dest", 4, 14), ("p_idle", 0.5, 1.0), ("packet_bits", 8192, 0),
            # numerically equal values, which aggregation would merge into one point
            ("bw", 1e6, 1000000), ("pt", 0.1, 0.1), ("M", 4, 4),
        ],
    )
    def test_every_swept_value_validated_up_front(self, variable, good, bad):
        with pytest.raises(ValueError, match=f"{variable} = {bad!r}"):
            SweepSpec(base=SMALL, variable=variable, values=(good, bad), trials=1, seed=0)


# Two values per sweep variable, valid for SMALL (14 nodes, 5 destinations, M = 8).
SWEEP_AXES = {
    "bw": (0.5e6, 2e6),
    "packet_bits": (8192, 65536),
    "M": (3, 8),
    "pt": (0.05, 0.2),
    "p_idle": (0.3, 0.8),
    "n_dest": (3, 6),
    "n_nodes": (10, 16),
}
GEOMETRY_SWEPT = {"n_nodes", "n_dest"}
DRAWS_SWEPT = GEOMETRY_SWEPT | {"M"}


def package_trial(params, schemes, trees, seed):
    """(tree, scheme) -> (average throughput, PDR) of one seeded scenario."""
    avg, pdr = run_scenario_sessions(params, schemes, trees, seed)[2].averages()
    return {(tree, scheme): (avg[j, k], pdr[j, k]) for j, tree in enumerate(trees) for k, scheme in enumerate(schemes)}


def reference_trial(params, schemes, trees, seed):
    """package_trial through the reference engine."""
    sessions = ref.run_scenario_sessions(params, schemes, trees, seed)
    return {key: (result.avg_throughput, result.pdr) for key, (result, _) in sessions.items()}


def value_major_arrays(spec: SweepSpec, trial=package_trial):
    """The sweep without shared stages: every (value, trial) from scratch
    through trial, as run_sweep's (values, trees, schemes, trials) arrays of
    average throughput and PDR."""
    shape = (len(spec.values), len(spec.trees), len(spec.schemes), spec.trials)
    avg, pdr = np.empty(shape), np.empty(shape)
    for v, (_, params) in enumerate(spec.scenarios()):
        for i in range(spec.trials):
            sessions = trial(params, spec.schemes, spec.trees, spec.seed + i)
            for t, tree in enumerate(spec.trees):
                for s, scheme in enumerate(spec.schemes):
                    avg[v, t, s, i], pdr[v, t, s, i] = sessions[(tree, scheme)]
    return avg, pdr


def assert_same_csv(spec: SweepSpec, got, want):
    assert trials_to_csv(spec, *got) == trials_to_csv(spec, *want)
    assert aggregate_to_csv(aggregate_trials(spec, *got)) == aggregate_to_csv(aggregate_trials(spec, *want))


def count_calls(monkeypatch, name, *modules):
    """Replace `name` in each module with one wrapper that records the
    positional arguments of each call."""
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestSharedStages:
    @pytest.mark.parametrize("variable", list(SWEEP_AXES))
    def test_sweep_equals_value_major_loop_byte_for_byte(self, variable):
        spec = SweepSpec(base=SMALL, variable=variable, values=SWEEP_AXES[variable], trials=4, seed=13)
        assert_same_csv(spec, run_sweep(spec), value_major_arrays(spec))

    @pytest.mark.parametrize("variable", list(SWEEP_AXES))
    def test_topology_built_once_per_block_unless_geometry_swept(self, monkeypatch, variable):
        # 3 trials are one block, and one chunk at SMALL's node counts: each
        # place_stack call places every seed of the block, from its generator
        calls = count_calls(monkeypatch, "place_stack", experiment)
        run_sweep(SweepSpec(base=SMALL, variable=variable, values=SWEEP_AXES[variable], trials=3, seed=0))
        assert [len(rngs) for _, _, _, rngs in calls] == [3] * (2 if variable in GEOMETRY_SWEPT else 1)

    @pytest.mark.parametrize("variable", list(SWEEP_AXES))
    def test_raw_draws_taken_once_per_block_unless_channels_swept(self, monkeypatch, variable):
        # 3 trials are one block; each draw_raw call draws every tree of it
        calls = count_calls(monkeypatch, "draw_raw", session, experiment)
        run_sweep(SweepSpec(base=SMALL, variable=variable, values=SWEEP_AXES[variable], trials=3, seed=0))
        assert len(calls) == (2 if variable in DRAWS_SWEPT else 1)

    def test_each_swept_scenario_validated_once_per_spec(self, monkeypatch):
        # SweepSpec builds and checks every swept scenario; run_sweep reuses them
        calls = count_calls(monkeypatch, "validate", ScenarioParams)
        spec = SweepSpec(base=SMALL, variable="M", values=(3, 8, 5), trials=2, seed=0)
        assert len(calls) == 3
        run_sweep(spec)
        assert len(calls) == 3

    def test_raw_draws_keyed_on_mean_idle_durations(self):
        slots, words = experiment._block_stages(SMALL, [TreeKind.SPT, TreeKind.MST], [3, 4])
        base = session.draw_raw(slots, SMALL.mu_idle(), generators(words))
        other_m = session.draw_raw(slots, replace(SMALL, m_channels=3).mu_idle(), generators(words))
        other_mu = session.draw_raw(slots, replace(SMALL, mu_max_s=0.05).mu_idle(), generators(words))
        assert other_m[0].shape[1] == 3
        assert other_mu is not base and other_mu[0].shape == base[0].shape
        # the last tree, seed 4's MST, drawn alone gives the same numbers:
        # every (seed, tree kind) draws from its own stream
        alone, alone_words = experiment._block_stages(SMALL, [TreeKind.MST], [4])
        uniform, residual, gains, picks = session.draw_raw(alone, SMALL.mu_idle(), generators(alone_words))
        first = slots.tree_starts[3]
        assert np.array_equal(uniform, base[0][first:]) and np.array_equal(residual, base[1][first:])
        assert np.array_equal(gains, base[2][slots.starts[first]:]) and np.array_equal(picks, base[3][first:])


class TestSeedBlocks:
    @pytest.mark.parametrize("variable", list(SWEEP_AXES))
    def test_blocks_match_reference_engine_seed_by_seed(self, monkeypatch, variable):
        # Blocks of 3 over 7 trials: two full blocks and a partial one, each
        # judged as one stacked table of every (seed, tree kind): once for
        # all values of a p_idle, bw, pt or packet_bits sweep, which share
        # the block's draws, and once per value on every other axis. The
        # reference engine runs every seed on its own and shares no code
        # with judge.
        monkeypatch.setattr(experiment, "BLOCK_SEEDS", 3)
        tables = count_calls(monkeypatch, "_judge_block", experiment)
        spec = SweepSpec(base=SMALL, variable=variable, values=SWEEP_AXES[variable], trials=7, seed=21)
        got = run_sweep(spec)
        per_call = [1] * len(spec.values) if variable in DRAWS_SWEPT else [len(spec.values)]
        assert [len(scenarios) for scenarios, *_ in tables] == per_call * 3
        assert_same_csv(spec, got, value_major_arrays(spec, reference_trial))


class TestGroupedJudgement:
    @pytest.mark.parametrize("n_seeds", [1, 3, 33])
    def test_each_value_equals_its_judgement_alone(self, n_seeds):
        # Values sharing a block's link table are judged as extra columns,
        # value after value. Each value's columns must be what the value
        # judged alone gives, bit for bit, under every scheme; at p_idle 0.05
        # many events have no idle channel, so -1 columns sit beside chosen
        # ones in the one judgement.
        assert_grouped_equals_alone(SMALL, "p_idle", (0.05, 0.5, 0.95), n_seeds)

    @pytest.mark.parametrize("n_seeds", [1, 3, 33])
    @pytest.mark.parametrize(
        "variable, values",
        [("bw", (2e5, 1e6, 5e6)), ("pt", (1e-3, 0.1, 10.0)), ("packet_bits", (4096, 32768, 262144))],
        ids=["bw", "pt", "packet_bits"],
    )
    def test_each_radio_equals_its_judgement_alone(self, variable, values, n_seeds):
        # Values on different radios are judged together too, each on its
        # own layer of the one table: the same must hold, and each value's
        # layer must be the table it gets alone. At p_idle 0.2 many events
        # have no idle channel.
        assert_grouped_equals_alone(replace(SMALL, p_idle=0.2), variable, values, n_seeds)


def assert_grouped_equals_alone(base, variable, values, n_seeds):
    """Judge values of variable on a block of n_seeds seeds in one
    _judge_block call, and each value alone: every value's columns, and its
    radio's layer of the table, are bit for bit what it gets alone, under
    every scheme; the first value's columns hold both -1 and chosen
    channels, and no two values judge alike."""
    scenarios = [replace(base, **{experiment.SWEEP_VARIABLES[variable]: value}) for value in values]
    slots, words = experiment._block_stages(base, (TreeKind.SPT, TreeKind.MST), range(5, 5 + n_seeds))
    table, channels, grouped = judge_block(scenarios, slots, words)
    k = len(ALL_SCHEMES)
    radios = 1 if variable == "p_idle" else len(values)
    assert table.tx_time.shape[0] == radios and table.packet_bits.shape == (radios,)
    assert channels.shape == (len(slots.starts), len(values) * k)
    assert (channels[:, :k] == -1).any() and (channels[:, :k] >= 0).any()
    for v, params in enumerate(scenarios):
        alone_table, alone_channels, alone = judge_block([params], slots, words)
        radio = v if radios > 1 else 0
        for name in ("pos", "rate", "tx_time"):
            assert np.array_equal(getattr(table, name)[radio], getattr(alone_table, name)[0]), name
        assert np.array_equal(table.available_time, alone_table.available_time)
        assert table.packet_bits[radio] == alone_table.packet_bits[0]
        columns = slice(v * k, (v + 1) * k)
        assert np.array_equal(channels[:, columns], alone_channels)
        for name in ("air", "delivered", "throughput", "total"):
            assert np.array_equal(getattr(grouped, name)[..., columns], getattr(alone, name), equal_nan=True)
    assert len({grouped.air[:, v * k:(v + 1) * k].tobytes() for v in range(len(values))}) == len(values)


def test_tree_kinds_are_independent(monkeypatch):
    # A block stacks every (seed, tree kind), but each tree keeps its own
    # generators: reversing the tree kinds or running one alone leaves every
    # (tree, scheme)'s results and trials as they are.
    monkeypatch.setattr(experiment, "BLOCK_SEEDS", 2)
    spt, mst = (experiment._block_stages(SMALL, [tree], [6])[0] for tree in (TreeKind.SPT, TreeKind.MST))
    stacked = experiment._block_stages(SMALL, (TreeKind.SPT, TreeKind.MST), [6])[0]
    for name in ("transmitter", "receiver"):
        assert np.array_equal(getattr(stacked, name), np.concatenate([getattr(spt, name), getattr(mst, name)]))
    spec = SweepSpec(base=SMALL, variable="M", values=(3, 8), trials=5, seed=6)
    sessions = run_scenario_sessions(SMALL, ALL_SCHEMES, spec.trees, 6)
    avg, pdr = run_sweep(spec)
    agg = {(r.tree, r.scheme, r.value): r for r in aggregate_trials(spec, avg, pdr)}
    for trees in ((TreeKind.MST, TreeKind.SPT), (TreeKind.SPT,), (TreeKind.MST,)):
        got = run_scenario_sessions(SMALL, ALL_SCHEMES, trees, 6)
        assert len(got[0].slots.tree_starts) == len(trees) + 1
        for t, tree in enumerate(trees):
            for k in range(len(ALL_SCHEMES)):
                assert_same_session(session_arrays(got, t, k), session_arrays(sessions, spec.trees.index(tree), k))
        got_spec = replace(spec, trees=trees)
        got_avg, got_pdr = run_sweep(got_spec)
        columns = [spec.trees.index(tree) for tree in trees]
        assert np.array_equal(got_avg, avg[:, columns]) and np.array_equal(got_pdr, pdr[:, columns])
        got_agg = aggregate_trials(got_spec, got_avg, got_pdr)
        assert len(got_agg) == 2 * len(ALL_SCHEMES) * len(trees)
        assert all(row == agg[(row.tree, row.scheme, row.value)] for row in got_agg)


@pytest.mark.parametrize("trials", [1, 2, 9, 20])
def test_aggregate_equals_per_group_numpy_statistics(trials):
    # Each point's mean and CI are numpy's over its own list of trials: one
    # trial has CI 0 without a RuntimeWarning (an error under this suite's
    # settings), more take numpy's pairwise sums (8 at a time from 8 on),
    # whatever the arrays' memory order, and points come in value, tree,
    # scheme order.
    spec = SweepSpec(base=SMALL, variable="p_idle", values=(0.1, 0.5, 0.9), trials=trials, seed=0,
                     schemes=(Scheme.POS, Scheme.RS), trees=(TreeKind.SPT, TreeKind.MST))
    rng = np.random.default_rng(trials)
    shape = (len(spec.values), len(spec.trees), len(spec.schemes), trials)
    avg, pdr = rng.exponential(1e6, shape), rng.random(shape)
    agg = aggregate_trials(spec, avg, pdr)
    points = [(v, t, s) for v in spec.values for t in spec.trees for s in spec.schemes]
    assert [(a.value, a.tree, a.scheme) for a in agg] == points
    for a, avg_point, pdr_point in zip(agg, avg.reshape(-1, trials).tolist(), pdr.reshape(-1, trials).tolist()):
        for got, ci, values in (
            (a.mean_throughput_bps, a.ci95_throughput, avg_point), (a.mean_pdr, a.ci95_pdr, pdr_point),
        ):
            assert got == float(np.mean(values))
            assert ci == (1.96 * float(np.std(values, ddof=1)) / np.sqrt(trials) if trials > 1 else 0.0)
        assert a.trials == trials
    assert aggregate_trials(spec, np.asfortranarray(avg), np.asfortranarray(pdr)) == agg


class TestCsvRoundTrip:
    SPEC = SweepSpec(base=SMALL, variable="p_idle", values=(0.3, 0.7), trials=4, seed=5,
                     schemes=(Scheme.POS, Scheme.RS), trees=(TreeKind.SPT,))

    @pytest.fixture()
    def sweep_output(self):
        return run_sweep(self.SPEC)

    def test_aggregate_round_trip(self, tmp_path, sweep_output):
        trials_path, agg_path = write_sweep_csv(self.SPEC, *sweep_output, tmp_path)
        assert trials_path.read_text(encoding="utf-8") == trials_to_csv(self.SPEC, *sweep_output)
        assert read_aggregate_csv(agg_path) == aggregate_trials(self.SPEC, *sweep_output)

    def test_numpy_valued_sweep_writes_the_same_csv(self, tmp_path):
        # numpy floats repr as np.float64(0.1), which no reader parses
        values = np.linspace(0.1, 0.9, 3)
        spec = replace(self.SPEC, values=tuple(values), trials=2)
        paths = [
            write_sweep_csv(s, *run_sweep(s), tmp_path / name)
            for name, s in (("numpy", spec), ("python", replace(spec, values=tuple(values.tolist()))))
        ]
        for numpy_path, python_path in zip(*paths):
            assert numpy_path.read_bytes() == python_path.read_bytes()
        assert [row.value for row in read_aggregate_csv(paths[0][1])][::2] == [0.1, 0.5, 0.9]

    def test_byte_identical_across_runs(self, sweep_output):
        assert_same_csv(self.SPEC, run_sweep(self.SPEC), sweep_output)

    def test_malformed_header_rejected(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("nope\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_aggregate_csv(bad)

    def test_field_count_error_names_the_line(self, tmp_path, sweep_output):
        _, agg_path = write_sweep_csv(self.SPEC, *sweep_output, tmp_path)
        text = agg_path.read_text(encoding="utf-8").splitlines()
        text[3] = "spt,pos,p_idle"
        agg_path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 4"):
            read_aggregate_csv(agg_path)
