import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from crn_multicast import experiment
from crn_multicast.assignment import Scheme, choose_channels
from crn_multicast.experiment import ScenarioParams
from crn_multicast.seeding import generators
from crn_multicast.session import EventTable, TreeKind, draw_raw, idle_flags, link_metrics, slot_index

MU_S = np.array([0.010, 0.020, 0.030, 0.040, 0.050, 0.060])


def metrics_from_pos(pos_rows, busy, mu=MU_S, packet_bits=32768):
    """One-event, one-radio EventTable built from a success-probability
    table (one row per receiver) plus a busy set (channels 1-based), with
    air times and rates consistent with the table, pos and rate reduced to
    the worst receiver as a table's builders do (SlotIndex.worst), and its
    (1, M) idle flags."""
    pos = np.array(pos_rows, dtype=float)
    m = pos.shape[1]
    idle = np.ones(m, dtype=bool)
    idle[[b - 1 for b in busy]] = False
    pos[:, ~idle] = 0.0
    with np.errstate(divide="ignore"):
        tx = np.where(pos > 0.0, -mu[None, :] * np.log(np.maximum(pos, 1e-300)), np.inf)
    with np.errstate(divide="ignore"):
        rate = np.where(np.isfinite(tx), packet_bits / tx, 0.0)
    # one transmitter, node 0, with a receiver per row, at unit distance
    parent = np.array([[-1] + [0] * len(pos)])
    slots = slot_index(parent, np.ones(parent.shape), np.array([range(1, len(pos) + 1)]))
    table = EventTable(
        slots, np.where(idle, mu, np.nan)[None, :], slots.worst(pos[None]), slots.worst(rate[None]), tx[None], mu,
        np.array([packet_bits], float),
    )
    return table, idle[None, :]


def select_channel(scheme, metrics, rng=None) -> int:
    """Channel the session engine picks for a one-event (table, idle flags)
    pair; -1 when none is idle. rs takes its pick uniform from one rng call,
    and without an rng has no picks."""
    table, idle = metrics
    picks = None if rng is None else rng.random(1)
    return int(choose_channels(scheme, replace(table, picks=picks), idle[None])[0, 0])


def group_table():
    # one transmitter, receivers 6, 8, 9 and 2, busy channels 2 and 3;
    # column minima over idle channels: 0.2903, 0.7716, 0.8869, 0.796
    return metrics_from_pos(
        [
            [0.534, 0, 0, 0.7716, 0.8895, 0.9073],
            [0.2903, 0, 0, 0.8222, 0.89, 0.8691],
            [0.6563, 0, 0, 0.9207, 0.9037, 0.936],
            [0.6658, 0, 0, 0.9071, 0.8869, 0.796],
        ],
        busy=(2, 3),
    )


def unicast_relay_table():
    return metrics_from_pos([[0, 0, 0.842, 0.8048, 0.7958, 0.91]], busy=(1, 2))  # receiver 10


def unicast_leaf_table():
    return metrics_from_pos([[0.1939, 0, 0.768, 0.8093, 0, 0]], busy=(2, 5, 6))  # receiver 7


class TestMaxMinSelection:
    def test_group_event_picks_best_worst_receiver(self):
        table, idle = group_table()
        assert select_channel(Scheme.POS, (table, idle)) == 4  # channel 5, 1-based
        assert table.pos[0, 0, 4] == 0.8869

    def test_unicast_through_relay(self):
        table, idle = unicast_relay_table()
        assert select_channel(Scheme.POS, (table, idle)) == 5  # channel 6
        assert table.pos[0, 0, 5] == 0.91

    def test_unicast_leaf_hop(self):
        table, idle = unicast_leaf_table()
        assert select_channel(Scheme.POS, (table, idle)) == 3  # channel 4
        assert table.pos[0, 0, 3] == 0.8093

    def test_perturbed_column_moves_the_choice(self):
        # Dropping one channel-5 entry below every other column minimum makes
        # channel 6 (min 0.796) the new max-min winner; recomputed by hand.
        rows = [
            [0.534, 0, 0, 0.7716, 0.8895, 0.9073],
            [0.2903, 0, 0, 0.8222, 0.89, 0.8691],
            [0.6563, 0, 0, 0.9207, 0.9037, 0.936],
            [0.6658, 0, 0, 0.9071, 0.70, 0.796],
        ]
        assert select_channel(Scheme.POS, metrics_from_pos(rows, busy=(2, 3))) == 5
        # Dropping the channel-6 entry of the same row as well leaves channel 4
        # (min 0.7716) as the winner: minima become 0.2903, 0.7716, 0.70, 0.60.
        rows[3] = [0.6658, 0, 0, 0.9071, 0.70, 0.60]
        assert select_channel(Scheme.POS, metrics_from_pos(rows, busy=(2, 3))) == 3

    def test_single_receiver_increasing_pos_picks_last_idle(self):
        rows = [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]]
        assert select_channel(Scheme.POS, metrics_from_pos(rows, busy=())) == 5

    def test_scaling_every_pos_value_keeps_the_choice(self):
        base, idle = group_table()
        for c in (0.1, 0.5, 0.9):
            scaled = replace(base, pos=base.pos * c), idle
            assert select_channel(Scheme.POS, scaled) == select_channel(Scheme.POS, (base, idle))


class TestOtherSchemes:
    def test_masa_picks_largest_availability(self):
        assert select_channel(Scheme.MASA, group_table()) == 5  # 60 ms channel, busy ones excluded

    def test_masa_skips_busy_high_availability(self):
        metrics = metrics_from_pos([[0.5, 0.5, 0.5, 0.5, 0.5, 0.0]], busy=(6,))
        assert select_channel(Scheme.MASA, metrics) == 4

    def test_mdr_picks_largest_worst_rate(self):
        # The worst rate over the group's receivers on each idle channel, from
        # their air times on their own.
        table, flags = group_table()
        idle = np.flatnonzero(flags[0])
        expected = idle[int(np.argmax((32768 / table.tx_time[0][:, idle]).min(axis=0)))]
        assert select_channel(Scheme.MDR, (table, flags)) == expected

    def test_mdr_scaling_invariance(self):
        base, idle = group_table()
        scaled = replace(base, rate=base.rate * 3.5), idle
        assert select_channel(Scheme.MDR, scaled) == select_channel(Scheme.MDR, (base, idle))

    def test_rs_is_uniform_over_idle_channels(self):
        flags = group_table()[1]  # 4 idle channels
        rng = np.random.default_rng(12345)
        n = 100_000
        # n copies of the event in one call; rs reads only the idle flags and the picks.
        chosen = rs_channels(np.repeat(flags, n, axis=0), rng.random(n))
        counts = np.bincount(chosen, minlength=6)
        idle = np.flatnonzero(flags[0])
        assert counts[~flags[0]].sum() == 0
        freqs = counts[idle] / n
        assert np.all(np.abs(freqs - 0.25) < 0.01)
        chi2 = stats.chisquare(counts[idle]).pvalue
        assert chi2 > 1e-3

    def test_rs_deterministic_given_seed(self):
        metrics = group_table()
        a = [select_channel(Scheme.RS, metrics, np.random.default_rng(5)) for _ in range(1)]
        b = [select_channel(Scheme.RS, metrics, np.random.default_rng(5)) for _ in range(1)]
        assert a == b

    def test_rs_without_rng_rejected(self):
        with pytest.raises(ValueError):
            select_channel(Scheme.RS, group_table())


class TestEdgeCases:
    def test_single_idle_channel_forces_the_choice(self):
        rows = [[0, 0, 0, 0, 0.42, 0]]
        metrics = metrics_from_pos(rows, busy=(1, 2, 3, 4, 6))
        rng = np.random.default_rng(0)
        for scheme in Scheme:
            assert select_channel(scheme, metrics, rng) == 4

    def test_no_idle_channel_yields_no_decision(self):
        rows = [[0, 0, 0, 0, 0, 0]]
        metrics = metrics_from_pos(rows, busy=(1, 2, 3, 4, 5, 6))
        for scheme in Scheme:
            assert select_channel(scheme, metrics, np.random.default_rng(0)) == -1

    def test_pos_tie_breaks_to_lowest_channel(self):
        rows = [[0.7, 0.7, 0.3, 0, 0, 0]]
        metrics = metrics_from_pos(rows, busy=(4, 5, 6))
        assert select_channel(Scheme.POS, metrics) == 0


@st.composite
def random_metrics(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=8))
    pos = draw(
        st.lists(
            st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=m, max_size=m),
            min_size=r,
            max_size=r,
        )
    )
    idle = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    mu = np.linspace(0.002, 0.070, m)
    busy = tuple(j + 1 for j, up in enumerate(idle) if not up)
    return metrics_from_pos(pos, busy=busy, mu=mu), np.array(pos)


@settings(max_examples=200, deadline=None)
@given(random_metrics(), st.sampled_from(list(Scheme)), st.integers(min_value=0, max_value=2**31))
def test_chosen_channel_is_always_idle(case, scheme, seed):
    metrics, _ = case
    channel = select_channel(scheme, metrics, np.random.default_rng(seed))
    idle = metrics[1][0]
    if channel == -1:
        assert not idle.any()
    else:
        assert idle[channel]


@settings(max_examples=200, deadline=None)
@given(random_metrics())
def test_pos_choice_dominates_every_idle_column_minimum(case):
    # Column minima of the receivers' own pos rows, not of the table.
    metrics, pos = case
    channel = select_channel(Scheme.POS, metrics)
    if channel == -1:
        return
    idle = metrics[1]
    for j in np.flatnonzero(idle[0]):
        assert pos[:, channel].min() >= pos[:, j].min()


@pytest.fixture(scope="module")
def oracle_block():
    """64 seeds' SPT and MST slots at M = 6, about 2400 entries, and their
    raw draws, which every idle probability shares."""
    params = ScenarioParams(m_channels=6)
    slots, words = experiment._block_stages(params, (TreeKind.SPT, TreeKind.MST), range(64))
    return slots, draw_raw(slots, params.mu_idle(), generators(words))


@pytest.mark.parametrize("p_idle", [0.1, 0.5, 0.9])
def test_masa_and_rs_choice_frequencies_match_the_model(oracle_block, p_idle):
    # Model-level oracle: masa and rs ignore gains, and each entry's channels
    # are idle independently with probability p, so over the sampled
    # entries, within 5 standard errors of a binomial frequency:
    #   masa picks channel j with probability p (1 - p)^k, k the number of
    #   channels with a larger mean availability;
    #   rs picks each channel with probability (1 - (1 - p)^M) / M;
    #   no channel is idle with probability (1 - p)^M.
    params = ScenarioParams(m_channels=6, p_idle=p_idle)
    mu_idle = params.mu_idle()
    slots, raw = oracle_block
    table, idle = link_metrics([params], raw, mu_idle, slots), idle_flags(raw, np.full(len(mu_idle), p_idle))
    picks = {
        Scheme.MASA: choose_channels(Scheme.MASA, table, idle[None])[0],
        Scheme.RS: choose_channels(Scheme.RS, table, idle[None])[0],
    }
    m, q, n = len(mu_idle), 1.0 - p_idle, len(idle)
    larger = (mu_idle[None, :] > mu_idle[:, None]).sum(axis=1)
    expected = {Scheme.MASA: p_idle * q ** larger, Scheme.RS: np.full(m, (1.0 - q ** m) / m)}

    def z(count, prob):
        return (count / n - prob) / np.sqrt(prob * (1.0 - prob) / n)

    assert np.abs(z(np.count_nonzero(~idle.any(axis=1)), q ** m)) <= 5.0
    for scheme, chosen in picks.items():
        assert np.array_equal(chosen == -1, ~idle.any(axis=1))
        counts = np.bincount(chosen[chosen >= 0], minlength=m)
        assert np.abs(z(counts, expected[scheme])).max() <= 5.0, scheme


@pytest.mark.parametrize("sets", [1, 2])
def test_every_scheme_gives_one_row_of_channels_per_set(sets):
    # One seed's SPT and MST on one radio: every scheme gives the (sets,
    # events) channels of the (sets, events, channels) flags.
    params = ScenarioParams(n_nodes=20, n_dest=5, m_channels=6)
    slots, words = experiment._block_stages(params, (TreeKind.SPT, TreeKind.MST), [3])
    raw = draw_raw(slots, params.mu_idle(), generators(words))
    table = link_metrics([params], raw, params.mu_idle(), slots)
    idle = idle_flags(raw, np.linspace(0.3, 0.7, sets)[:, None])
    assert idle.shape == (sets, len(slots.starts), 6)
    for scheme in Scheme:
        assert choose_channels(scheme, table, idle).shape == (sets, len(slots.starts)), scheme


def rs_table(picks, m) -> EventTable:
    """An EventTable of len(picks) one-hop trees 0 -> 1 over m channels, one
    entry each, holding the rs pick uniforms picks; rs reads nothing else
    of it."""
    e = len(picks)
    slots = slot_index(np.tile([-1, 0], (e, 1)), np.ones((e, 2)), np.ones((e, 1), dtype=np.intp))
    zeros = np.zeros((1, e, m))
    return EventTable(
        slots, zeros[0] + 0.01, zeros, zeros, zeros + np.inf, np.full(m, 0.01), np.ones(1), np.array(picks, dtype=float)
    )


def rs_channels(idle, picks) -> np.ndarray:
    """rs's (E,) channels under one (E, M) set of idle flags, on a table of
    E entries with rs pick uniforms picks (rs_table)."""
    idle = np.array(idle, dtype=bool)
    return choose_channels(Scheme.RS, rs_table(picks, idle.shape[-1]), idle[None])[0]


class TestRandomPickBoundaries:
    def test_pick_selects_the_floor_indexed_idle_channel(self):
        # For n up to 8 idle channels, k / n * n is exactly k, so pick k / n
        # is the (k+1)-th idle channel, 0 the first, and the largest float
        # below 1 the last.
        for n in range(1, 9):
            idle = np.zeros(2 * n + 1, dtype=bool)
            idle[1::2] = True  # channels 1, 3, ..., 2n - 1 idle
            picks = [k / n for k in range(n)] + [np.nextafter(1.0, 0.0)]
            chosen = rs_channels([idle] * len(picks), picks)
            assert chosen.tolist() == [2 * k + 1 for k in range(n)] + [2 * n - 1], n

    def test_every_channel_busy_gives_no_channel(self):
        picks = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        assert rs_channels([[True, False, True], [False, False, False], [False, True, False]], picks).tolist() == [0, -1, 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(st.tuples(
    st.lists(st.booleans(), min_size=m, max_size=m),
    st.one_of(st.just(0.0), st.just(float(np.nextafter(1.0, 0.0))), st.floats(0.0, 1.0, exclude_max=True)),
), min_size=1, max_size=6)))
def test_random_pick_is_always_an_idle_channel(entries):
    idle, picks = zip(*entries)
    chosen = rs_channels(idle, picks)
    for row, u, channel in zip(idle, picks, chosen.tolist()):
        options = np.flatnonzero(row)
        if not options.size:
            assert channel == -1
        else:
            assert row[channel] and channel == options[math.floor(u * options.size)]


@st.composite
def rs_cases(draw):
    """Idle flags, (sets, events, M), and one pick per event, the largest
    float below 1 among them."""
    m = draw(st.integers(min_value=1, max_value=40))
    events = draw(st.integers(min_value=1, max_value=5))
    shape = (draw(st.integers(min_value=1, max_value=3)), events, m)
    flags = draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)))
    pick = st.floats(min_value=0.0, max_value=1.0, exclude_max=True) | st.just(np.nextafter(1.0, 0.0))
    return np.array(flags, dtype=bool).reshape(shape), np.array(draw(st.lists(pick, min_size=events, max_size=events)))


@settings(max_examples=300, deadline=None)
@given(rs_cases())
def test_rs_takes_the_idle_channel_with_k_idle_channels_before_it(case):
    # k = floor(pick * n_idle): the chosen channel is idle and exactly k idle
    # channels come before it; without an idle channel there is no choice.
    idle, picks = case
    chosen = choose_channels(Scheme.RS, rs_table(picks, idle.shape[-1]), idle)
    assert chosen.shape == idle.shape[:-1]
    for index in np.ndindex(chosen.shape):
        flags, channel = idle[index], chosen[index]
        n_idle = int(flags.sum())
        if n_idle == 0:
            assert channel == -1
        else:
            assert flags[channel]
            assert flags[:channel].sum() == math.floor(picks[index[-1]] * n_idle)


def masa_by_argmax(mu, idle) -> np.ndarray:
    """masa's channels by the largest idle mean of each row, the first on a
    tie, -1 for a row with no idle channel."""
    best = np.where(idle, mu, -np.inf).argmax(axis=-1)
    return np.where(idle.any(axis=-1), best, -1)


@st.composite
def masa_cases(draw):
    """Means over M channels drawn from three values, so ties are common, and
    (sets, events, M) idle flags for one or two sets."""
    m = draw(st.integers(min_value=1, max_value=12))
    shape = (draw(st.integers(min_value=1, max_value=2)), draw(st.integers(min_value=1, max_value=6)), m)
    mu = draw(st.lists(st.sampled_from([0.004, 0.03, 0.07]), min_size=m, max_size=m))
    flags = draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(mu), np.array(flags, dtype=bool).reshape(shape)


def busy_to_idle_rows(mu, sets):
    """mu with (sets, 40, M) idle flags in rows at idle probabilities from 0
    (every channel busy) to 1 (every channel idle)."""
    p = np.repeat(np.linspace(0.0, 1.0, 8), 5)
    idle = np.random.default_rng(len(mu)).random((sets, 40, len(mu))) < p[:, None]
    assert not idle[:, :5].any() and idle[:, -5:].all()
    return mu, idle


# Fixed cases beside the drawn ones: channel means rising, falling, all equal,
# one channel and the README's 20, each from all-busy to all-idle rows.
@example(busy_to_idle_rows(MU_S, 1))
@example(busy_to_idle_rows(MU_S[::-1], 2))
@example(busy_to_idle_rows(np.full(6, 0.02), 1))
@example(busy_to_idle_rows(np.array([0.03]), 2))
@example(busy_to_idle_rows(ScenarioParams(m_channels=20).mu_idle(), 2))
@settings(max_examples=300, deadline=None)
@given(masa_cases())
def test_masa_order_matches_the_argmax_rule(case):
    mu, idle = case
    chosen = choose_channels(Scheme.MASA, SimpleNamespace(mu_idle=mu), idle)
    assert np.array_equal(chosen, masa_by_argmax(mu, idle))
