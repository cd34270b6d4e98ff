from dataclasses import replace

import numpy as np
import pytest

from crn_multicast.assignment import Scheme
from crn_multicast.example_case import builtin_fixture, check_fixture, run_fixture
from crn_multicast.experiment import ScenarioParams, run_scenario_sessions
from crn_multicast.phy import LinkBudgetError, link_arrays
from crn_multicast.session import TreeKind, link_metrics, session_to_csv, slot_index
from test_engine_equivalence import recorded_entries
from test_experiment import channel_sessions

PACKET_BITS = 32768


def per_dest(got, name, j=0, k=0):
    """Destination -> value of the judgement's (trees, D, S) array name, for
    tree j under column k of a result (table, channels, judgement)."""
    table, _, judged = got
    n_dest = judged.delivered.shape[1]
    return dict(zip(table.slots.destinations[j * n_dest:(j + 1) * n_dest], getattr(judged, name)[j, :, k].tolist()))


def pdr_of(got, j=0, k=0):
    return got[2].averages()[1][j, k].item()


def hop_fits(got, k=0):
    """Per entry under column k: whether judge let each receiver's hop
    succeed, its air time being a number (Judgement.air), all False where no
    channel was chosen."""
    table, _, judged = got
    bounds = np.append(table.slots.starts, len(table.slots.receiver))
    return [tuple((~np.isnan(judged.air[lo:hi, k])).tolist()) for lo, hi in zip(bounds, bounds[1:])]


# ------------------------------------------------------------ worked example

class TestWorkedExampleReplay:
    def test_selected_channels(self):
        _, channels, _ = run_fixture(builtin_fixture())
        assert channels[:, 0].tolist() == [4, 5, 3]  # CH5, CH6, CH4

    def test_per_destination_throughput(self):
        throughput = per_dest(run_fixture(builtin_fixture()), "throughput")
        assert throughput[6] == pytest.approx(PACKET_BITS / 0.0059)
        assert throughput[9] == pytest.approx(PACKET_BITS / 0.0051)
        assert throughput[10] == pytest.approx(PACKET_BITS / (0.0060 + 0.0057))
        assert throughput[7] == 0.0
        assert throughput[8] == 0.0

    def test_totals_and_pdr(self):
        _, _, judged = run_fixture(builtin_fixture())
        avg, pdr = judged.averages()
        assert judged.total[0, 0] == pytest.approx(14.779680e6, rel=1e-4)
        assert avg[0, 0] == pytest.approx(judged.total[0, 0] / 5)
        assert pdr[0, 0] == 0.6

    def test_relay_events_reported_even_after_upstream_failure(self):
        # node 8 misses the packet yet its own hop decision is still made
        got = run_fixture(builtin_fixture())
        table, channels, _ = got
        assert table.slots.transmitter.tolist() == [1, 2, 8]
        assert channels[2, 0] >= 0
        assert per_dest(got, "delivered")[7] is False

    def test_check_fixture_accepts_builtin(self):
        ok, _, payload = check_fixture(builtin_fixture())
        assert ok and payload["ok"]
        assert payload["selected_channels"] == [5, 6, 4]

    def test_check_fixture_flags_tampering(self):
        fixture = builtin_fixture()
        fixture["events"][0]["pos"]["2"][4] = 0.1  # kills the channel-5 minimum
        ok, lines, payload = check_fixture(fixture)
        assert not ok
        assert payload["mismatches"]

    def test_masa_on_injected_tables_picks_highest_availability(self):
        _, channels, _ = run_fixture(builtin_fixture(), scheme=Scheme.MASA)
        # availability grid rises with channel index, so the highest idle wins
        assert channels[:, 0].tolist() == [5, 5, 3]


# ------------------------------------------------------------ injected sessions

TWO_HOP = ((0, 1), (1, 2))


def injected(tx, receivers, pos_rows, tx_rows, avail):
    """One fixture event with every channel idle."""
    return {
        "transmitter": tx,
        "receivers": list(receivers),
        "idle_channels": list(range(1, len(avail) + 1)),
        "pos": {str(r): list(row) for r, row in zip(receivers, pos_rows)},
        "tx_time_s": {str(r): list(row) for r, row in zip(receivers, tx_rows)},
        "available_time_s": list(avail),
    }


def replay(edges, events, destinations):
    """run_fixture on a small fixture rooted at node 0."""
    fixture = {
        "mu_ms": [10.0 * (j + 1) for j in range(len(events[0]["available_time_s"]))],
        "packet_bits": PACKET_BITS,
        "root": 0,
        "tree_edges": [list(e) for e in edges],
        "destinations": sorted(destinations),
        "events": events,
    }
    return run_fixture(fixture)


class TestInjectedSession:
    def test_single_hop_success(self):
        ev = injected(0, [1], [[0.9, 0.8]], [[0.004, 0.006]], [0.005, 0.005])
        got = replay([(0, 1)], [ev], {1})
        assert pdr_of(got) == 1.0
        assert per_dest(got, "throughput")[1] == pytest.approx(PACKET_BITS / 0.004)

    def test_downstream_failure_zeroes_the_subtree(self):
        events = [
            injected(0, [1], [[0.9]], [[0.010]], [0.005]),  # hop 0->1 fails
            injected(1, [2], [[0.9]], [[0.001]], [0.005]),  # would succeed locally
        ]
        got = replay(TWO_HOP, events, {1, 2})
        assert per_dest(got, "delivered") == {1: False, 2: False}
        assert per_dest(got, "throughput") == {1: 0.0, 2: 0.0}
        assert pdr_of(got) == 0.0
        # both hops still judged with their own outcomes
        assert hop_fits(got) == [(False,), (True,)]

    def test_two_hop_throughput_sums_air_time(self):
        events = [
            injected(0, [1], [[0.9]], [[0.004]], [0.006]),
            injected(1, [2], [[0.9]], [[0.002]], [0.006]),
        ]
        got = replay(TWO_HOP, events, {2})
        assert pdr_of(got) == 1.0
        assert per_dest(got, "throughput")[2] == pytest.approx(PACKET_BITS / 0.006)

    def test_air_time_equal_to_availability_succeeds(self):
        ev = injected(0, [1], [[0.9]], [[0.005]], [0.005])
        assert hop_fits(replay([(0, 1)], [ev], {1})) == [(True,)]

    def test_receivers_aligned_to_the_schedule(self):
        # the event lists its receivers out of schedule order; each row
        # stays with its receiver, so only receiver 2 overruns
        ev = injected(0, [2, 1], [[0.9], [0.8]], [[0.009], [0.004]], [0.005])
        got = replay([(0, 1), (0, 2)], [ev], {1, 2})
        table, channels, _ = got
        assert table.slots.receiver.tolist() == [1, 2]
        assert table.tx_time[0, :, channels[0, 0]].tolist() == [0.004, 0.009]
        assert per_dest(got, "delivered") == {1: True, 2: False}

    def test_event_count_mismatch_rejected(self):
        ev = injected(0, [1], [[0.9]], [[0.004]], [0.006])
        with pytest.raises(ValueError, match="expected 2 events"):
            replay(TWO_HOP, [ev], {2})

    def test_event_alignment_checked(self):
        events = [
            injected(0, [2], [[0.9]], [[0.004]], [0.006]),  # wrong receiver
            injected(1, [2], [[0.9]], [[0.002]], [0.006]),
        ]
        with pytest.raises(ValueError, match="does not match"):
            replay(TWO_HOP, events, {2})

    def test_dimension_mismatch_rejected(self):
        ev = injected(0, [1], [[0.9, 0.8]], [[0.004]], [0.005, 0.005])
        with pytest.raises(ValueError):
            replay([(0, 1)], [ev], {1})

    def test_unpruned_tree_rejected(self):
        ev = injected(0, [1, 2], [[0.9, 0.8]] * 2, [[0.004, 0.006]] * 2, [0.005, 0.005])
        with pytest.raises(ValueError, match="stray nodes: \\[2\\]"):
            replay([(0, 1), (0, 2)], [ev], {1})  # leaf 2 is not a destination

    @pytest.mark.parametrize(
        "destinations, message",
        [
            ([2, 5], r"destinations not spanned by the tree: \[5\]"),
            ([], "destination set is empty"),
            ([0, 2], "the root cannot be one of its own destinations"),
        ],
        ids=["off_the_tree", "none", "root"],
    )
    def test_destinations_checked(self, destinations, message):
        events = [injected(0, [1], [[0.9]], [[0.004]], [0.006]), injected(1, [2], [[0.9]], [[0.002]], [0.006])]
        fixture = {"mu_ms": [10.0], "packet_bits": PACKET_BITS, "root": 0, "tree_edges": [list(e) for e in TWO_HOP],
                   "destinations": destinations, "events": events}
        with pytest.raises(ValueError, match=message):
            run_fixture(fixture)

    @pytest.mark.parametrize("shift", [-7, 10**12])
    def test_node_ids_need_not_be_small_or_positive(self, shift):
        # Node ids index the parent array only through their order, so a
        # negative or huge id replays like any other.
        fixture, moved = builtin_fixture(), builtin_fixture()
        moved["root"] += shift
        moved["tree_edges"] = [[u + shift, v + shift] for u, v in fixture["tree_edges"]]
        moved["destinations"] = [d + shift for d in fixture["destinations"]]
        for ev in moved["events"]:
            ev["transmitter"] += shift
            ev["receivers"] = [r + shift for r in ev["receivers"]]
            for table in ("pos", "tx_time_s"):
                ev[table] = {str(int(r) + shift): row for r, row in ev[table].items()}
        want, got = run_fixture(fixture), run_fixture(moved)
        assert per_dest(got, "throughput") == {k + shift: v for k, v in per_dest(want, "throughput").items()}
        for name in ("transmitter", "receiver"):
            assert (getattr(got[0].slots, name) == getattr(want[0].slots, name) + shift).all()
        assert np.array_equal(got[1], want[1])

    def test_busy_channel_with_nonzero_pos_rejected(self):
        fixture = builtin_fixture()
        fixture["events"][0]["pos"]["2"][1] = 0.5  # channel 2 is busy in the first event
        with pytest.raises(ValueError, match="busy channels must carry zero success probability"):
            run_fixture(fixture)

    def test_shape_mismatch_rejected(self):
        fixture = builtin_fixture()
        for ev in fixture["events"]:
            for row in ev["pos"].values():
                row.pop()  # five columns for six channels
        with pytest.raises(ValueError, match="receiver 2, pos must hold 6 numbers, one per channel, got 5"):
            run_fixture(fixture)


# ------------------------------------------------------------ sampled sessions

# One destination, so each pruned tree is a single path from the root.
SAMPLED = ScenarioParams(n_nodes=12, n_dest=1)


def sampled_params(p_idle=0.9, mu=0.050, m=6):
    """SAMPLED with m identical channels of mean availability mu."""
    return replace(SAMPLED, p_idle=p_idle, mu_min_s=mu, mu_max_s=mu, m_channels=m)


def sampled(params, seed, channels=None):
    """The pos session over the SPT of one seeded scenario, on its own
    channels or on channels, (mean idle durations, idle probabilities)."""
    if channels is None:
        return run_scenario_sessions(params, [Scheme.POS], [TreeKind.SPT], seed)
    return channel_sessions(params, [Scheme.POS], [TreeKind.SPT], seed, *channels)


class TestSampledSession:
    def test_all_channels_busy_delivers_nothing(self):
        got = sampled(sampled_params(), 0, (np.full(6, 0.05), np.full(6, 1e-12)))
        assert pdr_of(got) == 0.0
        assert got[2].total[0, 0] == 0.0
        assert (got[1] == -1).all()

    def test_abundant_availability_delivers_everything(self):
        got = sampled(sampled_params(), 0, (np.full(6, 1e6), np.ones(6)))
        assert pdr_of(got) == 1.0
        # One destination: the pruned tree is its path, one slot per hop.
        (throughput,) = per_dest(got, "throughput").values()
        assert throughput == pytest.approx(PACKET_BITS / sum(got[2].air[:-1, 0].tolist()))

    def test_success_is_exactly_airtime_within_availability(self):
        params = sampled_params(p_idle=0.7)
        for seed in range(60):
            table, channels, judged = sampled(params, seed)
            entry = table.slots.event
            ch = channels[entry, 0]
            fits = (ch >= 0) & (table.tx_time[0, np.arange(len(entry)), ch] <= table.available_time[entry, ch])
            assert np.array_equal(~np.isnan(judged.air[:-1, 0]), fits)

    def test_skipped_relay_transmits_nothing(self):
        params = sampled_params(p_idle=0.4, mu=0.004)
        saw_skip = False
        for seed in range(200):
            got = sampled(params, seed)
            if not any(hop_fits(got)[0]):
                saw_skip |= len(got[0].slots.starts) > 1
                assert recorded_entries(got, 0, 0) == [0]  # later layers never transmit
                assert pdr_of(got) == 0.0
        assert saw_skip

    def test_same_seed_same_result(self):
        params = sampled_params(p_idle=0.6)
        (_, channels_a, a), (_, channels_b, b) = sampled(params, 33), sampled(params, 33)
        assert np.array_equal(channels_a, channels_b)
        for name in ("air", "delivered", "throughput", "total"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)

    def test_delivered_count_matches_pdr(self):
        params = sampled_params(p_idle=0.6, mu=0.01)
        for seed in range(40):
            got = sampled(params, seed)
            delivered, throughput = per_dest(got, "delivered"), per_dest(got, "throughput")
            assert pdr_of(got) * len(delivered) == pytest.approx(sum(delivered.values()))
            for k, ok in delivered.items():
                assert (throughput[k] > 0) == ok


def test_infinite_rate_at_a_receiver_other_than_the_worst_is_rejected():
    # One entry, 0 -> 1 and 0 -> 2, on two channels: receiver 1's gain of
    # 1e308 on channel 0 overflows its rate under the default 0.1 W radio,
    # while receiver 2's gain of 1 keeps the entry's worst rate finite on
    # every channel, so only a check of every slot sees the overflow. The
    # 1e-30 W radio evaluated with it overflows nowhere.
    slots = slot_index(np.array([[-1, 0, 0]]), np.ones((1, 3)), np.array([[1, 2]]))
    gains, mu = np.array([[1e308, 1.0], [1.0, 1.0]]), np.full(2, 0.05)
    radios = [replace(SAMPLED, pt_watts=1e-30), SAMPLED]
    rate, _ = link_arrays(radios, slots.distances[:, None], gains)
    assert np.isfinite(rate[0]).all() and np.isinf(rate[1, 0, 0]) and np.isfinite(slots.worst(rate)).all()
    raw = (np.zeros((1, 2)), np.full((1, 2), 0.1), gains, np.zeros(1))
    with pytest.raises(LinkBudgetError, match=r"^pt_watts = 0\.1 against a noise power .* a data rate is not finite$"):
        link_metrics(radios, raw, mu, slots)
    # Without the overflowing radio the same draws make a table.
    assert np.isfinite(link_metrics(radios[:1], raw, mu, slots).rate).all()


# ------------------------------------------------------------ serialization

def fixture_csv_columns():
    """session_to_csv's arguments for the worked example, as numpy values."""
    table, _, judged = run_fixture(builtin_fixture())
    return table.slots.destinations, judged.delivered[0, :, 0], judged.throughput[0, :, 0], judged.total[0, 0]


def test_session_to_csv_layout():
    dests, delivered, throughput, total = fixture_csv_columns()
    text = session_to_csv(dests, delivered.tolist(), throughput.tolist(), total.item())
    lines = text.strip().split("\n")
    assert lines[0] == "dest,delivered,throughput_bps"
    assert len(lines) == 1 + 5 + 1
    assert lines[1].startswith("6,1,")
    assert lines[2] == "7,0,0.0"
    assert lines[-1].startswith("summary,0.6,")
    assert float(lines[-1].split(",")[2]) == pytest.approx(14.78e6, rel=1e-3)


def test_session_to_csv_writes_numpy_values_as_python_floats():
    # repr(np.float64(x)) is "np.float64(x)" under numpy 2, so every number
    # is written as the repr of a Python float, whatever it arrives as.
    dests, delivered, throughput, total = fixture_csv_columns()
    text = session_to_csv(dests, delivered, throughput, total)
    assert text == session_to_csv(dests, delivered.tolist(), throughput.tolist(), total.item())
    assert "np." not in text
