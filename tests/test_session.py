from dataclasses import replace

import pytest

from crn_multicast.assignment import Scheme
from crn_multicast.channel import ChannelModel, ChannelParams
from crn_multicast.example_case import builtin_fixture, check_fixture, run_fixture
from crn_multicast import experiment
from crn_multicast.experiment import ScenarioParams, run_scenario_sessions
from crn_multicast.session import TreeKind, session_to_csv

PACKET_BITS = 32768


# ------------------------------------------------------------ worked example

class TestWorkedExampleReplay:
    def test_selected_channels(self):
        result = run_fixture(builtin_fixture())
        assert [h.chosen_channel for h in result.hops] == [4, 5, 3]  # CH5, CH6, CH4

    def test_per_destination_throughput(self):
        result = run_fixture(builtin_fixture())
        assert result.throughput[6] == pytest.approx(PACKET_BITS / 0.0059)
        assert result.throughput[9] == pytest.approx(PACKET_BITS / 0.0051)
        assert result.throughput[10] == pytest.approx(PACKET_BITS / (0.0060 + 0.0057))
        assert result.throughput[7] == 0.0
        assert result.throughput[8] == 0.0

    def test_totals_and_pdr(self):
        result = run_fixture(builtin_fixture())
        assert result.total_throughput == pytest.approx(14.779680e6, rel=1e-4)
        assert result.avg_throughput == pytest.approx(result.total_throughput / 5)
        assert result.pdr == 0.6

    def test_relay_events_reported_even_after_upstream_failure(self):
        # node 8 misses the packet yet its own hop decision is still recorded
        result = run_fixture(builtin_fixture())
        assert [h.transmitter for h in result.hops] == [1, 2, 8]
        assert result.delivered[7] is False

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
        result = run_fixture(builtin_fixture(), scheme=Scheme.MASA)
        # availability grid rises with channel index, so the highest idle wins
        assert [h.chosen_channel for h in result.hops] == [5, 5, 3]


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
        result = replay([(0, 1)], [ev], {1})
        assert result.pdr == 1.0
        assert result.throughput[1] == pytest.approx(PACKET_BITS / 0.004)

    def test_downstream_failure_zeroes_the_subtree(self):
        events = [
            injected(0, [1], [[0.9]], [[0.010]], [0.005]),  # hop 0->1 fails
            injected(1, [2], [[0.9]], [[0.001]], [0.005]),  # would succeed locally
        ]
        result = replay(TWO_HOP, events, {1, 2})
        assert result.delivered == {1: False, 2: False}
        assert result.throughput == {1: 0.0, 2: 0.0}
        assert result.pdr == 0.0
        # both hops still recorded with their own outcomes
        assert [h.success for h in result.hops] == [(False,), (True,)]

    def test_two_hop_throughput_sums_air_time(self):
        events = [
            injected(0, [1], [[0.9]], [[0.004]], [0.006]),
            injected(1, [2], [[0.9]], [[0.002]], [0.006]),
        ]
        result = replay(TWO_HOP, events, {2})
        assert result.pdr == 1.0
        assert result.throughput[2] == pytest.approx(PACKET_BITS / 0.006)

    def test_air_time_equal_to_availability_succeeds(self):
        ev = injected(0, [1], [[0.9]], [[0.005]], [0.005])
        result = replay([(0, 1)], [ev], {1})
        assert result.hops[0].success == (True,)

    def test_receivers_aligned_to_the_schedule(self):
        # the event lists its receivers out of schedule order; each row
        # stays with its receiver, so only receiver 2 overruns
        ev = injected(0, [2, 1], [[0.9], [0.8]], [[0.009], [0.004]], [0.005])
        result = replay([(0, 1), (0, 2)], [ev], {1, 2})
        assert result.hops[0].receivers == (1, 2)
        assert result.hops[0].tx_time == (0.004, 0.009)
        assert result.delivered == {1: True, 2: False}

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
        assert got.throughput == {k + shift: v for k, v in want.throughput.items()}
        assert [(h.transmitter, h.receivers) for h in got.hops] == [
            (h.transmitter + shift, tuple(r + shift for r in h.receivers)) for h in want.hops
        ]

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
        with pytest.raises(ValueError, match=r"pos must have shape \(6, 6\)"):
            run_fixture(fixture)


# ------------------------------------------------------------ sampled sessions

# One destination, so each pruned tree is a single path from the root.
SAMPLED = ScenarioParams(n_nodes=12, n_dest=1)


def sampled_params(p_idle=0.9, mu=0.050, m=6):
    """SAMPLED with m identical channels of mean availability mu."""
    return replace(SAMPLED, p_idle=p_idle, mu_min_s=mu, mu_max_s=mu, m_channels=m)


def sampled(params, seed, channel_model=None):
    """The pos session over the SPT of one seeded scenario."""
    sessions = run_scenario_sessions(params, [Scheme.POS], [TreeKind.SPT], seed, channel_model)
    return sessions[(TreeKind.SPT, Scheme.POS)]


class TestSampledSession:
    def test_all_channels_busy_delivers_nothing(self):
        model = ChannelModel(tuple(ChannelParams(0.05, 1e-12) for _ in range(6)))
        result = sampled(sampled_params(), 0, model)
        assert result.pdr == 0.0
        assert result.total_throughput == 0.0
        assert all(h.chosen_channel is None for h in result.hops)

    def test_abundant_availability_delivers_everything(self):
        model = ChannelModel(tuple(ChannelParams(1e6, 1.0) for _ in range(6)))
        result = sampled(sampled_params(), 0, model)
        assert result.pdr == 1.0
        hop_times = [h.tx_time[0] for h in result.hops]
        (dest,) = result.throughput
        assert result.throughput[dest] == pytest.approx(PACKET_BITS / sum(hop_times))

    def test_success_is_exactly_airtime_within_availability(self):
        params = sampled_params(p_idle=0.7)
        for seed in range(60):
            result = sampled(params, seed)
            for hop in result.hops:
                if hop.chosen_channel is None:
                    assert not any(hop.success)
                else:
                    for t, ok in zip(hop.tx_time, hop.success):
                        assert ok == (t <= hop.available_time)

    def test_skipped_relay_transmits_nothing(self):
        params = sampled_params(p_idle=0.4, mu=0.004)
        saw_skip = False
        for seed in range(200):
            slots = experiment._block_stages(params, [TreeKind.SPT], [seed]).slots
            result = sampled(params, seed)
            first = result.hops[0] if result.hops else None
            if first is not None and not any(first.success):
                saw_skip |= len(slots.starts) > 1
                assert len(result.hops) == 1  # later layers never transmit
                assert result.pdr == 0.0
        assert saw_skip

    def test_control_trace_shape(self):
        params = replace(sampled_params(), n_dest=4)
        slots = experiment._block_stages(params, [TreeKind.SPT], [1]).slots
        # Each entry's transmitter and receivers, from the slot index's node ids.
        bounds = [*slots.starts.tolist(), len(slots.receiver)]
        receivers = [slots.receiver[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]
        entries = list(zip(slots.transmitter.tolist(), receivers))
        assert any(len(rs) > 1 for _, rs in entries)  # a branching tree, not a path
        model = ChannelModel(tuple(ChannelParams(1e6, 1.0) for _ in range(4)))
        result = sampled(params, 1, model)
        expected = []
        for tx, rs in entries:
            expected += [("MA", tx, r) for r in rs]
            expected += [("ACK", r, tx) for r in rs]
        assert list(result.control_trace) == expected

    def test_same_seed_same_result(self):
        params = sampled_params(p_idle=0.6)
        a, b = sampled(params, 33), sampled(params, 33)
        assert a == b
        assert a.hops == b.hops

    def test_delivered_count_matches_pdr(self):
        params = sampled_params(p_idle=0.6, mu=0.01)
        for seed in range(40):
            result = sampled(params, seed)
            n = len(result.delivered)
            assert result.pdr * n == pytest.approx(sum(result.delivered.values()))
            for k, ok in result.delivered.items():
                assert (result.throughput[k] > 0) == ok


# ------------------------------------------------------------ serialization

def test_session_to_csv_layout():
    result = run_fixture(builtin_fixture())
    text = session_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "dest,delivered,throughput_bps"
    assert len(lines) == 1 + 5 + 1
    assert lines[1].startswith("6,1,")
    assert lines[2] == "7,0,0.0"
    assert lines[-1].startswith("summary,0.6,")
    assert float(lines[-1].split(",")[2]) == pytest.approx(14.78e6, rel=1e-3)
