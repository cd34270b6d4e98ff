import re

import numpy as np
import pytest
from scipy import stats

from crn_multicast.channel import ChannelModel, make_channels
from crn_multicast.session import draw_raw, idle_flags, slot_index


def draw(model, rng, events, receivers=1):
    """The draws sessions take (session.draw_raw, thresholded at the model's
    idle probabilities by session.idle_flags) over one tree of `events`
    entries with `receivers` receivers each: (E, M) idle flags, (E, M)
    availability of the idle channels (NaN on busy ones, which no scheme
    chooses), (E * receivers, M) gains; the rs picks are left out. Node
    v > 0 is a receiver of entry (v - 1) // receivers, whose transmitter is
    the first receiver of the entry before (the root, 0, for entry 0)."""
    nodes = range(1, events * receivers + 1)
    parent = [-1, *(((v - 1) // receivers - 1) * receivers + 1 if v > receivers else 0 for v in nodes)]
    # Every node a destination, so pruning keeps the whole tree.
    slots = slot_index(np.array([parent]), np.ones((1, len(parent))), np.array([nodes]))
    raw = draw_raw(slots, model, [rng])
    idle = idle_flags(raw, model.p_idle)
    return idle, np.where(idle, raw[1], np.nan), raw[2]


class TestMakeChannels:
    def test_six_channel_grid(self):
        model = make_channels(6, 0.010, 0.060, 0.7)
        assert model.mu_idle == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05, 0.06], rel=1e-12)
        assert model.p_idle.tolist() == [0.7] * 6

    def test_single_channel_gets_mu_min(self):
        model = make_channels(1, 0.004, 0.060, 0.5)
        assert model.mu_idle.tolist() == [0.004]

    def test_twenty_channel_grid_is_arithmetic(self):
        model = make_channels(20, 0.002, 0.070, 0.5)
        mu = model.mu_idle
        assert mu[0] == 0.002 and mu[-1] == 0.070
        step = (0.070 - 0.002) / 19
        assert np.diff(mu) == pytest.approx(np.full(19, step), rel=1e-9)

    @pytest.mark.parametrize(
        "args",
        [
            (0, 0.01, 0.02, 0.5),
            (4, 0.0, 0.02, 0.5),
            (4, 0.03, 0.02, 0.5),
            (4, 0.01, 0.02, 0.0),
            (4, 0.01, 0.02, 1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, args):
        with pytest.raises(ValueError):
            make_channels(*args)


class TestChannelModel:
    @pytest.mark.parametrize(
        "mu, p_idle, message",
        [
            (float("nan"), 0.5, "channel 1: mu_idle must be finite and positive, got nan"),
            (float("inf"), 0.5, "mu_idle must be finite and positive, got inf"),
            (0.0, 0.5, "mu_idle must be finite and positive, got 0.0"),
            (-0.01, 0.5, "mu_idle must be finite and positive"),
            (0.05, 1.5, "channel 1: p_idle must lie in [0, 1], got 1.5"),
            (0.05, float("nan"), "p_idle must lie in [0, 1], got nan"),
            (0.05, -0.1, "p_idle must lie in [0, 1]"),
        ],
    )
    def test_invalid_channel_rejected_on_construction(self, mu, p_idle, message):
        # before: a NaN mu_idle gave pdr 0 under every scheme, and p_idle
        # 1.5 or NaN was accepted, when passed to run_scenario_sessions
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelModel([0.05, mu], [0.5, p_idle])

    @pytest.mark.parametrize(
        "mu, p_idle, message",
        [
            ([0.05, 0.06], [0.5], "mu_idle and p_idle must have one value per channel, got 2 and 1"),
            ([[0.05, 0.06]], [[0.5, 0.5]], "mu_idle and p_idle must be 1-D arrays, got shapes (1, 2) and (1, 2)"),
            (0.05, 0.5, "mu_idle and p_idle must be 1-D arrays, got shapes () and ()"),
            ([], [], "a channel model needs at least one channel"),
        ],
        ids=["lengths_differ", "two_d", "scalars", "no_channels"],
    )
    def test_bad_array_shapes_rejected(self, mu, p_idle, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelModel(mu, p_idle)

    @pytest.mark.parametrize("p_idle", [0.0, 1.0])
    def test_boundary_idle_probabilities_are_legal(self, p_idle):
        assert ChannelModel([0.05], [p_idle]).p_idle.tolist() == [p_idle]

    def test_arrays_are_copied_float_and_read_only(self):
        # draws are shared between models keyed on mu_idle.tobytes(), so a
        # model's arrays never change after construction
        mu = np.array([1, 2])
        model = ChannelModel(mu, [0.5, 0.5])
        mu[0] = 9
        assert model.mu_idle.dtype == np.float64 and model.mu_idle.tolist() == [1.0, 2.0]
        assert model.m == 2
        with pytest.raises(ValueError, match="read-only"):
            model.p_idle[0] = 0.1



class TestEventState:
    def test_boundary_p_idle_one_means_all_idle(self):
        model = ChannelModel(np.full(8, 0.05), np.ones(8))
        idle, available, _ = draw(model, np.random.default_rng(0), 50)
        assert idle.all()
        assert np.all(available > 0)

    def test_idle_frequency_matches_p_idle(self):
        model = make_channels(4, 0.01, 0.07, 0.5)
        idle, _, _ = draw(model, np.random.default_rng(42), 100_000)
        assert np.all(np.abs(idle.mean(axis=0) - 0.5) < 0.01)

    def test_available_time_mean(self):
        model = ChannelModel([0.050], [0.999])
        _, available, _ = draw(model, np.random.default_rng(7), 100_000)
        draws = available[:, 0][~np.isnan(available[:, 0])]
        assert abs(draws.mean() - 0.050) / 0.050 < 0.02

    def test_available_time_is_exponential(self):
        # KS statistic against Exponential(mu) under the asymptotic 1% critical value
        mu = 0.030
        model = ChannelModel([mu], [0.999])
        _, available, _ = draw(model, np.random.default_rng(11), 10_000)
        draws = available[:, 0][~np.isnan(available[:, 0])]
        stat = stats.kstest(draws, "expon", args=(0, mu)).statistic
        assert stat < 1.63 / np.sqrt(len(draws))

    def test_channels_sample_independently(self):
        model = make_channels(4, 0.01, 0.07, 0.5)
        idle, _, _ = draw(model, np.random.default_rng(3), 100_000)
        corr = np.corrcoef(idle.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.02)

    def test_busy_channels_have_no_available_time(self):
        model = make_channels(10, 0.01, 0.07, 0.3)
        idle, available, _ = draw(model, np.random.default_rng(5), 20)
        assert not idle.all() and idle.any()
        assert np.isnan(available[~idle]).all()
        assert not np.isnan(available[idle]).any()

    def test_same_seed_same_states(self):
        model = make_channels(6, 0.002, 0.07, 0.4)
        a = draw(model, np.random.default_rng(99), 3, receivers=2)
        b = draw(model, np.random.default_rng(99), 3, receivers=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestGain:
    MODEL = make_channels(1, 0.01, 0.01, 0.5)

    def test_mean_is_one(self):
        _, _, gains = draw(self.MODEL, np.random.default_rng(13), 1, receivers=100_000)
        assert abs(gains.mean() - 1.0) < 0.02

    def test_strictly_positive(self):
        _, _, gains = draw(self.MODEL, np.random.default_rng(17), 1, receivers=100_000)
        assert np.all(gains > 0.0)

    def test_same_seed_same_sequence(self):
        a = draw(self.MODEL, np.random.default_rng(23), 1, receivers=100)[2]
        b = draw(self.MODEL, np.random.default_rng(23), 1, receivers=100)[2]
        assert np.array_equal(a, b)
