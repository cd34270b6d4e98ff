import numpy as np
import pytest
from scipy import stats

from crn_multicast.experiment import ScenarioParams
from crn_multicast.session import draw_raw, idle_flags, slot_index

GRID_4 = np.linspace(0.01, 0.07, 4)


def draw(mu_idle, p_idle, rng, events, receivers=1):
    """The draws sessions take (session.draw_raw over mean idle durations
    mu_idle, thresholded at idle probabilities p_idle by session.idle_flags,
    both (M,) arrays) over one tree of `events` entries with `receivers`
    receivers each: (E, M) idle flags, (E, M) availability of the idle
    channels (NaN on busy ones, which no scheme chooses), (E * receivers, M)
    gains; the rs picks are left out. Node v > 0 is a receiver of entry
    (v - 1) // receivers, whose transmitter is the first receiver of the
    entry before (the root, 0, for entry 0)."""
    nodes = range(1, events * receivers + 1)
    parent = [-1, *(((v - 1) // receivers - 1) * receivers + 1 if v > receivers else 0 for v in nodes)]
    # Every node a destination, so pruning keeps the whole tree.
    slots = slot_index(np.array([parent]), np.ones((1, len(parent))), np.array([nodes]))
    raw = draw_raw(slots, np.asarray(mu_idle, dtype=float), [rng])
    idle = idle_flags(raw, np.asarray(p_idle, dtype=float))
    return idle, np.where(idle, raw[1], np.nan), raw[2]


class TestMuIdle:
    def test_six_channel_grid(self):
        mu = ScenarioParams(m_channels=6, mu_min_s=0.010, mu_max_s=0.060).mu_idle()
        assert mu == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05, 0.06], rel=1e-12)

    def test_single_channel_gets_mu_min(self):
        mu = ScenarioParams(m_channels=1, mu_min_s=0.004, mu_max_s=0.060).mu_idle()
        assert mu.tolist() == [0.004]

    def test_twenty_channel_grid_is_arithmetic(self):
        mu = ScenarioParams(m_channels=20, mu_min_s=0.002, mu_max_s=0.070).mu_idle()
        assert mu[0] == 0.002 and mu[-1] == 0.070
        step = (0.070 - 0.002) / 19
        assert np.diff(mu) == pytest.approx(np.full(19, step), rel=1e-9)

    @pytest.mark.parametrize(
        "args",
        [
            (0, 0.01, 0.02, 0.5, "m_channels must be at least 1"),
            (4, 0.0, 0.02, 0.5, "mu_min_s must be strictly positive"),
            (4, 0.03, 0.02, 0.5, "mu_min_s must not exceed mu_max_s"),
            (4, 0.01, 0.02, 0.0, "p_idle must lie strictly between 0 and 1"),
            (4, 0.01, 0.02, 1.0, "p_idle must lie strictly between 0 and 1"),
        ],
    )
    def test_invalid_channels_rejected(self, args):
        m, mu_min, mu_max, p_idle, message = args
        with pytest.raises(ValueError, match=message):
            ScenarioParams(m_channels=m, mu_min_s=mu_min, mu_max_s=mu_max, p_idle=p_idle)


class TestEventState:
    def test_boundary_p_idle_one_means_all_idle(self):
        idle, available, _ = draw(np.full(8, 0.05), np.ones(8), np.random.default_rng(0), 50)
        assert idle.all()
        assert np.all(available > 0)

    def test_idle_frequency_matches_p_idle(self):
        idle, _, _ = draw(GRID_4, np.full(4, 0.5), np.random.default_rng(42), 100_000)
        assert np.all(np.abs(idle.mean(axis=0) - 0.5) < 0.01)

    def test_available_time_mean(self):
        _, available, _ = draw([0.050], [0.999], np.random.default_rng(7), 100_000)
        draws = available[:, 0][~np.isnan(available[:, 0])]
        assert abs(draws.mean() - 0.050) / 0.050 < 0.02

    def test_available_time_is_exponential(self):
        # KS statistic against Exponential(mu) under the asymptotic 1% critical value
        mu = 0.030
        _, available, _ = draw([mu], [0.999], np.random.default_rng(11), 10_000)
        draws = available[:, 0][~np.isnan(available[:, 0])]
        stat = stats.kstest(draws, "expon", args=(0, mu)).statistic
        assert stat < 1.63 / np.sqrt(len(draws))

    def test_channels_sample_independently(self):
        idle, _, _ = draw(GRID_4, np.full(4, 0.5), np.random.default_rng(3), 100_000)
        corr = np.corrcoef(idle.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.02)

    def test_busy_channels_have_no_available_time(self):
        idle, available, _ = draw(np.linspace(0.01, 0.07, 10), np.full(10, 0.3), np.random.default_rng(5), 20)
        assert not idle.all() and idle.any()
        assert np.isnan(available[~idle]).all()
        assert not np.isnan(available[idle]).any()

    def test_same_seed_same_states(self):
        mu, p_idle = np.linspace(0.002, 0.07, 6), np.full(6, 0.4)
        a = draw(mu, p_idle, np.random.default_rng(99), 3, receivers=2)
        b = draw(mu, p_idle, np.random.default_rng(99), 3, receivers=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestGain:
    CHANNEL = ([0.01], [0.5])  # one channel: mean idle duration, idle probability

    def test_mean_is_one(self):
        _, _, gains = draw(*self.CHANNEL, np.random.default_rng(13), 1, receivers=100_000)
        assert abs(gains.mean() - 1.0) < 0.02

    def test_strictly_positive(self):
        _, _, gains = draw(*self.CHANNEL, np.random.default_rng(17), 1, receivers=100_000)
        assert np.all(gains > 0.0)

    def test_same_seed_same_sequence(self):
        a = draw(*self.CHANNEL, np.random.default_rng(23), 1, receivers=100)[2]
        b = draw(*self.CHANNEL, np.random.default_rng(23), 1, receivers=100)[2]
        assert np.array_equal(a, b)
