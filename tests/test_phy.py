import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crn_multicast.phy import PhyParams, data_rate, link_arrays, pos, received_power, tx_time


def make_phy(**overrides):
    base = dict(
        pt=0.1,
        path_loss_exp=4.0,
        wavelength=0.5,
        noise_psd=1e-18,
        bandwidth=1e6,
        packet_bits=32768,
    )
    base.update(overrides)
    return PhyParams(**base)


class TestReceivedPower:
    def test_hand_checked_case(self):
        # 0.1 / 10^4 * (0.5 / 4pi)^2 evaluated independently on a calculator
        phy = make_phy()
        assert received_power(phy, d=10.0, gain=1.0) == pytest.approx(1.58314e-8, rel=1e-4)

    def test_zero_gain_gives_zero_power(self):
        assert received_power(make_phy(), d=10.0, gain=0.0) == 0.0

    def test_fourth_power_law(self):
        phy = make_phy()
        assert received_power(phy, 20.0, 1.0) == pytest.approx(received_power(phy, 10.0, 1.0) / 16.0)

    def test_linear_in_pt_and_gain(self):
        p1 = received_power(make_phy(pt=0.1), 15.0, 2.0)
        p2 = received_power(make_phy(pt=0.2), 15.0, 1.0)
        assert p1 == pytest.approx(p2)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            received_power(make_phy(), 0.0, 1.0)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            received_power(make_phy(), 5.0, -0.1)


class TestDataRate:
    def test_snr_three_gives_two_megabit(self):
        phy = make_phy()
        pr = 3.0 * phy.bandwidth * phy.noise_psd
        assert data_rate(phy, pr) == 2_000_000.0

    def test_zero_power_gives_zero_rate(self):
        assert data_rate(make_phy(), 0.0) == 0.0

    def test_snr_1000_case(self):
        # 1e6 * log2(1001), checked against an independent calculator
        phy = make_phy()
        assert data_rate(phy, 1e-9) == pytest.approx(9.9672e6, rel=1e-4)

    @given(st.floats(min_value=1e-15, max_value=1e-6), st.floats(min_value=1.01, max_value=10.0))
    def test_monotone_in_received_power(self, pr, factor):
        phy = make_phy()
        assert data_rate(phy, pr * factor) > data_rate(phy, pr)

    def test_linear_in_bandwidth_at_fixed_snr(self):
        snr = 7.0
        r1 = data_rate(make_phy(bandwidth=1e6), snr * 1e6 * 1e-18)
        r2 = data_rate(make_phy(bandwidth=2e6), snr * 2e6 * 1e-18)
        assert r2 == pytest.approx(2.0 * r1)


class TestTxTime:
    def test_packet_over_rate(self):
        # 4 KB = 4 * 8 * 1024 = 32768 bits
        phy = make_phy()
        rate = 32768 / 0.0059
        assert tx_time(phy, rate) == pytest.approx(0.0059)

    def test_zero_rate_is_never_satisfiable(self):
        assert tx_time(make_phy(), 0.0) == math.inf

    def test_infinite_rate_limit(self):
        assert tx_time(make_phy(), math.inf) == 0.0


class TestPos:
    def test_zero_airtime_is_certain(self):
        assert pos(0.0, 0.05) == 1.0

    def test_airtime_equal_to_mean_availability(self):
        assert pos(0.05, 0.05) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_worked_magnitude(self):
        # exp(-0.0059 / 0.050), in the 0.88..0.89 range
        assert pos(0.0059, 0.050) == pytest.approx(0.8887, rel=1e-3)

    def test_infinite_airtime_never_succeeds(self):
        assert pos(math.inf, 0.05) == 0.0

    # strategies stay well inside exp's non-underflowing range, where the
    # mathematical strict monotonicity survives double precision
    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1.001, max_value=10.0),
        st.floats(min_value=0.05, max_value=10.0),
    )
    def test_decreasing_in_airtime(self, t, factor, mu):
        assert pos(t * factor, mu) < pos(t, mu)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=1.001, max_value=10.0),
    )
    def test_increasing_in_availability(self, t, mu, factor):
        assert pos(t, mu * factor) > pos(t, mu)

    def test_bounded_to_unit_interval(self):
        for t in (0.0, 1e-9, 0.004, 1.0, 1e6, math.inf):
            assert 0.0 <= pos(t, 0.03) <= 1.0


def test_pipeline_is_finite_and_deterministic():
    phy = make_phy()
    for d in (1.0, 10.0, 55.0):
        for gain in (0.2, 1.0, 4.0):
            t = tx_time(phy, data_rate(phy, received_power(phy, d, gain)))
            p = pos(t, 0.05)
            assert math.isfinite(t) and t > 0
            assert 0.0 < p < 1.0
            again = pos(tx_time(phy, data_rate(phy, received_power(phy, d, gain))), 0.05)
            assert again == p


def test_from_carrier_derives_wavelength():
    phy = PhyParams.from_carrier(
        pt=0.1, path_loss_exp=4.0, carrier_freq_hz=600e6, noise_psd=1e-18,
        bandwidth=1e6, packet_bits=32768,
    )
    assert phy.wavelength == pytest.approx(0.4997, rel=1e-3)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        make_phy(pt=0.0)
    with pytest.raises(ValueError):
        make_phy(bandwidth=-1.0)


def test_vectorized_evaluation_matches_scalars():
    phy = make_phy()
    d = np.array([10.0, 20.0, 40.0])
    gains = np.array([1.0, 0.5, 2.0])
    pr = received_power(phy, d, gains)
    assert pr.shape == (3,)
    for i in range(3):
        assert pr[i] == received_power(phy, float(d[i]), float(gains[i]))


def test_radios_evaluated_together_match_each_alone_bit_for_bit():
    # Every radio constant may differ but the path loss exponent; each layer
    # of the stacked arrays is that radio evaluated alone, and the checked
    # functions give the same numbers.
    radios = [
        make_phy(),
        make_phy(pt=2.0, bandwidth=3e6, packet_bits=8192),
        make_phy(wavelength=0.3, noise_psd=4e-18, packet_bits=10**20),
    ]
    rng = np.random.default_rng(3)
    d, gains, mu = rng.uniform(5.0, 80.0, (6, 1)), rng.exponential(size=(6, 4)), np.array([0.002, 0.01, 0.03, 0.07])
    together = link_arrays(radios, d, gains, mu)
    for k, phy in enumerate(radios):
        alone = link_arrays([phy], d, gains, mu)
        for got, want in zip(together, alone):
            assert got.shape == (3, 6, 4) and np.array_equal(got[k], want[0])
        rate = data_rate(phy, received_power(phy, d, gains))
        assert np.array_equal(alone[0][0], rate)
        assert np.array_equal(alone[1][0], tx_time(phy, rate))
        assert np.array_equal(alone[2][0], pos(tx_time(phy, rate), mu))


def test_radios_with_different_path_loss_exponents_rejected():
    with pytest.raises(ValueError, match="share path_loss_exp"):
        link_arrays([make_phy(), make_phy(path_loss_exp=3.0)], np.ones((1, 1)), np.ones((1, 2)), np.ones(2))
