import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crn_multicast.phy import PhyParams, link_arrays


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


def unit_phy(**overrides):
    # pt = 1 W and wavelength 4 pi make the wave factor 1, so at d = 1 m the
    # received power is the gain itself.
    return make_phy(**{"pt": 1.0, "wavelength": 4.0 * math.pi, **overrides})


def link(phy, d=1.0, gain=1.0, mu=0.05):
    """(rate, air time, success probability) of one receiver on one channel."""
    rate, t, p = link_arrays([phy], np.array([[d]]), np.array([[gain]]), np.array([mu]))
    return rate.item(), t.item(), p.item()


def received_power(phy, rate):
    # Shannon's rate inverted: the received power that gives this rate.
    return phy.bandwidth * phy.noise_psd * (2.0 ** (rate / phy.bandwidth) - 1.0)


class TestReceivedPower:
    def test_hand_checked_case(self):
        # 0.1 / 10^4 * (0.5 / 4pi)^2 evaluated independently on a calculator
        phy = make_phy()
        assert received_power(phy, link(phy, d=10.0)[0]) == pytest.approx(1.58314e-8, rel=1e-4)

    def test_zero_gain_gives_zero_power(self):
        assert link(make_phy(), d=10.0, gain=0.0)[0] == 0.0

    def test_fourth_power_law(self):
        phy = make_phy()
        near, far = link(phy, d=10.0)[0], link(phy, d=20.0)[0]
        assert received_power(phy, far) == pytest.approx(received_power(phy, near) / 16.0)

    def test_linear_in_pt_and_gain(self):
        r1 = link(make_phy(pt=0.1), d=15.0, gain=2.0)[0]
        r2 = link(make_phy(pt=0.2), d=15.0, gain=1.0)[0]
        assert r1 == pytest.approx(r2)


class TestDataRate:
    def test_snr_three_gives_two_megabit(self):
        assert link(unit_phy(), gain=3.0 * 1e6 * 1e-18)[0] == 2_000_000.0

    def test_zero_power_gives_zero_rate(self):
        assert link(unit_phy(), gain=0.0)[0] == 0.0

    def test_snr_1000_case(self):
        # 1e6 * log2(1001), checked against an independent calculator
        assert link(unit_phy(), gain=1e-9)[0] == pytest.approx(9.9672e6, rel=1e-4)

    @given(st.floats(min_value=1e-15, max_value=1e-6), st.floats(min_value=1.01, max_value=10.0))
    def test_monotone_in_received_power(self, pr, factor):
        phy = unit_phy()
        assert link(phy, gain=pr * factor)[0] > link(phy, gain=pr)[0]

    def test_linear_in_bandwidth_at_fixed_snr(self):
        snr = 7.0
        r1 = link(unit_phy(bandwidth=1e6), gain=snr * 1e6 * 1e-18)[0]
        r2 = link(unit_phy(bandwidth=2e6), gain=snr * 2e6 * 1e-18)[0]
        assert r2 == pytest.approx(2.0 * r1)


class TestTxTime:
    def test_packet_over_rate(self):
        # 4 KB = 4 * 8 * 1024 = 32768 bits, at exactly 2 Mbps and at drawn rates
        assert link(unit_phy(), gain=3.0 * 1e6 * 1e-18)[1] == 32768 / 2_000_000.0
        gains = np.random.default_rng(5).exponential(size=(4, 3))
        rate, t, _ = link_arrays([make_phy()], np.full((4, 1), 30.0), gains, np.full(3, 0.05))
        assert np.array_equal(t, 32768 / rate)

    def test_zero_rate_is_never_satisfiable(self):
        assert link(make_phy(), gain=0.0)[1] == math.inf

    def test_infinite_rate_limit(self):
        assert link(make_phy(), gain=math.inf)[1] == 0.0


class TestPos:
    def test_zero_airtime_is_certain(self):
        assert link(make_phy(), gain=math.inf, mu=0.033)[2] == 1.0

    def test_airtime_equal_to_mean_availability(self):
        # 100000 bits at exactly 2 Mbps take 0.05 s
        _, t, p = link(unit_phy(packet_bits=100000), gain=3.0 * 1e6 * 1e-18, mu=0.05)
        assert t == 0.05
        assert p == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_worked_magnitude(self):
        # exp(-0.0059 / 0.050), in the 0.88..0.89 range: 11800 bits at 2 Mbps
        assert link(unit_phy(packet_bits=11800), gain=3.0 * 1e6 * 1e-18, mu=0.050)[2] == pytest.approx(0.8887, rel=1e-3)

    def test_infinite_airtime_never_succeeds(self):
        assert link(make_phy(), gain=0.0)[2] == 0.0

    def test_is_exp_of_minus_airtime_over_mean(self):
        gains = np.random.default_rng(7).exponential(size=(5, 4))
        mu = np.array([0.002, 0.01, 0.03, 0.07])
        _, t, p = link_arrays([make_phy()], np.full((5, 1), 40.0), gains, mu)
        assert np.array_equal(p, np.exp(-t / mu))

    # at exactly 2 Mbps the air time is bits / 2e6, 1e-6 .. 1 s before the
    # factor; strategies stay well inside exp's non-underflowing range, where
    # the mathematical strict monotonicity survives double precision
    @given(
        st.integers(min_value=2, max_value=2_000_000),
        st.floats(min_value=1.001, max_value=10.0),
        st.floats(min_value=0.05, max_value=10.0),
    )
    def test_decreasing_in_airtime(self, bits, factor, mu):
        radios = [unit_phy(packet_bits=bits), unit_phy(packet_bits=math.ceil(bits * factor))]
        _, _, p = link_arrays(radios, np.ones((1, 1)), np.full((1, 1), 3.0 * 1e6 * 1e-18), np.array([mu]))
        assert p[1, 0, 0] < p[0, 0, 0]

    @given(
        st.integers(min_value=2, max_value=2_000_000),
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=1.001, max_value=10.0),
    )
    def test_increasing_in_availability(self, bits, mu, factor):
        gain = np.full((1, 2), 3.0 * 1e6 * 1e-18)
        _, _, p = link_arrays([unit_phy(packet_bits=bits)], np.ones((1, 1)), gain, np.array([mu, mu * factor]))
        assert p[0, 0, 1] > p[0, 0, 0]

    def test_bounded_to_unit_interval(self):
        gains = np.array([[0.0, 1e-300, 1e-12, 1.0, 1e6, math.inf]])
        _, _, p = link_arrays([make_phy()], np.full((1, 1), 10.0), gains, np.full(6, 0.03))
        assert ((0.0 <= p) & (p <= 1.0)).all()


def test_pipeline_is_finite_and_deterministic():
    phy = make_phy()
    d, gains, mu = np.array([[1.0], [10.0], [55.0]]), np.tile([0.2, 1.0, 4.0], (3, 1)), np.full(3, 0.05)
    _, t, p = link_arrays([phy], d, gains, mu)
    assert np.isfinite(t).all() and (t > 0).all()
    assert ((0.0 < p) & (p < 1.0)).all()
    assert np.array_equal(link_arrays([phy], d, gains, mu)[2], p)


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
    # every receiver of a table gives, bit for bit, what it gives alone
    phy, mu = make_phy(), np.array([0.01, 0.05])
    d = np.array([[10.0], [20.0], [40.0]])
    gains = np.array([[1.0, 0.3], [0.5, 2.5], [2.0, 0.0]])
    table = link_arrays([phy], d, gains, mu)
    assert all(array.shape == (1, 3, 2) for array in table)
    for i in range(3):
        alone = link_arrays([phy], d[i:i + 1], gains[i:i + 1], mu)
        for got, want in zip(table, alone):
            assert np.array_equal(got[:, i:i + 1], want)


def test_radios_evaluated_together_match_each_alone_bit_for_bit():
    # Every radio constant may differ but the path loss exponent; each layer
    # of the stacked arrays is that radio evaluated alone.
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


def test_radios_with_different_path_loss_exponents_rejected():
    with pytest.raises(ValueError, match="share path_loss_exp"):
        link_arrays([make_phy(), make_phy(path_loss_exp=3.0)], np.ones((1, 1)), np.ones((1, 2)), np.ones(2))
