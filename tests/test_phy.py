import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crn_multicast.experiment import ScenarioParams
from crn_multicast.phy import RADIO_FIELDS, SPEED_OF_LIGHT, link_arrays


def make_radio(wavelength=0.5, **overrides):
    # 0.1 W, path loss exponent 4, N0 1e-18 W/Hz, 1 MHz and 32768 bits are the
    # scenario defaults. SPEED_OF_LIGHT / (SPEED_OF_LIGHT / w) == w for every
    # wavelength used here, so the wave factor is exactly (w / 4 pi)**2.
    return ScenarioParams(carrier_freq_hz=SPEED_OF_LIGHT / wavelength, **overrides)


def unit_radio(**overrides):
    # pt = 1 W and wavelength 4 pi make the wave factor 1, so at d = 1 m the
    # received power is the gain itself.
    return make_radio(**{"pt_watts": 1.0, "wavelength": 4.0 * math.pi, **overrides})


def link(radio, d=1.0, gain=1.0, mu=0.05):
    """(rate, air time, success probability) of one receiver on one channel."""
    rate, t, p = link_arrays([radio], np.array([[d]]), np.array([[gain]]), np.array([mu]))
    return rate.item(), t.item(), p.item()


def received_power(radio, rate):
    # Shannon's rate inverted: the received power that gives this rate.
    return radio.bandwidth_hz * radio.noise_psd * (2.0 ** (rate / radio.bandwidth_hz) - 1.0)


class TestReceivedPower:
    def test_hand_checked_case(self):
        # 0.1 / 10^4 * (0.5 / 4pi)^2 evaluated independently on a calculator
        radio = make_radio()
        assert received_power(radio, link(radio, d=10.0)[0]) == pytest.approx(1.58314e-8, rel=1e-4)

    def test_zero_gain_gives_zero_power(self):
        assert link(make_radio(), d=10.0, gain=0.0)[0] == 0.0

    def test_fourth_power_law(self):
        radio = make_radio()
        near, far = link(radio, d=10.0)[0], link(radio, d=20.0)[0]
        assert received_power(radio, far) == pytest.approx(received_power(radio, near) / 16.0)

    def test_linear_in_pt_and_gain(self):
        r1 = link(make_radio(pt_watts=0.1), d=15.0, gain=2.0)[0]
        r2 = link(make_radio(pt_watts=0.2), d=15.0, gain=1.0)[0]
        assert r1 == pytest.approx(r2)


class TestDataRate:
    def test_snr_three_gives_two_megabit(self):
        assert link(unit_radio(), gain=3.0 * 1e6 * 1e-18)[0] == 2_000_000.0

    def test_zero_power_gives_zero_rate(self):
        assert link(unit_radio(), gain=0.0)[0] == 0.0

    def test_snr_1000_case(self):
        # 1e6 * log2(1001), checked against an independent calculator
        assert link(unit_radio(), gain=1e-9)[0] == pytest.approx(9.9672e6, rel=1e-4)

    @given(st.floats(min_value=1e-15, max_value=1e-6), st.floats(min_value=1.01, max_value=10.0))
    def test_monotone_in_received_power(self, pr, factor):
        radio = unit_radio()
        assert link(radio, gain=pr * factor)[0] > link(radio, gain=pr)[0]

    def test_linear_in_bandwidth_at_fixed_snr(self):
        snr = 7.0
        r1 = link(unit_radio(bandwidth_hz=1e6), gain=snr * 1e6 * 1e-18)[0]
        r2 = link(unit_radio(bandwidth_hz=2e6), gain=snr * 2e6 * 1e-18)[0]
        assert r2 == pytest.approx(2.0 * r1)


class TestTxTime:
    def test_packet_over_rate(self):
        # 4 KB = 4 * 8 * 1024 = 32768 bits, at exactly 2 Mbps and at drawn rates
        assert link(unit_radio(), gain=3.0 * 1e6 * 1e-18)[1] == 32768 / 2_000_000.0
        gains = np.random.default_rng(5).exponential(size=(4, 3))
        rate, t, _ = link_arrays([make_radio()], np.full((4, 1), 30.0), gains, np.full(3, 0.05))
        assert np.array_equal(t, 32768 / rate)

    def test_zero_rate_is_never_satisfiable(self):
        assert link(make_radio(), gain=0.0)[1] == math.inf

    def test_infinite_rate_limit(self):
        assert link(make_radio(), gain=math.inf)[1] == 0.0


class TestPos:
    def test_zero_airtime_is_certain(self):
        assert link(make_radio(), gain=math.inf, mu=0.033)[2] == 1.0

    def test_airtime_equal_to_mean_availability(self):
        # 100000 bits at exactly 2 Mbps take 0.05 s
        _, t, p = link(unit_radio(packet_bits=100000), gain=3.0 * 1e6 * 1e-18, mu=0.05)
        assert t == 0.05
        assert p == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_worked_magnitude(self):
        # exp(-0.0059 / 0.050), in the 0.88..0.89 range: 11800 bits at 2 Mbps
        p = link(unit_radio(packet_bits=11800), gain=3.0 * 1e6 * 1e-18, mu=0.050)[2]
        assert p == pytest.approx(0.8887, rel=1e-3)

    def test_infinite_airtime_never_succeeds(self):
        assert link(make_radio(), gain=0.0)[2] == 0.0

    def test_is_exp_of_minus_airtime_over_mean(self):
        gains = np.random.default_rng(7).exponential(size=(5, 4))
        mu = np.array([0.002, 0.01, 0.03, 0.07])
        _, t, p = link_arrays([make_radio()], np.full((5, 1), 40.0), gains, mu)
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
        radios = [unit_radio(packet_bits=bits), unit_radio(packet_bits=math.ceil(bits * factor))]
        _, _, p = link_arrays(radios, np.ones((1, 1)), np.full((1, 1), 3.0 * 1e6 * 1e-18), np.array([mu]))
        assert p[1, 0, 0] < p[0, 0, 0]

    @given(
        st.integers(min_value=2, max_value=2_000_000),
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=1.001, max_value=10.0),
    )
    def test_increasing_in_availability(self, bits, mu, factor):
        gain = np.full((1, 2), 3.0 * 1e6 * 1e-18)
        _, _, p = link_arrays([unit_radio(packet_bits=bits)], np.ones((1, 1)), gain, np.array([mu, mu * factor]))
        assert p[0, 0, 1] > p[0, 0, 0]

    def test_bounded_to_unit_interval(self):
        gains = np.array([[0.0, 1e-300, 1e-12, 1.0, 1e6, math.inf]])
        _, _, p = link_arrays([make_radio()], np.full((1, 1), 10.0), gains, np.full(6, 0.03))
        assert ((0.0 <= p) & (p <= 1.0)).all()


def test_pipeline_is_finite_and_deterministic():
    radio = make_radio()
    d, gains, mu = np.array([[1.0], [10.0], [55.0]]), np.tile([0.2, 1.0, 4.0], (3, 1)), np.full(3, 0.05)
    _, t, p = link_arrays([radio], d, gains, mu)
    assert np.isfinite(t).all() and (t > 0).all()
    assert ((0.0 < p) & (p < 1.0)).all()
    assert np.array_equal(link_arrays([radio], d, gains, mu)[2], p)


def test_vectorized_evaluation_matches_scalars():
    # every receiver of a table gives, bit for bit, what it gives alone
    radio, mu = make_radio(), np.array([0.01, 0.05])
    d = np.array([[10.0], [20.0], [40.0]])
    gains = np.array([[1.0, 0.3], [0.5, 2.5], [2.0, 0.0]])
    table = link_arrays([radio], d, gains, mu)
    assert all(array.shape == (1, 3, 2) for array in table)
    for i in range(3):
        alone = link_arrays([radio], d[i:i + 1], gains[i:i + 1], mu)
        for got, want in zip(table, alone):
            assert np.array_equal(got[:, i:i + 1], want)


def test_radios_evaluated_together_match_each_alone_bit_for_bit():
    # Every radio constant may differ but the path loss exponent; each layer
    # of the stacked arrays is that radio evaluated alone.
    radios = [
        make_radio(),
        make_radio(pt_watts=2.0, bandwidth_hz=3e6, packet_bits=8192),
        make_radio(wavelength=0.3, noise_psd=4e-18, packet_bits=10**20),
    ]
    rng = np.random.default_rng(3)
    d, gains, mu = rng.uniform(5.0, 80.0, (6, 1)), rng.exponential(size=(6, 4)), np.array([0.002, 0.01, 0.03, 0.07])
    together = link_arrays(radios, d, gains, mu)
    for k, radio in enumerate(radios):
        alone = link_arrays([radio], d, gains, mu)
        for got, want in zip(together, alone):
            assert got.shape == (3, 6, 4) and np.array_equal(got[k], want[0])


def test_radios_with_different_path_loss_exponents_rejected():
    with pytest.raises(ValueError, match="share path_loss_exp"):
        link_arrays([make_radio(), make_radio(path_loss_exp=3.0)], np.ones((1, 1)), np.ones((1, 2)), np.ones(2))


# One valid change of every ScenarioParams field.
FIELD_CHANGES = {
    "n_nodes": 41, "n_dest": 15, "m_channels": 21, "bandwidth_hz": 2e6, "packet_bits": 8192, "pt_watts": 0.2,
    "p_idle": 0.5, "mu_min_s": 0.001, "mu_max_s": 0.08, "noise_psd": 2e-18, "path_loss_exp": 3.0,
    "carrier_freq_hz": 900e6, "area_side_m": 300.0, "comm_range_m": 50.0,
}


@pytest.mark.parametrize("name", [f.name for f in fields(ScenarioParams)])
def test_radio_fields_are_exactly_what_link_arrays_reads(name):
    # Values whose scenarios agree on RADIO_FIELDS share one layer of a link
    # table, so a field the equations read but RADIO_FIELDS lacks would let
    # two radios share a layer. At d = 10 m the path loss exponent shows.
    base = ScenarioParams()
    d, gains, mu = np.full((1, 1), 10.0), np.array([[0.5, 2.0]]), np.array([0.01, 0.05])
    changed = replace(base, **{name: FIELD_CHANGES[name]})
    before, after = (link_arrays([radio], d, gains, mu) for radio in (base, changed))
    differs = any(not np.array_equal(a, b) for a, b in zip(before, after))
    assert differs == (name in RADIO_FIELDS)


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", RADIO_FIELDS)
def test_radio_constants_must_be_positive(name, value):
    # ScenarioParams is the one check of the radio constants: link_arrays
    # reads them unchecked.
    with pytest.raises(ValueError, match=f"{name} must be strictly positive"):
        replace(ScenarioParams(), **{name: value})
