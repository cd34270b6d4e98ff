"""Closed-form delivery oracle for masa and rs.

masa and rs choose a channel from the idle flags alone (and rs from its
pick), never from the fading gains. So, given that an entry chose channel j,
the hop to a receiver at parent-edge distance d succeeds iff the packet's air
time T(g, d) = packet_bits / (B log2(1 + c g / d**alpha)), with g ~ Exp(1)
the receiver's fading gain and c = pt (wavelength / 4 pi)**2 / (B N0), fits
within the channel's residual availability, an exponential of mean mu_j:

    P(hop on j) = E_g[exp(-T(g, d) / mu_j)],

integrated numerically here. Each entry draws its own channel states, gains
and residuals, and a path has one receiver per entry, so the hops of a path
are independent and a destination is delivered with probability

    prod over its path's hops of  sum_j P(choose j) P(hop on j),

with P(choose j) from the same model as the choice-frequency oracle in
test_assignment.py: masa picks j with probability p (1 - p)**k, k the number
of channels with a larger mean availability; rs picks each channel with
probability (1 - (1 - p)**M) / M.

The geometry is one seed's SPT and MST, stacked COPIES times into one block,
and each copy takes the event draws of its own trial seed, so only the event
draws vary from copy to copy. Each destination's delivery rate over the
copies must lie within Z standard errors of the closed form.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from crn_multicast import experiment
from crn_multicast.assignment import Scheme
from crn_multicast.experiment import ScenarioParams
from crn_multicast.phy import SPEED_OF_LIGHT
from crn_multicast.seeding import generators, stream_words
from crn_multicast.session import TreeKind, draw_raw

SEED = 5  # the seed whose geometry every copy shares
COPIES = 3000
TREES = (TreeKind.SPT, TreeKind.MST)
SCHEMES = (Scheme.MASA, Scheme.RS)
# Standard errors allowed per destination, after a continuity correction of
# half a count: with 192 comparisons (16 destinations, 2 trees, 2 schemes,
# 3 idle probabilities), a correct engine exceeds 5 on any of them with
# probability below 1e-4.
Z = 5.0


@pytest.fixture(scope="module")
def geometry():
    """One seed's trees, and a block of COPIES copies of them whose copy i
    draws its events from trial seed i, with those draws: every idle
    probability reads the same ones."""
    params = ScenarioParams(m_channels=6)
    one = experiment._block_stages(params, TREES, [SEED])[0]
    copies = experiment._block_stages(params, TREES, [SEED] * COPIES)[0]
    words = stream_words(range(COPIES), experiment._events_streams(TREES))
    return one, copies, draw_raw(copies, params.mu_idle(), generators(words.reshape(-1, 4)))


def hop_success(params: ScenarioParams, d: float, mu: float) -> float:
    """E_g[exp(-T(g, d) / mu)], g ~ Exp(1)."""
    wavelength = SPEED_OF_LIGHT / params.carrier_freq_hz
    c = params.pt_watts * (wavelength / (4.0 * math.pi)) ** 2 / (params.bandwidth_hz * params.noise_psd)
    snr_per_gain = c / d**params.path_loss_exp

    def integrand(g):
        rate = params.bandwidth_hz * math.log2(1.0 + snr_per_gain * g)
        return math.exp(-g - params.packet_bits / rate / mu) if rate > 0.0 else 0.0

    value, error = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200)
    assert error < 1e-8
    return value


def closed_form(params: ScenarioParams, slots, scheme: Scheme) -> np.ndarray:
    """(trees x D) delivery probability of every destination of one seed's
    trees, in slots.dest_slot order."""
    p, mu_idle = params.p_idle, params.mu_idle()
    q, m = 1.0 - p, len(mu_idle)
    if scheme is Scheme.MASA:
        larger = (mu_idle[None, :] > mu_idle[:, None]).sum(axis=1)
        choose = p * q ** larger
    else:
        choose = np.full(m, (1.0 - q**m) / m)
    per_slot = np.array([
        sum(choose[j] * hop_success(params, d, mu_idle[j]) for j in range(m))
        for d in slots.distances.tolist()
    ])
    # The roots' padding row of dest_paths, -1, reads an extra certain hop.
    along = np.append(per_slot, 1.0)[slots.dest_paths]
    return along.prod(axis=0).reshape(slots.dest_slot.shape)


@pytest.mark.parametrize("p_idle", [0.1, 0.5, 0.9])
def test_delivery_rates_match_the_closed_form(geometry, p_idle):
    one, copies, raw = geometry
    params = ScenarioParams(m_channels=6, p_idle=p_idle)
    mu_idle = params.mu_idle()
    _, _, judged = experiment._judge_block([params], mu_idle, SCHEMES, copies, raw)
    # Tree j of the block is copy j // 2 of tree kind j % 2.
    rates = judged.delivered.reshape(COPIES, len(TREES), -1, len(SCHEMES)).mean(axis=0)
    for k, scheme in enumerate(SCHEMES):
        want = closed_form(params, one, scheme)
        se = np.sqrt(want * (1.0 - want) / COPIES)
        gap = np.maximum(np.abs(rates[..., k] - want) - 0.5 / COPIES, 0.0)
        assert (gap <= Z * se).all(), (scheme, np.abs(rates[..., k] - want).max())
