"""Link-budget equations: received power, Shannon rate, air time, success probability.

All quantities are SI: watts, meters, hertz, seconds, bits. link_arrays is
the one evaluation of the equations: for a stack of radios over arrays of
distances, gains and mean idle durations at once.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


class LinkBudgetError(ValueError):
    """Radio parameters drive a link equation out of float range."""


# The ScenarioParams fields the link equations read: two scenarios that
# agree on all of them are one radio.
RADIO_FIELDS = ("pt_watts", "path_loss_exp", "carrier_freq_hz", "noise_psd", "bandwidth_hz", "packet_bits")


def link_arrays(radios, d: np.ndarray, gain: np.ndarray, mu_idle: np.ndarray):
    """Rate, air time and success probability of every (radio, receiver,
    channel) at once, as (K, R, M) arrays, from a sequence of K radios
    (ScenarioParams, of which only the RADIO_FIELDS are read), (R, 1)
    distances, (R, M) gains and (M,) mean idle durations:

        received power  Pr  = pt_watts / d**path_loss_exp * (SPEED_OF_LIGHT / carrier_freq_hz / 4 pi)**2 * gain
        rate            r   = bandwidth_hz * log2(1 + Pr / (bandwidth_hz * noise_psd))
        air time        t   = packet_bits / r
        success         pos = exp(-t / mu_idle)

    Each radio's constants are Python floats, as for one radio alone,
    broadcast over the gains as (K, 1, 1) arrays, so every element is that
    radio's own arithmetic. One distance power serves all radios, so they
    must share the path loss exponent.

    Nothing is range-checked: inputs hold by construction. Distances are
    positive (a block's parent edges, checked once per block), gains
    non-negative (exponential draws), radio constants and mean idle durations
    positive (ScenarioParams checks them), so received power, rate and air
    time are non-negative too, and a zero rate gives an infinite air time.
    Overflow gives an infinite rate, which the caller must reject. A mean
    idle duration so small that t / mu_idle overflows gives a pos of 0.
    """
    path_loss_exp = radios[0].path_loss_exp
    if any(radio.path_loss_exp != path_loss_exp for radio in radios):
        raise ValueError("radios evaluated together must share path_loss_exp")
    pt, wave, bandwidth, noise, packet_bits = np.array(
        [(radio.pt_watts, (SPEED_OF_LIGHT / radio.carrier_freq_hz / (4.0 * math.pi)) ** 2, radio.bandwidth_hz,
          radio.bandwidth_hz * radio.noise_psd, radio.packet_bits)
         for radio in radios],
        dtype=float,
    ).T[:, :, None, None]
    with np.errstate(over="ignore", divide="ignore"):
        rate = bandwidth * np.log2(1.0 + pt / d**path_loss_exp * wave * gain / noise)
        t = packet_bits / rate
        # exp(-t / mu_idle) in place: three (K, R, M) arrays are alive at the peak.
        p = np.divide(t, -mu_idle)
    np.exp(p, out=p)
    return rate, t, p
