"""Link-budget equations: received power, Shannon rate, air time, success probability.

All quantities are SI: watts, meters, hertz, seconds, bits. Functions accept
scalars or numpy arrays and broadcast like numpy ufuncs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


class LinkBudgetError(ValueError):
    """Radio parameters drive a link equation out of float range."""


@dataclass(frozen=True)
class PhyParams:
    """Radio parameters shared by every link in a scenario."""

    pt: float  # transmit power, W
    path_loss_exp: float  # path loss exponent, ~2 free space .. ~6 heavy clutter
    wavelength: float  # carrier wavelength, m
    noise_psd: float  # thermal noise power spectral density, W/Hz
    bandwidth: float  # channel bandwidth, Hz
    packet_bits: int  # data packet size, bits

    def __post_init__(self):
        for name in ("pt", "path_loss_exp", "wavelength", "noise_psd", "bandwidth", "packet_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def from_carrier(cls, *, pt, path_loss_exp, carrier_freq_hz, noise_psd, bandwidth, packet_bits):
        """Build params with the wavelength derived from the carrier frequency."""
        return cls(pt, path_loss_exp, SPEED_OF_LIGHT / carrier_freq_hz, noise_psd, bandwidth, packet_bits)


def received_power(phy: PhyParams, d, gain):
    """Power at the receiver over distance d with a given fading power gain, W."""
    d = np.asarray(d, dtype=float)
    gain = np.asarray(gain, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive (co-located nodes)")
    if np.any(gain < 0.0):
        raise ValueError("gain must be non-negative")
    pr = _received_power(phy.pt, phy.path_loss_exp, _wave_factor(phy.wavelength), d, gain)
    return float(pr) if pr.ndim == 0 else pr


def data_rate(phy: PhyParams, pr):
    """Achievable rate for a received power, bits/s."""
    pr = np.asarray(pr, dtype=float)
    if np.any(pr < 0.0):
        raise ValueError("received power must be non-negative")
    r = _data_rate(phy.bandwidth, phy.bandwidth * phy.noise_psd, pr)
    return float(r) if r.ndim == 0 else r


def tx_time(phy: PhyParams, rate):
    """Air time to send one packet at a given rate, s. Zero rate maps to +inf."""
    rate = np.asarray(rate, dtype=float)
    if np.any(rate < 0.0):
        raise ValueError("rate must be non-negative")
    with np.errstate(divide="ignore"):
        t = _tx_time(phy.packet_bits, rate)
    return float(t) if t.ndim == 0 else t


def pos(tx_time, mu_idle):
    """Probability that a transmission of the given air time finishes within the
    remaining idle period of a channel whose mean idle duration is mu_idle."""
    t = np.asarray(tx_time, dtype=float)
    mu = np.asarray(mu_idle, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("tx_time must be non-negative")
    if np.any(mu <= 0.0):
        raise ValueError("mu_idle must be positive")
    p = _pos(t, mu)
    return float(p) if p.ndim == 0 else p


def link_arrays(radios, d: np.ndarray, gain: np.ndarray, mu_idle: np.ndarray):
    """Rate, air time and success probability of every (radio, receiver,
    channel) at once, as (K, R, M) arrays, from a sequence of K radios
    (PhyParams), (R, 1) distances, (R, M) gains and (M,) mean idle
    durations, without the range checks of the functions above.

    Each radio's constants are Python floats, as for one radio alone,
    broadcast over the gains as (K, 1, 1) arrays, so every element is that
    radio's own arithmetic. One distance power serves all radios, so they
    must share the path loss exponent.

    For callers whose inputs hold by construction: distances positive (a
    tree's parent edges, checked once per tree), gains non-negative
    (exponential draws) and mean idle durations positive (ChannelModel
    checks them), so received power, rate and air time are non-negative too.
    Overflow gives an infinite rate, which the caller must reject.
    """
    path_loss_exp = radios[0].path_loss_exp
    if any(phy.path_loss_exp != path_loss_exp for phy in radios):
        raise ValueError("radios evaluated together must share path_loss_exp")
    pt, wave, bandwidth, noise, packet_bits = np.array(
        [(phy.pt, _wave_factor(phy.wavelength), phy.bandwidth, phy.bandwidth * phy.noise_psd, phy.packet_bits)
         for phy in radios],
        dtype=float,
    ).T[:, :, None, None]
    with np.errstate(over="ignore", divide="ignore"):
        rate = _data_rate(bandwidth, noise, _received_power(pt, path_loss_exp, wave, d, gain))
        t = _tx_time(packet_bits, rate)
    return rate, t, _pos(t, mu_idle)


# The link equations, each written once: the public functions above check
# their inputs first, link_arrays relies on its callers.


def _wave_factor(wavelength: float) -> float:
    return (wavelength / (4.0 * math.pi)) ** 2


def _received_power(pt, path_loss_exp, wave_factor, d: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return pt / d**path_loss_exp * wave_factor * gain


def _data_rate(bandwidth, noise_power, pr: np.ndarray) -> np.ndarray:
    return bandwidth * np.log2(1.0 + pr / noise_power)


def _tx_time(packet_bits, rate: np.ndarray) -> np.ndarray:
    return np.where(rate > 0.0, packet_bits / rate, np.inf)


def _pos(t: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return np.exp(-t / mu)
