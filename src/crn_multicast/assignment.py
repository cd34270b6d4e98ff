"""Unified-channel selection for one multicast transmitter event.

One transmitter must reach all of its children on a single channel, so group
schemes score each idle channel by the worst receiver on it (max-min). Four
schemes are supported:

  pos   pick the idle channel with the largest minimum success probability
  masa  pick the idle channel with the largest mean availability time
  mdr   pick the idle channel with the largest minimum data rate
  rs    pick uniformly at random among the idle channels

A unicast hop is the single-receiver special case (the minimum over one
receiver is that receiver), so no separate rule is needed.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class Scheme(Enum):
    POS = "pos"
    MASA = "masa"
    MDR = "mdr"
    RS = "rs"


def choose_channels(scheme: Scheme, pos, rate, mu_idle, idle, starts) -> np.ndarray:
    """Channel of every event in a table under pos, masa or mdr.

    pos and rate are (receivers x channels) with each event's receivers in
    consecutive rows starting at starts[e]; idle is (events x channels). The
    worst receiver of each event is its column minimum over its rows. Ties go
    to the lowest channel index (np.argmax returns the first maximum), and an
    event without an idle channel gets -1.
    """
    if scheme is Scheme.POS:
        score = np.minimum.reduceat(pos, starts, axis=0)
    elif scheme is Scheme.MDR:
        score = np.minimum.reduceat(rate, starts, axis=0)
    elif scheme is Scheme.MASA:
        score = mu_idle[None, :]
    else:
        raise ValueError(f"scheme {scheme!r} does not choose by table")
    best = np.where(idle, score, -np.inf).argmax(axis=1)
    return np.where(idle.any(axis=1), best, -1)


def random_channel(idle_channels: list[int], rng: np.random.Generator | None) -> int:
    """Uniform pick among one event's idle channels with one rng call; -1,
    and no call, when none is idle."""
    if not idle_channels:
        return -1
    if rng is None:
        raise ValueError("random selection needs an rng")
    return idle_channels[int(rng.integers(len(idle_channels)))]
