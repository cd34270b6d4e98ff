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


def choose_channels(scheme: Scheme, pos, rate, mu_idle, idle, starts, picks=None) -> np.ndarray:
    """Channel of every event in a table under scheme, for one or several
    sets of idle flags at once.

    pos and rate are (receivers x channels) with each event's receivers in
    consecutive rows starting at starts[e], or (radios x receivers x
    channels) for several radios; idle is (events x channels), or (sets x
    events x channels) for several sets, giving one row of channels per set
    (or per radio, where the radios broadcast against the sets). The worst
    receiver of each event is its column minimum over its rows, read only on
    idle channels. rs reads only idle and picks, one
    uniform in [0, 1) per event: event e takes its k-th idle channel
    (counting from 0), k = floor(picks[e] * n_idle), which is below n_idle
    for every float below 1. Ties go to the lowest channel index (np.argmax
    returns the first maximum), and an event without an idle channel gets -1.
    """
    if scheme is Scheme.RS:
        if picks is None:
            raise ValueError("random selection needs an rng: no pick uniforms were drawn")
        # Running idle counts from one product with an upper triangle of ones,
        # exact in float32 below 2**24 channels. The k-th idle channel is the
        # number of channels whose running count is at most k.
        m = idle.shape[-1]
        running = idle.astype(np.float32) @ np.triu(np.ones((m, m), np.float32))
        n_idle = running[..., -1]
        chosen = np.count_nonzero(running <= np.floor(picks * n_idle)[..., None], axis=-1)
        return np.where(n_idle > 0, chosen, -1)
    if scheme is Scheme.POS:
        score = np.minimum.reduceat(pos, starts, axis=-2)
    elif scheme is Scheme.MDR:
        score = np.minimum.reduceat(rate, starts, axis=-2)
    elif scheme is Scheme.MASA:
        score = mu_idle
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    best = np.where(idle, score, -np.inf).argmax(axis=-1)
    return np.where(idle.any(axis=-1), best, -1)
