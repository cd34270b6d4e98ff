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


def choose_channels(scheme: Scheme, table, idle) -> np.ndarray:
    """Channel of every entry of an event table (session.EventTable) under
    scheme, for one or several sets of idle flags at once.

    The table's pos and rate are (radios x slots x channels), each entry's
    receivers in consecutive slots from table.slots.starts[e]; idle is
    (sets x events x channels), and every scheme returns (sets x events)
    channels, one row per set, where the radios broadcast against the sets:
    one radio serves every set, or set v reads radio v. The worst
    receiver of each entry is its column minimum over its slots, read only
    on idle channels. masa reads table.mu_idle, and rs only idle and
    table.picks, one uniform in [0, 1) per entry: entry e takes its k-th
    idle channel (counting from 0), k = floor(picks[e] * n_idle), which is
    below n_idle for every float below 1. rs picks for every entry, also one
    whose transmitter never gets the packet. Ties go to the lowest channel
    index (np.argmax returns the first maximum), and an entry without an
    idle channel gets -1.
    """
    if scheme is Scheme.RS:
        if table.picks is None:
            raise ValueError("random selection needs an rng: no pick uniforms were drawn")
        # Running idle counts from one product with an upper triangle of ones,
        # exact in float32 below 2**24 channels. The k-th idle channel is the
        # number of channels whose running count is at most k.
        m = idle.shape[-1]
        running = idle.astype(np.float32) @ np.triu(np.ones((m, m), np.float32))
        n_idle = running[..., -1]
        chosen = np.count_nonzero(running <= np.floor(table.picks * n_idle)[..., None], axis=-1)
        return np.where(n_idle > 0, chosen, -1)
    if scheme is Scheme.POS:
        score = np.minimum.reduceat(table.pos, table.slots.starts, axis=-2)
    elif scheme is Scheme.MDR:
        score = np.minimum.reduceat(table.rate, table.slots.starts, axis=-2)
    elif scheme is Scheme.MASA:
        score = table.mu_idle
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    best = np.where(idle, score, -np.inf).argmax(axis=-1)
    return np.where(idle.any(axis=-1), best, -1)
