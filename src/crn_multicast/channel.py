"""Primary-user channel occupancy and Rayleigh fading.

Each licensed channel alternates between busy (primary user present) and idle
periods. Secondary transmissions sample channel state per transmitter event:
an idle flag per channel plus, for idle channels, the residual time the
channel stays available. Residuals are exponential with the channel's mean
idle duration, which is the memoryless residual of exponential idle periods.
Every event of a tree is drawn at once, one generator call for all its idle
uniforms and one for all its residuals (session.draw_raw), and turned into
states by session.idle_flags. A ChannelModel is the scenario's channels as
two (M,) arrays, their mean idle durations and idle probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Licensed channels of a scenario as two (M,) float arrays, checked and
    made read-only on construction: sessions use them without checking them
    again. Nothing compares or hashes a model; sweeps key their shared draws
    on the (m_channels, mu_min_s, mu_max_s) the model is made from, and
    build one model per key."""

    mu_idle: np.ndarray  # mean idle-period duration of each channel, s
    p_idle: np.ndarray  # long-run fraction of time each channel is idle

    def __post_init__(self):
        mu, p = np.array(self.mu_idle, dtype=float), np.array(self.p_idle, dtype=float)
        if mu.ndim != 1 or p.ndim != 1:
            raise ValueError(f"mu_idle and p_idle must be 1-D arrays, got shapes {mu.shape} and {p.shape}")
        if mu.size != p.size:
            raise ValueError(f"mu_idle and p_idle must have one value per channel, got {mu.size} and {p.size}")
        if not mu.size:
            raise ValueError("a channel model needs at least one channel")
        # Written so that NaN fails both tests.
        for name, values, bad, rule in (
            ("mu_idle", mu, ~((0.0 < mu) & (mu < math.inf)), "be finite and positive"),
            ("p_idle", p, ~((0.0 <= p) & (p <= 1.0)), "lie in [0, 1]"),
        ):
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"channel {j}: {name} must {rule}, got {values[j].item()!r}")
        mu.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "mu_idle", mu)
        object.__setattr__(self, "p_idle", p)

    @property
    def m(self) -> int:
        return len(self.mu_idle)


def make_channels(m: int, mu_min: float, mu_max: float, p_idle: float) -> ChannelModel:
    """Model with m channels whose mean idle durations are evenly spaced over
    [mu_min, mu_max] (a single channel gets mu_min) and a common idle probability."""
    if m < 1:
        raise ValueError("channel count must be at least 1")
    if not 0.0 < mu_min <= mu_max:
        raise ValueError("need 0 < mu_min <= mu_max")
    if not 0.0 < p_idle < 1.0:
        raise ValueError("p_idle must lie strictly between 0 and 1")
    mu = np.linspace(mu_min, mu_max, m) if m > 1 else np.array([mu_min])
    return ChannelModel(mu, np.full(m, p_idle))
