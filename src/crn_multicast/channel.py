"""Primary-user channel occupancy and Rayleigh fading.

Each licensed channel alternates between busy (primary user present) and idle
periods. Secondary transmissions sample channel state per transmitter event:
an idle flag per channel plus, for idle channels, the residual time the
channel stays available. Residuals are exponential with the channel's mean
idle duration, which is the memoryless residual of exponential idle periods.
Every event of a tree is drawn at once, one generator call for all its idle
uniforms and one for all its residuals (session.draw_raw), and turned into
states by session.idle_flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    mu_idle: float  # mean idle-period duration, s
    p_idle: float  # long-run fraction of time the channel is idle


@dataclass(frozen=True)
class ChannelModel:
    """Licensed channels of a scenario, checked on construction: sessions
    use the mean idle durations and idle probabilities without checking
    them again."""

    channels: tuple[ChannelParams, ...]

    def __post_init__(self):
        if len(self.channels) < 1:
            raise ValueError("a channel model needs at least one channel")
        for j, c in enumerate(self.channels):
            # Written so that NaN fails both tests.
            if not 0.0 < c.mu_idle < math.inf:
                raise ValueError(f"channel {j}: mu_idle must be finite and positive, got {c.mu_idle!r}")
            if not 0.0 <= c.p_idle <= 1.0:
                raise ValueError(f"channel {j}: p_idle must lie in [0, 1], got {c.p_idle!r}")

    @property
    def m(self) -> int:
        return len(self.channels)

    @cached_property
    def mu_idle(self) -> np.ndarray:
        return np.array([c.mu_idle for c in self.channels])

    @cached_property
    def p_idle(self) -> np.ndarray:
        return np.array([c.p_idle for c in self.channels])


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
    return ChannelModel(tuple(ChannelParams(float(x), p_idle) for x in mu))
