"""One multicast session over a layered tree.

Per layer entry the transmitter announces the packet (MA), collects
acknowledgements (ACK), samples the channel state, computes per-receiver link
metrics over the idle channels, and selects one unified channel. A receiver
gets the packet iff a channel was selected and the packet's air time on that
channel fits within the channel's sampled availability. A destination is
delivered iff every hop on its root path succeeded, and its throughput is the
packet size divided by the summed air time along that path.

A session is evaluated as one event table per tree: the draws, link metrics
and deterministic channel choices of every layer entry are whole-array
operations, and only the judging of hops walks the schedule entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .assignment import Scheme, choose_channels, random_channel
from .channel import ChannelModel
from .phy import LinkBudgetError, PhyParams, data_rate, pos, received_power, tx_time
from .topology import LayerSchedule, Tree


class TreeKind(Enum):
    SPT = "spt"
    MST = "mst"


@dataclass(frozen=True)
class HopRecord:
    """What happened at one transmitter event."""

    transmitter: int
    receivers: tuple[int, ...]
    chosen_channel: int | None
    tx_time: tuple[float, ...]  # per receiver, on the chosen channel; NaN if none
    success: tuple[bool, ...]
    available_time: float  # sampled availability of the chosen channel; NaN if none


@dataclass(frozen=True)
class SessionResult:
    delivered: dict[int, bool]
    throughput: dict[int, float]  # bits/s per destination; 0 when undelivered
    total_throughput: float
    avg_throughput: float  # total divided by the number of destinations
    pdr: float  # delivered fraction of destinations
    hops: tuple[HopRecord, ...]

    @property
    def control_trace(self) -> tuple[tuple[str, int, int], ...]:
        """(kind, from, to) per control message: each recorded hop announces
        the packet to its receivers (MA), then collects their ACKs."""
        trace = []
        for hop in self.hops:
            trace += [("MA", hop.transmitter, r) for r in hop.receivers]
            trace += [("ACK", r, hop.transmitter) for r in hop.receivers]
        return tuple(trace)


@dataclass(frozen=True, eq=False)
class EventTable:
    """Link metrics of every entry of a layer schedule, as flat arrays.

    Events are the schedule entries in order. Their receivers fill
    consecutive slots in the same order, so event e owns the slots from
    starts[e] up to the next event's start. Per-event arrays are (events x
    channels), per-receiver ones (slots x channels); busy channels carry
    zero success probability.
    """

    starts: np.ndarray  # (E,) first slot of each event
    idle: np.ndarray  # (E, M) bool
    available_time: np.ndarray  # (E, M) s; NaN on busy channels
    pos: np.ndarray  # (R, M) success probability
    rate: np.ndarray  # (R, M) bits/s
    tx_time: np.ndarray  # (R, M) s
    mu_idle: np.ndarray  # (M,) mean availability per channel, s

    def __post_init__(self):
        e, (r, m) = len(self.starts), self.tx_time.shape
        counts = np.diff(self.starts, append=r)
        if m == 0 or e == 0 or self.starts[0] != 0 or np.any(counts < 1):
            raise ValueError("metrics need at least one receiver per event and one channel")
        shapes = {"pos": (r, m), "rate": (r, m), "mu_idle": (m,), "idle": (e, m), "available_time": (e, m)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        if np.any(self.pos[~np.repeat(self.idle, counts, axis=0)] != 0.0):
            raise ValueError("busy channels must carry zero success probability")

    @cached_property
    def rows(self) -> tuple[list[int], list[list[float]], list[list[float]]]:
        """Slot starts, air times and availabilities as plain lists for the
        entry-by-entry judging loop."""
        return self.starts.tolist(), self.tx_time.tolist(), self.available_time.tolist()

    @cached_property
    def idle_channels(self) -> list[list[int]]:
        """Idle channel indices of each event, ascending."""
        channels = np.nonzero(self.idle)[1].tolist()
        ends = np.cumsum(self.idle.sum(axis=1)).tolist()
        return [channels[lo:hi] for lo, hi in zip([0, *ends], ends)]


def starts_of(schedule: LayerSchedule) -> np.ndarray:
    """First receiver slot of each schedule entry."""
    counts = [len(entry.receivers) for entry in schedule.entries]
    return np.cumsum([0, *counts[:-1]])


def draw_raw(schedule: LayerSchedule, model: ChannelModel, rng: np.random.Generator):
    """Draw the random numbers behind every schedule entry's channel states and
    fading gains, before any idle probability applies.

    Entries are drawn one after another in schedule order, each as one
    uniform per channel, then residual availability of every channel, then
    the gains of its receivers, so the generator stream is the same as
    drawing every event on its own. Only the channel count and mean idle
    durations of the model are used, so models differing only in p_idle share
    these draws. Returns (E, M) uniforms, (E, M) residuals and (R, M) gains,
    one row per receiver slot.
    """
    m = model.m
    starts = starts_of(schedule).tolist()
    uniform = np.empty((len(starts), m))
    residual = np.empty_like(uniform)
    gains = np.empty((starts[-1] + len(schedule.entries[-1].receivers), m))
    for e, (lo, entry) in enumerate(zip(starts, schedule.entries)):
        rng.random(out=uniform[e])
        # Residuals are drawn for every channel, busy ones included, so that
        # runs differing only in p_idle consume identical generator positions.
        rng.standard_exponential(out=residual[e])
        rng.standard_exponential(out=gains[lo:lo + len(entry.receivers)])
    # Scaling unit exponentials afterwards gives the same numbers as drawing
    # each channel's exponential with its own mean.
    residual *= model.mu_idle
    return uniform, residual, gains


def threshold_draws(raw, p_idle: np.ndarray):
    """Turn raw draws into channel states: a channel is idle where its uniform
    falls below its idle probability. Returns (E, M) idle flags, (E, M)
    availability (NaN on busy channels) and the (R, M) gains unchanged."""
    uniform, residual, gains = raw
    idle = uniform < p_idle
    return idle, np.where(idle, residual, np.nan), gains


def link_metrics(phy: PhyParams, distances: np.ndarray, draws, mu_idle: np.ndarray, starts: np.ndarray) -> EventTable:
    """Evaluate the link equations for a whole tree at once: gains to received
    power to rate to air time to success probability, per slot and channel.

    An infinite rate would give zero air time, so it is an error: the signal
    to noise ratio overflows at a short enough distance whenever the transmit
    power is large enough against the noise power."""
    idle, available, gains = draws
    with np.errstate(over="ignore"):
        rate = data_rate(phy, received_power(phy, distances[:, None], gains))
    if not np.isfinite(rate).all():
        raise LinkBudgetError(
            f"pt_watts = {phy.pt!r} against a noise power bandwidth_hz * noise_psd = "
            f"{phy.bandwidth * phy.noise_psd!r} W overflows the signal to noise ratio: a data rate is not finite"
        )
    t = tx_time(phy, rate)
    slot_idle = np.repeat(idle, np.diff(starts, append=len(distances)), axis=0)
    p = np.where(slot_idle, pos(t, mu_idle[None, :]), 0.0)
    return EventTable(starts, idle, available, p, rate, t, mu_idle)


def slot_distances(tree: Tree, schedule: LayerSchedule) -> np.ndarray:
    """Parent-edge distance of each receiver slot of a tree's layer schedule."""
    return np.array([tree.edge_dist[r] for entry in schedule.entries for r in entry.receivers])


def execute_schedule(
    schedule: LayerSchedule,
    table: EventTable,
    destinations,
    packet_bits: int,
    scheme: Scheme,
    rng: np.random.Generator | None = None,
    replay_all: bool = False,
) -> SessionResult:
    """Run the per-layer select/judge loop over a schedule's event table.

    With replay_all=False (sampled sessions) an entry whose transmitter never
    received the packet is skipped outright: no control messages, no decision,
    no hop record, and under rs no draw from rng. With replay_all=True
    (fixture replays) every entry is evaluated and recorded, but receivers
    below a failed relay still count as undelivered.
    """
    if scheme is Scheme.RS:
        channels = None
        idle_channels = table.idle_channels
    else:
        channels = choose_channels(scheme, table.pos, table.rate, table.mu_idle, table.idle, table.starts).tolist()
    starts, tx_rows, avail_rows = table.rows
    air_time = {schedule.entries[0].transmitter: 0.0}  # reached nodes: summed air time from the root
    hops = []
    for e, entry in enumerate(schedule.entries):
        tx, receivers = entry.transmitter, entry.receivers
        live = tx in air_time
        if not (live or replay_all):
            continue
        ch = channels[e] if channels is not None else random_channel(idle_channels[e], rng)
        if ch < 0:
            n = len(receivers)
            hops.append(HopRecord(tx, receivers, None, (math.nan,) * n, (False,) * n, math.nan))
            continue
        avail = avail_rows[e][ch]
        times = tuple([row[ch] for row in tx_rows[starts[e]:starts[e] + len(receivers)]])
        success = tuple([t <= avail for t in times])
        hops.append(HopRecord(tx, receivers, ch, times, success, avail))
        if live:
            base = air_time[tx]
            for r, t, ok in zip(receivers, times, success):
                if ok:
                    air_time[r] = base + t
    dests = sorted(destinations)
    delivered = {k: k in air_time for k in dests}
    throughput = {k: (packet_bits / air_time[k] if delivered[k] else 0.0) for k in dests}
    total = sum(throughput.values())
    return SessionResult(
        delivered=delivered,
        throughput=throughput,
        total_throughput=total,
        avg_throughput=total / len(dests),
        pdr=sum(delivered.values()) / len(dests),
        hops=tuple(hops),
    )


def session_to_csv(result: SessionResult) -> str:
    """Record set for fixture diffing: one row per destination plus a summary
    row carrying the PDR and the total throughput."""
    lines = ["dest,delivered,throughput_bps"]
    for k in sorted(result.delivered):
        lines.append(f"{k},{int(result.delivered[k])},{result.throughput[k]!r}")
    lines.append(f"summary,{result.pdr!r},{result.total_throughput!r}")
    return "\n".join(lines) + "\n"
