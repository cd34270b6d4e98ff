"""One multicast session over a layered tree.

Per layer entry the transmitter announces the packet (MA), collects
acknowledgements (ACK), samples the channel state, computes per-receiver link
metrics over the idle channels, and selects one unified channel. A receiver
gets the packet iff a channel was selected and the packet's air time on that
channel fits within the channel's sampled availability. A destination is
delivered iff every hop on its root path succeeded, and its throughput is the
packet size divided by the summed air time along that path.

A session runs on flat arrays. Each receiver of a tree's layer schedule owns
one slot, in schedule order, and a SlotIndex, built once per tree, is the one
description of that layout: each slot's entry, transmitter slot and parent
edge length, and the destinations' slots. A tree's draws and link metrics
are one EventTable over it. pos, masa and mdr choose every entry's channel
at once; rs picks entry by entry, drawing only for entries whose transmitter
has the packet. Then one index over the slots reads each hop's air time and
success on its chosen channel, and one pass from the root to the leaves sums
the air times.

Hop records (SessionResult.hops, and control_trace from them) are a view
built from the table when first read; sampled sweeps never read it. Inputs
are checked where they enter, once: seed_stages rejects co-located parent
edges, ChannelModel non-positive mean idle durations, link_metrics a
non-finite rate, and example_case.run_fixture every fixture value. An
EventTable checks nothing; the phy functions keep every check for direct
callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .assignment import Scheme, choose_channels, random_channel
from .channel import ChannelModel
from .phy import LinkBudgetError, PhyParams, link_arrays
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


@dataclass(frozen=True, eq=False)
class SlotIndex:
    """Where the receiver slots of a tree's layer schedule sit.

    Entry e's receivers fill the slots from starts[e] on, in schedule order.
    A transmitter other than the root received the packet in an earlier
    entry, so every slot comes after its transmitter's slot, and one pass in
    slot order runs from the root to the leaves.
    """

    starts: np.ndarray  # (E,) first slot of each entry
    event: np.ndarray  # (R,) entry of each slot
    tx_slot: list[int]  # (E,) slot of each entry's transmitter; -1 for the root
    parent: list[int]  # (R,) slot of each slot's transmitter; -1 under the root
    destinations: tuple[int, ...]  # sorted
    dest_slot: list[int]  # slot of each destination, in the same order
    distances: np.ndarray  # (R,) parent-edge length of each slot's receiver


def slot_index(tree: Tree, schedule: LayerSchedule, destinations) -> SlotIndex:
    """Slot index of a tree's layer schedule whose destinations are all receivers."""
    receivers = [r for entry in schedule.entries for r in entry.receivers]
    slot_of = {r: s for s, r in enumerate(receivers)}
    counts = [len(entry.receivers) for entry in schedule.entries]
    event = np.repeat(np.arange(len(counts)), counts)
    tx_slot = [slot_of.get(entry.transmitter, -1) for entry in schedule.entries]
    dests = tuple(sorted(destinations))
    return SlotIndex(
        np.cumsum([0, *counts[:-1]]), event, tx_slot, [tx_slot[e] for e in event.tolist()], dests,
        [slot_of[k] for k in dests], np.array([tree.edge_dist[r] for r in receivers]),
    )


@dataclass(frozen=True, eq=False)
class EventTable:
    """Link metrics of every entry of a layer schedule, as flat arrays in the
    slot layout of slots. Per-event arrays are (events x channels),
    per-receiver ones (slots x channels); busy channels carry zero success
    probability. Builders check what they pass in (see the module docstring)."""

    slots: SlotIndex
    idle: np.ndarray  # (E, M) bool
    available_time: np.ndarray  # (E, M) s; NaN on busy channels
    pos: np.ndarray  # (R, M) success probability
    rate: np.ndarray  # (R, M) bits/s
    tx_time: np.ndarray  # (R, M) s
    mu_idle: np.ndarray  # (M,) mean availability per channel, s

    @cached_property
    def fits(self) -> np.ndarray:
        """(R, M) bool: whether the packet's air time to each slot fits within
        its event's sampled availability of each channel, the success rule of
        every hop. Busy channels never fit: their availability is NaN."""
        return self.tx_time <= self.available_time[self.slots.event]


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one session. == compares the outcome fields only; the hop
    records are a view over the fields after them."""

    delivered: dict[int, bool]
    throughput: dict[int, float]  # bits/s per destination; 0 when undelivered
    total_throughput: float
    avg_throughput: float  # total divided by the number of destinations
    pdr: float  # delivered fraction of destinations
    schedule: LayerSchedule = field(repr=False, compare=False)
    table: EventTable = field(repr=False, compare=False)
    channels: np.ndarray = field(repr=False, compare=False)  # per entry; -1 for none or not picked
    recorded: list[int] = field(repr=False, compare=False)  # entries the hop view lists

    @cached_property
    def hops(self) -> tuple[HopRecord, ...]:
        """What happened at each recorded entry, in schedule order: in sampled
        sessions every entry whose transmitter had the packet, in fixture
        replays every entry."""
        hops = []
        for e in self.recorded:
            entry, ch, lo = self.schedule.entries[e], int(self.channels[e]), int(self.table.slots.starts[e])
            tx, receivers, n = entry.transmitter, entry.receivers, len(entry.receivers)
            if ch < 0:
                hops.append(HopRecord(tx, receivers, None, (math.nan,) * n, (False,) * n, math.nan))
                continue
            times = tuple(self.table.tx_time[lo:lo + n, ch].tolist())
            success = tuple(self.table.fits[lo:lo + n, ch].tolist())
            hops.append(HopRecord(tx, receivers, ch, times, success, float(self.table.available_time[e, ch])))
        return tuple(hops)

    @property
    def control_trace(self) -> tuple[tuple[str, int, int], ...]:
        """(kind, from, to) per control message: each recorded hop announces
        the packet to its receivers (MA), then collects their ACKs."""
        trace = []
        for hop in self.hops:
            trace += [("MA", hop.transmitter, r) for r in hop.receivers]
            trace += [("ACK", r, hop.transmitter) for r in hop.receivers]
        return tuple(trace)


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
    m, entries = model.m, schedule.entries
    uniform = np.empty((len(entries), m))
    residual = np.empty_like(uniform)
    gains = np.empty((sum(len(entry.receivers) for entry in entries), m))
    hi = 0
    for e, entry in enumerate(entries):
        rng.random(out=uniform[e])
        # Residuals are drawn for every channel, busy ones included, so that
        # runs differing only in p_idle consume identical generator positions.
        rng.standard_exponential(out=residual[e])
        lo, hi = hi, hi + len(entry.receivers)
        rng.standard_exponential(out=gains[lo:hi])
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


def link_metrics(phy: PhyParams, draws, mu_idle: np.ndarray, slots: SlotIndex) -> EventTable:
    """Evaluate the link equations for a whole tree at once: gains to received
    power to rate to air time to success probability, per slot and channel,
    over each slot's parent-edge distance in slots.

    An infinite rate would give zero air time, so it is an error: the signal
    to noise ratio overflows at a short enough distance whenever the transmit
    power is large enough against the noise power."""
    idle, available, gains = draws
    rate, t, p = link_arrays(phy, slots.distances[:, None], gains, mu_idle)
    if not np.isfinite(rate).all():
        raise LinkBudgetError(
            f"pt_watts = {phy.pt!r} against a noise power bandwidth_hz * noise_psd = "
            f"{phy.bandwidth * phy.noise_psd!r} W overflows the signal to noise ratio: a data rate is not finite"
        )
    return EventTable(slots, idle, available, np.where(idle[slots.event], p, 0.0), rate, t, mu_idle)


def _random_channels(table: EventTable, rng: np.random.Generator | None, replay_all: bool):
    """rs: one uniform pick among an entry's idle channels per entry whose
    transmitter has the packet, or per entry under replay_all, in schedule
    order. Which transmitters have it depends on the picks above them, so the
    loop follows the packet down the tree as it picks."""
    slots = table.slots
    channels = [-1] * len(slots.tx_slot)
    has = [False] * len(slots.parent) + [True]  # per slot; the extra last entry, slot -1, is the root
    bounds = [*slots.starts.tolist(), len(slots.parent)]
    for e, tx in enumerate(slots.tx_slot):
        if has[tx] or replay_all:
            channels[e] = ch = random_channel(table.idle[e].nonzero()[0].tolist(), rng)
            if has[tx] and ch >= 0:
                has[bounds[e]:bounds[e + 1]] = table.fits[bounds[e]:bounds[e + 1], ch].tolist()
    return np.array(channels)


def execute_schedule(
    schedule: LayerSchedule,
    table: EventTable,
    packet_bits: int,
    scheme: Scheme,
    rng: np.random.Generator | None = None,
    replay_all: bool = False,
) -> SessionResult:
    """Choose every entry's channel, judge every hop and deliver along the
    tree of schedule, whose slots table.slots lays out.

    A slot gets the packet iff its transmitter has it and its air time fits
    within the availability of the chosen channel. Under rs an entry whose
    transmitter never got the packet makes no rng call, except with
    replay_all=True (fixture replays), where every entry picks and every
    entry is listed in hops; sampled sessions list only the entries whose
    transmitter had the packet.
    """
    slots = table.slots
    if scheme is Scheme.RS:
        channels = _random_channels(table, rng, replay_all)
    else:
        channels = choose_channels(scheme, table.pos, table.rate, table.mu_idle, table.idle, slots.starts)
    slot_ch = channels[slots.event]
    rows = np.arange(len(slot_ch))
    success = (table.fits[rows, slot_ch] & (slot_ch >= 0)).tolist()
    times = table.tx_time[rows, slot_ch].tolist()
    # Air time summed from the root for each slot that got the packet, None
    # for the others; the extra last entry, slot -1, is the root.
    air: list[float | None] = [None] * len(times) + [0.0]
    for s, (p, ok, t) in enumerate(zip(slots.parent, success, times)):
        if ok and air[p] is not None:
            air[s] = air[p] + t
    dests = slots.destinations
    delivered = {k: air[s] is not None for k, s in zip(dests, slots.dest_slot)}
    throughput = {k: (packet_bits / air[s] if air[s] is not None else 0.0) for k, s in zip(dests, slots.dest_slot)}
    total = sum(throughput.values())
    recorded = list(range(len(channels))) if replay_all else [
        e for e, tx in enumerate(slots.tx_slot) if air[tx] is not None
    ]
    return SessionResult(
        delivered=delivered,
        throughput=throughput,
        total_throughput=total,
        avg_throughput=total / len(dests),
        pdr=sum(delivered.values()) / len(dests),
        schedule=schedule,
        table=table,
        channels=channels,
        recorded=recorded,
    )


def session_to_csv(result: SessionResult) -> str:
    """Record set for fixture diffing: one row per destination plus a summary
    row carrying the PDR and the total throughput."""
    lines = ["dest,delivered,throughput_bps"]
    for k in sorted(result.delivered):
        lines.append(f"{k},{int(result.delivered[k])},{result.throughput[k]!r}")
    lines.append(f"summary,{result.pdr!r},{result.total_throughput!r}")
    return "\n".join(lines) + "\n"
