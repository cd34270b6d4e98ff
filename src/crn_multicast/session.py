"""One multicast session over a layered tree.

Per layer entry the transmitter announces the packet (MA), collects
acknowledgements (ACK), samples the channel state, computes per-receiver link
metrics over the idle channels, and selects one unified channel. A receiver
gets the packet iff a channel was selected and the packet's air time on that
channel fits within the channel's sampled availability. A destination is
delivered iff every hop on its root path succeeded, and its throughput is the
packet size divided by the summed air time along that path.

A session runs on flat arrays. Each receiver of a tree's breadth-first
layer schedule owns one slot, and a SlotIndex is the one description of
that layout: each entry's transmitter node, each slot's receiver node,
entry, transmitter slot and parent edge length, and the destinations'
slots. slot_index builds it for a whole stack of trees at once, straight
from their (trees, n) parent arrays: it prunes, walks, then lays out.
Marking the parents of marked nodes up from the destinations prunes each
tree, one level walk orders only the pruned trees breadth-first, and their
non-roots, tree after tree, are the slots. So
every (seed, tree kind) of a block of trial seeds is one index, drawn in
four generator calls per tree with each tree's own generator (draw_raw),
and its link metrics are one EventTable over it, on every channel whether
idle or not, with one layer per radio (link_metrics): idle probabilities
only decide which channels are idle, so one table serves every idle
probability and every radio over the same mean idle durations, and
idle_flags thresholds the uniforms at one or several of them at once.
Every scheme chooses every entry's channel from the table under every set
of idle flags at once (assignment.choose_channels), each set against its
radio's layer: pos and mdr from each entry's worst receiver's pos or rate,
reduced where the table is built (SlotIndex.worst), masa from the mean
idle durations, rs from its one pick uniform per entry, drawn whether or
not the entry's transmitter gets the packet. judge then settles every tree
under every column of chosen channels, each column on its own radio, in
one array pass. It is the one place that compares air time with
availability: a chosen channel is always idle, so a hop succeeds iff its
air time on that channel fits within its entry's availability. Gathers read both at each hop's chosen cell, and the
air times are summed along each destination's path from the root
(SlotIndex.dest_paths, built once per index), one step at a time for all
paths together. The table, the chosen channels and the Judgement are the
one result of a session: sweeps, run (a block of one seed) and fixture
replays (one tree) all read them, and Judgement.averages gives every tree's
average throughput and PDR. What happened at an entry is read straight
from them: its node ids from the slot index, its channel from the chosen
channels (-1 for none), and whether each receiver's hop succeeded from the
Judgement's air, NaN where it failed.

Inputs are checked where they enter, once: experiment.ScenarioParams
rejects bad mean idle durations and idle probabilities,
experiment._block_stages co-located parent edges, link_metrics a
non-finite rate, and example_case.run_fixture every fixture value. An
EventTable checks nothing, and phy.link_arrays, the one evaluation of the
link equations, no range.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .phy import LinkBudgetError, link_arrays, pos
from .topology import tree_levels


class TreeKind(Enum):
    SPT = "spt"
    MST = "mst"


@dataclass(frozen=True, eq=False)
class SlotIndex:
    """Where the receiver slots of a stack of trees' layer schedules sit
    (slot_index).

    Entry e's receivers fill the slots from starts[e] on, in schedule order.
    A transmitter other than a root received the packet in an earlier entry
    of its tree, so every slot comes after its transmitter's slot. In a
    stack each tree's entries and slots follow the previous tree's, and
    tree_starts[j] is tree j's first entry.
    """

    starts: np.ndarray  # (E,) first slot of each entry
    event: np.ndarray  # (R,) entry of each slot
    tx_slot: np.ndarray  # (E,) slot of each entry's transmitter; -1 for a root
    transmitter: np.ndarray  # (E,) node id of each entry's transmitter
    receiver: np.ndarray  # (R,) node id of each slot's receiver
    height: int  # slots on the longest path from a root
    dest_slot: np.ndarray  # (trees, D) slot of each destination, in the same order
    distances: np.ndarray  # (R,) parent-edge length of each slot's receiver
    tree_starts: np.ndarray  # (trees + 1,) first entry of each tree, then E

    @cached_property
    def destinations(self) -> tuple[int, ...]:
        """Each tree's destination node ids, sorted, tree after tree: the
        receivers of dest_slot."""
        return tuple(self.receiver[self.dest_slot].ravel().tolist())

    @cached_property
    def dest_paths(self) -> np.ndarray:
        """(height, trees x D) slots on the path from its root to each
        destination, tree after tree: row k holds every path's k-th slot,
        root side first, and the last row the destinations' own. Shorter
        paths are padded at the root side with -1, the index of an extra last
        row that stands for the roots. Built once per index, the first time a
        table over it is judged."""
        parent = np.concatenate((self.tx_slot[self.event], [-1]))
        paths = np.empty((self.height, self.dest_slot.size), dtype=np.intp)
        paths[-1] = self.dest_slot.ravel()
        for k in range(self.height - 1, 0, -1):
            paths[k - 1] = parent[paths[k]]
        return paths

    def worst(self, per_slot: np.ndarray) -> np.ndarray:
        """(K, E, M) minimum of a (K, R, M) array over each entry's slots."""
        return np.minimum.reduceat(per_slot, self.starts, axis=-2)


def slot_index(parent: np.ndarray, dist: np.ndarray, destinations: np.ndarray, root: int = 0) -> SlotIndex:
    """Slot index of a stack of trees over the same n node ids, each pruned
    to its destinations: parent and dist are (trees, n) arrays of each
    node's parent (-1 at the root and at nodes outside a tree) and
    parent-edge length, destinations a (trees, D) array of each tree's
    nodes to reach, each joined to the root by parent edges; the root
    itself is not one.

    Prune, walk, lay out. Marking the parent of every marked node, starting
    from the destinations, prunes each tree to its root-to-destination
    paths; the marks climb along a parent pointer that doubles its reach
    each step, so log2(n) steps mark every path. One level walk
    (topology.tree_levels) over the parent arrays with every unmarked node
    cut off orders the pruned trees breadth-first, and its depth is the
    height. The non-roots in level order, tree after tree, are the slots:
    each entry's receivers are one node's marked children, in order of id,
    and entries follow their transmitters' breadth-first order, as a walk
    from each root transmitting once per internal node gives them.
    """
    trees, n = parent.shape
    dests = np.sort(destinations, axis=1)
    if not dests.size:
        raise ValueError("destination set is empty, nothing to multicast")
    if (dests == root).any():
        raise ValueError("the root cannot be one of its own destinations")
    # Flat parent ids, with one extra node, trees * n, above every root and itself.
    flat = np.append(np.where(parent >= 0, parent + np.arange(0, trees * n, n)[:, None], trees * n), trees * n)
    dest_flat = dests + np.arange(0, trees * n, n)[:, None]
    keep = np.zeros(trees * n + 1, dtype=bool)
    keep[dest_flat] = True
    # Mark the parent of every marked node, doubling the reach each step: after
    # j steps every node fewer than 2**j steps above a destination is marked,
    # and no node is n steps below its root.
    up = flat
    for _ in range((n - 1).bit_length()):
        keep[up[keep]] = True
        up = up[up]
    levels = tree_levels(np.where(keep[:-1].reshape(trees, n), parent, -1), root)
    order = np.concatenate(levels[1:])
    order = order[np.argsort(order // n, kind="stable")]  # level order within each tree, tree after tree
    slot_of = np.full(trees * n, -1)
    slot_of[order] = np.arange(len(order))
    tx = flat[order]
    new = np.concatenate(([True], tx[1:] != tx[:-1]))  # a receiver whose parent differs from the previous one's
    starts = np.flatnonzero(new)
    tx = tx[starts]
    return SlotIndex(
        starts, np.cumsum(new) - 1, slot_of[tx], tx % n, order % n, len(levels) - 1, slot_of[dest_flat],
        dist.ravel()[order], np.searchsorted(tx // n, np.arange(trees + 1)),
    )


@dataclass(frozen=True, eq=False)
class EventTable:
    """Link metrics of every entry of a layer schedule under K radios, on
    every channel whether idle or not: which channels are idle is a separate
    (E, M) array of flags, or several (idle_flags). (E, M) arrays are shared
    by every radio; the others have one layer per radio: pos and rate of each
    entry's worst receiver (SlotIndex.worst), and tx_time per slot, for
    judge. Builders check what they pass in (see the module docstring)."""

    slots: SlotIndex
    available_time: np.ndarray  # (E, M) s; sampled availability, read only on idle channels
    pos: np.ndarray  # (K, E, M) worst receiver's success probability
    rate: np.ndarray  # (K, E, M) worst receiver's bits/s
    tx_time: np.ndarray  # (K, R, M) s
    mu_idle: np.ndarray  # (M,) mean availability per channel, s
    packet_bits: np.ndarray  # (K,) float packet size of each radio, bits
    picks: np.ndarray | None = None  # (E,) rs pick uniforms in [0, 1); None where rs cannot run


def draw_raw(slots: SlotIndex, mu_idle: np.ndarray, rngs):
    """Draw the random numbers behind every entry's channel states, fading
    gains and rs pick, before any idle probability applies, over M channels
    with mean idle durations mu_idle, (M,), tree j of slots with rngs[j].

    Each licensed channel alternates between busy (primary user present)
    and idle periods. An entry samples each channel's state, and for an
    idle channel the residual time it stays available: exponential with the
    channel's mean idle duration, since the residual of an exponential idle
    period is memoryless.

    Each tree takes four generator calls, over all of its entries at once:
    one uniform per entry and channel, then the residual availability of
    every entry and channel, then the gains of every receiver slot and
    channel, then one pick uniform per entry. Residuals are drawn for busy
    channels too, and the picks whatever the channel states, so that runs
    differing only in p_idle consume identical generator positions and
    share these draws. Returns (E, M) uniforms, (E, M) residuals, (R, M)
    gains, one row per receiver slot, and (E,) picks.
    """
    tree_starts = slots.tree_starts.tolist()
    if len(rngs) != len(tree_starts) - 1:
        raise ValueError(f"drawing needs one rng per tree, got {len(rngs)} for {len(tree_starts) - 1}")
    n_entries, n_slots, m = len(slots.starts), len(slots.event), len(mu_idle)
    uniform, residual = np.empty((n_entries, m)), np.empty((n_entries, m))
    gains, picks = np.empty((n_slots, m)), np.empty(n_entries)
    # Each tree's entries and slots follow the previous tree's.
    slot_starts = np.append(slots.starts, n_slots)[tree_starts].tolist()
    for rng, e0, e1, s0, s1 in zip(rngs, tree_starts, tree_starts[1:], slot_starts, slot_starts[1:]):
        rng.random(out=uniform[e0:e1])
        rng.standard_exponential(out=residual[e0:e1])
        rng.standard_exponential(out=gains[s0:s1])
        rng.random(out=picks[e0:e1])
    # Scaling unit exponentials afterwards gives the same numbers as drawing
    # each channel's exponential with its own mean; a mean near the float
    # maximum gives an infinite residual, available for ever.
    with np.errstate(over="ignore"):
        residual *= mu_idle
    return uniform, residual, gains, picks


def idle_flags(raw, p_idle: np.ndarray) -> np.ndarray:
    """Channel states of raw draws (draw_raw): a channel is idle where its
    uniform falls below its idle probability. p_idle is (M,) for one set of
    channels, giving (E, M) flags, or (V, M) for V sets at once, giving (V,
    E, M); a length-1 last axis gives every channel the same probability."""
    return raw[0] < p_idle[..., None, :]


def link_metrics(radios, raw, mu_idle: np.ndarray, slots: SlotIndex) -> EventTable:
    """Evaluate the link equations for a whole stack of trees under K radios
    (ScenarioParams) at once, radio k as layer k of the table, from raw
    draws (draw_raw): rate and air time per slot and channel over each
    slot's parent-edge distance (phy.link_arrays), then pos of each entry's
    worst rate (SlotIndex.worst, phy.pos). Every channel's residual is its
    availability: idle flags decide which channels a scheme may choose.

    An infinite rate at any slot would give zero air time, so it is an
    error, naming the first radio that has one: the signal to noise ratio
    overflows at a short enough distance whenever the transmit power is
    large enough against the noise power."""
    _, residual, gains, picks = raw
    rate, t = link_arrays(radios, slots.distances[:, None], gains)
    if not np.isfinite(rate).all():
        radio = radios[int(np.isfinite(rate).reshape(len(radios), -1).all(axis=1).argmin())]
        raise LinkBudgetError(
            f"pt_watts = {radio.pt_watts!r} against a noise power bandwidth_hz * noise_psd = "
            f"{radio.bandwidth_hz * radio.noise_psd!r} W overflows the signal to noise ratio: a data rate is not finite"
        )
    bits = np.array([radio.packet_bits for radio in radios], dtype=float)
    rate = slots.worst(rate)
    return EventTable(slots, residual, pos(bits, rate, mu_idle), rate, t, mu_idle, bits, picks)


@dataclass(frozen=True, eq=False)
class Judgement:
    """Outcome of every tree of a table under each of S channel columns."""

    air: np.ndarray  # (R + 1, S) air time of each slot's hop, NaN where it fails; 0 in the roots' last row
    delivered: np.ndarray  # (trees, D, S) bool per destination
    throughput: np.ndarray  # (trees, D, S) bits/s per destination; 0 when undelivered
    total: np.ndarray  # (trees, S) throughputs summed one destination after another

    def averages(self) -> tuple[np.ndarray, np.ndarray]:
        """(trees, S) average throughput and PDR of every tree under every
        column: its total over the destination count, and the delivered
        fraction of its destinations."""
        n_dest = self.delivered.shape[1]
        return self.total / n_dest, self.delivered.sum(axis=1) / n_dest


def judge(table: EventTable, channels: np.ndarray) -> Judgement:
    """Judge every hop of every tree of table under each column of channels,
    an (E, S) array of chosen channels (-1 for none), and deliver. The
    columns are laid out radio after radio, S / K to each of the table's K
    radios: column c is judged on radio c // (S / K).

    A slot gets the packet iff every hop on its path from the root fits: a
    channel was chosen, so an idle one, and the air time on it fits within
    its entry's sampled availability of it, tx_time <= available_time. This
    is the one place that rule is applied. Gathers read every slot's air
    time and its entry's availability on its chosen channel, giving each
    hop's air time, NaN where it fails (Judgement.air). The air times are
    added along every destination's path (SlotIndex.dest_paths) from the
    root side one slot after another, gathered a step at a time for all
    paths, the same float additions as walking the path hop by hop. A failed
    hop leaves NaN on every path through it: fitting air times are numbers,
    and a sum of numbers that overflows is inf, never NaN, and as with
    Python floats no error. A destination's throughput is packet_bits over
    its path's sum, and a tree's total adds the throughputs in destination
    order, as Python's sum does. Each column reads only its own radio's
    layer and packet size.
    """
    slots = table.slots
    # ndarray.take, not np.take: on a table of one tree np.take's Python
    # wrapper costs more than the gather itself.
    slot_ch = channels.take(slots.event, axis=0)
    # Flat cell indexes into the (K, R, M) air times, each column in its
    # radio's layer, and into the (E, M) availabilities, each slot at its
    # entry; a -1 channel reads a neighbouring cell, never used.
    k, r, m = table.tx_time.shape
    per_radio = slot_ch.shape[1] // k
    cells = slot_ch + (np.arange(0, r * m, m)[:, None] + np.arange(0, k * r * m, r * m).repeat(per_radio))
    tx_time = table.tx_time.take(cells)
    fits = tx_time <= table.available_time.take(slot_ch + (slots.event * m)[:, None])
    # One row per slot plus a last one for the roots, which hold the packet at air time 0.
    air = np.zeros((len(slot_ch) + 1, slot_ch.shape[1]))
    air[:-1] = np.where(fits & (slot_ch >= 0), tx_time, np.nan)
    # One (paths, S) gather per step rather than one (height, paths, S) gather:
    # the columns of a group of values would make that one large.
    paths = slots.dest_paths
    with np.errstate(over="ignore"):
        dest_air = air.take(paths[0], axis=0)
        for row in paths[1:]:
            dest_air += air.take(row, axis=0)
        dest_air = dest_air.reshape(*slots.dest_slot.shape, air.shape[1])
        delivered = ~np.isnan(dest_air)
        bits = table.packet_bits.repeat(per_radio)
        throughput = np.divide(bits, dest_air, out=np.zeros(dest_air.shape), where=delivered)
    # np.add.accumulate adds in order along its axis, as Python's sum does.
    total = np.add.accumulate(throughput, axis=1)[:, -1]
    return Judgement(air, delivered, throughput, total)


def session_to_csv(destinations, delivered, throughput, total: float) -> str:
    """Record set of one tree under one channel column, for fixture diffing:
    one row per destination, in the order given (a SlotIndex's are sorted),
    with its delivery flag and throughput, plus a summary row carrying the
    PDR and the total throughput. Each number is written as the repr of a
    Python float."""
    lines = ["dest,delivered,throughput_bps"]
    lines += [f"{k},{int(ok)},{float(t)!r}" for k, ok, t in zip(destinations, delivered, throughput)]
    lines.append(f"summary,{float(sum(delivered)) / len(delivered)!r},{float(total)!r}")
    return "\n".join(lines) + "\n"
