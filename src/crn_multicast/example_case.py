"""Built-in worked example: a hand-checkable 15-node multicast replay.

One source (node 1) multicasts a 4 KB packet to destinations 6..10 over a
shortest-path tree whose relevant branches are 1->6, 1->8->7, 1->9 and
1->2->10, with six primary channels of mean availability 10..60 ms. The
per-link success-probability and air-time tables, the per-event busy sets,
and the channel availability draws are all fixed, so the whole session has a
single correct outcome that can be verified by hand:

  layer 1 picks channel 5, the relay subtrees pick channels 6 and 4,
  destinations 6, 9 and 10 get the packet (PDR 0.6), and the per-destination
  throughputs are 32768/0.0059, 32768/0.0051 and 32768/(0.0060+0.0057) bits/s.

The fixture is a JSON-friendly dict so it can be dumped, edited and replayed
from a file; channel ids inside it are 1-based as in the tables above.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import replace

import numpy as np

from .assignment import Scheme, choose_channels
from .session import EventTable, Judgement, judge, slot_index
from .topology import tree_levels

PACKET_BITS = 32768  # 4 KB
MU_MS = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
ROOT = 1
TREE_EDGES = ((1, 2), (1, 6), (1, 8), (1, 9), (2, 10), (8, 7))
DESTINATIONS = (6, 7, 8, 9, 10)

# Success probability per link and channel; zeros mark the busy channels of
# that event. Keyed by transmitter, then receiver.
POS_TABLES = {
    1: {
        2: (0.6658, 0.0, 0.0, 0.9071, 0.8869, 0.796),
        6: (0.534, 0.0, 0.0, 0.7716, 0.8895, 0.9073),
        8: (0.2903, 0.0, 0.0, 0.8222, 0.89, 0.8691),
        9: (0.6563, 0.0, 0.0, 0.9207, 0.9037, 0.936),
    },
    2: {10: (0.0, 0.0, 0.842, 0.8048, 0.7958, 0.91)},
    8: {7: (0.1939, 0.0, 0.768, 0.8093, 0.0, 0.0)},
}

# Sampled availability of each event's idle channels (one shared draw per
# event) and one air-time override: the tables above only pin air times to
# their printed 4-decimal precision, and link 1->8 must overrun the channel-5
# availability for the documented outcome (destination 8 misses the packet).
AVAILABLE_S = {1: 0.0062, 2: 0.0060, 8: 0.0030}
TX_OVERRIDES_S = {(1, 8, 5): 0.0065}


def builtin_fixture() -> dict:
    """The canned replay scenario as a new JSON-serializable dict, which the
    caller may edit."""
    events = []
    for tx in sorted(POS_TABLES):
        table = POS_TABLES[tx]
        receivers = sorted(table)
        idle = [any(table[r][j] > 0.0 for r in receivers) for j in range(len(MU_MS))]
        tx_time = {}
        for r in receivers:
            row = []
            for j, p in enumerate(table[r]):
                if not idle[j]:
                    row.append(None)
                else:
                    # Air time consistent with the table entry at its printed
                    # precision: mu * ln(1/p), rounded to 0.1 ms.
                    t = round(-MU_MS[j] / 1000.0 * math.log(p), 4)
                    row.append(TX_OVERRIDES_S.get((tx, r, j + 1), t))
            tx_time[str(r)] = row
        events.append(
            {
                "transmitter": tx,
                "receivers": receivers,
                "idle_channels": [j + 1 for j, up in enumerate(idle) if up],
                "pos": {str(r): list(table[r]) for r in receivers},
                "tx_time_s": tx_time,
                "available_time_s": [AVAILABLE_S[tx] if up else None for up in idle],
            }
        )
    throughput = {
        "6": PACKET_BITS / 0.0059,
        "7": 0.0,
        "8": 0.0,
        "9": PACKET_BITS / 0.0051,
        "10": PACKET_BITS / (0.0060 + 0.0057),
    }
    total = sum(throughput.values())
    return {
        "mu_ms": list(MU_MS),
        "packet_bits": PACKET_BITS,
        "root": ROOT,
        "tree_edges": [list(e) for e in TREE_EDGES],
        "destinations": list(DESTINATIONS),
        "events": events,
        "expected": {
            "selected_channels": [5, 6, 4],
            "throughput_bps": throughput,
            "pdr": 0.6,
            "total_throughput_bps": total,
            "avg_throughput_bps": total / len(DESTINATIONS),
        },
    }


def _field(obj, key: str, what: str):
    """obj[key], where obj is the part of a fixture that what names: an
    error names what if obj is not a JSON object or has no key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} has no {key!r}")
    return obj[key]


def _list(values, what: str) -> list:
    """A fixture's JSON list, which what names in the error if it is none."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {values!r}")
    return list(values)


def _ids(values, what: str) -> list[int]:
    """A fixture's node or channel ids, each a JSON integer, none repeated: a
    bool, a float or a string is an error, never truncated to an id."""
    ids = _list(values, what)
    for x in ids:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{what}: {x!r} is not an integer id")
    if len(set(ids)) < len(ids):
        raise ValueError(f"{what}: an id is listed twice in {ids!r}")
    return [int(x) for x in ids]


def _numbers(values, what: str, null: float | None = math.nan, channels: int | None = None) -> list:
    """A fixture's list of numbers, each null read as `null` (an error if
    null is None), one per channel if channels is given: anything but a JSON
    number or null, such as a string, a bool or an integer beyond float
    range, is an error, never coerced to a number."""
    out = _list(values, what)
    if channels is not None and len(out) != channels:
        raise ValueError(f"{what} must hold {channels} numbers, one per channel, got {len(out)}")
    for x in out:
        if isinstance(x, bool) or not isinstance(x, numbers.Real) and (x is not None or null is None):
            raise ValueError(f"{what}: {x!r} is not a number")
        if isinstance(x, numbers.Integral) and not -sys.float_info.max <= x <= sys.float_info.max:
            raise ValueError(f"{what}: an integer beyond float range is not a number")
    return [null if x is None else x for x in out]


def _number(obj, key: str, what: str) -> float:
    """obj[key] (_field), one JSON number (_numbers): null is an error."""
    return float(_numbers([_field(obj, key, what)], f"{what} {key}", null=None)[0])


def _tree_from_fixture(fixture: dict) -> tuple[int, dict[int, int]]:
    """The fixture's root and the parent of every other node of its tree."""
    (root,) = _ids([_field(fixture, "root", "fixture")], "root")
    parent: dict[int, int] = {}
    for edge in _list(_field(fixture, "tree_edges", "fixture"), "tree_edges"):
        u, v = _ids(edge, f"tree edge {edge!r}")
        if v == root:
            raise ValueError(f"tree edge {edge!r} leads into the root {root}")
        if v in parent:
            raise ValueError(f"node {v} has two parent edges, from {parent[v]} and from {u}")
        parent[v] = u
    return root, parent


def run_fixture(
    fixture: dict, scheme: Scheme = Scheme.POS, rng: np.random.Generator | None = None
) -> tuple[EventTable, np.ndarray, Judgement]:
    """Replay the fixture's session from its link tables instead of sampling:
    its event table of one tree on one radio, its (events, 1) chosen
    channels and their Judgement, as run_scenario_sessions returns a seeded
    one.

    Events must line up one-to-one with the tree's layer schedule (same
    transmitters and receiver sets, in order); receivers are taken in schedule
    order. Every event has its channel chosen, even below a failed relay, so
    all selections can be inspected; delivery still requires the full root
    path to succeed. Data rates are recovered from the air times, so rate-based
    selection stays available. rng feeds random selection, one pick uniform
    per event drawn in one call.
    Every value read is checked, as fixtures come from outside the program;
    a null air time is an infinite one (a zero rate).
    """
    root, parent = _tree_from_fixture(fixture)
    # The tree's node ids, numbered in order of id as indexes of its parent array.
    ids = np.array(sorted({root, *parent, *parent.values()}))
    index = {v: i for i, v in enumerate(ids.tolist())}
    parent_of = np.full(len(ids), -1)
    parent_of[[index[v] for v in parent]] = [index[u] for u in parent.values()]
    reached = set(ids[np.concatenate(tree_levels(parent_of[None], index[root]))].tolist())
    # Nodes on a cycle of tree edges never lead up to the root, so no level holds them.
    stray = set(parent) - reached
    if stray:
        raise ValueError(f"nodes {sorted(stray)} have no path to the root {root} along tree_edges")
    destinations = _ids(_field(fixture, "destinations", "fixture"), "destinations")
    missing = set(destinations) - reached
    if missing:
        raise ValueError(f"destinations not spanned by the tree: {sorted(missing)}")
    # The fixture injects every metric, so parent-edge lengths are unknown.
    slots = slot_index(
        parent_of[None], np.full((1, len(ids)), math.nan), [[index[d] for d in destinations]], index[root]
    )
    slots = replace(slots, transmitter=ids[slots.transmitter], receiver=ids[slots.receiver])
    transmitter, receiver = slots.transmitter.tolist(), slots.receiver.tolist()
    stray = set(parent) - set(receiver)
    if stray:
        raise ValueError(f"tree is not pruned to the destination set, stray nodes: {sorted(stray)}")
    events = _list(_field(fixture, "events", "fixture"), "events")
    if len(events) != len(transmitter):
        raise ValueError(f"expected {len(transmitter)} events for this tree, got {len(events)}")
    packet_bits = _field(fixture, "packet_bits", "fixture")
    if isinstance(packet_bits, bool) or not isinstance(packet_bits, numbers.Integral) or packet_bits < 1:
        raise ValueError(f"packet_bits must be a positive integer, got {packet_bits!r}")
    if packet_bits > sys.float_info.max:
        raise ValueError(f"packet_bits must not exceed the largest float, {sys.float_info.max!r}")
    mu = np.array(_numbers(_field(fixture, "mu_ms", "fixture"), "mu_ms"), dtype=float) / 1000.0
    if mu.size == 0:
        raise ValueError("metrics need at least one receiver per event and one channel")
    if not (np.isfinite(mu) & (mu > 0.0)).all():
        raise ValueError(f"mu_ms must be a list of finite positive numbers, got {fixture['mu_ms']!r}")
    idle = np.zeros((len(events), mu.size), dtype=bool)
    pos_rows, tx_rows, avail_rows = [], [], []
    bounds = [*slots.starts.tolist(), len(receiver)]
    for e, ev in enumerate(events):
        (tx,) = _ids([_field(ev, "transmitter", f"event {e}")], "transmitter")
        label = f"event of transmitter {tx}"
        receivers = _ids(_field(ev, "receivers", label), f"receivers of transmitter {tx}")
        entry = tuple(receiver[bounds[e]:bounds[e + 1]])
        if tx != transmitter[e] or set(receivers) != set(entry):
            raise ValueError(
                f"event for transmitter {ev['transmitter']} does not match the "
                f"schedule entry ({transmitter[e]} -> {entry})"
            )
        ids = _ids(_field(ev, "idle_channels", label), f"{label}, idle channels")  # 1..M in the fixture
        bad = [c for c in ids if not 1 <= c <= mu.size]
        if bad:
            raise ValueError(f"{label}: idle channel ids {bad} outside 1..{mu.size}")
        idle[e, [c - 1 for c in ids]] = True
        for r in entry:
            pos_row = _field(_field(ev, "pos", label), str(r), f"{label}, pos")
            pos_rows.append(_numbers(pos_row, f"{label}, receiver {r}, pos", channels=mu.size))
            tx_row = _field(_field(ev, "tx_time_s", label), str(r), f"{label}, tx_time_s")
            tx_rows.append(_numbers(tx_row, f"{label}, receiver {r}, tx_time_s", null=math.inf, channels=mu.size))
        avail_rows.append(_numbers(_field(ev, "available_time_s", label), f"{label}, available_time_s", channels=mu.size))
    pos, tx, available = (np.array(rows, dtype=float) for rows in (pos_rows, tx_rows, avail_rows))
    slot_idle, slot_avail = idle[slots.event], available[slots.event]
    with np.errstate(divide="ignore", over="ignore"):
        rate = np.where(tx > 0.0, float(packet_bits) / tx, np.inf)
    at = [f"event of transmitter {transmitter[e]}, receiver {v}" for e, v in zip(slots.event.tolist(), receiver)]
    for bad, values, message in (
        (~((pos >= 0.0) & (pos <= 1.0)), pos, "pos must lie in [0, 1]"),
        (~slot_idle & (pos != 0.0), pos, "busy channels must carry zero success probability"),
        (slot_idle & ~(tx > 0.0), tx, "air time on an idle channel must be positive (null: infinite)"),
        (slot_idle & ~(rate < math.inf), tx, "packet_bits / air time overflows the data rate"),
        (slot_idle & ~(slot_avail >= 0.0), slot_avail, "availability of an idle channel must be a number >= 0"),
    ):
        if bad.any():
            s, j = np.argwhere(bad)[0]
            raise ValueError(f"{at[s]}, channel {j + 1}: {message}, got {float(values[s, j])!r}")
    picks = None if rng is None else rng.random(len(events))
    worst_pos, worst_rate = slots.worst(pos[None]), slots.worst(rate[None])
    table = EventTable(slots, available, worst_pos, worst_rate, tx[None], mu, np.array([float(packet_bits)]), picks)
    channels = choose_channels(scheme, table, idle[None]).T
    return table, channels, judge(table, channels)


# check_fixture's relative tolerance on each destination's throughput; the
# total and the average get twice it.
_REL_TOL = 0.005


def check_fixture(fixture: dict) -> tuple[bool, list[str], dict]:
    """Replay the fixture and diff it against its expected block.

    Returns (ok, human-readable report lines, machine-readable payload).
    Selections and the PDR must match exactly; per-destination throughputs
    within _REL_TOL; total and average within 2 * _REL_TOL.
    """
    table, channels, judged = run_fixture(fixture)
    slots = table.slots
    expected = _field(fixture, "expected", "fixture")
    lines: list[str] = []
    failures: list[str] = []

    def check(label: str, got, want, tol=None) -> None:
        if tol is None:
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=tol, abs_tol=1e-9)
        if not ok:
            failures.append(f"{label}: got {got!r}, expected {want!r}")

    # Every entry, also one below a failed relay: its receivers and the ones
    # whose hop succeeded, an air time that is a number (Judgement.air).
    selections = [None if ch < 0 else ch + 1 for ch in channels[:, 0].tolist()]
    bounds = [*slots.starts.tolist(), len(slots.receiver)]
    for tx, sel, lo, hi in zip(slots.transmitter.tolist(), selections, bounds, bounds[1:]):
        receivers = slots.receiver[lo:hi].tolist()
        ok = [r for r, air in zip(receivers, judged.air[lo:hi, 0].tolist()) if not math.isnan(air)]
        lines.append(
            f"node {tx} -> {', '.join(str(r) for r in receivers)}: "
            f"channel {sel} selected, received by [{', '.join(str(r) for r in ok) or 'none'}]"
        )
    want_channels = _list(_field(expected, "selected_channels", "expected"), "expected selected_channels")
    check("selected channels", selections, want_channels)
    delivered, throughput = judged.delivered[0, :, 0].tolist(), judged.throughput[0, :, 0].tolist()
    total = judged.total[0, 0].item()
    avg, pdr = (a[0, 0].item() for a in judged.averages())
    for dest, got, ok in zip(slots.destinations, throughput, delivered):
        want = _number(_field(expected, "throughput_bps", "expected"), str(dest), "expected throughput_bps")
        lines.append(f"destination {dest}: {'delivered' if ok else 'missed'}, throughput {got / 1e6:.4f} Mbps")
        check(f"throughput of destination {dest}", got, want, tol=_REL_TOL)
    lines.append(f"total throughput: {total / 1e6:.4f} Mbps")
    lines.append(f"average throughput: {avg / 1e6:.4f} Mbps")
    lines.append(f"packet delivery rate: {pdr:.2f}")
    check("total throughput", total, _number(expected, "total_throughput_bps", "expected"), tol=2 * _REL_TOL)
    check("average throughput", avg, _number(expected, "avg_throughput_bps", "expected"), tol=2 * _REL_TOL)
    check("packet delivery rate", pdr, _number(expected, "pdr", "expected"))

    payload = {
        "selected_channels": selections,
        "throughput_bps": {str(k): t for k, t in zip(slots.destinations, throughput)},
        "total_throughput_bps": total,
        "avg_throughput_bps": avg,
        "pdr": pdr,
        "ok": not failures,
        "mismatches": failures,
    }
    return not failures, lines + [f"MISMATCH {f}" for f in failures], payload
