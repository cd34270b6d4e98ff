"""Acceptance gate: every release criterion checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
The Monte Carlo criteria use fixed seeds, so outcomes are reproducible.
"""

import math
import time
from dataclasses import replace

import numpy as np

from crn_multicast.assignment import Scheme, choose_channels
from crn_multicast.example_case import builtin_fixture, run_fixture
from crn_multicast.experiment import (
    ScenarioParams,
    SweepSpec,
    aggregate_to_csv,
    aggregate_trials,
    run_scenario_sessions,
    run_sweep,
    trials_to_csv,
)
from crn_multicast.phy import SPEED_OF_LIGHT, link_arrays, pos
from crn_multicast.session import TreeKind
from crn_multicast.topology import mst_stack, spt_stack

from test_assignment import rs_table
from test_channel import draw
from test_topology import dict_trees, edges_of, floyd_warshall, min_spanning_weight_bruteforce, random_connected_topology

ALL_SCHEMES = (Scheme.POS, Scheme.MASA, Scheme.MDR, Scheme.RS)
DEFAULTS = ScenarioParams()  # N=40, Nr=16, M=20, BW 1 MHz, D 4 KB, Pt 0.1 W, mu 2..70 ms


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def mean_results(params, schemes, trees, trials, base_seed=10_000):
    tput = {(t, s): 0.0 for t in trees for s in schemes}
    pdr = {(t, s): 0.0 for t in trees for s in schemes}
    for i in range(trials):
        judged = run_scenario_sessions(params, schemes, trees, seed=base_seed + i)[2]
        avg_i, pdr_i = (a.tolist() for a in judged.averages())  # Python floats, added trial after trial
        for j, t in enumerate(trees):
            for k, s in enumerate(schemes):
                tput[(t, s)] += avg_i[j][k] / trials
                pdr[(t, s)] += pdr_i[j][k] / trials
    return tput, pdr


def test_criterion_1_worked_example_oracle():
    start = time.perf_counter()
    table, channels, judged = run_fixture(builtin_fixture())
    elapsed = time.perf_counter() - start
    selections = (channels[:, 0] + 1).tolist()
    throughput = dict(zip(table.slots.destinations, judged.throughput[0, :, 0].tolist()))
    total, pdr = judged.total[0, 0].item(), judged.averages()[1][0, 0].item()
    checks = [
        selections == [5, 6, 4],
        math.isclose(throughput[6], 5.5539e6, rel_tol=0.005),
        math.isclose(throughput[9], 6.4251e6, rel_tol=0.005),
        math.isclose(throughput[10], 2.8e6, rel_tol=0.005),
        throughput[7] == 0.0,
        throughput[8] == 0.0,
        math.isclose(total, 14.779e6, rel_tol=0.01),
        pdr == 0.6,
        elapsed < 1.0,
    ]
    report(
        1,
        all(checks),
        f"selections CH{selections[0]}/CH{selections[1]}/CH{selections[2]}, "
        f"total {total / 1e6:.3f} Mbps, pdr {pdr}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_equation_unit_oracles():
    # pt = 1 W, d = 1 m and wavelength 4 pi make the wave factor 1, so the
    # received power is the gain: 3 * B * N0 gives exactly 2 Mbps, and 100000
    # bits at 2 Mbps take 0.05 s; an infinite gain gives zero air time. Both
    # wavelengths come back exactly from their carriers, c / (c / w) == w.
    unit = replace(DEFAULTS, pt_watts=1.0, carrier_freq_hz=SPEED_OF_LIGHT / (4.0 * math.pi), packet_bits=100000)
    gains = np.array([[3.0 * 1e6 * 1e-18, math.inf]])
    rate, _ = link_arrays([unit], np.ones((1, 1)), gains)
    p = pos(np.array([100000.0]), rate, np.array([0.05, 0.033]))
    radio = replace(DEFAULTS, carrier_freq_hz=SPEED_OF_LIGHT / 0.5)  # 0.1 W, 1 MHz, N0 1e-18, exponent 4
    hand_rate = link_arrays([radio], np.full((1, 1), 10.0), np.ones((1, 1)))[0].item()
    # Shannon inverted
    received = radio.bandwidth_hz * radio.noise_psd * (2.0 ** (hand_rate / radio.bandwidth_hz) - 1.0)
    checks = [
        p[0, 0, 1] == 1.0,
        abs(p[0, 0, 0] - math.exp(-1.0)) <= 1e-12,
        rate[0, 0, 0] == 2_000_000.0,
        math.isclose(received, 1.58314e-8, rel_tol=1e-4),
    ]
    report(2, all(checks), "pos boundaries, exact 2 Mbps rate, received-power hand check")


def test_criterion_3_tree_oracles():
    start = time.perf_counter()
    ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        _, weights, _ = random_connected_topology(rng, n_max=12)
        n, edges = weights.shape[-1], edges_of(weights[0])
        [spt], [mst] = dict_trees(*spt_stack(weights, 0), 0), dict_trees(*mst_stack(weights, 0), 0)
        ok &= spt.n_edges == n - 1 and mst.n_edges == n - 1
        dist = floyd_warshall(n, edges)
        for v in range(n):
            ok &= abs(spt.path_distance(v) - dist[0][v]) <= 1e-9
            ok &= spt.path_distance(v) <= mst.path_distance(v) + 1e-9
    for seed in range(12):
        rng = np.random.default_rng(5000 + seed)
        _, weights, _ = random_connected_topology(rng, n_max=7, n_min=4)
        best = min_spanning_weight_bruteforce(weights.shape[-1], edges_of(weights[0]))
        [mst] = dict_trees(*mst_stack(weights, 0), 0)
        ok &= abs(sum(mst.edge_dist.values()) - best) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(3, ok, f"200 SPT/Floyd-Warshall + 12 MST/brute-force instances in {elapsed:.1f} s")


def test_criterion_4_scheme_ordering_low_load():
    start = time.perf_counter()
    tput, pdr = mean_results(DEFAULTS, ALL_SCHEMES, (TreeKind.SPT,), trials=1000)
    elapsed = time.perf_counter() - start
    t = [tput[(TreeKind.SPT, s)] for s in ALL_SCHEMES]
    p = [pdr[(TreeKind.SPT, s)] for s in ALL_SCHEMES]
    gain = (t[0] - t[-1]) / t[-1]
    ok = (
        t[0] >= t[1] >= t[2] >= t[3]
        and p[0] >= p[1] >= p[2] >= p[3]
        and gain >= 0.25
        and elapsed < 120.0
    )
    report(
        4,
        ok,
        "throughput Mbps " + "/".join(f"{x / 1e6:.3f}" for x in t)
        + ", pdr " + "/".join(f"{x:.3f}" for x in p)
        + f", pos-over-rs {gain * 100:.0f}%, {elapsed:.1f} s",
    )


def test_criterion_5_high_load_convergence():
    params = replace(DEFAULTS, p_idle=0.1)
    tput, _ = mean_results(params, ALL_SCHEMES, (TreeKind.SPT,), trials=1000)
    t = {s: tput[(TreeKind.SPT, s)] for s in ALL_SCHEMES}
    rel = abs(t[Scheme.POS] - t[Scheme.MASA]) / t[Scheme.MASA]
    ok = (
        rel <= 0.10
        and t[Scheme.POS] > t[Scheme.MDR] and t[Scheme.POS] > t[Scheme.RS]
        and t[Scheme.MASA] > t[Scheme.MDR] and t[Scheme.MASA] > t[Scheme.RS]
    )
    report(5, ok, f"pos/masa gap {rel * 100:.1f}%, both above mdr and rs")


def test_criterion_6_spt_beats_mst():
    gaps = {}
    for p_idle in (0.1, 0.5, 0.9):
        params = replace(DEFAULTS, p_idle=p_idle)
        tput, _ = mean_results(params, (Scheme.POS,), (TreeKind.SPT, TreeKind.MST), trials=1000)
        spt = tput[(TreeKind.SPT, Scheme.POS)]
        mst = tput[(TreeKind.MST, Scheme.POS)]
        gaps[p_idle] = (spt - mst) / mst
    ok = all(g >= 0.0 for g in gaps.values()) and gaps[0.1] == max(gaps.values())
    report(6, ok, "relative gaps " + ", ".join(f"P_I={p}: {g * 100:.0f}%" for p, g in gaps.items()))


def monotone_within_ci(points, increasing=True):
    for (m0, c0), (m1, c1) in zip(points, points[1:]):
        if increasing and not (m1 >= m0 or m0 - c0 <= m1 + c1):
            return False
        if not increasing and not (m1 <= m0 or m1 - c1 <= m0 + c0):
            return False
    return True


def test_criterion_7_monotone_trends():
    start = time.perf_counter()
    axes = [
        ("bw", (0.5e6, 1e6, 2e6, 3e6), True),
        ("M", (5, 10, 20, 30), True),
        ("pt", (0.05, 0.1, 0.5), True),
        ("p_idle", (0.1, 0.5, 0.9), True),
        ("packet_bits", (2 * 8192, 4 * 8192, 8 * 8192, 16 * 8192), False),
    ]
    verdicts = {}
    for variable, values, increasing in axes:
        spec = SweepSpec(
            base=DEFAULTS, variable=variable, values=values, trials=1000, seed=20_000,
            schemes=(Scheme.POS,), trees=(TreeKind.SPT,),
        )
        agg = aggregate_trials(spec, *run_sweep(spec))
        points = [(r.mean_throughput_bps, r.ci95_throughput) for r in agg]
        verdicts[variable] = monotone_within_ci(points, increasing=increasing)
    elapsed = time.perf_counter() - start
    report(
        7,
        all(verdicts.values()),
        ", ".join(f"{v}: {'ok' if ok else 'violated'}" for v, ok in verdicts.items()) + f", {elapsed:.0f} s",
    )


def test_criterion_8_statistical_sanity():
    # Samples come from the draws sessions use (session.draw_raw, thresholded
    # by session.idle_flags) and from the chooser they call
    # (choose_channels), which reads only idle flags and the table's picks
    # under rs.
    n = 100_000
    idle, _, _ = draw(np.linspace(0.01, 0.07, 4), np.full(4, 0.5), np.random.default_rng(81), n)
    idle_ok = np.all(np.abs(idle.mean(axis=0) - 0.5) < 0.01)

    _, _, gains = draw([0.01], [0.5], np.random.default_rng(82), 1, receivers=n)
    gain_ok = abs(gains.mean() - 1.0) < 0.02

    _, avail, _ = draw([0.05], [0.999], np.random.default_rng(83), n)
    avail = avail[:, 0][~np.isnan(avail[:, 0])]
    avail_ok = abs(avail.mean() - 0.05) / 0.05 < 0.02

    rng = np.random.default_rng(84)
    rs_idle = np.ones((n, 6), dtype=bool)
    rs_idle[:, [1, 4]] = False  # channels 2 and 5 busy
    # n entries in one call, on a table of n one-hop trees that holds their picks.
    counts = np.bincount(choose_channels(Scheme.RS, rs_table(rng.random(n), 6), rs_idle[None])[0], minlength=6)
    rs_ok = np.all(np.abs(counts[[0, 2, 3, 5]] / n - 0.25) < 0.01) and counts[[1, 4]].sum() == 0

    report(
        8,
        bool(idle_ok and gain_ok and avail_ok and rs_ok),
        f"idle freq, gain mean {gains.mean():.4f}, availability mean {avail.mean() * 1e3:.2f} ms, rs uniformity",
    )


def test_criterion_9_sweep_determinism():
    spec = SweepSpec(
        base=DEFAULTS, variable="p_idle", values=(0.5, 0.9), trials=10, seed=31_000,
        schemes=ALL_SCHEMES, trees=(TreeKind.SPT, TreeKind.MST),
    )
    a, b = run_sweep(spec), run_sweep(spec)
    ok = trials_to_csv(spec, *a) == trials_to_csv(spec, *b) and (
        aggregate_to_csv(aggregate_trials(spec, *a)) == aggregate_to_csv(aggregate_trials(spec, *b))
    )
    report(9, ok, "two identical sweep runs produced byte-identical trial and aggregate CSVs")
