"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces each listed public function with a timing wrapper
in every `crn_multicast` module that binds it (the defining module and every
module that imported the name), so no source file of the package changes.
A span is (id, parent id, name, trial id, start ns, end ns); the trial id is
the id of the enclosing `run_scenario_sessions` span, or 0 outside a trial.
Spans stay in memory until `write_spans` is called at the end of the run.

Self time of a span is its duration minus the time covered by its child
spans. Each wrapped function belongs to exactly one layer metric, so the
layer self times plus the self time of the harness's own `call` spans (the
unattributed remainder) add up to the traced wall time.
"""

from __future__ import annotations

import functools
from array import array
import inspect
import statistics
import sys
import time
from pathlib import Path

# (module, public function, layer metric). Several functions may share a
# metric; a function missing from the package is reported, not an error.
WRAPPED = (
    ("topology", "generate_topology", "topology.generate"),
    ("topology", "build_spt", "topology.spt"),
    ("topology", "build_mst", "topology.mst"),
    ("topology", "prune_tree", "topology.prune"),
    ("topology", "layerize", "topology.layerize"),
    ("channel", "make_channels", "channel.model"),
    ("session", "draw_events", "channel.draw"),
    ("channel", "sample_event_state", "channel.draw"),
    ("channel", "sample_gain", "channel.draw"),
    ("session", "link_metrics", "phy.link"),
    ("phy", "received_power", "phy.link"),
    ("phy", "data_rate", "phy.link"),
    ("phy", "tx_time", "phy.link"),
    ("phy", "pos", "phy.link"),
    ("assignment", "select_channel", "assignment.select"),
    ("session", "execute_schedule", "session.execute"),
    ("experiment", "run_scenario_sessions", "experiment.trial"),
    ("experiment", "run_trial", "experiment.sweep"),
    ("experiment", "run_sweep", "experiment.sweep"),
    ("experiment", "aggregate_trials", "experiment.aggregate"),
    ("experiment", "write_sweep_csv", "experiment.csv"),
    ("experiment", "trials_to_csv", "experiment.csv"),
    ("experiment", "aggregate_to_csv", "experiment.csv"),
    ("experiment", "read_aggregate_csv", "experiment.csv"),
    ("session", "session_to_csv", "experiment.csv"),
    ("config", "load_config", "config.load"),
    ("config", "parse_config_text", "config.load"),
    ("config", "sweep_from_config", "config.load"),
    ("plotting", "write_charts", "plotting.charts"),
    ("plotting", "render_chart", "plotting.charts"),
    ("cli", "main", "cli"),
    ("cli", "cmd_run", "cli"),
    ("cli", "cmd_sweep", "cli"),
    ("cli", "cmd_plot", "cli"),
)

LAYERS = tuple(dict.fromkeys(metric for _, _, metric in WRAPPED))
CALL = "call"  # the harness's span around one CLI call
TRIAL = "experiment.trial"


def _observe_generate(counts, bound, topo):
    counts["topologies"] += 1
    counts["edges"] += len(topo.edges)
    counts["range_grown"] += int(topo.comm_range > bound.arguments["comm_range"])


def _observe_layerize(counts, bound, schedule):
    counts["trees"] += 1
    counts["events"] += len(schedule.entries)


def _observe_event_state(counts, bound, state):
    counts["events_drawn"] += 1
    counts["idle_empty"] += int(not state.idle.any())


def _observe_link(counts, bound, metrics):
    counts["link_calls"] += 1
    counts["cells"] += metrics.pos.size


def _observe_select(counts, bound, decision):
    counts["selections"] += 1
    counts["no_channel"] += int(decision.channel is None)


def _observe_execute(counts, bound, result):
    counts["entries"] += len(bound.arguments["schedule"].entries)
    counts["executed"] += len(result.hops)
    for hop in result.hops:
        counts["hops_attempted"] += len(hop.receivers)
        counts["hops_ok"] += sum(hop.success)


# Counters taken from arguments and results at the layer boundary. Only the
# observers named in NEEDS_ARGS get the bound arguments; binding costs more
# than the per-event calls themselves.
NEEDS_ARGS = {"generate_topology", "execute_schedule"}
OBSERVERS = {
    "generate_topology": _observe_generate,
    "layerize": _observe_layerize,
    "sample_event_state": _observe_event_state,
    "link_metrics": _observe_link,
    "select_channel": _observe_select,
    "execute_schedule": _observe_execute,
}

COUNTERS = (
    "topologies", "edges", "range_grown", "trees", "events", "events_drawn", "idle_empty",
    "link_calls", "cells", "selections", "no_channel", "entries", "executed",
    "hops_attempted", "hops_ok", "observer_errors",
)


class Tracer:
    """Span recorder; `install()` wraps the package, `uninstall()` restores it."""

    def __init__(self):
        self.names = [CALL, *LAYERS]
        self._trial_id = self.names.index(TRIAL)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay installed."""
        self.spans = array("q")  # flat (id, parent, name id, trial id, start ns, end ns)
        self.self_ns = [0] * len(self.names)
        self.trial_ns: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[int]] = []  # [span id, name id, trial id, start ns, child ns]
        self._next_id = 1

    # -- spans -------------------------------------------------------------
    def _open(self, name_id: int) -> None:
        span_id = self._next_id
        self._next_id += 1
        if name_id == self._trial_id:
            trial = span_id
        else:
            trial = self._stack[-1][2] if self._stack else 0
        self._stack.append([span_id, name_id, trial, time.perf_counter_ns(), 0])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name_id, trial, start, child_ns = self._stack.pop()
        dur = end - start
        self.self_ns[name_id] += dur - child_ns
        parent = 0
        if self._stack:
            self._stack[-1][4] += dur
            parent = self._stack[-1][0]
        if name_id == self._trial_id:
            self.trial_ns.append(dur)
        self.spans.extend((span_id, parent, name_id, trial, start, end))

    def call(self, fn, *args):
        """Run fn(*args) inside a root `call` span."""
        self._open(0)
        try:
            return fn(*args)
        finally:
            self._close()

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, fn, name: str, metric: str):
        name_id = self.names.index(metric)
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if name in NEEDS_ARGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        bound = signature.bind(*args, **kwargs) if signature else None
                        observe(self.counts, bound, result)
                    except (AttributeError, KeyError, TypeError):
                        self.counts["observer_errors"] += 1
                return result
            finally:
                self._close()

        return traced

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "crn_multicast"]
        for module_name, name, metric in WRAPPED:
            home = sys.modules.get(f"crn_multicast.{module_name}")
            original = getattr(home, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            traced = self._wrapper(original, name, metric)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def layer_metrics(self, trials: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) pairs. Times and counts are per paired
        trial of the traced phase; ratios divide the counts they name."""
        c = self.counts
        per_trial = 1.0 / trials

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        ms = [ns * 1e-6 * per_trial for ns in self.self_ns]
        out = {f"{name}.self_ms": (v, "ms/trial") for name, v in zip(self.names[1:], ms[1:])}
        out["trace.wall_ms"] = sum(ms), "ms/trial"
        out["trace.unattributed_ms"] = ms[0], "ms/trial"
        trial_ms = [t * 1e-6 for t in self.trial_ns] or [0.0]
        q = statistics.quantiles(trial_ms, n=20, method="inclusive") if len(trial_ms) > 1 else trial_ms * 19
        out["experiment.trial_ms_p50"] = q[9], "ms"
        out["experiment.trial_ms_p95"] = q[18], "ms"
        out.update({
            "topology.generate.calls": (c["topologies"] * per_trial, "count/trial"),
            "topology.edges_per_topology": (ratio(c["edges"], c["topologies"]), "count"),
            "topology.range_grown": (c["range_grown"] * per_trial, "count/trial"),
            "topology.events_per_tree": (ratio(c["events"], c["trees"]), "count"),
            "channel.draw.calls": (c["events_drawn"] * per_trial, "count/trial"),
            "channel.idle_empty_frac": (ratio(c["idle_empty"], c["events_drawn"]), "fraction"),
            "phy.link.calls": (c["link_calls"] * per_trial, "count/trial"),
            "phy.cells": (c["cells"] * per_trial, "count/trial"),
            "assignment.select.calls": (c["selections"] * per_trial, "count/trial"),
            "assignment.no_channel_frac": (ratio(c["no_channel"], c["selections"]), "fraction"),
            "session.events_skipped_frac": (ratio(c["entries"] - c["executed"], c["entries"]), "fraction"),
            "session.hop_success_frac": (ratio(c["hops_ok"], c["hops_attempted"]), "fraction"),
            "trace.missing": (float(len(self.missing)), "count"),
            "trace.observer_errors": (float(c["observer_errors"]), "count"),
        })
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\ttrial\tstart_ns\tend_ns\n")
            s = self.spans
            for k in range(0, len(s), 6):
                fh.write(f"{s[k]}\t{s[k + 1]}\t{self.names[s[k + 2]]}\t{s[k + 3]}\t{s[k + 4]}\t{s[k + 5]}\n")
