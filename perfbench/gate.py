"""Correctness gate for benchmark outputs.

Row invariants are checked on every trials row (or `run --json` entry):
the PDR lies in [0, 1] and is a multiple of 1/n_dest; the throughput is
finite, non-negative, and zero exactly when the PDR is zero; a sweep writes
trials x values x schemes x trees rows, one per cell.

Aggregate check: the pooled mean PDR and mean throughput of every
(variable, value, tree, scheme) group in a run must lie within
`TOLERANCE_SE` standard errors of the reference aggregate recorded with many
more trials. The standard error uses the reference standard deviation for
both samples, sd * sqrt(1/n + 1/n_ref), so a small run whose few trials
happen to agree exactly is not held to a zero-width band. Under a normal
approximation, five standard errors keep the chance of a false alarm over
all groups of a run below 1e-4 for a correct engine with a different random
stream, while a shifted mean or a broken invariant still fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TOLERANCE_SE = 5.0
TRIALS_HEADER = "tree,scheme,variable,value,trial,avg_throughput_bps,pdr"


def row_violation(pdr: float, throughput: float, n_dest: int) -> str | None:
    """Why one (pdr, throughput) pair is impossible, or None if it is valid."""
    if not 0.0 <= pdr <= 1.0:
        return f"pdr {pdr!r} outside [0, 1]"
    if abs(pdr * n_dest - round(pdr * n_dest)) > 1e-9:
        return f"pdr {pdr!r} is not a multiple of 1/{n_dest}"
    if not math.isfinite(throughput) or throughput < 0.0:
        return f"throughput {throughput!r} is not finite and non-negative"
    if (throughput == 0.0) != (pdr == 0.0):
        return f"throughput {throughput!r} with pdr {pdr!r}"
    return None


@dataclass
class Moments:
    """Count, sums and sums of squares of one group's PDR and throughput."""

    n: int = 0
    pdr_sum: float = 0.0
    pdr_sq: float = 0.0
    tp_sum: float = 0.0
    tp_sq: float = 0.0

    def add(self, pdr: float, tp: float) -> None:
        self.n += 1
        self.pdr_sum += pdr
        self.pdr_sq += pdr * pdr
        self.tp_sum += tp
        self.tp_sq += tp * tp

    def summary(self) -> dict:
        """Mean and sample standard deviation, as stored in the reference."""
        def sd(total, sq):
            return math.sqrt(max(sq - total * total / self.n, 0.0) / (self.n - 1))

        return {
            "n": self.n,
            "pdr_mean": self.pdr_sum / self.n, "pdr_sd": sd(self.pdr_sum, self.pdr_sq),
            "tp_mean": self.tp_sum / self.n, "tp_sd": sd(self.tp_sum, self.tp_sq),
        }


@dataclass
class Gate:
    """Accumulates row checks and pooled group sums over one run."""

    groups: dict[tuple, Moments] = field(default_factory=dict)
    trials_by_value: dict[tuple, set] = field(default_factory=dict)
    failed_trials: set = field(default_factory=set)
    messages: list[str] = field(default_factory=list)

    def fail(self, trial_keys, message: str) -> None:
        self.failed_trials.update(trial_keys)
        if len(self.messages) < 20:
            self.messages.append(message)

    def add_row(self, group: tuple, trial_key, pdr: float, tp: float, n_dest: int) -> None:
        bad = row_violation(pdr, tp, n_dest)
        if bad:
            self.fail([trial_key], f"{group} trial {trial_key}: {bad}")
        self.groups.setdefault(group, Moments()).add(pdr, tp)
        self.trials_by_value.setdefault(group[:2], set()).add(trial_key)

    def check_trials_csv(self, text: str, request: int, sweep, trials: int) -> None:
        """Check one `trials.csv` written by the sweep of request `request`."""
        lines = text.splitlines()
        expected = trials * len(sweep.values) * len(sweep.schemes) * len(sweep.trees)
        keys = [(request, sweep.variable, v, i) for v in sweep.values for i in range(trials)]
        if not lines or lines[0] != TRIALS_HEADER or len(lines) - 1 != expected:
            self.fail(keys, f"request {request}: {len(lines) - 1} rows, expected {expected}")
            return
        values = {repr(v) if isinstance(v, float) else str(v): v for v in sweep.values}
        seen = set()
        for line in lines[1:]:
            tree, scheme, variable, value, trial, tp, pdr = line.split(",")
            v = values.get(value)
            cell = (value, trial, tree, scheme)
            if (variable != sweep.variable or v is None or tree not in sweep.trees
                    or scheme not in sweep.schemes or not 0 <= int(trial) < trials or cell in seen):
                self.fail(keys, f"request {request}: unexpected row {line!r}")
                return
            seen.add(cell)
            self.add_row((variable, value, tree, scheme), (request, variable, v, int(trial)),
                         float(pdr), float(tp), sweep.n_dest)

    def check_run_json(self, payload: dict, request: int, pairs, n_dest: int) -> None:
        """Check the `run --json` report of request `request`."""
        for tree, scheme in pairs:
            entry = payload.get(f"{tree}/{scheme}")
            if entry is None:
                self.fail([(request, "run", "-", 0)], f"request {request}: no {tree}/{scheme} entry")
                continue
            self.add_row(("run", "-", tree, scheme), (request, "run", "-", 0),
                         float(entry["pdr"]), float(entry["avg_throughput_bps"]), n_dest)

    def compare_reference(self, reference: dict) -> int:
        """Compare pooled means with the reference; returns groups checked.
        A failing group fails every trial of its (variable, value)."""
        for key, m in self.groups.items():
            ref = reference.get("|".join(key))
            if ref is None:
                self.fail(self.trials_by_value[key[:2]], f"{key}: no reference aggregate")
                continue
            se_scale = math.sqrt(1.0 / m.n + 1.0 / ref["n"])
            for label, total, mean, sd in (
                ("pdr", m.pdr_sum, ref["pdr_mean"], ref["pdr_sd"]),
                ("throughput", m.tp_sum, ref["tp_mean"], ref["tp_sd"]),
            ):
                got = total / m.n
                band = TOLERANCE_SE * sd * se_scale + 1e-12 * abs(mean)
                if abs(got - mean) > band:
                    self.fail(self.trials_by_value[key[:2]],
                              f"{key}: mean {label} {got!r} vs reference {mean!r} (band {band:.4g}, n={m.n})")
        return len(self.groups)
