"""Benchmark workloads: the config files each one hands the CLI and the CLI
calls that make up one request.

Every workload is a closed loop with one caller: the next request starts when
the previous one returns. The workload seed only chooses the trial seeds, so
the same seed always gives the same requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# The README example scenario (also the package defaults).
README_SCENARIO = {
    "n_nodes": 40, "n_dest": 16, "m_channels": 20, "bandwidth_hz": 1e6, "packet_bits": 32768,
    "pt_watts": 0.1, "p_idle": 0.9, "mu_min_s": 0.002, "mu_max_s": 0.070,
}
ALL_SCHEMES = ("pos", "masa", "mdr", "rs")
ALL_TREES = ("spt", "mst")


@dataclass(frozen=True)
class Sweep:
    """One `crn-multicast sweep` config: scenario, schemes, trees, swept axis."""

    variable: str
    values: tuple
    schemes: tuple[str, ...]
    trees: tuple[str, ...]
    scenario: dict = field(default_factory=dict)

    @property
    def n_dest(self) -> int:
        return self.scenario.get("n_dest", README_SCENARIO["n_dest"])

    def config_text(self, trials: int, out_dir: Path) -> str:
        lines = [f"{k} = {v!r}" for k, v in {**README_SCENARIO, **self.scenario}.items()]
        lines += [
            f"schemes = {','.join(self.schemes)}",
            f"trees = {','.join(self.trees)}",
            f"sweep_variable = {self.variable}",
            f"sweep_values = {','.join(repr(v) for v in self.values)}",
            f"trials = {trials}",
            "seed = 1",
            f"out_dir = {out_dir}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: tuple[Sweep, ...] = ()  # empty: the workload is repeated `run` calls
    trials: int = 1  # trials per swept value in each sweep call of a request
    plot: bool = False

    @property
    def is_run(self) -> bool:
        return not self.sweeps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_sweep",
            "README example sweep plus plot: p_idle 0.1/0.5/0.9, 4 schemes x 2 trees, N=40, "
            "16 destinations, M=20; per-event layers dominate",
            sweeps=(Sweep("p_idle", (0.1, 0.5, 0.9), ALL_SCHEMES, ALL_TREES),),
            trials=8,
            plot=True,
        ),
        Workload(
            "trend_axes",
            "criterion-7 shape: five axis sweeps x pos x spt, one session per trial, so fixed "
            "per-trial cost and topology weigh more; geometry repeats across each axis's values",
            sweeps=(
                Sweep("bw", (0.5e6, 1e6, 2e6, 3e6), ("pos",), ("spt",)),
                Sweep("M", (5, 10, 20, 30), ("pos",), ("spt",)),
                Sweep("pt", (0.05, 0.1, 0.5), ("pos",), ("spt",)),
                Sweep("p_idle", (0.1, 0.5, 0.9), ("pos",), ("spt",)),
                Sweep("packet_bits", (16384, 32768, 65536, 131072), ("pos",), ("spt",)),
            ),
            trials=5,
        ),
        Workload(
            "node_scale",
            "n_nodes 40/80/160 with 4 destinations, pos and rs, both trees: geometry grows with "
            "N squared and every value changes the topology",
            sweeps=(Sweep("n_nodes", (40, 80, 160), ("pos", "rs"), ALL_TREES, {"n_dest": 4}),),
            trials=6,
        ),
        Workload(
            "single_run",
            "repeated `run --json --out` calls on new seeds, all schemes and trees: the "
            "interactive path, where per-call set-up cost shows",
        ),
    )
}


def run_config_text() -> str:
    lines = [f"{k} = {v!r}" for k, v in README_SCENARIO.items()]
    lines += [f"schemes = {','.join(ALL_SCHEMES)}", f"trees = {','.join(ALL_TREES)}"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    """The CLI calls of one request and where their outputs land."""

    index: int
    seed: int
    argvs: tuple[tuple[str, ...], ...]
    trials_per_value: int
    outputs: tuple[tuple[Sweep | None, Path], ...]  # (sweep, out dir); sweep None for `run`

    @property
    def is_run(self) -> bool:
        return self.outputs[0][0] is None

    @property
    def trials(self) -> int:
        """Paired trials (seed x swept value) the request completes."""
        if self.is_run:
            return 1
        return self.trials_per_value * sum(len(sweep.values) for sweep, _ in self.outputs)


class Plan:
    """Writes a workload's config files into `work_dir` and yields its requests."""

    def __init__(self, workload: Workload, work_dir: Path, base_seed: int, trials: int | None = None):
        self.workload = workload
        self.trials = trials or workload.trials
        self.base_seed = base_seed
        work_dir.mkdir(parents=True, exist_ok=True)
        self.configs: list[Path] = []
        self.out_dirs: list[Path] = []
        for sweep in workload.sweeps or (None,):
            name = "run" if sweep is None else sweep.variable
            text = run_config_text() if sweep is None else sweep.config_text(self.trials, work_dir / name)
            path = work_dir / f"{name}.cfg"
            path.write_text(text, encoding="utf-8")
            self.configs.append(path)
            self.out_dirs.append(work_dir / name)

    def request(self, index: int, seed: int | None = None) -> Request:
        """Request `index`; its trial seeds never repeat those of another
        index unless `seed` is given."""
        if self.workload.is_run:
            seed = self.base_seed + index if seed is None else seed
            out = self.out_dirs[0]
            argv = ("run", "--config", str(self.configs[0]), "--seed", str(seed), "--json", "--out", str(out))
            return Request(index, seed, (argv,), 1, ((None, out),))
        if seed is None:
            seed = self.base_seed + index * self.trials
        argvs = []
        for cfg, out in zip(self.configs, self.out_dirs):
            argvs.append(("sweep", "--config", str(cfg), "--seed", str(seed)))
            if self.workload.plot:
                argvs.append(("plot", str(out / "aggregate.csv"), "--out", str(out)))
        return Request(index, seed, tuple(argvs), self.trials, tuple(zip(self.workload.sweeps, self.out_dirs)))
