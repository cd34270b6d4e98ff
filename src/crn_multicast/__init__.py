"""Monte Carlo simulator for tree-based multicast in multi-hop cognitive radio
networks: random topologies, SPT/MST multicast trees, per-layer unified channel
assignment (pos, masa, mdr, rs) under a Markov idle/busy primary-user model
with Rayleigh fading, and throughput/packet-delivery-rate measurement."""

from .assignment import Scheme
from .experiment import (
    AggregateRow,
    ScenarioParams,
    SweepSpec,
    aggregate_trials,
    run_scenario_sessions,
    run_sweep,
)
from .session import TreeKind, session_to_csv

__version__ = "0.1.0"

__all__ = [
    "AggregateRow",
    "ScenarioParams",
    "Scheme",
    "SweepSpec",
    "TreeKind",
    "aggregate_trials",
    "run_scenario_sessions",
    "run_sweep",
    "session_to_csv",
]
