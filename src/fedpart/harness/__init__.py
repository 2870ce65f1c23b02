"""Experiment harness: config ingestion, protocol simulation, sweeps, CLI."""

from .config import ExperimentConfig, load_config, parse_config
from .protocol import (ProtocolResult, RoundSolution, TraceEvent, run_protocol,
                       solve_round)
from .sweeps import compare_solvers, default_grid, sweep

__all__ = [
    "ExperimentConfig", "load_config", "parse_config",
    "ProtocolResult", "RoundSolution", "TraceEvent", "run_protocol",
    "solve_round",
    "compare_solvers", "default_grid", "sweep",
]
