"""Participation games and data solicitation for federated edge training.

The package models a server that rents compute/data from edge devices:

* :mod:`fedpart.game_model` — device profiles, payoffs, and the shared-pot
  incentive that makes participation a coupled game.
* :mod:`fedpart.equilibrium` — exact correlated-equilibrium selection by
  linear programming over joint participation distributions.
* :mod:`fedpart.decomposition` — near-linear-cost approximation that solves
  the game on device subsets and stitches the decisions together.
* :mod:`fedpart.mechanism` — the reward-rule game that elicits truthful
  data-size reports before the participation game is solved.
* :mod:`fedpart.error_model` — the power-law link from pooled data size to
  model error, fitted from measurements.
* :mod:`fedpart.lp_core` — self-contained two-phase revised simplex with dual
  certificates (no external solver dependency).
* :mod:`fedpart.harness` — experiment configs, the end-to-end protocol,
  sweeps, and the ``fedpart`` command-line interface.
"""

from .rng import SplitMix64, subset_seed
from .error_model import DEFAULT_CURVE, ErrorCurve, fit_power_law, predict_error
from .errors import (
    CapacityError,
    DegenerateFitError,
    NumericalError,
    ReportOutOfRangeError,
    UsageError,
)
from .game_model import (
    DeviceProfile,
    GameParams,
    device_profits,
    joiner_rows,
    pool_payment,
    profit_tensor,
    random_devices,
    total_profit,
)
from .lp_core import LinearProgram, LpSolution, Tolerances, check_feasible, solve
from .equilibrium import (
    CorrelatedDistribution,
    GpmSolution,
    build_gpm,
    marginals,
    sample_decision,
    solve_gpm,
    threshold_decision,
    verify_ce,
)
from .decomposition import DecomposedSolution, partition, solve_decomposed
from .mechanism import (
    DeviceMechParams,
    GameRule,
    ServerMechParams,
    accepts,
    best_response,
    device_utility,
    ic_check,
    infer_theta,
    max_device_utility,
    max_server_utility,
    optimal_rule,
    server_utility,
)
from .harness import (
    ExperimentConfig,
    ProtocolResult,
    RoundSolution,
    compare_solvers,
    load_config,
    parse_config,
    run_protocol,
    solve_round,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CorrelatedDistribution",
    "DEFAULT_CURVE",
    "DecomposedSolution",
    "DegenerateFitError",
    "DeviceMechParams",
    "DeviceProfile",
    "ErrorCurve",
    "ExperimentConfig",
    "GameParams",
    "GameRule",
    "GpmSolution",
    "LinearProgram",
    "LpSolution",
    "NumericalError",
    "ProtocolResult",
    "ReportOutOfRangeError",
    "RoundSolution",
    "ServerMechParams",
    "SplitMix64",
    "Tolerances",
    "UsageError",
    "accepts",
    "best_response",
    "build_gpm",
    "check_feasible",
    "compare_solvers",
    "device_profits",
    "device_utility",
    "fit_power_law",
    "ic_check",
    "infer_theta",
    "joiner_rows",
    "load_config",
    "marginals",
    "max_device_utility",
    "max_server_utility",
    "optimal_rule",
    "parse_config",
    "partition",
    "pool_payment",
    "predict_error",
    "profit_tensor",
    "random_devices",
    "run_protocol",
    "sample_decision",
    "server_utility",
    "solve",
    "solve_decomposed",
    "solve_gpm",
    "solve_round",
    "subset_seed",
    "sweep",
    "threshold_decision",
    "total_profit",
    "verify_ce",
]
