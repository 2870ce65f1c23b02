"""Optimal correlated equilibria for the participation game.

The planner's problem: choose a distribution G over the 2^n joint
participation outcomes that maximizes expected total profit, subject to G
being a correlated equilibrium — no device that receives a recommendation
can gain in conditional expectation by playing the opposite action.  That
is a linear program in the outcome probabilities, solved exactly by
:mod:`fedpart.lp_core`.

Two decision-extraction rules are provided.  Sampling (`sample_decision`)
realizes one outcome from G with a seeded generator and is the
game-theoretically faithful rule; thresholding (`threshold_decision`)
rounds per-device marginals at 1/2 and is the rule used for deterministic
reporting.  Harness output labels which rule produced each column.

A solved game may admit many optimal G; we return the solver's
deterministic vertex, so repeated runs agree bit-for-bit, but equality
with some other solver's optimizer should only ever be asserted on the
objective, never on G itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import game_model as gm
from .errors import NumericalError, UsageError
from .lp_core import LinearProgram, LpSolution, Tolerances, solve
from .rng import SplitMix64

CE_TOL = 1e-7


@dataclass(frozen=True)
class CorrelatedDistribution:
    """Probabilities over joint decisions, canonical outcome order."""

    probabilities: np.ndarray
    num_devices: int

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (2 ** self.num_devices,):
            raise UsageError(
                f"distribution needs {2 ** self.num_devices} entries, got {p.shape}")
        if (p < -1e-8).any():
            raise UsageError("distribution has a significantly negative entry")
        p = np.maximum(p, 0.0)
        if abs(p.sum() - 1.0) > 1e-8:
            raise UsageError(f"distribution sums to {p.sum()!r}, not 1")
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def point_mass(cls, decision: gm.Decision) -> "CorrelatedDistribution":
        n = len(decision)
        p = np.zeros(2 ** n)
        p[gm.decision_index(decision)] = 1.0
        return cls(p, n)


def marginals(dist: CorrelatedDistribution) -> np.ndarray:
    """Per-device participation probability Σ_{p: p_i=1} G(p)."""
    p = dist.probabilities
    return np.array([gm.flip_pairs(p, i)[:, 1, :].sum() for i in range(dist.num_devices)])


def sample_decision(dist: CorrelatedDistribution, seed: int) -> gm.Decision:
    """Draw one joint decision by inverse CDF in canonical outcome order."""
    u = SplitMix64(seed).uniform()
    cdf = np.cumsum(dist.probabilities)
    idx = int(np.searchsorted(cdf, u, side="right"))
    idx = min(idx, len(dist.probabilities) - 1)
    return gm.decision_from_index(idx, dist.num_devices)


def threshold_decision(dist: CorrelatedDistribution) -> gm.Decision:
    """Deterministic extraction: participate where the marginal reaches 1/2."""
    return tuple(int(m >= 0.5) for m in marginals(dist))


@dataclass(frozen=True)
class CeCheck:
    ok: bool
    worst_violation: float
    worst_device: int | None = None
    worst_from: int | None = None
    worst_to: int | None = None


def _deviation_gains(profits: np.ndarray, i: int) -> np.ndarray:
    """Per-outcome V_i(p) - V_i(p with device i's bit flipped)."""
    v = gm.flip_pairs(profits[:, i], i)
    return (v - v[:, ::-1, :]).reshape(-1)


def _check_ce(probabilities: np.ndarray, profits: np.ndarray,
              tol: float = CE_TOL) -> CeCheck:
    """Worst conditional deviation constraint of a distribution, given profits."""
    worst = (0.0, None, None, None)
    for i in range(profits.shape[1]):
        gains = gm.flip_pairs(_deviation_gains(profits, i), i)
        prob = gm.flip_pairs(probabilities, i)
        for q in (0, 1):
            value = float(np.sum((prob[:, q, :] * gains[:, q, :]).reshape(-1)))
            if value < worst[0]:
                worst = (value, i, q, 1 - q)
    violation = -worst[0]
    return CeCheck(ok=violation <= tol, worst_violation=violation,
                   worst_device=worst[1], worst_from=worst[2], worst_to=worst[3])


def verify_ce(dist: CorrelatedDistribution, devices: Sequence[gm.DeviceProfile],
              params: gm.GameParams, tol: float = CE_TOL) -> CeCheck:
    """Check every conditional deviation constraint; report the worst one.

    For device i recommended action q, the constraint is
    Σ_{p: p_i=q} G(p)·(V_i(p) − V_i(flip_i(p))) ≥ 0.  Pairs with
    q = q' are identically zero and can never be the strict worst.
    """
    if dist.num_devices != len(devices):
        raise UsageError("distribution and device list disagree on n")
    return _check_ce(dist.probabilities, gm.profit_tensor(devices, params), tol)


@dataclass(frozen=True)
class GpmProgram:
    """The planner's LP plus the bookkeeping the reports want.

    ``raw_constraint_count`` counts the problem as posed: 2^n nonnegativity
    bounds, one normalization equality, and 4n conditional-deviation rows
    (including the 2n with q = q', which are identically 0 >= 0).  The
    solver-facing ``lp`` keeps only the 2n informative deviation rows plus
    the normalization, with nonnegativity handled as variable bounds.
    """

    lp: LinearProgram
    num_devices: int
    raw_constraint_count: int
    profits: np.ndarray


def build_gpm(devices: Sequence[gm.DeviceProfile],
              params: gm.GameParams | None = None,
              enumeration_cap: int = gm.DEFAULT_ENUMERATION_CAP) -> GpmProgram:
    """Assemble the profit-maximization LP over correlated equilibria."""
    params = params or gm.GameParams()
    gm.validate_devices(devices)
    n = len(devices)
    if n < 1:
        raise UsageError("need at least one device")
    profits = gm.profit_tensor(devices, params, cap=enumeration_cap)
    num = 2 ** n
    # row 2i+q is device i's deviation gain on the outcomes where p_i = q
    rows = np.zeros((2 * n + 1, num))
    for i in range(n):
        gains = gm.flip_pairs(_deviation_gains(profits, i), i)
        for q in (0, 1):
            gm.flip_pairs(rows[2 * i + q], i)[:, q, :] = gains[:, q, :]
    rows[-1] = 1.0
    return GpmProgram(lp=LinearProgram(c=profits.sum(axis=1), rows=rows), num_devices=n,
                      raw_constraint_count=num + 4 * n + 1, profits=profits)


@dataclass(frozen=True)
class GpmSolution:
    distribution: CorrelatedDistribution
    total_profit: float
    lp_solution: LpSolution
    program: GpmProgram


def solve_gpm(devices: Sequence[gm.DeviceProfile],
              params: gm.GameParams | None = None,
              tol: Tolerances | None = None,
              enumeration_cap: int = gm.DEFAULT_ENUMERATION_CAP) -> GpmSolution:
    """Maximize expected total profit over correlated equilibria.

    The solve starts at the pure Nash equilibrium with the largest total
    profit, when the game has one (see :mod:`fedpart.lp_core`).
    """
    params = params or gm.GameParams()
    program = build_gpm(devices, params, enumeration_cap=enumeration_cap)
    sol = solve(program.lp, tol)
    dist = CorrelatedDistribution(sol.x, program.num_devices)
    check = _check_ce(dist.probabilities, program.profits)
    if not check.ok:
        raise NumericalError(
            f"solver output violates a deviation constraint by {check.worst_violation:.3e} "
            f"(device {check.worst_device}, {check.worst_from}->{check.worst_to})")
    return GpmSolution(distribution=dist, total_profit=sol.objective_value,
                       lp_solution=sol, program=program)
