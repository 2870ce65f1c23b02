"""Subset decomposition: approximate the full-game optimum in polynomial time.

The direct solver's LP has 2^n variables, so its cost is exponential in n.
Splitting the devices into xi contiguous subsets and solving one small
program per subset keeps every LP at 2^ceil(n/xi) variables.  Each subset's
distribution is a genuine correlated equilibrium *of its restricted game*
(the incentive pool is computed over subset members only — subsets cannot
see each other's decisions while solving).  The cross-subset coupling
enters only afterwards: a joint decision is sampled independently per
subset and its profit is re-evaluated under the full coupled game.  The
reported profit is therefore a sample statistic, not an optimum, and single
draws can land far below the direct objective; only seed-averaged means are
comparable.  With xi=1 the one subset is the whole game: that is the
direct solve, and `harness.solve_round` runs both modes through here.

Timing is measured with the subset solves serialized, so the per-subset
wall-clocks sum to the total.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from . import game_model as gm
from .equilibrium import GpmSolution, sample_decision, solve_gpm
from .errors import UsageError
from .lp_core import Tolerances
from .rng import subset_seed


@dataclass(frozen=True)
class PartitionSpec:
    xi: int
    max_subset_size: int
    assignment: tuple[tuple[int, ...], ...]


def partition(devices: Sequence[gm.DeviceProfile], xi: int) -> PartitionSpec:
    """Contiguous balanced split in registration order.

    The first n mod xi subsets get the extra device, so sizes differ by at
    most one and the split is deterministic.
    """
    n = len(devices)
    if not 1 <= xi <= n:
        raise UsageError(f"xi must be in [1, {n}], got {xi}")
    base, extra = divmod(n, xi)
    assignment = []
    start = 0
    for j in range(xi):
        size = base + (1 if j < extra else 0)
        assignment.append(tuple(range(start, start + size)))
        start += size
    return PartitionSpec(xi=xi, max_subset_size=base + (1 if extra else 0),
                         assignment=tuple(assignment))


@dataclass(frozen=True)
class TimingBreakdown:
    subset_seconds: tuple[float, ...]
    total_seconds: float


@dataclass(frozen=True)
class DecomposedSolution:
    decision: gm.Decision
    reported_profit: float
    timing: TimingBreakdown
    partition_spec: PartitionSpec
    subset_objectives: tuple[float, ...]
    subset_solutions: tuple[GpmSolution, ...] = field(repr=False, default=())


def solve_decomposed(devices: Sequence[gm.DeviceProfile],
                     params: gm.GameParams | None = None,
                     xi: int = 2,
                     seed: int = 0,
                     tol: Tolerances | None = None,
                     enumeration_cap: int = gm.DEFAULT_ENUMERATION_CAP) -> DecomposedSolution:
    """Solve per-subset programs, sample one decision each, re-price globally.

    Subset j samples with seed ``seed + j`` (mod 2^64), so xi=1 reproduces
    the direct solve + sample bit-for-bit.  The returned profit is the full
    coupled game's value of the concatenated decision.  ``enumeration_cap``
    bounds each subset's device count, as it bounds the direct solve's.
    """
    params = params or gm.GameParams()
    gm.validate_devices(devices)
    if not devices:
        raise UsageError("need at least one device")
    spec = partition(devices, xi)

    solutions, seconds = [], []
    decision = [0] * len(devices)
    for j, block in enumerate(spec.assignment):
        t0 = time.perf_counter()
        sol = solve_gpm([devices[k] for k in block], params, tol, enumeration_cap)
        seconds.append(time.perf_counter() - t0)
        solutions.append(sol)
        for k, bit in zip(block, sample_decision(sol.distribution, subset_seed(seed, j))):
            decision[k] = bit
    decision = tuple(decision)
    return DecomposedSolution(
        decision=decision,
        reported_profit=gm.total_profit(decision, devices, params),
        timing=TimingBreakdown(subset_seconds=tuple(seconds), total_seconds=sum(seconds)),
        partition_spec=spec,
        subset_objectives=tuple(sol.total_profit for sol in solutions),
        subset_solutions=tuple(solutions),
    )
