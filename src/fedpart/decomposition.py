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

Timing is measured with the subset solves serialized.  Every subset is
solved through a `SolvedGames` memo, so a subset game that the same memo
has already solved is not solved again, and it reports the seconds measured
when it was solved: the total is always a sum of measured solve times, one
per subset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from . import game_model as gm
from .equilibrium import GpmSolution, sample_decision, solve_gpm
from .errors import CapacityError, UsageError
from .lp_core import Tolerances
from .rng import subset_seed

# Games of more devices are solved every time.  A k-device solution holds
# arrays of 2^k floats, and two-size draws of 9 to 12 devices repeat rarely
# (29-30 distinct games in 30 reps of one compare point).  On the
# experiment-suite benchmark (one BLAS thread, 2 cores), keeping games of up
# to 12 devices raised peak RSS from 36.8 to 39.3 MB for no measurable gain;
# keeping up to 8 raises it to 37.2 MB.
MEMO_MAX_DEVICES = 8


class SolvedGames:
    """Certified solves of one experiment call, each game solved once.

    A game is keyed by every device's ``(data_size, beta, gamma,
    channel_cost)`` in order, the game parameters, the tolerances and the
    enumeration cap.  Device ids stay out of the key, because `solve_gpm`
    reads them only to check that they are unique; that check still runs on
    every call.  `solve_gpm` is deterministic, so a kept solution is the one
    a fresh solve would return.  A solve that raises is not kept, and games
    of more than `MEMO_MAX_DEVICES` devices are not kept.

    Make one per call (a sweep, a comparison) and drop it afterwards.
    """

    def __init__(self) -> None:
        self._kept: dict[tuple, tuple[GpmSolution, float]] = {}

    def solve(self, devices: Sequence[gm.DeviceProfile],
              params: gm.GameParams | None = None,
              tol: Tolerances | None = None,
              enumeration_cap: int = gm.DEFAULT_ENUMERATION_CAP
              ) -> tuple[GpmSolution, float]:
        """``(solve_gpm(...), seconds)``; a game solved before returns its
        first solution and the seconds that solve took."""
        params = params or gm.GameParams()
        tol = tol or Tolerances()
        gm.validate_devices(devices)
        key = None
        if len(devices) <= MEMO_MAX_DEVICES:
            key = (tuple((d.data_size, d.beta, d.gamma, d.channel_cost) for d in devices),
                   params, tol, enumeration_cap)
            hit = self._kept.get(key)
            if hit is not None:
                return hit
        t0 = time.perf_counter()
        sol = solve_gpm(devices, params, tol, enumeration_cap)
        solved = (sol, time.perf_counter() - t0)
        if key is not None:
            self._kept[key] = solved
        return solved


@dataclass(frozen=True)
class PartitionSpec:
    xi: int
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
    return PartitionSpec(xi=xi, assignment=tuple(assignment))


def check_subset_cap(n: int, xi: int, cap: int = gm.DEFAULT_ENUMERATION_CAP) -> None:
    """Refuse a split of ``n`` devices into ``xi`` subsets (see `partition`)
    whose largest subset exceeds the enumeration cap.  With xi > 1 the
    message names both the subset size and the n that was split.
    """
    if xi == 1:
        gm.check_enumeration_cap(n, cap)
        return
    largest = -(-n // xi)
    if largest > cap:
        raise CapacityError(f"subset of {largest} devices exceeds enumeration cap {cap} "
                            f"(2**n outcomes): n={n} split into xi={xi} subsets")


@dataclass(frozen=True)
class DecomposedSolution:
    decision: gm.Decision
    reported_profit: float
    seconds: float  # the subset solves' measured seconds, summed
    partition_spec: PartitionSpec
    subset_objectives: tuple[float, ...]
    subset_solutions: tuple[GpmSolution, ...] = field(repr=False, default=())


def solve_decomposed(devices: Sequence[gm.DeviceProfile],
                     params: gm.GameParams | None = None,
                     xi: int = 2,
                     seed: int = 0,
                     tol: Tolerances | None = None,
                     enumeration_cap: int = gm.DEFAULT_ENUMERATION_CAP,
                     solved: SolvedGames | None = None) -> DecomposedSolution:
    """Solve per-subset programs, sample one decision each, re-price globally.

    Subset j samples with seed ``seed + j`` (mod 2^64), so xi=1 reproduces
    the direct solve + sample bit-for-bit.  The returned profit is the full
    coupled game's value of the concatenated decision.  ``enumeration_cap``
    bounds each subset's device count, as it bounds the direct solve's.
    Subsets are solved through ``solved``, a fresh memo when none is given.
    """
    params = params or gm.GameParams()
    gm.validate_devices(devices)
    if not devices:
        raise UsageError("need at least one device")
    spec = partition(devices, xi)
    check_subset_cap(len(devices), xi, enumeration_cap)
    solved = solved if solved is not None else SolvedGames()

    solutions, seconds = [], 0.0
    decision = [0] * len(devices)
    for j, block in enumerate(spec.assignment):
        sol, sol_seconds = solved.solve([devices[k] for k in block], params, tol,
                                        enumeration_cap)
        seconds += sol_seconds
        solutions.append(sol)
        for k, bit in zip(block, sample_decision(sol.distribution, subset_seed(seed, j))):
            decision[k] = bit
    decision = tuple(decision)
    return DecomposedSolution(
        decision=decision,
        reported_profit=gm.total_profit(decision, devices, params),
        seconds=seconds,
        partition_spec=spec,
        subset_objectives=tuple(sol.total_profit for sol in solutions),
        subset_solutions=tuple(solutions),
    )
