"""The five-step interaction between the server and the devices.

    1. the server publishes its reward rule to every device;
    2. each device that expects positive utility reports its best-response
       size (the rest keep silent and take no further part);
    3. the server infers each reporter's private type from the report,
       assembles the participation game over the reported sizes, and solves
       it with `solve_round` (exactly, or by subset decomposition);
    4. each reporting device receives its component of one joint decision
       drawn from the solved distribution;
    5. the devices confirm the decision back to the server.

Everything is simulated in deterministic event order; "timestamps" are
just that order.  Silent devices appear in the trace only at step 1, and
the final decision vector covers all devices, silent ones pinned to 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Sequence

from .. import game_model as gm
from ..decomposition import SolvedGames, check_subset_cap, solve_decomposed
from ..equilibrium import marginals, threshold_decision
from ..mechanism import accepts, best_response, infer_theta, optimal_rule
from .config import DeviceGenSpec, ExperimentConfig, SolverConfig


@dataclass(frozen=True)
class RoundSolution:
    """One participation game, solved and turned into decisions."""

    mode: str                            # "direct" or "decomposed"
    xi: int                              # subsets solved; 1 when direct
    objective: float                     # the optimum, or the sum of the subset optima
    marginals: tuple[float, ...]         # per device, concatenated over subsets
    sampled: gm.Decision                 # one joint decision drawn with the seed
    threshold: gm.Decision               # the marginals rounded at 1/2
    profit: float                        # the sampled decision priced in the full game
    subset_objectives: tuple[float, ...]


def round_split(solver: SolverConfig, n: int) -> tuple[bool, int]:
    """Whether a round of ``n`` devices is decomposed, and its subset count.

    The game is split into ``min(xi, n)`` subsets when the mode is
    "decomposed" and there are at least two devices; otherwise it is solved
    directly, which is the decomposition into one subset.
    """
    decomposed = solver.mode == "decomposed" and n > 1
    return decomposed, min(solver.xi, n) if decomposed else 1


def check_round_cap(solver: SolverConfig, n: int) -> None:
    """Refuse a round of ``n`` devices whose largest subset (see `round_split`)
    exceeds the enumeration cap."""
    _, xi = round_split(solver, n)
    check_subset_cap(n, xi, solver.enumeration_cap)


def round_devices(cfg: ExperimentConfig, seed: int) -> list[gm.DeviceProfile]:
    """``cfg.realize_devices(seed)`` for a round solved by `solve_round`.

    A generated round whose largest subset would exceed the enumeration cap
    raises `CapacityError` before any device is drawn.
    """
    if isinstance(cfg.devices, DeviceGenSpec):
        check_round_cap(cfg.solver, cfg.devices.count)
    return cfg.realize_devices(seed)


def _reporter_count(cfg: ExperimentConfig, count: int) -> int:
    """How many of ``count`` devices report at step 2.

    Whether a device reports depends only on its mechanism parameters, not
    on its data size, so the count is known before any size is drawn: all
    devices or none with one shared "mech.device" entry, and otherwise one
    test per list entry (a count beyond the list raises `UsageError`).
    """
    srv = cfg.server
    if len(cfg.device_mech) == 1:
        mech = cfg.device_mech[0]
        return count if accepts(mech.theta, srv, mech) else 0
    return sum(1 for mech in map(cfg.mech_for, range(count))
               if accepts(mech.theta, srv, mech))


def solve_round(devices: Sequence[gm.DeviceProfile], cfg: ExperimentConfig,
                seed: int, solved: SolvedGames | None = None) -> RoundSolution:
    """Solve the game over ``devices`` as ``cfg.solver`` says (see `round_split`).

    The games are solved through ``solved``, if given (see `solve_decomposed`).
    """
    decomposed, xi = round_split(cfg.solver, len(devices))
    dec = solve_decomposed(devices, cfg.game, xi=xi, seed=seed,
                           tol=cfg.solver.tolerances,
                           enumeration_cap=cfg.solver.enumeration_cap, solved=solved)
    dists = [sub.distribution for sub in dec.subset_solutions]
    return RoundSolution(
        mode="decomposed" if decomposed else "direct", xi=xi,
        objective=sum(dec.subset_objectives),
        marginals=tuple(float(m) for d in dists for m in marginals(d)),
        sampled=dec.decision,
        threshold=tuple(b for d in dists for b in threshold_decision(d)),
        profit=dec.reported_profit, subset_objectives=dec.subset_objectives)


@dataclass(frozen=True)
class TraceEvent:
    order: int
    step: int           # 1..5
    actor: str          # "server" or "device"
    device_id: int | None
    summary: str
    payload: dict[str, Any]


@dataclass(frozen=True)
class ProtocolResult:
    trace: tuple[TraceEvent, ...]      # in event order
    decision: gm.Decision
    total_profit: float
    accepted_ids: tuple[int, ...]
    reported_sizes: tuple[float, ...]   # one per accepted device
    objective: float | None             # solver objective over reporters, if solved
    marginals: tuple[float, ...]        # over accepted devices
    threshold: gm.Decision              # threshold extraction over accepted devices
    seconds: float


def run_protocol(cfg: ExperimentConfig, seed: int | None = None) -> ProtocolResult:
    """Simulate one full round; deterministic given the seed."""
    seed = cfg.output.seed if seed is None else seed
    if isinstance(cfg.devices, DeviceGenSpec):
        check_round_cap(cfg.solver, _reporter_count(cfg, cfg.devices.count))
    devices = cfg.realize_devices(seed)
    srv = cfg.server
    t_start = time.perf_counter()

    events: list[TraceEvent] = []
    order = 0

    def emit(step: int, actor: str, device_id: int | None, summary: str,
             **payload: Any) -> None:
        nonlocal order
        events.append(TraceEvent(order=order, step=step, actor=actor,
                                 device_id=device_id, summary=summary,
                                 payload=payload))
        order += 1

    accepted: list[int] = []          # positions into `devices`
    reported: list[float] = []
    for pos, dev in enumerate(devices):
        mech = cfg.mech_for(pos)
        emit(1, "server", dev.id, "rule published",
             intercept=srv.r0, slope_scale=-srv.a_e / (2.0 * srv.rho))
        if not accepts(mech.theta, srv, mech):
            continue  # silent: no report, trace ends at step 1
        s_star = best_response(mech.theta, srv, mech)
        emit(2, "device", dev.id, "size reported", reported_size=s_star)
        accepted.append(pos)
        reported.append(s_star)

    if not accepted:
        if devices:  # n=0 keeps a genuinely empty trace
            emit(3, "server", None, "no reports; round closed", accepted=0)
        return ProtocolResult(
            trace=tuple(events), decision=(0,) * len(devices),
            total_profit=0.0, accepted_ids=(), reported_sizes=(),
            objective=None, marginals=(), threshold=(),
            seconds=time.perf_counter() - t_start)

    # the server prices the rule by inverting each report back to a type
    inferred = [infer_theta(s, srv, cfg.mech_for(pos).a_d)
                for pos, s in zip(accepted, reported)]
    rewards = [optimal_rule(min(max(th, 1e-12), 1.0), srv)(s)
               for th, s in zip(inferred, reported)]

    game_devices = [replace(devices[pos], data_size=s)
                    for pos, s in zip(accepted, reported)]
    solved = solve_round(game_devices, cfg, seed)
    if solved.mode == "decomposed":
        emit(3, "server", None, "decomposed game solved",
             accepted=len(accepted), mode="decomposed", xi=solved.xi,
             subset_objectives=list(solved.subset_objectives))
    else:
        emit(3, "server", None, "game solved", accepted=len(accepted),
             mode="direct", objective=solved.objective)

    joint = solved.sampled
    decision = [0] * len(devices)
    for k, pos in enumerate(accepted):
        decision[pos] = joint[k]
        dev = devices[pos]
        emit(4, "server", dev.id, "decision recommended",
             participate=joint[k], reward_rate=rewards[k],
             inferred_theta=inferred[k])
    for k, pos in enumerate(accepted):
        emit(5, "device", devices[pos].id, "decision confirmed",
             participate=joint[k])

    return ProtocolResult(
        trace=tuple(events), decision=tuple(decision),
        total_profit=solved.profit, accepted_ids=tuple(devices[p].id for p in accepted),
        reported_sizes=tuple(reported), objective=solved.objective,
        marginals=solved.marginals, threshold=solved.threshold,
        seconds=time.perf_counter() - t_start)
