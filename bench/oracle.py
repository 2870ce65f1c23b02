#!/usr/bin/env python3
"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``fedpart``.  The payoff formula, the size draws, the
correlated-equilibrium LP and the mechanism's closed forms are written again
from their documented definitions, and the LP is solved by scipy's HiGHS, so
a check that passes means two separate implementations agree.

Documented game (README "Configuration", ``fedpart.game_model``):

* outcome ``k`` has device ``i`` joining iff bit ``i`` of ``k`` is set;
* the pool is 0 when nobody joins, else ``alpha * (1 - err_a * S**-err_b)``
  with ``S`` the joiners' total data;
* a joiner with data ``s_i`` earns ``s_i / (delta + S) * pool`` and pays
  ``beta * s_i + gamma * channel_cost``; an abstainer earns and pays nothing;
* the planner maximizes expected total profit over distributions ``G`` with
  ``sum_{p: p_i = q} G(p) * (V_i(p) - V_i(p with bit i flipped)) >= 0`` for
  every device ``i`` and recommendation ``q``.

Run as a script to recompute the stored reference optima from HiGHS::

    python3 bench/oracle.py --recompute

An n=18 instance takes HiGHS about 7 s and 1.1 GB, so the store holds one
optimum per multiset of sizes that the n=18 workload solves (relabelling
devices does not change the optimum) and is rebuilt only by this command.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_optima.json"

MASK64 = (1 << 64) - 1
SUPPORT_SLACK = 1e-9   # relative objective slack of the optimal face in support_weight
GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 increment and the size-stream offset


@dataclass(frozen=True)
class Game:
    alpha: float = 10.0
    err_a: float = 13.2
    err_b: float = 0.7
    delta: float = 1e-3


@dataclass(frozen=True)
class Device:
    size: float
    beta: float = 1e-3
    gamma: float = 1e-5
    channel: float = 3.5e5

    @property
    def cost(self) -> float:
        return self.beta * self.size + self.gamma * self.channel


# ---------------------------------------------------------------------------
# random streams


class Stream:
    """SplitMix64 (Steele, Lea & Flood 2014): the package's documented generator."""

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.u64() >> 11) / float(1 << 53)


def drawn_sizes(n: int, seed: int, choices: Sequence[float] = (50.0, 500.0)) -> list[float]:
    """Sizes the package's generator draws: equiprobable choices, inverse CDF,
    from the stream seeded with ``seed XOR 0x9E3779B97F4A7C15``."""
    stream = Stream(int(seed) ^ GOLDEN_GAMMA)
    k = len(choices)
    out = []
    for _ in range(n):
        u = stream.uniform()
        # index of the first cumulative weight strictly above u
        idx = 0
        while idx < k - 1 and u >= (idx + 1) / k:
            idx += 1
        out.append(float(choices[idx]))
    return out


def sub_seed(seed: int, index: int) -> int:
    """The package's documented derived seed: ``(seed + index) mod 2**64``."""
    return (int(seed) + int(index)) & MASK64


# ---------------------------------------------------------------------------
# payoffs


def payoff_table(devices: Sequence[Device], game: Game) -> np.ndarray:
    """(2**n, n) profits; built by doubling so it shares no code with the package."""
    totals = np.zeros(1)
    member = np.zeros((1, 0), dtype=bool)
    for d in devices:
        totals = np.concatenate([totals, totals + d.size])
        member = np.vstack([
            np.hstack([member, np.zeros((len(member), 1), dtype=bool)]),
            np.hstack([member, np.ones((len(member), 1), dtype=bool)]),
        ])
    pool = np.zeros_like(totals)
    some = totals > 0
    pool[some] = game.alpha * (1.0 - game.err_a * totals[some] ** (-game.err_b))
    sizes = np.array([d.size for d in devices])
    costs = np.array([d.cost for d in devices])
    share = (pool / (game.delta + totals))[:, None] * sizes[None, :]
    return np.where(member, share - costs[None, :], 0.0)


def outcome_profit(decision: Sequence[int], devices: Sequence[Device], game: Game) -> float:
    """Total profit of one joint decision, by the scalar formula."""
    total = sum(d.size for d, b in zip(devices, decision) if b)
    if not any(decision):
        return 0.0
    pool = game.alpha * (1.0 - game.err_a * math.pow(total, -game.err_b)) if total > 0 else -math.inf
    value = 0.0
    for d, b in zip(devices, decision):
        if b:
            value += (d.size / (game.delta + total) * pool if d.size > 0 else 0.0) - d.cost
    return value


def deviation_rows(profits: np.ndarray) -> np.ndarray:
    """(2n, 2**n) rows: row 2i+q holds device i's deviation gain on outcomes
    where it is recommended q, and 0 elsewhere."""
    num, n = profits.shape
    idx = np.arange(num)
    rows = np.zeros((2 * n, num))
    for i in range(n):
        gain = profits[:, i] - profits[idx ^ (1 << i), i]
        joined = ((idx >> i) & 1).astype(bool)
        rows[2 * i] = np.where(joined, 0.0, gain)
        rows[2 * i + 1] = np.where(joined, gain, 0.0)
    return rows


def index_of(decision: Sequence[int]) -> int:
    return sum(1 << i for i, b in enumerate(decision) if b)


def decision_of(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> i) & 1 for i in range(n))


# ---------------------------------------------------------------------------
# the LP oracle


def ce_optimum(devices: Sequence[Device], game: Game) -> float:
    """Optimal expected total profit over correlated equilibria, by HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    profits = payoff_table(devices, game)
    rows = deviation_rows(profits)
    num = profits.shape[0]
    res = linprog(-profits.sum(axis=1), A_ub=csr_matrix(-rows), b_ub=np.zeros(len(rows)),
                  A_eq=np.ones((1, num)), b_eq=[1.0], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not reach an optimum: {res.message}")
    return float(-res.fun)


def support_weight(devices: Sequence[Device], decision: Sequence[int], game: Game,
                   optimum: float) -> float:
    """The largest probability that an optimal correlated equilibrium puts on
    ``decision``, by HiGHS.  It is 0, up to about 100 times the slack, when
    no optimal plan can sample the decision."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    profits = payoff_table(devices, game)
    totals = profits.sum(axis=1)
    rows = deviation_rows(profits)
    num = len(totals)
    target = np.zeros(num)
    target[index_of(decision)] = -1.0
    floor = optimum - SUPPORT_SLACK * max(1.0, abs(optimum))
    res = linprog(target, A_ub=csr_matrix(np.vstack([-rows, -totals[None, :]])),
                  b_ub=np.concatenate([np.zeros(len(rows)), [-floor]]),
                  A_eq=np.ones((1, num)), b_eq=[1.0], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS found no optimal plan to weigh: {res.message}")
    return float(-res.fun)


class OptimumCache:
    """HiGHS optima keyed by the sorted device profiles, the stored optima,
    and other values a run's repeated rounds ask for again."""

    def __init__(self, game: Game = Game(), reference: dict | None = None):
        self.game = game
        self.solved: dict[tuple, float] = {}
        self.memo: dict[tuple, object] = {}
        self.reference = reference if reference is not None else load_reference()

    def remember(self, key: tuple, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    @staticmethod
    def key(devices: Sequence[Device]) -> tuple:
        return tuple(sorted((d.size, d.beta, d.gamma, d.channel) for d in devices))

    def optimum(self, devices: Sequence[Device]) -> float:
        key = self.key(devices)
        if key not in self.solved:
            stored = None
            if self.game == Game() and all(d == Device(d.size) for d in devices):
                stored = self.reference.get(json.dumps(sorted(d.size for d in devices)))
            self.solved[key] = stored if stored is not None else ce_optimum(devices, self.game)
        return self.solved[key]

    def support(self, devices: Sequence[Device], decision: Sequence[int]) -> float:
        """``support_weight``, cached per multiset of (device, bit) pairs:
        relabelling devices and decision together does not change it."""
        pairs = sorted(((d.size, d.beta, d.gamma, d.channel), int(b))
                       for d, b in zip(devices, decision))
        key = ("support", tuple(pairs))
        if key not in self.memo:
            ordered = [Device(*profile) for profile, _ in pairs]
            self.memo[key] = support_weight(ordered, [b for _, b in pairs], self.game,
                                            self.optimum(ordered))
        return self.memo[key]


# ---------------------------------------------------------------------------
# stored reference optima (n = 18, sizes from {50, 500})

REFERENCE_N = 18
REFERENCE_CHOICES = (50.0, 500.0)
HAND_CHECKED_LARGE = 1   # one large device: the lone-joiner optimum, a frozen value


def reference_large_counts() -> tuple[int, ...]:
    """The size-500 counts the n=18 workload solves, plus the hand-checked one."""
    from workloads import GPM_N18_LARGE

    return tuple(sorted({HAND_CHECKED_LARGE, *GPM_N18_LARGE}))


def reference_multisets() -> list[list[float]]:
    n = REFERENCE_N
    small, large = REFERENCE_CHOICES
    return [[small] * (n - k) + [large] * k for k in reference_large_counts()]


def load_reference() -> dict[str, float]:
    if not REFERENCE_FILE.exists():
        return {}
    doc = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {json.dumps(sorted(entry["sizes"])): float(entry["optimum"])
            for entry in doc["optima"]}


def recompute_reference() -> None:
    optima = []
    for sizes in reference_multisets():
        value = ce_optimum([Device(s) for s in sizes], Game())
        optima.append({"sizes": sizes, "optimum": value})
        print(f"n={len(sizes)} large={sizes.count(REFERENCE_CHOICES[1])}: {value!r}", flush=True)
    doc = {
        "about": "HiGHS optima of the correlated-equilibrium LP, default game and "
                 "device costs, one per multiset of sizes; written by "
                 "`python3 bench/oracle.py --recompute`",
        "optima": optima,
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# mechanism closed forms


def mech_point(theta: float, a_d: float, b_d: float, a_e: float, b_e: float,
               sigma: float, rho: float, s0: float, r0: float,
               horizon: float = 1.0) -> dict[str, float]:
    """Report, reward rate, both utilities, acceptance and the truthfulness
    verdict for one device against the rule tuned to its true type."""
    s_star = rho * (r0 + a_d * theta) / (a_e * theta)
    slope = -a_e * theta / (2.0 * rho)

    def device_u(s: float) -> float:
        return horizon * ((r0 + slope * s) * s + a_d * theta * s + b_d)

    r_star = r0 + slope * s_star
    u_dev = device_u(s_star)
    volume = sigma * 0.5 * (1.0 + math.tanh(0.5 * (s_star - s0)))
    u_srv = horizon * (volume - rho * (r_star - r0) ** 2 - (a_e * theta * s_star * r_star + b_e))
    grid = [k / 20.0 for k in range(1, 21)]
    lies = [rho * (r0 + a_d * t) / (a_e * t) for t in grid if abs(t - theta) > 1e-12]
    ic_ok = all(device_u(max(s, 0.0)) <= u_dev + 1e-9 * max(1.0, abs(u_dev)) for s in lies)
    return {"s_star": s_star, "r_star": r_star, "u_device": u_dev, "u_server": u_srv,
            "accepted": s_star > 0 and u_dev > 0, "ic_ok": ic_ok}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--recompute", action="store_true",
                    help=f"solve every stored instance with HiGHS and rewrite {REFERENCE_FILE.name}")
    args = ap.parse_args()
    if not args.recompute:
        ap.error("nothing to do; pass --recompute")
    recompute_reference()


if __name__ == "__main__":
    main()
