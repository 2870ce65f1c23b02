#!/usr/bin/env python3
"""One sha256 over the exact bytes of a fixed set of certified solves.

A change that must not move any solve (a faster build, another pricing
layout, a memo in front of the solver) should print the same digest before
and after.  For every game the digest covers the LP rows and the objective
vector that `build_gpm` makes, the profit tensor that `profit_tensor`
returns (the transpose of the `joiner_rows` kernel), the primal, dual,
objective (as float hex) and pivot count that `solve_gpm` returns, and the
`_check_ce` result on that primal.  A solve that raises contributes its
error type and message instead.

The games come from `fedpart.rng.SplitMix64` alone:

* the four n=18 two-size mixes: 6, 8, 10 and 12 devices of size 500, the
  rest 50, placed by a seeded shuffle;
* the n=14 distinct-size pool: instance seed s = 0..15 draws
  ``round(50 + 950 u, 3)`` for each device;
* 300 random games of 1 to 8 devices, mixing zero sizes, two-size draws,
  distinct sizes, betas, gammas and channel costs;
* two pinned games that reach rare paths: a 6-device game with no pure Nash
  equilibrium (phase 1 runs from the identity basis) and the n=14
  distinct-size game of instance seed 20 (the solve falls back to Bland's
  rule).

Run from the root of a checkout (about 10 s):

    PYTHONPATH=src python3 scripts/solve_fingerprint.py
"""

from __future__ import annotations

import hashlib
import struct

from fedpart.equilibrium import build_gpm, solve_gpm, verify_ce
from fedpart.game_model import DeviceProfile, GameParams, profit_tensor
from fedpart.rng import SplitMix64


def two_size_mix(large: int, n: int = 18) -> list[DeviceProfile]:
    order = list(range(n))
    gen = SplitMix64(large)
    for k in range(n - 1, 0, -1):  # Fisher-Yates
        j = gen.next_u64() % (k + 1)
        order[k], order[j] = order[j], order[k]
    return [DeviceProfile(id=i, data_size=500.0 if order[i] < large else 50.0)
            for i in range(n)]


def distinct_game(instance_seed: int, n: int = 14) -> list[DeviceProfile]:
    gen = SplitMix64(instance_seed)
    return [DeviceProfile(id=i, data_size=round(50.0 + 950.0 * gen.uniform(), 3))
            for i in range(n)]


def random_game(gen: SplitMix64) -> list[DeviceProfile]:
    n = 1 + gen.next_u64() % 8
    kind = gen.next_u64() % 3   # 0: two sizes, 1: distinct sizes, 2: any costs
    devices = []
    for i in range(n):
        if gen.uniform() < 0.2:
            size = 0.0
        elif kind == 0:
            size = 500.0 if gen.uniform() < 0.5 else 50.0
        else:
            size = round(1500.0 * gen.uniform(), 3)
        extra = {}
        if kind == 2:
            extra = {"beta": 5e-4 + 5e-3 * gen.uniform(),
                     "gamma": 5e-6 + 1e-4 * gen.uniform(),
                     "channel_cost": 0.0 if gen.uniform() < 0.2 else 9e5 * gen.uniform()}
        devices.append(DeviceProfile(id=i, data_size=size, **extra))
    return devices


# (data_size, beta, gamma, channel_cost): in every outcome some device gains
# by flipping, so no point mass is feasible
NO_PURE_NE = [(1470.0, 0.0029, 6.44e-05, 863000.0), (133.4, 0.0013, 9.26e-05, 58300.0),
              (1124.0, 0.00174, 5.56e-05, 499000.0), (31.22, 0.00426, 5.91e-05, 16300.0),
              (314.4, 0.00189, 8.36e-05, 349000.0), (817.5, 0.0047, 4.06e-05, 728000.0)]


def games() -> list[list[DeviceProfile]]:
    out = [two_size_mix(large) for large in (6, 8, 10, 12)]
    out += [distinct_game(s) for s in range(16)]
    gen = SplitMix64(2024)
    out += [random_game(gen) for _ in range(300)]
    out.append([DeviceProfile(id=i, data_size=s, beta=b, gamma=g, channel_cost=c)
                for i, (s, b, g, c) in enumerate(NO_PURE_NE)])
    out.append(distinct_game(20))
    return out


def absorb(h, devices: list[DeviceProfile]) -> None:
    try:
        program = build_gpm(devices)
        for arr in (program.lp.rows, program.lp.c, profit_tensor(devices, GameParams())):
            h.update(arr.tobytes())
        sol = solve_gpm(devices)
        lp = sol.lp_solution
        h.update(lp.x.tobytes())
        h.update(lp.dual.tobytes())
        for value in (sol.total_profit, lp.max_primal_violation, lp.max_dual_violation,
                      lp.max_cs_violation, lp.duality_gap):
            h.update(float(value).hex().encode())
        h.update(struct.pack("<q", lp.iterations))
        ce = verify_ce(sol.distribution, devices, GameParams())
        h.update(repr((ce.ok, float(ce.worst_violation).hex(), ce.worst_device,
                       ce.worst_from, ce.worst_to)).encode())
    except Exception as exc:  # a refused or failed solve is part of the fingerprint
        h.update(f"{type(exc).__name__}: {exc}".encode())


def main() -> None:
    h = hashlib.sha256()
    for devices in games():
        absorb(h, devices)
    print(h.hexdigest())


if __name__ == "__main__":
    main()
