"""The exact GPM solve: memory footprint, work done once, pinned pivot paths,
and agreement with HiGHS."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from fedpart import game_model as gm
from fedpart import lp_core
from fedpart.equilibrium import build_gpm, solve_gpm, verify_ce
from fedpart.rng import SplitMix64


def _phase1_tableau_bytes(lp: lp_core.LinearProgram) -> int:
    """Bytes of the dense (m+1) x (ncols+1) phase-1 tableau of ``lp``: one
    slack per deviation row and one artificial."""
    m = lp.num_constraints
    return 8 * (m + 1) * (lp.num_vars + m + 1)


def test_solve_peak_memory_is_bounded_by_the_tableau():
    # the tableau, one pivot workspace of the same shape, and row-sized vectors
    lp = build_gpm(gm.random_devices(12, 3)).lp
    tableau = _phase1_tableau_bytes(lp)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol = lp_core.solve(lp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.objective_value > 0
    assert peak <= 3 * tableau, f"peak {peak} B is {peak / tableau:.2f}x the tableau"


def test_solve_gpm_builds_the_profit_tensor_once(monkeypatch):
    calls = []
    real = gm.profit_tensor

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gm, "profit_tensor", counting)
    solve_gpm(gm.random_devices(8, 0))
    assert len(calls) == 1


def test_solve_peak_memory_is_a_fraction_of_the_rows():
    # B⁻¹, a reduced-cost vector and blocked rescue columns; no tableau
    lp = build_gpm(gm.random_devices(16, 3)).lp
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol = lp_core.solve(lp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.objective_value > 0
    assert peak <= 0.5 * lp.rows.nbytes, \
        f"peak {peak} B is {peak / lp.rows.nbytes:.2f}x the rows"


def highs_optimum(lp: lp_core.LinearProgram) -> float:
    """The LP's optimum from scipy's HiGHS: the deviation rows negated into A_ub."""
    res = linprog(-lp.c, A_ub=-lp.rows[:-1], b_ub=np.zeros(lp.num_constraints - 1),
                  A_eq=lp.rows[-1:], b_eq=[1.0], bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def devices_of(sizes):
    return [gm.DeviceProfile(id=i, data_size=float(s)) for i, s in enumerate(sizes)]


@given(st.one_of(
    st.lists(st.sampled_from([50.0, 500.0]), min_size=1, max_size=8),
    st.lists(st.floats(50, 1000).map(lambda v: round(v, 3)), min_size=1, max_size=8,
             unique=True)))
@settings(max_examples=60, deadline=None)
def test_solve_gpm_matches_highs(sizes):
    devices = devices_of(sizes)
    reference = highs_optimum(build_gpm(devices).lp)
    assert solve_gpm(devices).total_profit == pytest.approx(reference, abs=1e-9)


# A participation game with no pure Nash equilibrium, given as (data_size,
# beta, gamma, channel_cost) under the default GameParams: in every outcome
# some device gains at least 0.0971 by flipping.  So phase 1 runs from the
# identity basis.  HiGHS puts the optimum at -2.8e-17, that is 0; the solve
# measured -3.5e-18 in 36 pivots, with support {0, 2, 8, 10}.
NO_PURE_NE = [(1470.0, 0.0029, 6.44e-05, 863000.0), (133.4, 0.0013, 9.26e-05, 58300.0),
              (1124.0, 0.00174, 5.56e-05, 499000.0), (31.22, 0.00426, 5.91e-05, 16300.0),
              (314.4, 0.00189, 8.36e-05, 349000.0), (817.5, 0.0047, 4.06e-05, 728000.0)]


def test_game_with_no_pure_equilibrium():
    devices = [gm.DeviceProfile(id=i, data_size=s, beta=b, gamma=g, channel_cost=c)
               for i, (s, b, g, c) in enumerate(NO_PURE_NE)]
    lp = build_gpm(devices).lp
    assert not (lp.rows[:-1] >= 0).all(axis=0).any()
    sol = solve_gpm(devices)
    assert sol.total_profit == pytest.approx(highs_optimum(lp), abs=1e-9)
    assert verify_ce(sol.distribution, devices, gm.GameParams()).ok
    assert sol.lp_solution.iterations <= 50


# The pivot count and the support fix the pivot path; hashes of G are not
# pinned, because the profit tensor may round differently under another
# BLAS.  The objectives agree with HiGHS on the same LP: 2.9917697655149547
# for two-size-n10 and 4.1280715419009715 for distinct-n11.  Both games
# start at a pure Nash equilibrium.
DISTINCT_11 = [113.56, 728.47, 459.002, 718.247, 165.023, 922.207, 980.866,
               175.545, 724.887, 543.1, 420.258]


@pytest.mark.parametrize("devices, iterations, support, objective", [
    (gm.random_devices(10, 2), 7, [1, 3, 5, 33, 65, 257], 2.9917697655149547),
    (devices_of(DISTINCT_11), 7, [32, 64, 66, 72, 258, 320], 4.1280715419009715),
], ids=["two-size-n10", "distinct-n11"])
def test_pivot_path_is_pinned(devices, iterations, support, objective):
    sol = solve_gpm(devices)
    assert sol.lp_solution.iterations == iterations
    assert np.flatnonzero(sol.distribution.probabilities > 0).tolist() == support
    assert sol.total_profit == pytest.approx(objective, abs=1e-12)


def splitmix_sizes(seed, n):
    gen = SplitMix64(seed)
    return [round(50 + 950 * gen.uniform(), 3) for _ in range(n)]


# Two distinct-size games on which phase 1 from the identity basis never
# left its degenerate plateau (8000 degenerate pivots in 24 s on the first).
# The optima are HiGHS's; the pure-NE start took 19 and 15 pivots, running
# the rescue scan and the lexicographic ratio-test tie-break several times.
@pytest.mark.parametrize("sizes, objective, max_pivots", [
    (splitmix_sizes(34, 14), 4.224171535418515, 40),
    (splitmix_sizes(1, 16), 4.295150819234353, 30),
], ids=["distinct-n14-seed34", "distinct-n16-seed1"])
def test_plateau_games_solve(sizes, objective, max_pivots):
    sol = solve_gpm(devices_of(sizes))
    assert sol.total_profit == pytest.approx(objective, abs=1e-9)
    assert sol.lp_solution.iterations <= max_pivots
