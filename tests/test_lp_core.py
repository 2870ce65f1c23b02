"""Simplex core on correlated-equilibrium programs: agreement with HiGHS,
certificates, determinism, and both phase-1 starts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from fedpart import lp_core
from fedpart.errors import NumericalError, UsageError
from fedpart.lp_core import LinearProgram, Tolerances, check_feasible, solve


def ce_program(payoffs):
    """The CE program of a binary-action game.

    ``payoffs[k, i]`` is player i's payoff in outcome k, whose bit i is
    player i's action.  Row 2i+q holds player i's gain from keeping action
    q rather than flipping it, on the outcomes where it plays q.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    num, n = payoffs.shape
    k = np.arange(num)
    rows = np.zeros((2 * n + 1, num))
    for i in range(n):
        gain = payoffs[:, i] - payoffs[k ^ (1 << i), i]
        for q in (0, 1):
            rows[2 * i + q] = np.where((k >> i) & 1 == q, gain, 0.0)
    rows[-1] = 1.0
    return LinearProgram(c=payoffs.sum(axis=1), rows=rows)


def random_game(rng, normal):
    """n <= 5 players; integer payoffs bring ties and degenerate vertices."""
    n = int(rng.integers(1, 6))
    if normal:
        return ce_program(rng.normal(size=(2 ** n, n)))
    return ce_program(rng.integers(-5, 6, size=(2 ** n, n)))


def has_pure_equilibrium(lp):
    """Some outcome is nonnegative in every deviation row."""
    return bool((lp.rows[:-1] >= 0).all(axis=0).any())


def highs_optimum(lp):
    res = linprog(-lp.c, A_ub=-lp.rows[:-1], b_ub=np.zeros(lp.num_constraints - 1),
                  A_eq=lp.rows[-1:], b_eq=[1.0], bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


# Chicken: outcome 0 both yield, 1 and 2 one dares, 3 both dare.
CHICKEN = [[6, 6], [7, 2], [2, 7], [0, 0]]
# Matching pennies: player 0 wins when the actions match.
PENNIES = [[1, -1], [-1, 1], [-1, 1], [1, -1]]


def test_simple_maximization():
    # max x0 + x1 s.t. x0 + x1 = 1, x >= 0 -> objective 1
    sol = solve(LinearProgram(c=[1.0, 1.0], rows=[[1.0, 1.0]]))
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    assert np.sum(sol.x) == pytest.approx(1.0, abs=1e-12)


def test_chicken_from_the_pure_equilibrium():
    # the best CE mixes both-yield with the two pure equilibria (welfare 9)
    lp = ce_program(CHICKEN)
    assert has_pure_equilibrium(lp)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(10.5, abs=1e-12)
    assert sol.x == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=1e-12)


def test_matching_pennies_from_the_identity_basis():
    # no pure equilibrium, so phase 1 starts from B = I; the only CE is uniform
    lp = ce_program(PENNIES)
    assert not has_pure_equilibrium(lp)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
    assert sol.x == pytest.approx([0.25] * 4, abs=1e-12)


def test_degenerate_rhs_zero():
    # Many ties in the ratio test; must terminate and agree with HiGHS.
    lp = LinearProgram(
        c=[1.0, 2.0, 3.0],
        rows=[[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0]],
    )
    assert solve(lp).objective_value == pytest.approx(highs_optimum(lp), abs=1e-9)


def test_matches_scipy_on_random_lps():
    rng = np.random.default_rng(20240501)
    starts = {True: 0, False: 0}
    for trial in range(120):
        lp = random_game(rng, normal=trial % 2 == 0)
        starts[has_pure_equilibrium(lp)] += 1
        sol = solve(lp)
        assert sol.objective_value == pytest.approx(highs_optimum(lp), abs=1e-7), trial
    # the generator must run phase 1 from a pure equilibrium and from B = I
    assert min(starts.values()) > 0, starts


def test_certificates_reported_tight():
    sol = solve(ce_program(CHICKEN))
    assert sol.max_primal_violation <= 1e-8
    assert sol.max_dual_violation <= 1e-8
    assert sol.max_cs_violation <= 1e-8
    assert abs(sol.duality_gap) <= 1e-7
    # a deviation row binds, so its dual is nonzero
    assert (sol.dual[:-1] < 0).any()


def test_solution_is_deterministic():
    lp = random_game(np.random.default_rng(7), normal=True)
    a = solve(lp)
    b = solve(lp)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.dual, b.dual)
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations


def test_scaling_invariance():
    # Scaling a deviation row by a positive constant must not change the optimum.
    lp = ce_program(CHICKEN)
    rows = lp.rows.copy()
    rows[0] *= 10.0
    scaled = LinearProgram(c=lp.c, rows=rows)
    assert solve(lp).objective_value == pytest.approx(
        solve(scaled).objective_value, rel=1e-12)


def test_check_feasible_flags_violations():
    lp = LinearProgram(c=[1.0, 1.0], rows=[[1.0, -1.0], [1.0, 1.0]])
    good = check_feasible(lp, [0.5, 0.5])
    assert good.ok and good.max_violation <= 1e-15
    bad = check_feasible(lp, [0.4, 0.6])
    assert not bad.ok
    assert bad.max_violation == pytest.approx(0.2, abs=1e-12)
    assert "row[0] (>= 0)" in bad.worst_label
    off = check_feasible(lp, [0.55, 0.6])
    assert off.max_violation == pytest.approx(0.15, abs=1e-12)
    assert "row[1] (= 1)" in off.worst_label
    neg = check_feasible(lp, [1.5, -0.5])
    assert not neg.ok and neg.bound_violations[1] == pytest.approx(0.5)


def test_validation_errors():
    with pytest.raises(UsageError):  # the last row is not the normalization
        LinearProgram(c=[1.0, 1.0], rows=[[1.0, 1.0], [1.0, 0.5]])
    with pytest.raises(UsageError):
        LinearProgram(c=[np.nan], rows=[[1.0]])
    with pytest.raises(UsageError):
        LinearProgram(c=[1.0, 1.0], rows=[[1.0]])
    with pytest.raises(UsageError):
        LinearProgram(c=[1.0], rows=[1.0])
    lp = ce_program(CHICKEN)
    assert lp.senses == (">=",) * 4 + ("=",)
    assert lp.rhs.tolist() == [0.0] * 4 + [1.0]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40)
def test_property_agreement_with_scipy(seed, normal):
    lp = random_game(np.random.default_rng(seed), normal)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(highs_optimum(lp), abs=1e-7)
    # primal feasibility of our point, independently rechecked
    assert check_feasible(lp, sol.x, tol=Tolerances(feas_tol=1e-7)).ok


def test_tight_tolerance_raises_numerical():
    # This game solves with certificate residuals near 1e-16; at 1e-300 the
    # check must surface as NumericalError, never as a silently wrong answer.
    lp = ce_program(np.random.default_rng(3).normal(size=(8, 3)))
    solve(lp)
    with pytest.raises(NumericalError):
        solve(lp, tol=Tolerances(feas_tol=1e-300, cs_tol=1e-300, gap_tol=1e-300))


def test_impossible_ends_raise_numerical(monkeypatch):
    # No game has this program (-x0 - x1 >= 0 on the simplex), so phase 1
    # ends with a positive artificial.
    with pytest.raises(NumericalError, match="artificial"):
        solve(LinearProgram(c=[1.0, 0.0], rows=[[-1.0, -1.0], [1.0, 1.0]]))
    # A ratio test with no leaving row would be an unbounded ray.
    monkeypatch.setattr(lp_core, "_choose_leaving", lambda st, alpha: -1)
    with pytest.raises(NumericalError, match="no leaving row"):
        solve(ce_program(CHICKEN))
