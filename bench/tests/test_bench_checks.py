"""The benchmark's own checks: its reference code reproduces hand-checked
values, and a wrong output is counted as a failed operation.

Run from the repository root:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import checks
import oracle
import run
import workloads
from oracle import Device, Game

import fedpart

# frozen with mpmath in tests/test_game_model.py and tests/test_equilibrium.py
PROFIT_BOTH_500_TOTAL = 0.9514777786861703
PROFIT_SOLO_500 = 4.2966685745915605
PROFIT_SOLO_50 = -2.086825750306113
OBJECTIVE_3DEV_MIXED = 4.47122347977853   # sizes (100, 500, 900)
# worked example of the release gate: n=4, sizes [500, 50, 500, 500]
OBJECTIVE_N4_EXAMPLE = 2.605


def test_scalar_payoffs_match_frozen_values():
    two = [Device(500.0), Device(500.0)]
    assert oracle.outcome_profit((1, 1), two, Game()) == pytest.approx(PROFIT_BOTH_500_TOTAL, abs=1e-12)
    assert oracle.outcome_profit((1, 0), two, Game()) == pytest.approx(PROFIT_SOLO_500, abs=1e-12)
    assert oracle.outcome_profit((0, 1), [Device(500.0), Device(50.0)], Game()) == pytest.approx(
        PROFIT_SOLO_50, abs=1e-12)
    assert oracle.outcome_profit((0, 0), two, Game()) == 0.0


def test_payoff_table_matches_scalar_formula():
    devices = [Device(s) for s in (500.0, 50.0, 900.0, 120.5)]
    table = oracle.payoff_table(devices, Game())
    for k in range(16):
        decision = [(k >> i) & 1 for i in range(4)]
        assert table[k].sum() == pytest.approx(oracle.outcome_profit(decision, devices, Game()),
                                               abs=1e-12)
        assert all(table[k, i] == 0.0 for i in range(4) if not decision[i])


@pytest.mark.parametrize("sizes, want, tol", [
    ((500.0, 500.0), PROFIT_BOTH_500_TOTAL, 1e-9),
    ((100.0, 500.0, 900.0), OBJECTIVE_3DEV_MIXED, 1e-9),
    ((500.0, 50.0, 500.0, 500.0), OBJECTIVE_N4_EXAMPLE, 5e-4),
])
def test_highs_oracle_reproduces_hand_checked_optima(sizes, want, tol):
    assert oracle.ce_optimum([Device(s) for s in sizes], Game()) == pytest.approx(want, abs=tol)


def test_stored_reference_optima_cover_the_n18_workload():
    reference = oracle.load_reference()
    counts = {json.loads(key).count(500.0) for key in reference}
    assert counts == set(workloads.GPM_N18_LARGE) | {oracle.HAND_CHECKED_LARGE}
    assert all(len(json.loads(key)) == oracle.REFERENCE_N for key in reference)
    # one large device alone is the lone-joiner optimum
    assert reference["[" + ", ".join(["50.0"] * 17 + ["500.0"]) + "]"] == pytest.approx(
        PROFIT_SOLO_500, abs=1e-9)


def test_size_draws_match_the_documented_generator():
    assert oracle.drawn_sizes(4, 42) == [50.0] * 4
    for seed in range(20):
        want = [d.data_size for d in fedpart.random_devices(9, seed=seed)]
        assert oracle.drawn_sizes(9, seed) == want


def test_mechanism_closed_form():
    point = oracle.mech_point(theta=0.5, a_d=1.0, b_d=1.0, a_e=1.0, b_e=1.0, sigma=1e5,
                              rho=10.0, s0=500.0, r0=50.0)
    assert point["s_star"] == pytest.approx(10.0 * 50.5 / 0.5, rel=1e-15)
    assert point["accepted"] and point["ic_ok"]


def test_support_weight_marks_the_optimal_support():
    sizes = (500.0, 50.0, 500.0, 500.0)
    devices = [Device(s) for s in sizes]
    G = fedpart.solve_gpm([fedpart.DeviceProfile(id=i, data_size=s)
                           for i, s in enumerate(sizes)]).distribution.probabilities
    cache = oracle.OptimumCache()
    weights = np.array([cache.support(devices, oracle.decision_of(k, 4)) for k in range(16)])
    assert all(weights[G > 1e-9] > checks.SUPPORT_MIN)
    # outcomes no optimal plan samples read near the slack, far below the cut
    off = weights[weights <= checks.SUPPORT_MIN]
    assert len(off) and off.max() < 1e-2 * checks.SUPPORT_MIN
    assert checks.check_support((1, 1, 1, 1), devices, cache, "all join")


def test_distinct_pool_has_distinct_sizes():
    for s in range(workloads.GPM_N14_POOL):
        assert len(set(workloads.distinct_instance(s))) == 14


# ---------------------------------------------------------------------------
# wrong outputs are failed operations


def _run_and_check(op, output=None):
    out = op.run() if output is None else output
    return run.check_records([run.Record(op, 0.0, output=out)])


@pytest.fixture(scope="module")
def gpm_op():
    return workloads.gpm_operation(fedpart, [500.0, 50.0, 500.0, 500.0], 7, "n=4 example")


def test_correct_solve_passes(gpm_op):
    assert _run_and_check(gpm_op) == (0, True)


def test_perturbed_objective_fails(gpm_op):
    out = gpm_op.run()
    out["objective"] *= 1.0 + 1e-4
    assert _run_and_check(gpm_op, out) == (1, False)


def test_distribution_off_the_polytope_fails(gpm_op):
    out = gpm_op.run()
    # everyone joins: each size-500 device would rather abstain
    G = np.zeros(16)
    G[15] = 1.0
    moved = 0.5 * out["G"] + 0.5 * G
    out["G"] = moved
    problems = checks.check_distribution(moved, out["objective"], out["marginals"],
                                         out["sampled"], out["threshold"],
                                         [Device(s) for s in (500.0, 50.0, 500.0, 500.0)], Game())
    assert any("deviation constraint" in p for p in problems)
    assert _run_and_check(gpm_op, out) == (1, False)


def test_zero_probability_sample_fails(gpm_op):
    out = gpm_op.run()
    zero = int(np.flatnonzero(out["G"] == 0.0)[0])
    out["sampled"] = tuple((zero >> i) & 1 for i in range(4))
    assert _run_and_check(gpm_op, out) == (1, False)


@pytest.fixture(scope="module")
def suite_ops():
    ops = workloads.ExperimentSuite().round(fedpart, 3)
    return {op.label: op for op in ops}


def test_wrong_mechanism_report_fails(suite_ops):
    op = suite_ops["sweep default rho=2.0"]
    out = op.run()
    assert _run_and_check(op, out) == (0, True)
    bad = copy.deepcopy(out)
    k = bad["header"].index("s_star")
    bad["rows"][0][k] *= 1.001
    assert _run_and_check(op, bad) == (1, False)


def test_wrong_protocol_report_fails(suite_ops):
    op = suite_ops["protocol seed 3"]
    out = op.run()
    assert _run_and_check(op, out) == (0, True)
    bad = copy.deepcopy(out)
    bad["reported_sizes"][0] += 1.0
    assert _run_and_check(op, bad) == (1, False)


def test_decomposed_profit_is_repriced(suite_ops):
    op = suite_ops["sweep generated_decomposed n=4"]
    out = op.run()
    assert _run_and_check(op, out) == (0, True)
    bad = copy.deepcopy(out)
    k = bad["header"].index("profit_sampled")
    bad["rows"][0][k] += 1e-3
    assert _run_and_check(op, bad) == (1, False)


def _with_column(out, name, value, row=0):
    bad = copy.deepcopy(out)
    bad["rows"][row][bad["header"].index(name)] = value
    return bad


def _support_problems(op, out):
    return [p for p in op.check(out, oracle.OptimumCache()) if "every optimal plan" in p]


def test_out_of_support_sample_fails_in_a_direct_sweep(suite_ops):
    op = suite_ops["sweep threshold_small_peers s1=1000.0"]
    out = op.run()
    assert _run_and_check(op, out) == (0, True)
    bad = _with_column(out, "decision_sampled", (1,) * 8)
    assert _support_problems(op, bad)
    assert _run_and_check(op, bad) == (1, False)


def test_out_of_support_sample_fails_in_a_decomposed_subset(suite_ops):
    op = suite_ops["sweep generated_decomposed n=4"]
    bad = _with_column(op.run(), "decision_sampled", (1, 1, 1, 1))
    assert any("subset" in p for p in _support_problems(op, bad))
    assert _run_and_check(op, bad) == (1, False)


def test_out_of_support_protocol_decision_fails(suite_ops):
    op = suite_ops["protocol seed 3"]
    bad = copy.deepcopy(op.run())
    for pos in bad["accepted_positions"]:
        bad["decision"][pos] = 1
    assert _support_problems(op, bad)
    assert _run_and_check(op, bad) == (1, False)


def test_wrong_decomposed_compare_profit_fails(suite_ops):
    op = suite_ops["compare n=4"]
    out = op.run()
    k = out["header"].index("improved_profit")
    # at n=4 every subset's optimal support is one outcome: the range is a point
    assert _run_and_check(op, _with_column(out, "improved_profit", out["rows"][0][k] + 1e-3)) \
        == (1, False)


def test_spooled_records_are_checked_in_order(tmp_path):
    sizes = ([500.0, 50.0, 500.0, 500.0], [500.0, 50.0])
    ops = [workloads.gpm_operation(fedpart, s, 7, f"n={len(s)}") for s in sizes]
    spool = run.Spool(tmp_path / "spool.pickle", ops)
    times, _, rounds = run.run_rounds(ops, 0.0, spool)
    assert rounds == 1 and len(times) == spool.count == 2
    assert [r.op.label for r in spool.records()] == ["n=4", "n=2"]
    assert run.check_records(spool.records()) == (0, True)
    spool.remove()
    assert not (tmp_path / "spool.pickle").exists()


def test_csv_that_does_not_parse_back_fails(suite_ops):
    op = suite_ops["compare n=4"]
    out = op.run()
    assert _run_and_check(op, out) == (0, True)
    bad = dict(out, csv=out["csv"].replace("\n4,2,30,", "\n4,2,31,"))
    assert bad["csv"] != out["csv"]
    assert _run_and_check(op, bad) == (1, False)


def test_raising_operation_fails_but_stays_correct():
    def boom():
        raise fedpart.NumericalError("simplex iteration cap exceeded")

    op = workloads.Operation("raises", boom, lambda out, cache: [])
    records = [run.run_op(op), run.run_op(op)]
    assert records[0].error and "NumericalError" in records[0].error
    assert run.check_records(records) == (2, True)
