"""Correlated-equilibrium selection: goldens, CE checks, brute-force bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedpart import equilibrium, game_model as gm
from fedpart.equilibrium import (
    CeCheck,
    CorrelatedDistribution,
    _check_ce,
    build_gpm,
    marginals,
    sample_decision,
    solve_gpm,
    threshold_decision,
    verify_ce,
)
from fedpart.errors import UsageError
from fedpart.rng import SplitMix64

# Independently cross-checked against scipy.optimize.linprog (HiGHS).
OBJECTIVE_2DEV_500 = 0.9514777786861703
OBJECTIVE_3DEV_MIXED = 4.47122347977853  # sizes (100, 500, 900)


def devices_of(*sizes):
    return [gm.DeviceProfile(id=i, data_size=float(s)) for i, s in enumerate(sizes)]


def test_two_device_golden():
    sol = solve_gpm(devices_of(500, 500))
    assert sol.total_profit == pytest.approx(OBJECTIVE_2DEV_500, abs=1e-9)
    # the optimum concentrates on both-participate
    assert sol.distribution.probabilities[3] == pytest.approx(1.0, abs=1e-9)
    assert marginals(sol.distribution) == pytest.approx([1.0, 1.0], abs=1e-9)


def test_three_device_mixed_golden():
    sol = solve_gpm(devices_of(100, 500, 900))
    assert sol.total_profit == pytest.approx(OBJECTIVE_3DEV_MIXED, rel=1e-9)


def test_raw_constraint_count_formula():
    for n in range(1, 9):
        prog = build_gpm(devices_of(*([500] * n)))
        assert prog.raw_constraint_count == 2**n + 4 * n + 1
        # nonnegativity lives in the variable bounds; trivial flip rows are
        # kept out of the solver matrix, leaving 2n CE rows + normalization
        assert prog.lp.num_constraints == 2 * n + 1
        assert prog.lp.num_vars == 2**n


def test_returned_distribution_is_ce():
    for sizes in [(500, 500), (50, 500), (100, 500, 900), (50, 50, 50, 50)]:
        devs = devices_of(*sizes)
        sol = solve_gpm(devs)
        chk = verify_ce(sol.distribution, devs, gm.GameParams())
        assert chk.ok, (sizes, chk)
        assert chk.worst_violation <= 1e-7


def test_objective_never_negative():
    # The all-out point mass is always CE-feasible with profit 0.
    for sizes in [(10,), (10, 20), (50, 50, 50)]:
        assert solve_gpm(devices_of(*sizes)).total_profit >= -1e-12


def test_objective_beats_point_masses_n3():
    devs = devices_of(100, 500, 900)
    game = gm.GameParams()
    sol = solve_gpm(devs)
    best_pm = -np.inf
    for p in itertools.product((0, 1), repeat=3):
        dist = CorrelatedDistribution.point_mass(p)
        if verify_ce(dist, devs, game).ok:
            best_pm = max(best_pm, gm.total_profit(p, devs, game))
    assert best_pm > -np.inf  # all-out is always CE
    assert sol.total_profit >= best_pm - 1e-9


def test_verify_ce_rejects_dominated_point_mass():
    # With a huge channel cost, participating is a strict loss, so the
    # both-participate point mass violates the flip-to-0 inequality.
    devs = [gm.DeviceProfile(id=i, data_size=500.0, channel_cost=1e6)
            for i in range(2)]
    chk = verify_ce(CorrelatedDistribution.point_mass((1, 1)), devs, gm.GameParams())
    assert not chk.ok
    assert chk.worst_violation > 1.0
    assert chk.worst_from == 1 and chk.worst_to == 0


def _masked_verify_ce(dist, devices, params, tol=1e-7):
    """Reference CE check: boolean outcome masks and an XOR-gathered flip."""
    n = len(devices)
    profits = gm.profit_tensor(devices, params)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    flipped = np.arange(2**n)
    worst = (0.0, None, None, None)
    for i in range(n):
        gains = profits[:, i] - profits[flipped ^ (1 << i), i]
        for q in (0, 1):
            mask = bits[:, i] == q
            value = float(np.sum(dist.probabilities[mask] * gains[mask]))
            if value < worst[0]:
                worst = (value, i, q, 1 - q)
    return CeCheck(ok=-worst[0] <= tol, worst_violation=-worst[0],
                   worst_device=worst[1], worst_from=worst[2], worst_to=worst[3])


def test_deviation_gains_view_matches_xor_gather():
    # Row 2i+q of the LP holds V_i(p) - V_i(p ^ bit i) where p_i = q and +0.0
    # elsewhere, to the bit: bytes are compared, so a zero keeps its sign.
    # A size-0 device with no channel cost has zero profit where it joins.
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        devices = [gm.DeviceProfile(id=i, data_size=float(s), channel_cost=float(c))
                   for i, (s, c) in enumerate(zip(rng.choice([0, 50, 100, 500, 900], n),
                                                  rng.choice([0.0, 3.5e5], n)))]
        profits = gm.profit_tensor(devices, gm.GameParams())
        rows = build_gpm(devices).lp.rows
        outcomes = np.arange(2**n)
        for i in range(n):
            gains = profits[:, i] - profits[outcomes ^ (1 << i), i]
            for q in (0, 1):
                expected = np.where((outcomes >> i) & 1 == q, gains, 0.0)
                assert rows[2 * i + q].tobytes() == expected.tobytes(), (n, i, q)


def _program_from_tensor(devices, params):
    """``rows`` and ``c`` built from a C-ordered (2^n, n) profit tensor: its
    transpose in the odd rows, 0.0 minus each odd row at the flipped outcome
    in the even rows, and the row-major sum over each outcome's profits."""
    n = len(devices)
    tensor = np.ascontiguousarray(gm.profit_tensor(devices, params))
    outcomes = np.arange(2**n)
    rows = np.empty((2 * n + 1, 2**n))
    rows[1::2] = tensor.T
    for i in range(n):
        rows[2 * i] = np.subtract(0.0, rows[2 * i + 1][outcomes ^ (1 << i)])
    rows[-1] = 1.0
    return rows, tensor.sum(axis=1)


def _assert_program_bytes(devices, params=None):
    params = params or gm.GameParams()
    rows, c = _program_from_tensor(devices, params)
    lp = build_gpm(devices, params).lp
    assert lp.rows.tobytes() == rows.tobytes()
    # a per-device sum of c rounds differently from n = 8 on
    assert lp.c.tobytes() == c.tobytes()


@given(st.lists(st.tuples(st.sampled_from([0.0, 50.0, 500.0, 1234.5]),
                          st.sampled_from([0.0, 3.5e5]),
                          st.sampled_from([1e-3, 2.5e-2])), min_size=1, max_size=8),
       st.sampled_from([0.0, 0.7]))
def test_build_matches_the_tensor_program_bytes(devices, err_b):
    _assert_program_bytes([gm.DeviceProfile(id=i, data_size=s, channel_cost=c, beta=b)
                           for i, (s, c, b) in enumerate(devices)], gm.GameParams(err_b=err_b))


@pytest.mark.parametrize("n", range(8, 17))
def test_large_build_matches_the_tensor_program_bytes(n):
    _assert_program_bytes(gm.random_devices(n, n))  # two sizes
    stream = SplitMix64(n)
    _assert_program_bytes(devices_of(*(round(50 + 950 * stream.uniform(), 3) for _ in range(n))))


def test_verify_ce_matches_masked_formula():
    game = gm.GameParams()
    cases = []
    for sizes in [(500,), (50,), (500, 500), (100, 500, 900), (50, 50, 50, 50)]:
        devs = devices_of(*sizes)
        cases.append((solve_gpm(devs).distribution, devs))
    devs3 = devices_of(100, 500, 900)
    cases += [(CorrelatedDistribution.point_mass(p), devs3)
              for p in itertools.product((0, 1), repeat=3)]
    costly = [gm.DeviceProfile(id=i, data_size=500.0, channel_cost=1e6) for i in range(2)]
    cases.append((CorrelatedDistribution.point_mass((1, 1)), costly))
    violated = 0
    for dist, devs in cases:
        got = verify_ce(dist, devs, game)
        assert got == _masked_verify_ce(dist, devs, game), (dist.probabilities, got)
        violated += not got.ok
    assert violated >= 2  # some n=3 point masses and the costly pair break a constraint


def test_relabeling_equivariance():
    base = devices_of(100, 500, 900)
    perm = [2, 0, 1]  # device i of the permuted game is base[perm[i]]
    permuted = [gm.DeviceProfile(id=i, data_size=base[j].data_size)
                for i, j in enumerate(perm)]
    a = solve_gpm(base)
    b = solve_gpm(permuted)
    assert a.total_profit == pytest.approx(b.total_profit, rel=1e-9)
    ma, mb = marginals(a.distribution), marginals(b.distribution)
    for i, j in enumerate(perm):
        assert mb[i] == pytest.approx(ma[j], abs=1e-7)


def test_marginals_manual():
    # P((0,0))=.1 P((1,0))=.2 P((0,1))=.3 P((1,1))=.4 (device 0 = low bit)
    dist = CorrelatedDistribution(np.array([0.1, 0.2, 0.3, 0.4]), num_devices=2)
    assert marginals(dist) == pytest.approx([0.6, 0.7], abs=1e-15)


def test_marginals_match_the_bit_matrix():
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        p = rng.dirichlet(np.ones(2**n))
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        assert marginals(CorrelatedDistribution(p, n)) == pytest.approx(p @ bits, abs=1e-14)


def test_sample_decision_stream_golden():
    # Pins the sampling stream: cumulative sums searched with the first
    # SplitMix64 uniform of the given seed.
    dist = CorrelatedDistribution(np.array([0.1, 0.2, 0.3, 0.4]), num_devices=2)
    drawn = [sample_decision(dist, seed) for seed in range(6)]
    assert drawn == [(1, 1), (0, 1), (0, 1), (1, 0), (0, 1), (0, 1)]


def test_sample_decision_frequencies():
    dist = CorrelatedDistribution(np.array([0.1, 0.2, 0.3, 0.4]), num_devices=2)
    counts = {p: 0 for p in itertools.product((0, 1), repeat=2)}
    n = 4000
    for seed in range(n):
        counts[sample_decision(dist, seed)] += 1
    assert counts[(0, 0)] / n == pytest.approx(0.1, abs=0.02)
    assert counts[(1, 1)] / n == pytest.approx(0.4, abs=0.03)


def test_threshold_decision_cutoff():
    dist = CorrelatedDistribution(np.array([0.1, 0.2, 0.3, 0.4]), num_devices=2)
    assert threshold_decision(dist) == (1, 1)            # marginals (.6, .7)
    # the cutoff is 1/2, inclusive
    assert threshold_decision(
        CorrelatedDistribution(np.array([0.3, 0.2, 0.3, 0.2]), num_devices=2)) == (0, 1)
    assert threshold_decision(
        CorrelatedDistribution(np.array([0.2, 0.5, 0.1, 0.2]), num_devices=2)) == (1, 0)


def test_point_mass_and_validation():
    pm = CorrelatedDistribution.point_mass((1, 0, 1))
    assert pm.probabilities[gm.decision_index((1, 0, 1))] == 1.0
    assert pm.probabilities.sum() == 1.0
    with pytest.raises(UsageError):
        CorrelatedDistribution(np.array([0.5, 0.2, 0.2, 0.2]), num_devices=2)
    with pytest.raises(UsageError):
        CorrelatedDistribution(np.array([0.5, 0.5, 0.1, -0.1]), num_devices=2)
    with pytest.raises(UsageError):
        CorrelatedDistribution(np.array([0.5, 0.5]), num_devices=2)
    # tiny negative noise is clamped, not rejected
    ok = CorrelatedDistribution(np.array([0.5, 0.5, 1e-12, -1e-12]), num_devices=2)
    assert ok.probabilities[3] == 0.0


@given(st.lists(st.sampled_from([50.0, 100.0, 500.0, 900.0]),
                min_size=1, max_size=4))
@settings(max_examples=25)
def test_property_solution_is_ce_and_beats_all_out(sizes):
    devs = devices_of(*sizes)
    sol = solve_gpm(devs)
    assert verify_ce(sol.distribution, devs, gm.GameParams()).ok
    assert sol.total_profit >= -1e-12
    assert float(sol.distribution.probabilities.sum()) == pytest.approx(1.0, abs=1e-8)


def test_single_device_game():
    # One device with a worthwhile pool: participate with probability 1.
    sol = solve_gpm(devices_of(500))
    assert sol.total_profit == pytest.approx(4.2966685745915605, abs=1e-9)
    assert marginals(sol.distribution)[0] == pytest.approx(1.0, abs=1e-9)
    # ... and with a worthless pool: stay out.
    sol_small = solve_gpm(devices_of(50))
    assert sol_small.total_profit == pytest.approx(0.0, abs=1e-9)
    assert marginals(sol_small.distribution)[0] == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("block", [1, 64, 1 << 17])
def test_check_ce_blockwise_matches_masked_formula(block, monkeypatch):
    # Any block size gives the masked formula's sums to the bit: one device
    # per block, two per block with a shorter last block (the 5-device
    # game at 64), and one block for all.
    monkeypatch.setattr(equilibrium, "_CE_BLOCK", block)
    game = gm.GameParams()
    rng = np.random.default_rng(5)
    for sizes in [(500,), (50, 500), (100, 500, 900), (0, 50, 500, 500, 120), (50,) * 6]:
        devs = devices_of(*sizes)
        dists = [solve_gpm(devs).distribution]
        for _ in range(3):
            p = rng.random(2 ** len(sizes)) ** 4
            dists.append(CorrelatedDistribution(p / p.sum(), len(sizes)))
        joined = build_gpm(devs).lp.rows[1:-1:2]  # what solve_gpm checks against
        for dist in dists:
            got = verify_ce(dist, devs, game)
            assert got == _masked_verify_ce(dist, devs, game)
            assert _check_ce(dist.probabilities, joined) == got
