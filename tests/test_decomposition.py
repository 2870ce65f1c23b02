"""Subset decomposition: partitioning, exactness at xi=1, profit bounds."""

import numpy as np
import pytest

from fedpart import decomposition
from fedpart import game_model as gm
from fedpart.decomposition import SolvedGames, partition, solve_decomposed
from fedpart.equilibrium import sample_decision, solve_gpm, verify_ce
from fedpart.errors import CapacityError, UsageError
from fedpart.lp_core import Tolerances
from fedpart.rng import subset_seed


def devices_of(*sizes):
    return [gm.DeviceProfile(id=i, data_size=float(s)) for i, s in enumerate(sizes)]


def test_partition_shapes():
    devs = devices_of(*([500] * 8))
    spec = partition(devs, 2)
    assert spec.assignment == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert spec.xi == 2

    spec7 = partition(devices_of(*([500] * 7)), 3)
    assert tuple(len(b) for b in spec7.assignment) == (3, 2, 2)
    # blocks are contiguous and cover every device exactly once
    flat = [i for block in spec7.assignment for i in block]
    assert flat == list(range(7))

    singles = partition(devs, 8)
    assert all(len(b) == 1 for b in singles.assignment)
    whole = partition(devs, 1)
    assert whole.assignment == (tuple(range(8)),)


def test_partition_validation():
    devs = devices_of(500, 500)
    with pytest.raises(UsageError):
        partition(devs, 0)
    with pytest.raises(UsageError):
        partition(devs, 3)


def test_xi_1_bit_identical_to_direct():
    devs = devices_of(50, 500, 100, 900, 500)
    game = gm.GameParams()
    for seed in (0, 1, 17):
        dec = solve_decomposed(devs, game, xi=1, seed=seed)
        direct = solve_gpm(devs, game)
        sampled = sample_decision(direct.distribution, subset_seed(seed, 0))
        assert dec.decision == sampled
        assert dec.reported_profit == gm.total_profit(sampled, devs, game)


def test_two_singletons_solo_profitable():
    dec = solve_decomposed(devices_of(500, 500), gm.GameParams(), xi=2, seed=0)
    assert dec.decision == (1, 1)
    # re-priced on the full game, not the subsets' optimistic view
    assert dec.reported_profit == pytest.approx(0.9514777786861703, abs=1e-9)
    assert dec.subset_objectives == pytest.approx([4.2966685745915605] * 2, rel=1e-9)


def test_unpacks_and_timing():
    dec = solve_decomposed(devices_of(500, 500, 500), gm.GameParams(), xi=2, seed=3)
    assert len(dec.subset_solutions) == len(dec.subset_objectives) == 2
    assert dec.seconds > 0
    assert dec.partition_spec.xi == 2


def test_subset_solutions_are_subset_ce():
    devs = devices_of(100, 500, 900, 50, 500, 700)
    game = gm.GameParams()
    dec = solve_decomposed(devs, game, xi=3, seed=5)
    for block, sub_sol in zip(dec.partition_spec.assignment, dec.subset_solutions):
        sub_devs = [devs[i] for i in block]
        assert verify_ce(sub_sol.distribution, sub_devs, game).ok


def test_mean_decomposed_never_beats_direct():
    # The stitched decision is a feasible point of the full game, so its
    # re-priced profit can never exceed the direct optimum.
    game = gm.GameParams()
    for n in (4, 6):
        gaps = []
        for rep in range(30):
            devs = gm.random_devices(n, seed=subset_seed(100 + n, rep))
            direct = solve_gpm(devs, game).total_profit
            dec = solve_decomposed(devs, game, xi=2, seed=rep)
            gaps.append(direct - dec.reported_profit)
        assert np.mean(gaps) >= -1e-6
        assert min(gaps) >= -1e-9  # holds per-seed, not only on average


def test_decomposed_seed_sensitivity():
    # Different seeds may stitch different decisions; the re-priced profit
    # stays finite and the decision length matches n.
    devs = devices_of(50, 500, 100, 900, 500, 700)
    game = gm.GameParams()
    seen = set()
    for seed in range(6):
        dec = solve_decomposed(devs, game, xi=3, seed=seed)
        assert len(dec.decision) == 6
        seen.add(dec.decision)
    assert len(seen) >= 1


# ------------------------------------------------------------- the memo ---

def test_memo_ignores_device_ids(solves):
    memo = SolvedGames()
    first = memo.solve(devices_of(50, 500, 500))
    moved = [gm.DeviceProfile(id=5 + i, data_size=s) for i, s in enumerate((50, 500, 500))]
    assert memo.solve(moved) == first
    assert solves == [(50.0, 500.0, 500.0)]
    # the order of the devices is part of the game
    memo.solve(devices_of(500, 50, 500))
    assert len(solves) == 2


def test_hit_returns_the_first_solution_and_its_seconds(solves):
    memo = SolvedGames()
    sol, seconds = memo.solve(devices_of(50, 500))
    again, again_seconds = memo.solve(devices_of(50, 500))
    assert again is sol and again_seconds == seconds > 0
    assert len(solves) == 1


def test_params_tolerances_and_cap_are_part_of_the_key(solves):
    memo = SolvedGames()
    devs = devices_of(50, 500)
    memo.solve(devs)
    memo.solve(devs, gm.GameParams(), Tolerances(), gm.DEFAULT_ENUMERATION_CAP)  # defaults
    assert len(solves) == 1
    memo.solve(devs, gm.GameParams(alpha=12.0))
    memo.solve(devs, tol=Tolerances(feas_tol=1e-9))
    memo.solve(devs, enumeration_cap=5)
    assert len(solves) == 4


def test_games_above_the_keep_limit_are_solved_every_time(solves):
    memo = SolvedGames()
    assert decomposition.MEMO_MAX_DEVICES == 8
    eight, nine = devices_of(*[50, 500] * 4), devices_of(*[50, 500] * 4, 50)
    for _ in range(2):
        memo.solve(eight)
        memo.solve(nine)
    assert [len(g) for g in solves] == [8, 9, 9]


def test_a_raised_solve_is_not_kept(solves):
    memo = SolvedGames()
    devs = devices_of(50, 500, 500)
    for _ in range(2):
        with pytest.raises(CapacityError):
            memo.solve(devs, enumeration_cap=2)
    assert len(solves) == 2
    with pytest.raises(UsageError, match="unique"):  # ids are checked on a hit too
        memo.solve([gm.DeviceProfile(id=0, data_size=s) for s in (50, 500, 500)])
    assert len(solves) == 2


def test_later_subsets_reuse_earlier_games(solves):
    # ids 2..3 of the second subset do not keep it from reusing the first
    dec = solve_decomposed(devices_of(50, 500, 50, 500), xi=2, seed=1)
    assert solves == [(50.0, 500.0)]
    assert dec.subset_solutions[0] is dec.subset_solutions[1]
    memo = SolvedGames()
    solve_decomposed(devices_of(50, 500), xi=1, seed=1, solved=memo)
    solve_decomposed(devices_of(50, 500, 50, 500), xi=2, seed=1, solved=memo)
    assert len(solves) == 2
