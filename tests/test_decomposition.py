"""Subset decomposition: partitioning, exactness at xi=1, profit bounds."""

import numpy as np
import pytest

from fedpart import game_model as gm
from fedpart.decomposition import partition, solve_decomposed
from fedpart.equilibrium import sample_decision, solve_gpm, verify_ce
from fedpart.errors import UsageError
from fedpart.rng import subset_seed


def devices_of(*sizes):
    return [gm.DeviceProfile(id=i, data_size=float(s)) for i, s in enumerate(sizes)]


def test_partition_shapes():
    devs = devices_of(*([500] * 8))
    spec = partition(devs, 2)
    assert spec.assignment == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert spec.xi == 2 and spec.max_subset_size == 4

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
    assert len(dec.timing.subset_seconds) == 2
    assert dec.timing.total_seconds >= max(dec.timing.subset_seconds)
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
