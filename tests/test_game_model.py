"""Payoff primitives: frozen scalar values, tensor consistency, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedpart import game_model as gm
from fedpart.errors import CapacityError, UsageError

# Frozen with mpmath at 50 digits: pool = alpha * (1 - a * S**-b), share_i =
# s_i/(delta+S) * pool, cost_i = beta*s_i + gamma*w, all at the default
# parameters (alpha=10, a=13.2, b=0.7, beta=1e-3, gamma=1e-5, w=3.5e5).
POOL_BOTH_500 = 8.951486730163948      # S = 1000
REWARD_BOTH_500 = 4.475738889343085    # 500/1000.001 * pool
COST_500 = 4.0                         # 0.5 + 3.5
PROFIT_BOTH_500_EACH = 0.47573888934308517
PROFIT_BOTH_500_TOTAL = 0.9514777786861703
PROFIT_SOLO_500 = 4.2966685745915605   # S = 500
PROFIT_SOLO_50 = -2.086825750306113    # S = 50: pool below cost


def two_devices(s0=500.0, s1=500.0):
    return [gm.DeviceProfile(id=0, data_size=s0), gm.DeviceProfile(id=1, data_size=s1)]


def test_pool_value_both_in():
    assert gm.pool_payment(1000.0, gm.GameParams()) == pytest.approx(
        POOL_BOTH_500, abs=1e-12)


def test_pool_empty_decision_is_zero():
    # No data pooled -> no training -> nothing to share.
    assert gm.pool_payment(0.0, gm.GameParams()) == 0.0
    assert gm.device_profits((0, 0), two_devices(), gm.GameParams()).tolist() == [0.0, 0.0]


def test_pool_unclamped_when_small():
    # A tiny pool goes negative (error above 1): the model does not clamp it.
    assert gm.pool_payment(10.0, gm.GameParams()) < 0.0


def test_device_reward_and_cost():
    devs = two_devices()
    game = gm.GameParams()
    reward = 500.0 / (game.delta + 1000.0) * gm.pool_payment(1000.0, game)
    assert reward == pytest.approx(REWARD_BOTH_500, abs=1e-12)
    assert reward - gm.device_profits((1, 1), devs, game)[0] == pytest.approx(
        COST_500, abs=1e-15)
    # a non-participant earns nothing and pays nothing
    assert gm.device_profits((1, 0), devs, game)[1] == 0.0


def test_profit_scalars():
    devs = two_devices()
    game = gm.GameParams()
    assert gm.device_profits((1, 1), devs, game)[0] == pytest.approx(
        PROFIT_BOTH_500_EACH, abs=1e-12)
    assert gm.total_profit((1, 1), devs, game) == pytest.approx(
        PROFIT_BOTH_500_TOTAL, abs=1e-12)
    assert gm.total_profit((1, 0), devs, game) == pytest.approx(
        PROFIT_SOLO_500, abs=1e-12)
    assert gm.total_profit((0, 1), devs, game) == pytest.approx(
        PROFIT_SOLO_500, abs=1e-12)
    assert gm.total_profit((0, 0), devs, game) == 0.0


def test_small_solo_pool_is_loss():
    devs = [gm.DeviceProfile(id=0, data_size=50.0)]
    assert gm.total_profit((1,), devs, gm.GameParams()) == pytest.approx(
        PROFIT_SOLO_50, abs=1e-12)


def test_zero_size_participant_gets_nothing():
    devs = [gm.DeviceProfile(id=0, data_size=0.0), gm.DeviceProfile(id=1, data_size=500.0)]
    # no share of the pool, but it still pays its fixed channel cost
    assert gm.device_profits((1, 1), devs, gm.GameParams())[0] == pytest.approx(
        -3.5, abs=1e-15)


def test_decision_index_round_trip():
    # device 0 is the least-significant bit
    assert gm.decision_index((1, 0, 0)) == 1
    assert gm.decision_index((0, 0, 1)) == 4
    for idx in range(8):
        assert gm.decision_index(gm.decision_from_index(idx, 3)) == idx


def test_profit_tensor_matches_scalars():
    devs = two_devices()
    game = gm.GameParams()
    tensor = gm.profit_tensor(devs, game)
    assert tensor.shape == (4, 2)
    for idx in range(4):
        p = gm.decision_from_index(idx, 2)
        for i in range(2):
            assert tensor[idx, i] == pytest.approx(
                gm.device_profits(p, devs, game)[i], abs=1e-12)
    totals = tensor.sum(axis=1)
    assert totals[3] == pytest.approx(PROFIT_BOTH_500_TOTAL, abs=1e-12)


@given(st.lists(st.floats(min_value=1.0, max_value=2000.0), min_size=1, max_size=5),
       st.integers(0, 2**20))
def test_profit_tensor_consistency_property(sizes, idx_seed):
    devs = [gm.DeviceProfile(id=i, data_size=s) for i, s in enumerate(sizes)]
    game = gm.GameParams()
    tensor = gm.profit_tensor(devs, game)
    idx = idx_seed % tensor.shape[0]
    p = gm.decision_from_index(idx, len(devs))
    assert gm.total_profit(p, devs, game) == pytest.approx(
        float(tensor[idx].sum()), rel=1e-12, abs=1e-12)


sizes_with_zeros = st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2000.0)),
                            min_size=1, max_size=8)


@given(sizes_with_zeros, st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)))
def test_repricing_equals_profit_tensor_exactly(sizes, err_b):
    # One pool formula and one operation order: re-pricing one outcome gives
    # the tensor row's floats, not merely close ones.
    devs = [gm.DeviceProfile(id=i, data_size=s) for i, s in enumerate(sizes)]
    game = gm.GameParams(err_b=err_b)
    tensor = gm.profit_tensor(devs, game)
    for k in range(tensor.shape[0]):
        p = gm.decision_from_index(k, len(devs))
        assert gm.total_profit(p, devs, game) == sum(tensor[k].tolist())


def test_enumeration_cap_enforced():
    devs = [gm.DeviceProfile(id=i, data_size=500.0) for i in range(21)]
    with pytest.raises(CapacityError):
        gm.profit_tensor(devs, gm.GameParams())
    # a raised cap admits the same n
    small = [gm.DeviceProfile(id=i, data_size=500.0) for i in range(5)]
    with pytest.raises(CapacityError):
        gm.profit_tensor(small, gm.GameParams(), cap=4)


def test_validation():
    with pytest.raises(UsageError):
        gm.DeviceProfile(id=0, data_size=-1.0)
    with pytest.raises(UsageError):
        gm.validate_devices([gm.DeviceProfile(id=0, data_size=1.0),
                             gm.DeviceProfile(id=0, data_size=2.0)])
    with pytest.raises(UsageError):
        gm.validate_decision((0, 2), 2)
    with pytest.raises(UsageError):
        gm.validate_decision((0,), 2)


@pytest.mark.parametrize("decision", [(0, 2), (1,), (1, 1, 0)])
def test_pricing_refuses_a_malformed_decision(decision):
    devs = [gm.DeviceProfile(id=0, data_size=500.0), gm.DeviceProfile(id=1, data_size=50.0)]
    with pytest.raises(UsageError):
        gm.total_profit(decision, devs, gm.GameParams())


def test_random_devices_stream_golden():
    # Pins the SplitMix64 size stream; regenerating with the same seed must
    # reproduce these draws exactly or every golden CSV in the suite breaks.
    assert [d.data_size for d in gm.random_devices(4, seed=42)] == [50.0] * 4
    assert [d.data_size for d in gm.random_devices(
        6, seed=7, size_choices=(10.0, 20.0, 30.0), probabilities=(0.2, 0.3, 0.5))
    ] == [30.0, 30.0, 20.0, 10.0, 10.0, 20.0]


def test_random_devices_distribution_roughly_even():
    counts = {50.0: 0, 500.0: 0}
    for seed in range(500):
        for d in gm.random_devices(4, seed=seed):
            counts[d.data_size] += 1
    frac = counts[50.0] / (counts[50.0] + counts[500.0])
    assert 0.45 < frac < 0.55


def test_random_devices_validation():
    with pytest.raises(UsageError):
        gm.random_devices(3, seed=0, size_choices=(50.0, 500.0),
                          probabilities=(0.7, 0.7))
    with pytest.raises(UsageError):
        gm.random_devices(3, seed=0, size_choices=(), probabilities=None)


def test_pool_monotone_in_pool_size():
    # The pool payment rises with the pooled data size.
    game = gm.GameParams()
    vals = gm.pool_payment([50.0, 200.0, 800.0, 3200.0], game).tolist()
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < game.alpha  # bounded above by alpha


@given(st.lists(st.tuples(st.sampled_from([0.0, 50.0, 500.0, 1234.5]),
                          st.sampled_from([0.0, 3.5e5])), min_size=1, max_size=6),
       st.sampled_from([0.0, 0.7, 2.0]))
def test_profit_tensor_bytes_match_device_profits(devices, err_b):
    # Entry by entry, signed zeros included: +0.0 wherever a device sits
    # out, and a size-0, cost-free participant earns +0.0 too.
    devs = [gm.DeviceProfile(id=i, data_size=s, channel_cost=c)
            for i, (s, c) in enumerate(devices)]
    game = gm.GameParams(err_b=err_b)
    tensor = gm.profit_tensor(devs, game)
    for k in range(tensor.shape[0]):
        p = gm.decision_from_index(k, len(devs))
        assert tensor[k].tobytes() == gm.device_profits(p, devs, game).tobytes(), (k, p)
