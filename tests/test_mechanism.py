"""Data-solicitation game: closed forms, truthfulness, monotone responses."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedpart import mechanism
from fedpart.errors import NumericalError, ReportOutOfRangeError, UsageError
from fedpart.mechanism import (
    DeviceMechParams,
    GameRule,
    ServerMechParams,
    accepts,
    best_response,
    device_utility,
    ic_check,
    infer_theta,
    max_device_utility,
    max_server_utility,
    optimal_rule,
    server_reward,
    server_utility,
)

# Closed forms at the default parameters (theta=0.5, a_d=b_d=a_e=b_e=1,
# r0=50, s0=500, sigma=1e5, rho=10, horizon=1):
#   s* = rho*(r0 + a_d*theta)/(a_e*theta) = 1010
#   r* = r0 - a_e*theta*s*/(2*rho)       = 24.75
#   U_d* = rho*(r0 + a_d*theta)**2/(2*a_e*theta) + b_d = 25503.5
#   U_e* = 81124.625  (sigmoid reward minus payment at the optimum)
S_STAR = 1010.0
R_STAR = 24.75
U_DEV_STAR = 25503.5
U_SRV_STAR = 81124.625
SRV_REWARD_STAR = 93624.375


def test_closed_form_optima():
    dev, srv = DeviceMechParams(), ServerMechParams()
    s = best_response(dev.theta, srv, dev)
    rule = optimal_rule(dev.theta, srv)
    assert s == pytest.approx(S_STAR, rel=1e-12)
    assert rule(s) == pytest.approx(R_STAR, rel=1e-12)
    assert max_device_utility(dev.theta, srv, dev) == pytest.approx(U_DEV_STAR, rel=1e-12)
    assert max_server_utility(dev.theta, srv, dev) == pytest.approx(U_SRV_STAR, rel=1e-12)
    assert server_reward(rule(s), s, srv) == pytest.approx(SRV_REWARD_STAR, rel=1e-12)


def test_rule_is_affine_decreasing():
    rule = optimal_rule(0.5, ServerMechParams())
    assert rule.intercept == pytest.approx(50.0)
    assert rule.slope == pytest.approx(-0.025)
    assert rule(0.0) == pytest.approx(50.0)
    with pytest.raises(UsageError):
        GameRule(intercept=10.0, slope=0.1)  # rewarding hoarding is malformed


def test_max_utilities_match_primitives():
    dev, srv = DeviceMechParams(theta=0.7, a_d=2.0, b_d=3.0), ServerMechParams(rho=5.0)
    s = best_response(dev.theta, srv, dev)
    r = optimal_rule(dev.theta, srv)(s)
    assert max_device_utility(dev.theta, srv, dev) == pytest.approx(
        device_utility(r, s, dev), rel=1e-12)
    assert max_server_utility(dev.theta, srv, dev) == pytest.approx(
        server_utility(r, s, dev.theta, srv), rel=1e-12)


def test_best_response_is_argmax():
    # finite-difference bracket around s*: both neighbours must be worse
    dev, srv = DeviceMechParams(), ServerMechParams()
    s = best_response(dev.theta, srv, dev)
    rule = optimal_rule(dev.theta, srv)
    u0 = device_utility(rule(s), s, dev)
    for ds in (-1.0, 1.0, -37.3, 512.0):
        assert device_utility(rule(s + ds), s + ds, dev) < u0


def test_optimality_guards_raise_numerical_error(monkeypatch):
    # explicit raises, not asserts, so the checks survive python -O
    srv = ServerMechParams()
    object.__setattr__(srv, "rho", -1.0)  # bypass validation: a convex rule objective
    with pytest.raises(NumericalError):
        optimal_rule(0.5, srv)
    # a utility that grows with the report: the closed form is no local maximum
    monkeypatch.setattr(mechanism, "device_utility", lambda r, s, dev, horizon=1.0: s)
    with pytest.raises(NumericalError, match="not a local maximum"):
        best_response(0.5, ServerMechParams(), DeviceMechParams())


def test_horizon_scales_utilities():
    dev = DeviceMechParams()
    srv2 = ServerMechParams(horizon=2.0)
    assert max_device_utility(0.5, srv2, dev) == pytest.approx(2 * U_DEV_STAR, rel=1e-12)
    assert best_response(0.5, srv2, dev) == pytest.approx(S_STAR, rel=1e-12)


def test_infer_theta_round_trip():
    srv, dev = ServerMechParams(), DeviceMechParams()
    for theta in np.arange(0.05, 1.0001, 0.05):
        theta = float(round(theta, 10))
        s = best_response(theta, srv, DeviceMechParams(theta=theta))
        assert infer_theta(s, srv, dev.a_d) == pytest.approx(theta, abs=1e-12)


def test_infer_theta_rejects_tiny_reports():
    srv = ServerMechParams()
    # a_e*s - rho*a_d <= 0 cannot come from any positive effort level
    for s in (10.0, 5.0, 0.0):
        with pytest.raises(ReportOutOfRangeError):
            infer_theta(s, srv, 1.0)


def test_accepts_gate():
    assert accepts(0.5, ServerMechParams(), DeviceMechParams())
    # degenerate offer: no base reward, no private value -> s*=0, decline
    dead = ServerMechParams(r0=0.0)
    assert not accepts(0.5, dead, DeviceMechParams(a_d=0.0, b_d=0.0))


def test_ic_truth_telling_is_optimal():
    dev, srv = DeviceMechParams(), ServerMechParams()
    report = ic_check(0.5, srv, dev)
    assert report.ok
    assert report.truthful_utility == pytest.approx(U_DEV_STAR, rel=1e-12)
    assert report.margin > 1e-6
    # frozen interior point of the deviation grid
    assert report.utilities[report.grid.index(0.4)] == pytest.approx(23941.0, rel=1e-12)
    # the grid covers the unit interval at step 0.05 and includes the truth
    assert 0.5 in report.grid and len(report.grid) >= 20


def test_ic_margin_positive_across_theta_grid():
    srv = ServerMechParams()
    for theta in [round(0.1 * k, 10) for k in range(1, 11)]:
        dev = DeviceMechParams(theta=theta)
        report = ic_check(theta, srv, dev)
        assert report.ok, (theta, report)
        assert report.margin >= 1e-6


def test_device_utility_validation():
    with pytest.raises(UsageError):
        device_utility(10.0, -1.0, DeviceMechParams())
    with pytest.raises(UsageError):
        DeviceMechParams(theta=0.0)
    with pytest.raises(UsageError):
        DeviceMechParams(theta=1.5)
    with pytest.raises(UsageError):
        ServerMechParams(rho=0.0)


def test_sigmoid_reward_overflow_safe():
    srv = ServerMechParams()
    for r, s in [(1e6, 1e6), (-1e6, 1e6), (1e8, 1e8)]:
        val = server_reward(r, s, srv)
        assert math.isfinite(val)


def test_monotone_in_theta():
    srv = ServerMechParams()
    thetas = [round(0.1 * k, 10) for k in range(1, 11)]
    ud = [max_device_utility(t, srv, DeviceMechParams(theta=t)) for t in thetas]
    ue = [max_server_utility(t, srv, DeviceMechParams(theta=t)) for t in thetas]
    assert all(a > b for a, b in zip(ud, ud[1:]))
    assert all(a > b for a, b in zip(ue, ue[1:]))


def test_monotone_in_private_value():
    srv = ServerMechParams()
    a_ds = [round(0.1 * k, 10) for k in range(1, 11)]
    ud = [max_device_utility(0.5, srv, DeviceMechParams(a_d=a)) for a in a_ds]
    s_stars = [best_response(0.5, srv, DeviceMechParams(a_d=a)) for a in a_ds]
    assert all(a < b for a, b in zip(ud, ud[1:]))
    assert all(a < b for a, b in zip(s_stars, s_stars[1:]))


@given(st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=1.0, max_value=100.0))
def test_property_truth_beats_grid(theta, a_d, r0):
    theta = round(theta, 6)
    dev = DeviceMechParams(theta=theta, a_d=a_d)
    srv = ServerMechParams(r0=r0)
    report = ic_check(theta, srv, dev)
    assert report.ok, report
