"""Truthful data-size solicitation between the server and one device.

The server publishes a linear reward rule r(s) = r0 - a_e*theta*s/(2*rho)
and the device replies with a report s.  Both objectives are quadratic in
the report, so the optimal rule, the device's best response and both
maximized utilities have closed forms; everything here evaluates those
forms and cross-checks them numerically.

The device's malice level theta is private.  The rule shipped here is the
one derived for a *known* theta; `infer_theta` inverts the best response so
the server can recover theta from the report itself and evaluate the rule
consistently.  Truth-telling is checked in the fixed-rule frame (the rule
instantiated at the true theta, deviations move only the report).  No
truthfulness claim is made for a server that re-fits the rule to the theta
each report implies: there lying pays.  Under the default parameters at
theta 0.5 the truthful report earns 25503.5, while the report derived from
theta 0.05, priced by the rule re-fitted to it, earns 255005.75.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ReportOutOfRangeError, UsageError


@dataclass(frozen=True)
class DeviceMechParams:
    """Device-side coefficients: utility slope a_d, floor b_d, private theta.

    b_d may be negative: it then acts as a fixed participation cost, and a
    device whose best achievable utility stays below zero declines to trade.
    """

    theta: float = 0.5
    a_d: float = 1.0
    b_d: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise UsageError(f"theta must be in (0, 1], got {self.theta}")
        if self.a_d < 0:
            raise UsageError("a_d must be >= 0")


@dataclass(frozen=True)
class ServerMechParams:
    a_e: float = 1.0
    b_e: float = 1.0
    sigma: float = 1e5    # sigmoid ceiling of the data-volume reward
    rho: float = 10.0     # curvature of the reward-deviation penalty
    s0: float = 500.0     # anticipated report size (sigmoid midpoint)
    r0: float = 50.0      # anticipated reward level (penalty center)
    horizon: float = 1.0  # contract length; utilities scale linearly in it

    def __post_init__(self):
        if self.a_e <= 0:
            raise UsageError("a_e must be > 0")
        if self.b_e < 0:
            raise UsageError("b_e must be >= 0")
        if self.sigma <= 0 or self.rho <= 0:
            raise UsageError("sigma and rho must be > 0")
        if self.horizon <= 0:
            raise UsageError("horizon must be > 0")


@dataclass(frozen=True)
class GameRule:
    """Published reward per unit of reported data: r(s) = intercept + slope*s."""

    intercept: float
    slope: float

    def __post_init__(self):
        if self.slope > 0:
            raise UsageError("rule must not reward larger reports at a higher rate")

    def __call__(self, s: float) -> float:
        return self.intercept + self.slope * s


def device_utility(r: float, s: float, dev: DeviceMechParams,
                   horizon: float = 1.0) -> float:
    """Device payoff over the horizon: reward r*s plus private gain a_d*theta*s + b_d.

    The integrand is time-invariant, so the horizon enters as a plain factor.
    """
    if s < 0:
        raise UsageError("reported size must be >= 0")
    if horizon <= 0:
        raise UsageError("horizon must be > 0")
    return horizon * (r * s + dev.a_d * dev.theta * s + dev.b_d)


def _sigmoid_reward(d: float, sigma: float) -> float:
    # sigma / (1 + e^-d) without overflow in either tail
    if d > 40.0:
        return sigma
    if d < -40.0:
        return sigma * math.exp(d)
    return sigma / (1.0 + math.exp(-d))


def server_reward(r: float, s: float, srv: ServerMechParams) -> float:
    """Data-volume value minus the penalty for straying from the planned reward."""
    return _sigmoid_reward(s - srv.s0, srv.sigma) - srv.rho * (r - srv.r0) ** 2


def server_utility(r: float, s: float, theta_true: float,
                   srv: ServerMechParams, horizon: float = 1.0) -> float:
    """Server payoff over the horizon: reward minus the misreport loss a_e*theta*s*r + b_e."""
    if s < 0:
        raise UsageError("reported size must be >= 0")
    if horizon <= 0:
        raise UsageError("horizon must be > 0")
    loss = srv.a_e * theta_true * s * r + srv.b_e
    return horizon * (server_reward(r, s, srv) - loss)


def optimal_rule(theta: float, srv: ServerMechParams) -> GameRule:
    """The server's utility-maximizing linear rule for a device of type theta.

    The objective is quadratic in r with curvature -2*rho < 0, so the
    stationary rule is the maximum.
    """
    if not 0.0 < theta <= 1.0:
        raise UsageError(f"theta must be in (0, 1], got {theta}")
    if not -2.0 * srv.rho < 0:
        raise NumericalError(
            f"rule derivation needs curvature -2*rho < 0, got rho={srv.rho!r}")
    return GameRule(intercept=srv.r0, slope=-srv.a_e * theta / (2.0 * srv.rho))


def _closed_form_report(theta: float, srv: ServerMechParams,
                        dev: DeviceMechParams) -> float:
    """s* = rho*(r0 + a_d*theta)/(a_e*theta), the stationary point of the device objective."""
    return srv.rho * (srv.r0 + dev.a_d * theta) / (srv.a_e * theta)


def best_response(theta: float, srv: ServerMechParams,
                  dev: DeviceMechParams) -> float:
    """The report maximizing the device's utility against optimal_rule(theta).

    Closed form rho*(r0 + a_d*theta)/(a_e*theta); the device objective in s
    has curvature -a_e*theta/rho < 0, and a three-point stencil around the
    returned value double-checks it is the argmax.
    """
    if not 0.0 < theta <= 1.0:
        raise UsageError(f"theta must be in (0, 1], got {theta}")
    s_star = _closed_form_report(theta, srv, dev)
    if s_star > 0:
        rule = optimal_rule(theta, srv)
        dev_true = DeviceMechParams(theta=theta, a_d=dev.a_d, b_d=dev.b_d)
        h = max(1e-3, 1e-9 * abs(s_star))
        at = device_utility(rule(s_star), s_star, dev_true)
        for s in (s_star + h, max(s_star - h, 0.0)):
            if not at >= device_utility(rule(s), s, dev_true):
                raise NumericalError(
                    f"closed-form report {s_star!r} is not a local maximum of the "
                    f"device utility (neighbour {s!r} does better)")
    return s_star


def infer_theta(s_reported: float, srv: ServerMechParams, a_d: float) -> float:
    """Invert the best response: the theta that would rationally report s.

    Lets the server evaluate its theta-bearing rule from the report alone.
    Exact round trip: infer_theta(best_response(theta)) == theta.
    """
    denom = srv.a_e * s_reported - srv.rho * a_d
    if denom <= 0:
        raise ReportOutOfRangeError(
            f"report {s_reported!r} is too small to invert "
            f"(a_e*s - rho*a_d = {denom!r} <= 0)")
    return srv.rho * srv.r0 / denom


def accepts(theta: float, srv: ServerMechParams, dev: DeviceMechParams) -> bool:
    """Would a type-theta device engage at all?

    Requires a usable best response (a positive report) that yields strictly
    positive utility; zero utility gives no reason to transmit.  A
    nonpositive best response means the closed form left the feasible
    region, so the device keeps silent.
    """
    s_star = _closed_form_report(theta, srv, dev)
    if s_star <= 0:
        return False
    rule = optimal_rule(theta, srv)
    dev_true = DeviceMechParams(theta=theta, a_d=dev.a_d, b_d=dev.b_d)
    return device_utility(rule(s_star), s_star, dev_true, srv.horizon) > 0


def max_device_utility(theta: float, srv: ServerMechParams,
                       dev: DeviceMechParams) -> float:
    """Device utility at (optimal rule, best response) for a truthful type theta."""
    s_star = best_response(theta, srv, dev)
    rule = optimal_rule(theta, srv)
    dev_true = DeviceMechParams(theta=theta, a_d=dev.a_d, b_d=dev.b_d)
    return device_utility(rule(s_star), s_star, dev_true, srv.horizon)


def max_server_utility(theta: float, srv: ServerMechParams,
                       dev: DeviceMechParams) -> float:
    """Server utility at (optimal rule, best response) for a truthful type theta."""
    s_star = best_response(theta, srv, dev)
    rule = optimal_rule(theta, srv)
    return server_utility(rule(s_star), s_star, theta, srv, srv.horizon)


def closed_form_point(theta: float, srv: ServerMechParams,
                      dev: DeviceMechParams) -> tuple[float, float, float, float, int]:
    """(s*, r*, u_device, u_server, accepted) for a truthful type theta.

    With no positive report the rate stays at the intercept r0 and both
    utilities are nan.
    """
    s_star = best_response(theta, srv, dev)
    accepted = int(accepts(theta, srv, dev))
    if s_star <= 0:
        return s_star, srv.r0, math.nan, math.nan, accepted
    return (s_star, optimal_rule(theta, srv)(s_star), max_device_utility(theta, srv, dev),
            max_server_utility(theta, srv, dev), accepted)


@dataclass(frozen=True)
class IcReport:
    ok: bool
    theta_true: float
    truthful_utility: float
    worst_theta: float
    worst_utility: float
    margin: float  # truthful utility minus the best off-truth utility
    grid: tuple[float, ...]
    utilities: tuple[float, ...]


def ic_check(theta_true: float, srv: ServerMechParams, dev: DeviceMechParams,
             grid_step: float = 0.05) -> IcReport:
    """Can the device gain by deriving its report from a false theta?

    Every grid theta is mapped through the best response to a candidate
    report; utilities are always evaluated at the device's true type.  The
    rule stays fixed at theta_true, so deviations just move along a concave
    objective away from its argmax.
    """
    if not 0.0 < theta_true <= 1.0:
        raise UsageError(f"theta_true must be in (0, 1], got {theta_true}")
    if grid_step <= 0 or round(1.0 / grid_step) < 10:
        raise UsageError("grid_step must cut (0, 1] into at least 10 points")

    steps = int(round(1.0 / grid_step))
    grid = sorted({round(k * grid_step, 12) for k in range(1, steps + 1)} | {theta_true})
    dev_true = DeviceMechParams(theta=theta_true, a_d=dev.a_d, b_d=dev.b_d)
    rule = optimal_rule(theta_true, srv)

    utilities = []
    for cand in grid:
        s_cand = best_response(cand, srv, dev)
        utilities.append(device_utility(rule(s_cand), max(s_cand, 0.0),
                                        dev_true, srv.horizon))

    truthful = utilities[grid.index(theta_true)]
    # the grid has at least 10 points, so some theta is off the truth
    worst_utility, worst_theta = max((u, t) for u, t in zip(utilities, grid)
                                     if t != theta_true)
    ok = max(utilities) <= truthful + 1e-9 * max(1.0, abs(truthful))
    return IcReport(ok=ok, theta_true=theta_true, truthful_utility=truthful,
                    worst_theta=worst_theta, worst_utility=worst_utility,
                    margin=truthful - worst_utility, grid=tuple(grid),
                    utilities=tuple(utilities))
