"""Parameter sweeps, solver comparisons, and deterministic CSV emission.

A sweep varies ONE named axis and reports, for every value, both the
mechanism's closed-form optima (reported size, reward rate, both maximized
utilities) and the participation game solved over the configured devices.
Mechanism axes (theta, a_d, b_d, a_e, b_e, sigma, rho, s0, r0) leave the
game side untouched; game axes (s1, n, xi) leave the mechanism side
untouched.  The coupled path — mechanism reports feeding the game — is
`harness.protocol.run_protocol`, not the sweep.

Stochastic configs (generated device sizes, or decomposed-sampling mode)
are repeated over 30 derived seeds and a trailing mean row is appended;
deterministic configs produce a single row per value.

CSV cells use 9 significant digits and '\n' line endings, so byte-identical
reruns are a hard guarantee.  Wall-clock columns would break it, so they
are dropped unless explicitly requested.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from .. import game_model as gm
from ..decomposition import solve_decomposed
from ..equilibrium import solve_gpm
from ..errors import UsageError
from ..mechanism import DeviceMechParams, closed_form_point
from ..rng import subset_seed
from .config import DeviceGenSpec, ExperimentConfig, effective_config_json
from .protocol import solve_round

MECH_AXES = ("theta", "a_d", "b_d", "a_e", "b_e", "sigma", "rho", "s0", "r0")
GAME_AXES = ("s1", "n", "xi")
AXES = MECH_AXES + GAME_AXES

# columns whose values change between identical runs; excluded from CSV
# output unless timing is requested, to keep reruns byte-identical
TIMING_COLUMNS = frozenset({"wall_clock_s", "direct_ms", "improved_ms"})

STOCHASTIC_REPS = 30

_DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    **{ax: tuple(round(0.1 * k, 12) for k in range(1, 11))
       for ax in ("theta", "a_d", "b_d", "a_e", "b_e")},
    "sigma": tuple(np.linspace(2e4, 2e5, 10)),
    "rho": tuple(np.linspace(2.0, 20.0, 10)),
    "s0": tuple(float(x) for x in range(50, 1000, 100)),
    "r0": tuple(np.linspace(30.0, 120.0, 10)),
    "s1": (50.0, 100.0, 200.0, 400.0, 600.0, 800.0, 1000.0),
    "n": (2, 4, 6, 8, 10, 12),
    "xi": (1, 2, 3, 4),
}


def default_grid(axis: str) -> tuple[float, ...]:
    _require_axis(axis)
    return _DEFAULT_GRIDS[axis]


def _require_axis(axis: str) -> None:
    if axis not in AXES:
        raise UsageError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(AXES)}")


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> tuple[ExperimentConfig, float | None]:
    """Return the config with the axis applied, plus a pending s1 override."""
    if axis in ("theta", "a_d", "b_d"):
        new0 = replace(cfg.mech_for(0), **{axis: float(value)})
        if isinstance(cfg.device_mech, DeviceMechParams):
            return replace(cfg, device_mech=new0), None
        rest = tuple(cfg.device_mech)[1:]
        return replace(cfg, device_mech=(new0,) + rest), None
    if axis in ("a_e", "b_e", "sigma", "rho", "s0", "r0"):
        return replace(cfg, server=replace(cfg.server, **{axis: float(value)})), None
    if axis == "s1":
        return cfg, float(value)
    if axis == "n":
        if not isinstance(cfg.devices, DeviceGenSpec):
            raise UsageError("axis 'n' needs a device generator spec in the config")
        return replace(cfg, devices=replace(cfg.devices, count=int(value))), None
    if axis == "xi":
        return replace(cfg, solver=replace(cfg.solver, mode="decomposed",
                                           xi=int(value))), None
    _require_axis(axis)
    raise AssertionError("unreachable")


SWEEP_HEADER = [
    "axis", "value", "rep", "seed", "n", "mode", "xi",
    "s_star", "r_star", "u_device", "u_server", "accepted",
    "gpm_objective", "marginals", "decision_sampled", "decision_threshold",
    "profit_sampled", "wall_clock_s", "config_json",
]


def _evaluate_point(cfg: ExperimentConfig, s1_override: float | None,
                    seed: int) -> dict[str, Any]:
    devices = cfg.realize_devices(seed)
    if s1_override is not None:
        if not devices:
            raise UsageError("axis 's1' needs at least one device")
        devices[0] = replace(devices[0], data_size=s1_override)

    mech0 = cfg.mech_for(0)
    s_star, r_star, u_dev, u_srv, accepted = closed_form_point(mech0.theta, cfg.server, mech0)
    t0 = time.perf_counter()
    r = solve_round(devices, cfg, seed)
    wall = time.perf_counter() - t0
    return {
        "seed": seed, "n": len(devices), "mode": r.mode, "xi": r.xi,
        "s_star": s_star, "r_star": r_star, "u_device": u_dev, "u_server": u_srv,
        "accepted": accepted, "gpm_objective": r.objective,
        "marginals": r.marginals, "decision_sampled": r.sampled,
        "decision_threshold": r.threshold, "profit_sampled": r.profit,
        "wall_clock_s": wall,
    }


def _mean_point(points: list[dict[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key in points[0]:
        vals = [p[key] for p in points]
        if key in ("mode",):
            out[key] = vals[0]
        elif key in ("marginals", "decision_sampled", "decision_threshold"):
            out[key] = tuple(np.mean(np.array(vals, dtype=float), axis=0))
        elif key in ("seed", "n", "xi"):
            out[key] = vals[0]
        else:
            out[key] = float(np.mean(vals))
    return out


def sweep(cfg: ExperimentConfig, axis: str,
          values: Sequence[float] | None = None,
          reps: int | None = None) -> tuple[list[str], list[list[Any]]]:
    """One row per (value, repetition); stochastic configs add a mean row."""
    _require_axis(axis)
    values = tuple(values) if values is not None else default_grid(axis)
    if not values:
        raise UsageError("sweep needs at least one axis value")
    base_seed = cfg.output.seed
    rows: list[list[Any]] = []
    for value in values:
        cfg_v, s1_override = _apply_axis(cfg, axis, value)
        n_reps = reps if reps is not None else (
            STOCHASTIC_REPS if cfg_v.is_stochastic else 1)
        points = []
        for rep in range(n_reps):
            point = _evaluate_point(cfg_v, s1_override, subset_seed(base_seed, rep))
            points.append(point)
            rows.append(_sweep_row(axis, value, str(rep), point,
                                   effective_config_json(cfg_v, subset_seed(base_seed, rep))))
        if n_reps > 1:
            rows.append(_sweep_row(axis, value, "mean", _mean_point(points),
                                   effective_config_json(cfg_v, base_seed)))
    return list(SWEEP_HEADER), rows


def _sweep_row(axis: str, value, rep: str, point: dict[str, Any],
               config_json: str) -> list[Any]:
    return [axis, value, rep, point["seed"], point["n"], point["mode"], point["xi"],
            point["s_star"], point["r_star"], point["u_device"], point["u_server"],
            point["accepted"], point["gpm_objective"], point["marginals"],
            point["decision_sampled"], point["decision_threshold"],
            point["profit_sampled"], point["wall_clock_s"], config_json]


COMPARE_HEADER = [
    "n", "xi", "reps", "direct_profit", "improved_profit",
    "direct_ms", "improved_ms", "config_json",
]


def compare_solvers(cfg: ExperimentConfig, n_list: Sequence[int], xi: int = 2,
                    reps: int = STOCHASTIC_REPS) -> tuple[list[str], list[list[Any]]]:
    """Direct vs decomposed profit and wall-clock, seed-averaged per n.

    Sizes are drawn equiprobably from 50 and 500; the decomposed
    solver re-prices its sampled decision under the full game, so its
    profit column is a sample mean, not an optimum.
    """
    if xi < 1:
        raise UsageError("xi must be >= 1")
    base_seed = cfg.output.seed
    rows: list[list[Any]] = []
    for n in n_list:
        if n < 1:
            raise UsageError("every n must be >= 1")
        direct_profit = np.empty(reps)
        improved_profit = np.empty(reps)
        direct_s = np.empty(reps)
        improved_s = np.empty(reps)
        for rep in range(reps):
            dev_seed = subset_seed(base_seed, (n << 20) | rep)
            devices = gm.random_devices(n, seed=dev_seed)
            t0 = time.perf_counter()
            sol = solve_gpm(devices, cfg.game, tol=cfg.solver.tolerances,
                            enumeration_cap=cfg.solver.enumeration_cap)
            direct_s[rep] = time.perf_counter() - t0
            direct_profit[rep] = sol.total_profit
            dec = solve_decomposed(devices, cfg.game, xi=min(xi, n), seed=dev_seed,
                                   tol=cfg.solver.tolerances,
                                   enumeration_cap=cfg.solver.enumeration_cap)
            improved_s[rep] = dec.timing.total_seconds
            improved_profit[rep] = dec.reported_profit
        rows.append([n, xi, reps,
                     float(direct_profit.mean()), float(improved_profit.mean()),
                     float(direct_s.mean() * 1e3), float(improved_s.mean() * 1e3),
                     effective_config_json(cfg, base_seed)])
    return list(COMPARE_HEADER), rows


# ---------------------------------------------------------------------------
# CSV emission


def format_cell(value: Any) -> str:
    """Deterministic cell text: floats at 9 significant digits, -0 normalized."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.9g" % (float(value) + 0.0)
    if isinstance(value, (tuple, list, np.ndarray)):
        return ";".join(format_cell(v) for v in value)
    return str(value)


def render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]],
               timing: bool = False) -> str:
    """Rows to CSV text.  Timing columns are dropped unless requested."""
    keep = [k for k, name in enumerate(header)
            if timing or name not in TIMING_COLUMNS]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([header[k] for k in keep])
    for row in rows:
        if len(row) != len(header):
            raise UsageError("row width does not match header")
        writer.writerow([format_cell(row[k]) for k in keep])
    return buf.getvalue()
