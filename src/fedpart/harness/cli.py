"""Command-line front end.

Subcommands:
    fit-error  <points.csv>             fit the power-law error curve
    solve-gpm  <config.json>            direct solve of the participation game
    solve-sgpm <config.json> --xi K     subset-decomposed solve
    mechanism  <config.json> [--sweep AXIS [--values ...]]
                                        closed-form optima, or a parameter sweep
    simulate   <config.json> [--seed S] full server/device protocol round
    compare    <config.json> --n-list 2,4,...  direct-vs-decomposed table

Common flags: --out PATH (default $FEDPART_OUT_DIR/<subcommand>.csv, else
stdout), --seed U64, --tol FLOAT, --timing.  Exit codes:
0 success, 2 usage error, 3 capacity error, 4 numerical failure.

Output is CSV with 9-significant-digit numbers; rerunning any subcommand
with the same config and seed yields byte-identical output unless --timing
adds wall-clock columns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from ..error_model import fit_power_law, load_points_csv
from ..errors import CapacityError, NumericalError, UsageError
from ..lp_core import Tolerances
from ..mechanism import closed_form_point, ic_check
from .config import ExperimentConfig, effective_config_json, load_config
from .protocol import round_devices, run_protocol, solve_round
from .sweeps import compare_solvers, render_csv, sweep

OUT_DIR_ENV = "FEDPART_OUT_DIR"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: $%s/<subcommand>.csv, else stdout)"
                   % OUT_DIR_ENV)
    p.add_argument("--seed", type=int, help="override the config's run seed")
    p.add_argument("--tol", type=float,
                   help="feasibility/slackness tolerance (gap tolerance is 10x)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock columns (breaks byte-identical reruns)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fedpart",
        description="participation-game and solicitation-mechanism experiments")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-error", help="fit the power-law error curve to samples")
    p.add_argument("points", help="CSV of (size, error) samples")
    _add_common(p)

    p = sub.add_parser("solve-gpm", help="solve the participation game directly")
    p.add_argument("config", help="experiment config JSON")
    _add_common(p)

    p = sub.add_parser("solve-sgpm", help="solve via subset decomposition")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--xi", type=int, default=None, help="number of subsets")
    _add_common(p)

    p = sub.add_parser("mechanism", help="solicitation-mechanism optima or sweep")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--sweep", metavar="AXIS", help="axis to sweep")
    p.add_argument("--values", help="comma-separated axis values (default grid otherwise)")
    _add_common(p)

    p = sub.add_parser("simulate", help="run one full protocol round")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--trace", help="also write the per-event trace CSV here")
    _add_common(p)

    p = sub.add_parser("compare", help="direct vs decomposed profit and timing")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--n-list", required=True,
                   help="comma-separated device counts, e.g. 2,4,6")
    p.add_argument("--xi", type=int, default=2, help="subsets for the decomposed side")
    _add_common(p)

    return top


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, output=replace(cfg.output, seed=args.seed))
    if getattr(args, "tol", None) is not None:
        if args.tol <= 0:
            raise UsageError("--tol must be > 0")
        tol = Tolerances(feas_tol=args.tol, cs_tol=args.tol, gap_tol=10 * args.tol)
        cfg = replace(cfg, solver=replace(cfg.solver, tolerances=tol))
    return cfg


def _emit(args: argparse.Namespace, text: str, default_name: str) -> None:
    out = args.out
    if out is None and os.environ.get(OUT_DIR_ENV):
        out = str(Path(os.environ[OUT_DIR_ENV]) / default_name)
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")
    print(f"wrote {path} ({text.count(chr(10)) - 1} rows)", file=sys.stderr)


def _cmd_fit_error(args) -> None:
    curve = fit_power_law(load_points_csv(args.points))
    text = render_csv(["a", "b", "fit_r2", "points_file"],
                      [[curve.a, curve.b, curve.fit_r2, args.points]])
    _emit(args, text, "fit-error.csv")


_SOLVE_HEADER = ["n", "mode", "xi", "seed", "objective", "marginals",
                 "decision_sampled", "decision_threshold", "profit_sampled",
                 "subset_objectives", "wall_clock_s", "config_json"]


def _cmd_solve(args, decomposed: bool) -> None:
    echo = cfg = _apply_overrides(load_config(args.config), args)
    if decomposed:
        xi = args.xi if args.xi is not None else cfg.solver.xi
        echo = cfg = replace(cfg, solver=replace(cfg.solver, mode="decomposed", xi=xi))
    else:  # direct whatever the config's mode; the echo keeps the config as given
        cfg = replace(cfg, solver=replace(cfg.solver, mode="direct"))
    seed = cfg.output.seed
    devices = round_devices(cfg, seed)
    t0 = time.perf_counter()
    r = solve_round(devices, cfg, seed)
    wall = time.perf_counter() - t0
    row = [len(devices), r.mode, r.xi, seed, r.objective, r.marginals, r.sampled,
           r.threshold, r.profit, r.subset_objectives, wall, effective_config_json(echo, seed)]
    text = render_csv(_SOLVE_HEADER, [row], timing=args.timing)
    _emit(args, text, "solve-sgpm.csv" if decomposed else "solve-gpm.csv")


def _parse_values(axis: str, raw: str | None) -> list[float] | None:
    if raw is None:
        return None
    try:
        vals = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"--values must be comma-separated numbers, got {raw!r}")
    if not vals:
        raise UsageError("--values is empty")
    if axis in ("n", "xi"):
        return [int(v) for v in vals]
    return vals


def _cmd_mechanism(args) -> None:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.sweep:
        header, rows = sweep(cfg, args.sweep, _parse_values(args.sweep, args.values))
        _emit(args, render_csv(header, rows, timing=args.timing), "mechanism.csv")
        return
    if args.values:
        raise UsageError("--values requires --sweep")
    mech0 = cfg.mech_for(0)
    srv = cfg.server
    ic = ic_check(mech0.theta, srv, mech0)
    row = [mech0.theta, mech0.a_d, mech0.b_d, srv.a_e, srv.b_e, srv.sigma,
           srv.rho, srv.s0, srv.r0, srv.horizon,
           *closed_form_point(mech0.theta, srv, mech0), int(ic.ok), ic.margin,
           effective_config_json(cfg, cfg.output.seed)]
    header = ["theta", "a_d", "b_d", "a_e", "b_e", "sigma", "rho", "s0", "r0",
              "horizon", "s_star", "r_star", "u_device", "u_server", "accepted",
              "ic_ok", "ic_margin", "config_json"]
    _emit(args, render_csv(header, [row]), "mechanism.csv")


def _cmd_simulate(args) -> None:
    cfg = _apply_overrides(load_config(args.config), args)
    seed = cfg.output.seed
    result = run_protocol(cfg, seed)
    header = ["n", "accepted", "decision", "reported_sizes", "objective",
              "total_profit", "seed", "wall_clock_s", "config_json"]
    row = [len(result.decision), len(result.accepted_ids), result.decision,
           result.reported_sizes,
           result.objective if result.objective is not None else float("nan"),
           result.total_profit, seed, result.seconds,
           effective_config_json(cfg, seed)]
    _emit(args, render_csv(header, [row], timing=args.timing), "simulate.csv")
    if args.trace:
        t_header = ["order", "step", "actor", "device_id", "summary", "payload_json"]
        t_rows = [[e.order, e.step, e.actor,
                   e.device_id if e.device_id is not None else "",
                   e.summary, json.dumps(e.payload, sort_keys=True,
                                         separators=(",", ":"))]
                  for e in result.trace]
        trace_args = argparse.Namespace(out=args.trace, timing=args.timing)
        _emit(trace_args, render_csv(t_header, t_rows), "simulate-trace.csv")


def _cmd_compare(args) -> None:
    cfg = _apply_overrides(load_config(args.config), args)
    try:
        n_list = [int(v) for v in args.n_list.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    if not n_list:
        raise UsageError("--n-list is empty")
    header, rows = compare_solvers(cfg, n_list, xi=args.xi)
    _emit(args, render_csv(header, rows, timing=args.timing), "compare.csv")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit-error":
            _cmd_fit_error(args)
        elif args.command == "solve-gpm":
            _cmd_solve(args, decomposed=False)
        elif args.command == "solve-sgpm":
            _cmd_solve(args, decomposed=True)
        elif args.command == "mechanism":
            _cmd_mechanism(args)
        elif args.command == "simulate":
            _cmd_simulate(args)
        elif args.command == "compare":
            _cmd_compare(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
