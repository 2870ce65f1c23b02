"""Experiment harness: config parsing, protocol traces, sweeps, CSV, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedpart import game_model as gm
from fedpart.errors import UsageError
from fedpart.harness.config import (
    effective_config_json,
    load_config,
    parse_config,
)
from fedpart.harness.cli import main as cli_main
from fedpart.harness.protocol import run_protocol, solve_round
from fedpart.harness.sweeps import (
    SWEEP_HEADER,
    compare_solvers,
    default_grid,
    render_csv,
    sweep,
)
from fedpart.rng import subset_seed

TWO_DEV_DOC = {
    "devices": [{"id": 0, "data_size": 500.0}, {"id": 1, "data_size": 500.0}],
}

# Both devices report s*=1010, so the pool is priced at S=2020; frozen with
# mpmath. The protocol must reproduce it bit-for-bit run over run.
PROTOCOL_2DEV_PROFIT = 0.3390397280079931


# ---------------------------------------------------------------- config ---

def test_default_config():
    cfg = parse_config({})
    assert len(cfg.devices) == 2
    assert not cfg.is_stochastic
    assert cfg.solver.mode == "direct"
    assert cfg.output.seed == 0


def test_unknown_keys_rejected_everywhere():
    for doc in [
        {"devicez": []},
        {"game": {"alpha": 10.0, "bogus": 1}},
        {"solver": {"mode": "direct", "nope": 1}},
        {"output": {"seeds": 3}},
        {"devices": [{"id": 0, "data_size": 1.0, "zeta": 2}]},
        {"devices": {"count": 2, "flavor": "spicy"}},
        {"mech": {"device": [{"theta": 0.5, "x": 1}]}},
        {"mech": {"server": {"rho": 1.0, "x": 1}}},
        {"mech": {"club": {}}},
    ]:
        with pytest.raises(UsageError):
            parse_config(doc)


def test_solver_validation():
    with pytest.raises(UsageError):
        parse_config({"solver": {"mode": "magic"}})
    with pytest.raises(UsageError):
        parse_config({"solver": {"xi": 0}})
    cfg = parse_config({"solver": {"mode": "decomposed", "xi": 3,
                                   "feas_tol": 1e-9}})
    assert cfg.solver.mode == "decomposed"
    assert cfg.solver.tolerances.feas_tol == 1e-9
    assert cfg.is_stochastic  # stitched sampling makes decomposed runs stochastic


def test_device_list_and_genspec():
    cfg = parse_config(TWO_DEV_DOC)
    assert [d.data_size for d in cfg.realize_devices(0)] == [500.0, 500.0]
    gen = parse_config({"devices": {"count": 3, "size_choices": [50, 500]}})
    assert gen.is_stochastic
    devs0 = gen.realize_devices(42)
    assert [d.data_size for d in devs0] == [50.0, 50.0, 50.0]  # stream golden
    # a pinned generator seed wins over the run seed
    pinned = parse_config({"devices": {"count": 3, "seed": 42}})
    assert [d.data_size for d in pinned.realize_devices(7)] == [50.0] * 3


def test_mech_assignment():
    single = parse_config({"mech": {"device": {"theta": 0.25}}})
    assert single.mech_for(0).theta == 0.25
    assert single.mech_for(1).theta == 0.25  # one spec covers every device
    per_dev = parse_config(
        {"devices": [{"id": 0, "data_size": 1.0}, {"id": 1, "data_size": 2.0}],
         "mech": {"device": [{"theta": 0.25}, {"theta": 0.75}]}})
    assert per_dev.mech_for(1).theta == 0.75
    with pytest.raises(UsageError):
        per_dev.mech_for(2)


def test_load_config_errors(tmp_path):
    with pytest.raises(UsageError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(UsageError):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(TWO_DEV_DOC), encoding="utf-8")
    assert len(load_config(good).devices) == 2


def test_effective_config_json_is_canonical():
    cfg = parse_config(TWO_DEV_DOC)
    a = effective_config_json(cfg, seed=5)
    b = effective_config_json(cfg, seed=5)
    assert a == b
    doc = json.loads(a)
    assert doc["seed"] == 5
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == a
    # every section is echoed for auditability
    assert set(doc) == {"devices", "game", "mech", "seed", "solver"}


# -------------------------------------------------------------- protocol ---

def test_protocol_two_devices_golden():
    cfg = parse_config(TWO_DEV_DOC)
    res = run_protocol(cfg, seed=0)
    assert res.accepted_ids == (0, 1)
    assert res.reported_sizes == pytest.approx((1010.0, 1010.0), abs=1e-9)
    assert res.decision == (1, 1)
    assert res.total_profit == pytest.approx(PROTOCOL_2DEV_PROFIT, abs=1e-12)
    again = run_protocol(cfg, seed=0)
    assert again.total_profit == res.total_profit
    assert again.decision == res.decision


def test_protocol_trace_ordering_per_device():
    res = run_protocol(parse_config(TWO_DEV_DOC), seed=0)
    for dev_id in (0, 1):
        steps = [e.step for e in res.trace.for_device(dev_id)]
        assert steps == sorted(steps)
        assert all(a < b for a, b in zip(steps, steps[1:]))
    orders = [e.order for e in res.trace.events]
    assert orders == list(range(len(orders)))


def test_protocol_silent_device():
    doc = {
        "devices": [{"id": 0, "data_size": 500.0}, {"id": 1, "data_size": 500.0}],
        "mech": {"device": [{"theta": 0.5}, {"theta": 0.5, "b_d": -30000.0}]},
    }
    res = run_protocol(parse_config(doc), seed=0)
    assert res.accepted_ids == (0,)
    assert res.decision[1] == 0
    silent_steps = [e.step for e in res.trace.for_device(1)]
    assert silent_steps == [1]  # offer received, nothing after


def test_protocol_zero_devices():
    res = run_protocol(parse_config({"devices": []}), seed=0)
    assert res.trace.events == ()
    assert res.decision == ()
    assert res.total_profit == 0.0


def test_protocol_decomposed_mode():
    doc = {
        "devices": [{"id": i, "data_size": 500.0} for i in range(4)],
        "solver": {"mode": "decomposed", "xi": 2},
    }
    res = run_protocol(parse_config(doc), seed=0)
    assert len(res.decision) == 4
    assert np.isfinite(res.total_profit)


# The protocol, the sweeps and the CLI solve one round through one rule:
# decomposed iff the mode says so and there are at least two devices.

# Every device reports s* = 510 (theta = 1); the costlier first device of
# each three-device subset makes the subset optimum a mixed distribution.
MIXED_SUBSETS_DOC = {
    "devices": [{"id": i, "data_size": 510.0, "channel_cost": w}
                for i, w in enumerate([5e5, 3.5e5, 3.5e5] * 2)],
    "mech": {"device": {"theta": 1.0}},
    "solver": {"mode": "decomposed", "xi": 2},
}


def _step3(res):
    (event,) = [e for e in res.trace.events if e.step == 3]
    return event


def _sgpm_row(doc, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "sgpm.csv"
    assert cli_main(["solve-sgpm", str(cfg_path), "--out", str(out)]) == 0
    header, row = out.read_text(encoding="utf-8").splitlines()[:2]
    return dict(zip(header.split(","), row.split(",", maxsplit=header.count(","))))


def _sweep_row(doc, xi):
    header, rows = sweep(parse_config(doc), "xi", values=[xi], reps=1)
    return dict(zip(header, rows[0]))


def test_one_device_solves_direct_everywhere(tmp_path):
    doc = {"devices": [{"id": 0, "data_size": 500.0}],
           "solver": {"mode": "decomposed", "xi": 2}}
    assert _step3(run_protocol(parse_config(doc), seed=0)).payload["mode"] == "direct"
    assert _sweep_row(doc, 2)["mode"] == "direct"
    assert _sgpm_row(doc, tmp_path)["mode"] == "direct"
    cfg = parse_config(doc)
    assert solve_round(cfg.realize_devices(0), cfg, 0).mode == "direct"


def test_decomposed_protocol_reports_subset_marginals(tmp_path):
    res = run_protocol(parse_config(MIXED_SUBSETS_DOC), seed=0)
    assert res.reported_sizes == (510.0,) * 6
    point = _sweep_row(MIXED_SUBSETS_DOC, 2)
    assert point["mode"] == "decomposed"
    assert res.marginals == point["marginals"]
    assert res.threshold == point["decision_threshold"]
    # the marginals are a distribution's, not the sampled bits
    assert any(0.0 < m < 1.0 for m in res.marginals)
    assert res.threshold != res.decision
    cells = _sgpm_row(MIXED_SUBSETS_DOC, tmp_path)
    assert cells["marginals"] == render_csv(["m"], [[res.marginals]]).split("\n")[1]
    assert cells["decision_threshold"] == ";".join(str(b) for b in res.threshold)


def test_xi_1_is_the_direct_solve_bit_for_bit():
    direct_doc = dict(MIXED_SUBSETS_DOC, solver={"mode": "direct"})
    one_doc = dict(MIXED_SUBSETS_DOC, solver={"mode": "decomposed", "xi": 1})
    for seed in (0, 1, 5):
        a = run_protocol(parse_config(direct_doc), seed=seed)
        b = run_protocol(parse_config(one_doc), seed=seed)
        assert (b.objective, b.decision, b.total_profit) == \
            (a.objective, a.decision, a.total_profit)
        assert (b.marginals, b.threshold) == (a.marginals, a.threshold)
        assert _step3(b).payload["xi"] == 1


@pytest.mark.parametrize("cap, code", [(4, 3), (5, 0)])
def test_decomposed_solves_keep_the_enumeration_cap(cap, code, tmp_path):
    # ten devices in two subsets of five: a cap of 4 refuses each subgame
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "devices": {"count": 10},
        "solver": {"mode": "decomposed", "xi": 2, "enumeration_cap": cap}}), encoding="utf-8")
    for cmd in ("solve-sgpm", "simulate"):
        assert cli_main([cmd, str(cfg_path), "--out", str(tmp_path / f"{cmd}.csv")]) == code


# ---------------------------------------------------------------- sweeps ---

def test_sweep_unknown_axis():
    with pytest.raises(UsageError):
        sweep(parse_config({}), "volume")


def test_sweep_mech_axis_columns():
    cfg = parse_config(TWO_DEV_DOC)
    header, rows = sweep(cfg, "theta")
    assert header == SWEEP_HEADER
    assert len(rows) == len(default_grid("theta")) == 10
    col = {name: header.index(name) for name in header}
    uds = [r[col["u_device"]] for r in rows]
    assert all(a > b for a, b in zip(uds, uds[1:]))
    # game columns do not move on a mechanism axis
    assert len({r[col["gpm_objective"]] for r in rows}) == 1
    # deterministic config -> single repetition, no mean row
    assert all(r[col["rep"]] == "0" for r in rows)


def test_sweep_s1_axis_thresholds():
    low = parse_config({"devices": [{"id": i, "data_size": 50.0} for i in range(8)]})
    header, rows = sweep(low, "s1", values=[50, 100, 200])
    col = {name: header.index(name) for name in header}
    thr = [r[col["decision_threshold"]][0] for r in rows]
    assert thr == [0, 1, 1]
    m0 = [r[col["marginals"]][0] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(m0, m0[1:]))


def test_sweep_stochastic_reps_and_mean():
    cfg = parse_config({"devices": {"count": 3}})
    header, rows = sweep(cfg, "n", values=[2], reps=4)
    col = {name: header.index(name) for name in header}
    assert len(rows) == 5
    assert [r[col["rep"]] for r in rows] == ["0", "1", "2", "3", "mean"]
    objs = [r[col["gpm_objective"]] for r in rows[:4]]
    assert rows[4][col["gpm_objective"]] == pytest.approx(np.mean(objs), abs=1e-12)
    # rep seeds are derived from the run seed, so reruns reproduce exactly
    _, rows2 = sweep(cfg, "n", values=[2], reps=4)
    assert render_csv(header, rows2) == render_csv(header, rows)


def test_sweep_values_override_grid():
    cfg = parse_config(TWO_DEV_DOC)
    header, rows = sweep(cfg, "rho", values=[5.0, 10.0])
    col = {name: header.index(name) for name in header}
    assert [r[col["value"]] for r in rows] == [5.0, 10.0]
    # rho=10 row carries the default-parameter optimum
    assert rows[1][col["s_star"]] == pytest.approx(1010.0, rel=1e-12)


# -------------------------------------------------------- compare solvers ---

def test_compare_solvers_table():
    cfg = parse_config({})
    header, rows = compare_solvers(cfg, [2, 4], xi=2, reps=5)
    col = {name: header.index(name) for name in header}
    assert [r[col["n"]] for r in rows] == [2, 4]
    for r in rows:
        assert r[col["reps"]] == 5
        assert r[col["improved_profit"]] <= r[col["direct_profit"]] + 1e-9
        assert r[col["direct_ms"]] > 0 and r[col["improved_ms"]] > 0
    # same devices on both sides, reproducible end to end
    _, rows2 = compare_solvers(cfg, [2, 4], xi=2, reps=5)
    assert render_csv(header, rows2) == render_csv(header, rows)


# ------------------------------------------------------------------- csv ---

def test_render_csv_formatting():
    text = render_csv(["x", "flag", "vec"], [[1.23456789012, True, (1, 0)],
                                             [-0.0, False, (0.5,)]])
    lines = text.split("\n")
    assert lines[0] == "x,flag,vec"
    assert lines[1] == "1.23456789,1,1;0"
    assert lines[2] == "0,0,0.5"          # negative zero is normalized
    assert text.endswith("\n") and "\r" not in text


def test_render_csv_timing_columns_gated():
    header = ["a", "wall_clock_s", "b"]
    rows = [[1.0, 0.123, 2.0]]
    assert render_csv(header, rows) == "a,b\n1,2\n"
    assert render_csv(header, rows, timing=True) == "a,wall_clock_s,b\n1,0.123,2\n"


def test_render_csv_row_width_checked():
    with pytest.raises(UsageError):
        render_csv(["a", "b"], [[1.0]])


# ------------------------------------------------------------------- cli ---

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("FEDPART_OUT_DIR", None)
    # Absolute, so the package still imports when cwd is a temporary directory.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "fedpart", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(TWO_DEV_DOC), encoding="utf-8")
    return p


def test_cli_solve_gpm_deterministic(cfg_file):
    a = run_cli("solve-gpm", str(cfg_file))
    b = run_cli("solve-gpm", str(cfg_file))
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    header, row = a.stdout.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",", maxsplit=header.count(","))))
    assert cells["objective"] == "0.951477779"
    assert cells["mode"] == "direct"
    assert "wall_clock_s" not in header


def test_cli_seed_changes_column(cfg_file):
    a = run_cli("solve-gpm", str(cfg_file), "--seed", "123")
    assert a.returncode == 0
    assert ",123," in a.stdout


def test_cli_solve_sgpm(cfg_file):
    a = run_cli("solve-sgpm", str(cfg_file), "--xi", "2")
    assert a.returncode == 0, a.stderr
    assert "decomposed" in a.stdout
    assert run_cli("solve-sgpm", str(cfg_file), "--xi", "2").stdout == a.stdout


def test_cli_mechanism_single_and_sweep(cfg_file):
    single = run_cli("mechanism", str(cfg_file))
    assert single.returncode == 0, single.stderr
    assert single.stdout.startswith("theta,")
    assert ",1010," in single.stdout
    swept = run_cli("mechanism", str(cfg_file), "--sweep", "theta",
                    "--values", "0.25,0.5")
    assert swept.returncode == 0, swept.stderr
    assert len(swept.stdout.strip().split("\n")) == 3  # header + 2 rows


def test_cli_simulate_writes_trace(cfg_file, tmp_path):
    trace = tmp_path / "trace.csv"
    out = tmp_path / "sim.csv"
    r = run_cli("simulate", str(cfg_file), "--seed", "0",
                "--out", str(out), "--trace", str(trace))
    assert r.returncode == 0, r.stderr
    body = out.read_text(encoding="utf-8")
    assert "0.339039728" in body
    t = trace.read_text(encoding="utf-8")
    assert t.splitlines()[0] == "order,step,actor,device_id,summary,payload_json"
    assert len(t.splitlines()) == 10  # header + 9 events


def test_cli_fit_error(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("size,error\n1,2.0\n4,1.0\n", encoding="utf-8")
    r = run_cli("fit-error", str(pts))
    assert r.returncode == 0, r.stderr
    row = r.stdout.strip().split("\n")[1].split(",")
    assert float(row[0]) == pytest.approx(2.0, rel=1e-9)
    assert float(row[1]) == pytest.approx(0.5, rel=1e-9)


def test_cli_compare(cfg_file):
    r = run_cli("compare", str(cfg_file), "--n-list", "2", "--xi", "2")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("n,xi,reps,direct_profit,improved_profit")


def test_cli_out_and_env_dir(cfg_file, tmp_path):
    out = tmp_path / "direct.csv"
    r = run_cli("solve-gpm", str(cfg_file), "--out", str(out))
    assert r.returncode == 0 and out.exists()
    envdir = tmp_path / "envout"
    envdir.mkdir()
    r2 = run_cli("solve-gpm", str(cfg_file),
                 env_extra={"FEDPART_OUT_DIR": str(envdir)})
    assert r2.returncode == 0
    assert (envdir / "solve-gpm.csv").read_text(encoding="utf-8") == \
        out.read_text(encoding="utf-8")


def test_cli_exit_codes(cfg_file, tmp_path):
    assert run_cli("solve-gpm", str(tmp_path / "nope.json")).returncode == 2
    unknown = run_cli("solve-gpm", str(cfg_file), "--format", "csv")
    assert unknown.returncode == 2 and "unrecognized arguments: --format" in unknown.stderr
    assert run_cli("mechanism", str(cfg_file), "--sweep", "bogus").returncode == 2
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"devices": [{"id": i, "data_size": 500.0} for i in range(21)]}),
        encoding="utf-8")
    assert run_cli("solve-gpm", str(big)).returncode == 3
    assert run_cli("solve-gpm", str(cfg_file), "--tol", "1e-300").returncode == 4
    usage = run_cli("solve-gpm", str(tmp_path / "nope.json"))
    assert usage.stderr.startswith("error:")


def test_cli_timing_flag_adds_columns(cfg_file):
    without = run_cli("solve-gpm", str(cfg_file))
    with_t = run_cli("solve-gpm", str(cfg_file), "--timing")
    assert "wall_clock_s" not in without.stdout
    assert "wall_clock_s" in with_t.stdout
