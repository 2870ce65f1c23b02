"""The benchmark's workloads: inputs made from the seed, and the operations.

A workload's ``round`` is a fixed list of operations; a run repeats it.
Every operation returns a small output record (never a solver object, which
would hold the dense LP in memory) and carries the check that verifies it.
Operations look the package's functions up at call time, so a traced run
sees the wrapped versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import checks
import oracle
from oracle import Device, Game, OptimumCache, Stream

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

GPM_N18_LARGE = (6, 8, 10, 12)   # devices of size 500 in each n=18 instance of a round
GPM_N14_POOL = 16          # instance seeds 0..15 of gpm-distinct-n14
COMPARE_NS = range(2, 13)
COMPARE_REPS = 30
PROTOCOL_ROUNDS = 100


@dataclass
class Operation:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, OptimumCache], list[str]]


def mix(seed: int, index: int) -> int:
    """Seed of stream ``index`` of a run seed."""
    return Stream((int(seed) << 20) ^ index).u64()


def shuffled(items, stream: Stream) -> list:
    """Fisher-Yates shuffle driven by ``stream``."""
    out = list(items)
    for k in range(len(out) - 1, 0, -1):
        j = stream.u64() % (k + 1)
        out[k], out[j] = out[j], out[k]
    return out


# ---------------------------------------------------------------------------
# gpm-* workloads: one certified solve plus decision extraction


def two_size_instance(seed: int, j: int, large: int, n: int = 18) -> list[float]:
    """``large`` devices of size 500 and the rest of size 50, placed by a
    seeded shuffle."""
    order = shuffled(range(n), Stream(mix(seed, j)))
    return [500.0 if order[i] < large else 50.0 for i in range(n)]


def distinct_instance(instance_seed: int, n: int = 14) -> list[float]:
    """``round(50 + 950 u, 3)`` for the first n draws of SplitMix64(instance_seed)."""
    stream = Stream(instance_seed)
    sizes = [round(50.0 + 950.0 * stream.uniform(), 3) for _ in range(n)]
    if len(set(sizes)) != n:
        raise ValueError(f"instance seed {instance_seed} draws a repeated size")
    return sizes


def gpm_operation(fp, sizes: list[float], sample_seed: int, label: str) -> Operation:
    devices = [fp.game_model.DeviceProfile(id=i, data_size=s) for i, s in enumerate(sizes)]
    own = [Device(s) for s in sizes]

    def run() -> dict[str, Any]:
        eq = fp.equilibrium
        sol = eq.solve_gpm(devices)
        dist = sol.distribution
        return {"objective": sol.total_profit, "G": dist.probabilities,
                "marginals": [float(m) for m in eq.marginals(dist)],
                "sampled": eq.sample_decision(dist, sample_seed),
                "threshold": eq.threshold_decision(dist)}

    def check(out: dict[str, Any], cache: OptimumCache) -> list[str]:
        return (checks.check_objective(out["objective"], own, cache, label)
                + checks.check_distribution(out["G"], out["objective"], out["marginals"],
                                            out["sampled"], out["threshold"], own, Game()))

    return Operation(label, run, check)


class TwoSizeN18:
    """The count of size-500 devices sets the pivot count (8, 11 and 14 at 6,
    9 and 12 of them), so a round holds fixed counts around the equiprobable
    mean of 9 and the seed places the devices."""

    name = "gpm-two-size-n18"

    def round(self, fp, seed: int) -> list[Operation]:
        return [gpm_operation(fp, two_size_instance(seed, j, large), mix(seed, 1000 + j),
                              f"n=18 instance {j} ({large} of size 500)")
                for j, large in enumerate(GPM_N18_LARGE)]

    def warm_up(self, fp, seed: int) -> Operation:
        return gpm_operation(fp, two_size_instance(seed, 0, 3, n=6), 0, "warm-up n=6")


class DistinctN14:
    """A fixed pool: solve times span 0.08-2.4 s between instances, so a
    per-seed draw would make the median swing between runs.  The seed orders
    the pool and seeds the decision sampling."""

    name = "gpm-distinct-n14"

    def round(self, fp, seed: int) -> list[Operation]:
        order = shuffled(range(GPM_N14_POOL), Stream(mix(seed, 0)))
        return [gpm_operation(fp, distinct_instance(s), mix(seed, 1000 + s),
                              f"n=14 instance seed {s}") for s in order]

    def warm_up(self, fp, seed: int) -> Operation:
        return gpm_operation(fp, distinct_instance(0, n=6), 0, "warm-up n=6")


# ---------------------------------------------------------------------------
# experiment-suite: the paper's experiment path through the harness


def own_config(doc: dict[str, Any]) -> dict[str, Any]:
    """The benchmark's own reading of a config document (documented defaults)."""
    server = {"a_e": 1.0, "b_e": 1.0, "sigma": 1e5, "rho": 10.0, "s0": 500.0,
              "r0": 50.0, "horizon": 1.0}
    server.update(doc.get("mech", {}).get("server", {}))
    dev = doc.get("mech", {}).get("device", {})
    mechs = [dict({"theta": 0.5, "a_d": 1.0, "b_d": 1.0}, **d)
             for d in (dev if isinstance(dev, list) else [dev])]
    devices = doc.get("devices", [{"data_size": 500.0}, {"data_size": 500.0}])
    if isinstance(devices, list):
        devices = [Device(float(d["data_size"]), d.get("beta", 1e-3), d.get("gamma", 1e-5),
                          d.get("channel_cost", 3.5e5)) for d in devices]
    return {"server": server, "mechs": mechs, "devices": devices,
            "solver": doc.get("solver", {}), "game": Game(**doc.get("game", {}))}


def mech_params(own: dict[str, Any], **override: float) -> dict[str, float]:
    """Device 0's mechanism point, as a sweep reports it."""
    params = dict(own["mechs"][0], **own["server"])
    params.update(override)
    return params


SIMULATE_HEADER = ["n", "accepted", "decision", "reported_sizes", "objective",
                   "total_profit", "seed", "wall_clock_s"]


class ExperimentSuite:
    name = "experiment-suite"

    def load(self, fp, seed: int) -> dict[str, Any]:
        """Each config twice: as the package parses it, and as the benchmark does."""
        cfgs = {}
        for name in ("threshold_small_peers", "threshold_large_peers",
                     "generated_decomposed", "mechanism_heterogeneous", "default"):
            if name == "default":
                cfg, doc = fp.harness.config.ExperimentConfig(), {}
            else:
                path = CONFIGS / f"{name}.json"
                cfg = fp.harness.config.load_config(path)
                doc = json.loads(path.read_text(encoding="utf-8"))
            cfgs[name] = (replace(cfg, output=replace(cfg.output, seed=seed)), own_config(doc))
        return cfgs

    def round(self, fp, seed: int) -> list[Operation]:
        cfgs = self.load(fp, seed)
        sw = fp.harness.sweeps
        ops = []
        for name in ("threshold_small_peers", "threshold_large_peers"):
            cfg, own = cfgs[name]
            for v in sw.default_grid("s1"):
                ops.append(self._sweep_op(fp, cfg, own, "s1", v, seed, name))
        cfg, own = cfgs["default"]
        for axis in sw.MECH_AXES:
            for v in sw.default_grid(axis):
                ops.append(self._sweep_op(fp, cfg, own, axis, v, seed, "default"))
        for n in COMPARE_NS:
            ops.append(self._compare_op(fp, cfg, n, seed))
        cfg, own = cfgs["generated_decomposed"]
        for v in sw.default_grid("n"):
            ops.append(self._sweep_op(fp, cfg, own, "n", v, seed, "generated_decomposed"))
        cfg, own = cfgs["mechanism_heterogeneous"]
        for r in range(PROTOCOL_ROUNDS):
            ops.append(self._protocol_op(fp, cfg, own, oracle.sub_seed(seed, r)))
        return ops

    def warm_up(self, fp, seed: int) -> Operation:
        cfg, own = self.load(fp, seed)["default"]
        return self._sweep_op(fp, cfg, own, "theta", 0.5, seed, "default")

    @staticmethod
    def _sweep_op(fp, cfg, own, axis: str, value, seed: int, cfg_name: str) -> Operation:
        srv = cfg.server
        dev = cfg.mech_for(0)
        if axis in ("theta", "a_d", "b_d"):
            dev = replace(dev, **{axis: float(value)})
        elif axis in ("a_e", "b_e", "sigma", "rho", "s0", "r0"):
            srv = replace(srv, **{axis: float(value)})
        label = f"sweep {cfg_name} {axis}={value}"

        def run() -> dict[str, Any]:
            sw = fp.harness.sweeps
            header, rows = sw.sweep(cfg, axis, values=[value])
            ic = fp.mechanism.ic_check(dev.theta, srv, dev)
            return {"header": header, "rows": rows, "csv": sw.render_csv(header, rows),
                    "ic_ok": ic.ok}

        override = {axis: float(value)} if axis not in ("s1", "n") else {}
        params = mech_params(own, **override)
        decomposed = own["solver"].get("mode") == "decomposed"
        xi = own["solver"].get("xi", 2) if decomposed else None
        reps = 30 if decomposed or not isinstance(own["devices"], list) else 1

        def realize(rep_seed: int) -> list[Device]:
            if axis == "n":
                return [Device(s) for s in oracle.drawn_sizes(int(value), rep_seed)]
            devices = list(own["devices"])
            if axis == "s1":
                d0 = devices[0]
                devices[0] = Device(float(value), d0.beta, d0.gamma, d0.channel)
            return devices

        def check(out: dict[str, Any], cache: OptimumCache) -> list[str]:
            problems = [] if out["ic_ok"] else [f"{label}: ic_check reports a profitable lie"]
            problems += checks.check_sweep_rows(out["header"], out["rows"], axis, value,
                                                realize, params, xi, seed, reps, cache,
                                                own["game"])
            return problems + checks.check_csv(out["csv"], out["header"], out["rows"])

        return Operation(label, run, check)

    @staticmethod
    def _compare_op(fp, cfg, n: int, seed: int) -> Operation:
        def run() -> dict[str, Any]:
            sw = fp.harness.sweeps
            header, rows = sw.compare_solvers(cfg, [n], xi=2, reps=COMPARE_REPS)
            return {"header": header, "rows": rows, "csv": sw.render_csv(header, rows)}

        def check(out: dict[str, Any], cache: OptimumCache) -> list[str]:
            if len(out["rows"]) != 1:
                return [f"compare n={n}: {len(out['rows'])} rows"]
            return (checks.check_compare_row(out["header"], out["rows"][0], n, 2, COMPARE_REPS,
                                             seed, cache, Game())
                    + checks.check_csv(out["csv"], out["header"], out["rows"]))

        return Operation(f"compare n={n}", run, check)

    @staticmethod
    def _protocol_op(fp, cfg, own, round_seed: int) -> Operation:
        ids = [d.id for d in cfg.realize_devices(round_seed)]

        def run() -> dict[str, Any]:
            res = fp.harness.protocol.run_protocol(cfg, round_seed)
            row = [len(res.decision), len(res.accepted_ids), res.decision, res.reported_sizes,
                   res.objective if res.objective is not None else float("nan"),
                   res.total_profit, round_seed, res.seconds]
            return {"accepted_positions": [ids.index(a) for a in res.accepted_ids],
                    "reported_sizes": list(res.reported_sizes), "decision": list(res.decision),
                    "objective": res.objective, "marginals": list(res.marginals),
                    "threshold": list(res.threshold), "total_profit": res.total_profit,
                    "row": row,
                    "csv": fp.harness.sweeps.render_csv(SIMULATE_HEADER, [row])}

        def check(out: dict[str, Any], cache: OptimumCache) -> list[str]:
            return (checks.check_protocol(out, own["devices"], own["mechs"], own["server"], cache,
                                          own["game"])
                    + checks.check_csv(out["csv"], SIMULATE_HEADER, [out["row"]]))

        return Operation(f"protocol seed {round_seed}", run, check)


WORKLOADS = {w.name: w for w in (TwoSizeN18(), DistinctN14(), ExperimentSuite())}
