"""Span tracing for the traced run, from the benchmark's own files.

The package's public functions are wrapped by name: every module of the
package whose namespace holds one of them gets the wrapper in its place, so
calls through ``from .x import f`` are seen too.  Each call records a span
(name, start, end, parent) in memory; the run writes the spans out at the
end.  A layer's self time is its span's duration minus its child spans.
With ``memory=True`` each span also records the peak of traced allocations
above its starting level (tracemalloc), which slows the calls it measures,
so timings come from a pass without it.

A name missing from the package is recorded as absent and every metric that
needs it is left out of the report; the run does not fail.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from typing import Any, Callable

WRAPPED: dict[str, dict[str, tuple[str, ...]]] = {
    "game_model": {"fedpart.game_model": ("profit_tensor", "total_profit", "random_devices")},
    "equilibrium": {"fedpart.equilibrium": ("build_gpm", "solve_gpm", "verify_ce", "marginals",
                                            "sample_decision", "threshold_decision")},
    "lp_core": {"fedpart.lp_core": ("solve", "check_feasible")},
    "decomposition": {"fedpart.decomposition": ("solve_decomposed", "solve_sgpm", "partition")},
    "mechanism": {"fedpart.mechanism": ("best_response", "optimal_rule", "accepts",
                                        "infer_theta", "max_device_utility",
                                        "max_server_utility", "ic_check", "device_utility",
                                        "server_utility")},
    "harness": {"fedpart.harness.config": ("load_config", "parse_config",
                                           "effective_config_json"),
                "fedpart.harness.sweeps": ("sweep", "compare_solvers", "render_csv",
                                           "default_grid"),
                "fedpart.harness.protocol": ("run_protocol",)},
}

OP = "op"  # root span of one benchmark operation


def _tableau_bytes(lp) -> int:
    """Bytes of the dense phase-1 tableau the LP's dimensions imply (computed)."""
    m = len(lp.senses)
    ge = [s == ">=" for s in lp.senses]
    artificial = sum(1 for g, b in zip(ge, lp.rhs) if not g or b > 0)
    return 8 * (m + 1) * (lp.rows.shape[1] + sum(ge) + artificial + 1)


def _probe_solve(args, kwargs, result) -> dict[str, int]:
    return {"pivots": int(result.iterations), "tableau_bytes": _tableau_bytes(args[0])}


def _probe_tensor(args, kwargs, result) -> dict[str, int]:
    n = len(args[0] if args else kwargs["devices"])
    return {"bytes": 8 * n * (1 << n)}


def _probe_csv(args, kwargs, result) -> dict[str, int]:
    return {"bytes": len(result.encode("utf-8"))}


PROBES: dict[str, Callable[[tuple, dict, Any], dict[str, int]]] = {
    "lp_core.solve": _probe_solve,
    "game_model.profit_tensor": _probe_tensor,
    "harness.render_csv": _probe_csv,
}


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []   # [name, parent, start, end, info, peak_bytes]
        self._stack: list[int] = []
        self._mem: list[list[int]] = []   # open spans: [start level, highest level]
        self._installed: list[tuple[Any, str, Any]] = []
        self.present: set[str] = set()
        self.absent: set[str] = set()

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple[Any, Any]] = {}
        for layer, modules in WRAPPED.items():
            for modname, names in modules.items():
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    module = None
                for fname in names:
                    span = f"{layer}.{fname}"
                    fn = getattr(module, fname, None)
                    if not callable(fn):
                        self.absent.add(span)
                        continue
                    self.present.add(span)
                    wrappers[id(fn)] = (fn, self._wrap(span, fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "fedpart" or modname.startswith("fedpart.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if probe is not None:
                try:
                    self.spans[sid][4] = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def open(self, name: str, info: Any = None) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0, info, None])
        self._stack.append(sid)
        if self.memory:
            level, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([level, level])
        self.spans[sid][2] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            start, high = self._mem.pop()
            high = max(high, peak)
            self.spans[sid][5] = high - start
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], high)
            tracemalloc.reset_peak()

    def records(self) -> list[dict[str, Any]]:
        return [{"id": k, "name": s[0], "parent": s[1], "start": s[2], "end": s[3],
                 "info": s[4], "peak_bytes": s[5]} for k, s in enumerate(self.spans)]


# ---------------------------------------------------------------------------
# per-layer metrics


class SpanTable:
    """Durations, self times and ancestry of one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.present = tracer.present
        self.dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * len(self.spans)
        for k, s in enumerate(self.spans):
            if s[1] >= 0:
                child[s[1]] += self.dur[k]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.ops = sum(1 for s in self.spans if s[0] == OP)

    def named(self, names) -> list[int]:
        return [k for k, s in enumerate(self.spans) if s[0] in names]

    def inclusive(self, names) -> float:
        """Time inside any of ``names``, counting nested calls among them once."""
        return sum(self.dur[k] for k in self.named(names)
                   if self.spans[k][1] < 0 or self.spans[self.spans[k][1]][0] not in names)

    def self_sum(self, names) -> float:
        return sum(self.self_time[k] for k in self.named(names))

    def info_sum(self, name: str, key: str) -> float:
        return sum(self.spans[k][4][key] for k in self.named({name})
                   if self.spans[k][4] and key in self.spans[k][4])

    def info_max(self, name: str, key: str) -> float:
        vals = [self.spans[k][4][key] for k in self.named({name})
                if self.spans[k][4] and key in self.spans[k][4]]
        return max(vals, default=0)

    def peak(self, name: str) -> float:
        return max((self.spans[k][5] for k in self.named({name})
                    if self.spans[k][5] is not None), default=0)

    def has_ancestor(self, k: int, name: str) -> bool:
        k = self.spans[k][1]
        while k >= 0:
            if self.spans[k][0] == name:
                return True
            k = self.spans[k][1]
        return False

    def calls_into(self, layer: str) -> int:
        prefix = layer + "."
        return sum(1 for s in self.spans if s[0].startswith(prefix)
                   and (s[1] < 0 or not self.spans[s[1]][0].startswith(prefix)))


def layer_names(layer: str, present: set[str]) -> set[str]:
    return {s for s in present if s.startswith(layer + ".")}


def per_layer_metrics(timed: SpanTable, memory: SpanTable, overhead_s: float) -> dict:
    """Per-operation values: times and counts are means over the timed pass's
    operations; peak and computed bytes are maxima."""
    ops = max(timed.ops, 1)
    present = timed.present
    extract = {"equilibrium.marginals", "equilibrium.sample_decision",
               "equilibrium.threshold_decision"}
    config = {"harness.load_config", "harness.parse_config", "harness.effective_config_json"}
    mech = layer_names("mechanism", present)
    harness = layer_names("harness", present)

    def pivots() -> float:
        return timed.info_sum("lp_core.solve", "pivots")

    table: list[tuple[str, str, set[str], Callable[[], float]]] = [
        ("lp_core.pivots", "count", {"lp_core.solve"}, lambda: pivots() / ops),
        ("lp_core.solve_self_s", "s", {"lp_core.solve"},
         lambda: timed.self_sum({"lp_core.solve"}) / ops),
        ("lp_core.s_per_pivot", "s", {"lp_core.solve"},
         lambda: timed.self_sum({"lp_core.solve"}) / pivots() if pivots() else None),
        ("lp_core.solve_peak_bytes", "bytes", {"lp_core.solve"},
         lambda: memory.peak("lp_core.solve")),
        ("lp_core.tableau_bytes", "bytes", {"lp_core.solve"},
         lambda: timed.info_max("lp_core.solve", "tableau_bytes")),
        ("lp_core.check_feasible_s", "s", {"lp_core.check_feasible"},
         lambda: timed.inclusive({"lp_core.check_feasible"}) / ops),
        ("lp_core.solve_calls", "count", {"lp_core.solve"},
         lambda: len(timed.named({"lp_core.solve"})) / ops),
        ("game_model.profit_tensor_s", "s", {"game_model.profit_tensor"},
         lambda: timed.inclusive({"game_model.profit_tensor"}) / ops),
        ("game_model.profit_tensor_calls", "count", {"game_model.profit_tensor"},
         lambda: len(timed.named({"game_model.profit_tensor"})) / ops),
        ("game_model.profit_tensor_bytes", "bytes", {"game_model.profit_tensor"},
         lambda: timed.info_max("game_model.profit_tensor", "bytes")),
        ("equilibrium.build_gpm_self_s", "s", {"equilibrium.build_gpm"},
         lambda: timed.self_sum({"equilibrium.build_gpm"}) / ops),
        ("equilibrium.build_gpm_peak_bytes", "bytes", {"equilibrium.build_gpm"},
         lambda: memory.peak("equilibrium.build_gpm")),
        ("equilibrium.verify_ce_self_s", "s", {"equilibrium.verify_ce"},
         lambda: timed.self_sum({"equilibrium.verify_ce"}) / ops),
        ("equilibrium.verify_ce_peak_bytes", "bytes", {"equilibrium.verify_ce"},
         lambda: memory.peak("equilibrium.verify_ce")),
        ("equilibrium.solve_gpm_self_s", "s", {"equilibrium.solve_gpm"},
         lambda: timed.self_sum({"equilibrium.solve_gpm"}) / ops),
        ("equilibrium.extract_s", "s", extract, lambda: timed.inclusive(extract) / ops),
        ("decomposition.solve_decomposed_self_s", "s", {"decomposition.solve_decomposed"},
         lambda: timed.self_sum({"decomposition.solve_decomposed"}) / ops),
        ("decomposition.subset_solves", "count",
         {"decomposition.solve_decomposed", "equilibrium.solve_gpm"},
         lambda: sum(1 for k in timed.named({"equilibrium.solve_gpm"})
                     if timed.has_ancestor(k, "decomposition.solve_decomposed")) / ops),
        ("mechanism.s", "s", mech, lambda: timed.inclusive(mech) / ops),
        ("mechanism.calls", "count", mech, lambda: timed.calls_into("mechanism") / ops),
        ("game_model.total_profit_s", "s", {"game_model.total_profit"},
         lambda: timed.inclusive({"game_model.total_profit"}) / ops),
        ("game_model.random_devices_s", "s", {"game_model.random_devices"},
         lambda: timed.inclusive({"game_model.random_devices"}) / ops),
        ("harness.self_s", "s", harness, lambda: timed.self_sum(harness) / ops),
        ("harness.render_csv_s", "s", {"harness.render_csv"},
         lambda: timed.inclusive({"harness.render_csv"}) / ops),
        ("harness.csv_bytes", "bytes", {"harness.render_csv"},
         lambda: timed.info_sum("harness.render_csv", "bytes") / ops),
        ("harness.config_s", "s", (config & present) or config,
         lambda: timed.inclusive(config) / ops),
    ]
    out = {}
    for name, unit, needs, value in table:
        if not needs or not needs <= present:
            continue
        v = value()
        if v is not None:
            out[name] = {"value": float(v), "unit": unit}
    out["trace.overhead_s"] = {"value": float(overhead_s), "unit": "s"}
    return out
