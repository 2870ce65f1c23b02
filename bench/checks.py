"""Checks of the program's outputs against the benchmark's own computations.

Each check returns a list of problems; an empty list means the output is
correct.  The reference values come from :mod:`oracle`, never from
``fedpart`` and never from a stored copy of the program's output.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any, Sequence

import numpy as np

import oracle
from oracle import Device, Game, OptimumCache

OBJ_REL = 1e-6      # objective against HiGHS, relative
CE_TOL = 1e-7       # a deviation constraint may read this far below 0
SUM_TOL = 1e-9      # distribution total against 1
PROFIT_REL = 1e-9   # re-priced profits and closed forms, relative
CSV_REL = 1e-8      # a 9-significant-digit cell against its value
SUPPORT_MIN = 1e-6  # a sampled decision some optimal plan weighs above this

TIMING_COLUMNS = {"wall_clock_s", "direct_ms", "improved_ms"}


def close(a: float, b: float, rel: float) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_objective(objective: float, devices: Sequence[Device], cache: OptimumCache,
                    label: str) -> list[str]:
    want = cache.optimum(devices)
    if not close(float(objective), want, OBJ_REL):
        return [f"{label}: objective {objective!r}, HiGHS optimum {want!r}"]
    return []


def check_distribution(G: np.ndarray, objective: float, marginals: Sequence[float],
                       sampled: Sequence[int], threshold: Sequence[int],
                       devices: Sequence[Device], game: Game) -> list[str]:
    """A returned plan is a correlated equilibrium worth its objective."""
    problems = []
    n = len(devices)
    G = np.asarray(G, dtype=float)
    if G.shape != (1 << n,):
        return [f"distribution has shape {G.shape}, expected ({1 << n},)"]
    if G.min() < 0.0:
        problems.append(f"negative probability {G.min()!r}")
    if abs(G.sum() - 1.0) > SUM_TOL:
        problems.append(f"probabilities sum to {G.sum()!r}")
    profits = oracle.payoff_table(devices, game)
    worst = float((oracle.deviation_rows(profits) @ G).min())
    if worst < -CE_TOL:
        problems.append(f"a deviation constraint reads {worst!r}")
    value = float(G @ profits.sum(axis=1))
    if not close(value, float(objective), OBJ_REL):
        problems.append(f"distribution is worth {value!r}, reported objective {objective!r}")
    idx = np.arange(1 << n)
    own = [float(G[((idx >> i) & 1) == 1].sum()) for i in range(n)]
    if any(abs(a - float(b)) > 1e-9 for a, b in zip(own, marginals)) or len(marginals) != n:
        problems.append(f"marginals {list(marginals)} differ from {own}")
    problems += check_extraction(marginals, sampled, threshold)
    if len(sampled) == n and G[oracle.index_of(sampled)] <= 0.0:
        problems.append(f"sampled decision {tuple(sampled)} has probability 0")
    return problems


def check_support(decision: Sequence[int], devices: Sequence[Device], cache: OptimumCache,
                  label: str) -> list[str]:
    """Where the distribution is not returned: some optimal correlated
    equilibrium of the game gives the sampled decision positive probability."""
    weight = cache.support(devices, decision)
    if weight <= SUPPORT_MIN:
        return [f"{label}: sampled decision {tuple(decision)} has probability at most "
                f"{weight!r} in every optimal plan"]
    return []


def support_set(devices: Sequence[Device], cache: OptimumCache) -> np.ndarray:
    """Outcomes that some optimal correlated equilibrium can sample."""
    n = len(devices)
    return np.array([k for k in range(1 << n)
                     if cache.support(devices, oracle.decision_of(k, n)) > SUPPORT_MIN],
                    dtype=np.int64)


def check_extraction(marginals: Sequence[float], sampled: Sequence[int],
                     threshold: Sequence[int]) -> list[str]:
    """Threshold rounds the marginals at 1/2; a sampled decision can only
    include a device with positive marginal and omit one whose marginal is
    below 1, or its probability would be 0."""
    problems = []
    if tuple(int(b) for b in threshold) != tuple(int(m >= 0.5) for m in marginals):
        problems.append(f"threshold {tuple(threshold)} is not marginals >= 1/2")
    for i, (m, b) in enumerate(zip(marginals, sampled)):
        if (b and m <= 0.0) or (not b and m >= 1.0):
            problems.append(f"sampled decision sets device {i} to {b} at marginal {m!r}")
    if len(sampled) != len(marginals):
        problems.append("sampled decision and marginals differ in length")
    return problems


def check_mechanism(values: dict[str, Any], params: dict[str, float], label: str) -> list[str]:
    """Report, rule, utilities and acceptance against the closed forms."""
    want = oracle.mech_point(**params)
    problems = []
    for key in ("s_star", "r_star", "u_device", "u_server"):
        if not close(float(values[key]), want[key], PROFIT_REL):
            problems.append(f"{label}: {key} {values[key]!r}, closed form {want[key]!r}")
    if bool(values["accepted"]) != want["accepted"]:
        problems.append(f"{label}: accepted {values['accepted']!r}, closed form {want['accepted']}")
    if not want["ic_ok"]:
        problems.append(f"{label}: a misreport beats the truth at {params}")
    return problems


def check_csv(text: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[str]:
    """The rendered table parses back to the rows it was rendered from."""
    keep = [k for k, name in enumerate(header) if name not in TIMING_COLUMNS]
    parsed = list(csv.reader(io.StringIO(text)))
    if not parsed or parsed[0] != [header[k] for k in keep]:
        return [f"CSV header {parsed[:1]} does not match {header}"]
    if len(parsed) - 1 != len(rows):
        return [f"CSV has {len(parsed) - 1} rows, table has {len(rows)}"]
    problems = []
    for r, (cells, row) in enumerate(zip(parsed[1:], rows)):
        for cell, k in zip(cells, keep):
            if not _cell_matches(cell, row[k]):
                problems.append(f"CSV row {r} column {header[k]}: {cell!r} for {row[k]!r}")
    return problems


def _cell_matches(cell: str, value: Any) -> bool:
    if isinstance(value, (tuple, list, np.ndarray)):
        parts = cell.split(";") if cell else []
        return len(parts) == len(value) and all(_cell_matches(p, v) for p, v in zip(parts, value))
    if isinstance(value, (bool, np.bool_)):
        return cell == str(int(value))
    if isinstance(value, (int, np.integer)):
        return cell == str(int(value))
    if isinstance(value, (float, np.floating)):
        try:
            return close(float(cell), float(value), CSV_REL)
        except ValueError:
            return False
    return cell == str(value)


def column(header: Sequence[str], row: Sequence[Any], name: str) -> Any:
    return row[header.index(name)]


def check_sweep_rows(header: Sequence[str], rows: Sequence[Sequence[Any]],
                     axis: str, value: Any, realize, mech_params: dict[str, float],
                     xi: int | None, base_seed: int, reps: int,
                     cache: OptimumCache, game: Game) -> list[str]:
    """Rows of one sweep value.  ``realize(seed)`` gives the devices of a
    repetition; ``xi`` is None for direct solves, else the subset count."""
    label = f"sweep {axis}={value}"
    want_rows = reps + (1 if reps > 1 else 0)
    if len(rows) != want_rows:
        return [f"{label}: {len(rows)} rows, expected {want_rows}"]
    problems = []
    points = rows[:reps]
    for rep, row in enumerate(points):
        get = lambda name: column(header, row, name)  # noqa: E731
        tag = f"{label} rep {rep}"
        seed = oracle.sub_seed(base_seed, rep)
        if get("rep") != str(rep) or get("seed") != seed or get("axis") != axis:
            problems.append(f"{tag}: labelled rep={get('rep')!r} seed={get('seed')!r}")
            continue
        problems += check_mechanism({k: get(k) for k in ("s_star", "r_star", "u_device",
                                                       "u_server", "accepted")},
                                    mech_params, tag)
        devices = realize(seed)
        n = len(devices)
        sampled = get("decision_sampled")
        if get("n") != n or len(sampled) != n:
            problems.append(f"{tag}: n={get('n')!r}, expected {n}")
            continue
        if xi is None:
            if get("mode") != "direct" or get("xi") != 1:
                problems.append(f"{tag}: mode {get('mode')!r} xi {get('xi')!r}")
            problems += check_objective(get("gpm_objective"), devices, cache, tag)
            problems += check_support(sampled, devices, cache, tag)
        else:
            k = min(xi, n)
            if get("mode") != "decomposed" or get("xi") != k:
                problems.append(f"{tag}: mode {get('mode')!r} xi {get('xi')!r}")
            subsets = contiguous_split(devices, k)
            want = sum(cache.optimum(sub) for sub in subsets)
            if not close(float(get("gpm_objective")), want, OBJ_REL):
                problems.append(f"{tag}: summed subset objective {get('gpm_objective')!r}, "
                                f"HiGHS {want!r}")
            start = 0
            for j, sub in enumerate(subsets):
                part = sampled[start:start + len(sub)]
                problems += check_support(part, sub, cache, f"{tag} subset {j}")
                start += len(sub)
        problems += check_extraction(get("marginals"), sampled, get("decision_threshold"))
        repriced = oracle.outcome_profit(sampled, devices, game)
        if not close(float(get("profit_sampled")), repriced, PROFIT_REL):
            problems.append(f"{tag}: profit {get('profit_sampled')!r}, re-priced {repriced!r}")
    if reps > 1:
        mean_row = rows[-1]
        for name in ("gpm_objective", "profit_sampled", "u_device"):
            mean = float(np.mean([float(column(header, r, name)) for r in points]))
            if not close(float(column(header, mean_row, name)), mean, PROFIT_REL):
                problems.append(f"{label}: mean {name} {column(header, mean_row, name)!r}, "
                                f"expected {mean!r}")
    return problems


def contiguous_split(devices: Sequence[Device], k: int) -> list[list[Device]]:
    """Balanced contiguous split; the first ``n mod k`` parts get one extra."""
    n = len(devices)
    base, extra = divmod(n, k)
    parts, start = [], 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        parts.append(list(devices[start:start + size]))
        start += size
    return parts


def stitched_range(devices: Sequence[Device], xi: int, cache: OptimumCache,
                   game: Game) -> tuple[float, float]:
    """Lowest and highest full-game profit of a decomposed decision: one
    outcome from each subset's optimal support, stitched together."""
    index, shift = np.zeros(1, dtype=np.int64), 0
    for sub in contiguous_split(devices, xi):
        part = support_set(sub, cache) << shift
        index = (index[:, None] | part[None, :]).ravel()
        shift += len(sub)
    values = oracle.payoff_table(devices, game).sum(axis=1)[index]
    return float(values.min()), float(values.max())


def check_compare_row(header: Sequence[str], row: Sequence[Any], n: int, xi: int, reps: int,
                      base_seed: int, cache: OptimumCache, game: Game) -> list[str]:
    """The direct column is the mean HiGHS optimum over the repetitions' draws.

    The decomposed column is a mean of re-priced decisions that the table
    does not list.  Each stitches one outcome from each subset's optimal
    support, so the column must lie between the means of the lowest and the
    highest such profits; where every support is one outcome, they agree."""
    get = lambda name: column(header, row, name)  # noqa: E731
    label = f"compare n={n}"
    if (get("n"), get("xi"), get("reps")) != (n, xi, reps):
        return [f"{label}: labelled n={get('n')!r} xi={get('xi')!r} reps={get('reps')!r}"]
    optima, lows, highs = [], [], []
    for rep in range(reps):
        sizes = oracle.drawn_sizes(n, oracle.sub_seed(base_seed, (n << 20) | rep))
        devices = [Device(s) for s in sizes]
        optima.append(cache.optimum(devices))
        low, high = cache.remember(("stitched range", xi, tuple(sizes)),
                                   lambda: stitched_range(devices, min(xi, n), cache, game))
        lows.append(low)
        highs.append(high)
    problems = []
    want = float(np.mean(optima))
    if not close(float(get("direct_profit")), want, OBJ_REL):
        problems.append(f"{label}: direct profit {get('direct_profit')!r}, HiGHS mean {want!r}")
    lo, hi = float(np.mean(lows)), float(np.mean(highs))
    slack = PROFIT_REL * max(1.0, abs(lo), abs(hi))
    if not lo - slack <= float(get("improved_profit")) <= hi + slack:
        problems.append(f"{label}: decomposed profit {get('improved_profit')!r} "
                        f"outside [{lo!r}, {hi!r}]")
    return problems


def check_protocol(out: dict[str, Any], devices: Sequence[Device],
                   mechs: Sequence[dict[str, float]], server: dict[str, float],
                   cache: OptimumCache, game: Game) -> list[str]:
    """Reports follow the closed form, silent devices stay out, the solved
    game's objective matches HiGHS and the joint profit re-prices."""
    problems = []
    accepted, reports = [], []
    for pos, mech in enumerate(mechs):
        point = oracle.mech_point(**mech, **server)
        if point["accepted"]:
            accepted.append(pos)
            reports.append(point["s_star"])
    if list(out["accepted_positions"]) != accepted:
        return [f"protocol: accepted {out['accepted_positions']}, closed form {accepted}"]
    for got, want in zip(out["reported_sizes"], reports):
        if not close(float(got), want, PROFIT_REL):
            problems.append(f"protocol: report {got!r}, closed form {want!r}")
    decision = out["decision"]
    if any(decision[pos] for pos in range(len(devices)) if pos not in accepted):
        problems.append(f"protocol: a silent device joins in {decision}")
    if not accepted:
        return problems
    game_devices = [Device(s, devices[pos].beta, devices[pos].gamma, devices[pos].channel)
                    for pos, s in zip(accepted, reports)]
    problems += check_objective(out["objective"], game_devices, cache, "protocol")
    joint = [decision[pos] for pos in accepted]
    problems += check_extraction(out["marginals"], joint, out["threshold"])
    problems += check_support(joint, game_devices, cache, "protocol")
    repriced = oracle.outcome_profit(joint, game_devices, game)
    if not close(float(out["total_profit"]), repriced, PROFIT_REL):
        problems.append(f"protocol: profit {out['total_profit']!r}, re-priced {repriced!r}")
    return problems
