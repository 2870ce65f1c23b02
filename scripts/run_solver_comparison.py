#!/usr/bin/env python3
"""Direct vs decomposed solver on growing device counts; writes one CSV.

Each row is a 30-seed average at one n: certified optimum and wall-clock for
the exact solver, sampled re-priced profit and wall-clock for the subset
decomposition.  Direct cost grows with 2^n; the decomposed column shows what
the approximation buys (and what its profit costs) at the same n.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from fedpart.harness.config import ExperimentConfig
from fedpart.harness.sweeps import compare_solvers, render_csv

REPO = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=REPO / "out",
                    help="output directory (default: ./out)")
    ap.add_argument("--n-list", type=int, nargs="*",
                    default=[2, 4, 6, 8, 10, 12, 14])
    ap.add_argument("--xi", type=int, default=2, help="number of subsets")
    ap.add_argument("--reps", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timing", action="store_true",
                    help="keep wall-clock columns (breaks byte reproducibility)")
    args = ap.parse_args()

    cfg = ExperimentConfig()
    if args.seed != cfg.output.seed:
        from dataclasses import replace
        cfg = replace(cfg, output=replace(cfg.output, seed=args.seed))
    header, rows = compare_solvers(cfg, args.n_list, xi=args.xi, reps=args.reps)

    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / "solver_comparison.csv"
    target.write_text(render_csv(header, rows, timing=args.timing), encoding="utf-8")
    print(f"wrote {target} ({len(rows)} rows)")
    for row in rows:
        n, _, _, direct_p, improved_p, direct_ms, improved_ms = row[:7]
        print(f"  n={n:>2}  direct {float(direct_p):8.4f} in {float(direct_ms):8.3f} ms"
              f"   decomposed {float(improved_p):8.4f} in {float(improved_ms):7.3f} ms")


if __name__ == "__main__":
    main()
