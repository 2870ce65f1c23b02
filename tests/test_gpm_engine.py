"""The exact GPM solve: memory footprint, work done once, pinned pivot paths."""

import tracemalloc

import numpy as np
import pytest

from fedpart import game_model as gm
from fedpart import lp_core
from fedpart.equilibrium import build_gpm, solve_gpm


def _phase1_tableau_bytes(lp: lp_core.LinearProgram) -> int:
    """Bytes of the dense (m+1) x (ncols+1) phase-1 tableau of ``lp``."""
    m = lp.num_constraints
    ge = [s == lp_core.GE for s in lp.senses]
    artificial = sum(1 for g, b in zip(ge, lp.rhs) if not g or b > 0)
    ncols = lp.num_vars + sum(ge) + artificial
    return 8 * (m + 1) * (ncols + 1)


def test_solve_peak_memory_is_bounded_by_the_tableau():
    # the tableau, one pivot workspace of the same shape, and row-sized vectors
    lp = build_gpm(gm.random_devices(12, 3)).lp
    tableau = _phase1_tableau_bytes(lp)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol = lp_core.solve(lp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak <= 3 * tableau, f"peak {peak} B is {peak / tableau:.2f}x the tableau"


def test_solve_gpm_builds_the_profit_tensor_once(monkeypatch):
    calls = []
    real = gm.profit_tensor

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gm, "profit_tensor", counting)
    solve_gpm(gm.random_devices(8, 0))
    assert len(calls) == 1


# Recorded from the dense tableau engine before its copies were removed.
# The support and the pivot count fix the pivot path; hashes of G are not
# pinned, because the profit tensor's matmul may round differently under
# another BLAS.  The distinct-size game runs the rescue scan and the
# lexicographic ratio-test tie-break many times.
DISTINCT_11 = [113.56, 728.47, 459.002, 718.247, 165.023, 922.207, 980.866,
               175.545, 724.887, 543.1, 420.258]


@pytest.mark.parametrize("devices, iterations, support, objective", [
    (gm.random_devices(10, 2), 8, [1, 3, 5, 33, 65, 257], 2.991769765514954),
    ([gm.DeviceProfile(id=i, data_size=s) for i, s in enumerate(DISTINCT_11)],
     362, [32, 64, 66, 72, 258, 320], 4.128071541904994),
], ids=["two-size-n10", "distinct-n11"])
def test_pivot_path_is_pinned(devices, iterations, support, objective):
    sol = solve_gpm(devices)
    assert sol.lp_solution.iterations == iterations
    assert np.flatnonzero(sol.distribution.probabilities > 0).tolist() == support
    assert sol.total_profit == pytest.approx(objective, abs=1e-12)
