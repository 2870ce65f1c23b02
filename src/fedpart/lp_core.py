"""Dense two-phase simplex for small maximization LPs with a dual certificate.

Problem form: maximize ``c @ x`` subject to ``rows[k] @ x >= rhs[k]`` or
``rows[k] @ x == rhs[k]`` and ``x >= 0``.

The entering rule is Dantzig's (largest reduced cost, lowest index on ties).
Immediately after any degenerate pivot it switches to a rescue scan that
prices every candidate column by its actual objective gain (reduced cost
times min-ratio) and takes the best strictly improving pivot; when every
pivot is degenerate it stays with Dantzig, dropping to Bland's lowest-index
rule only after a long degenerate run.
The leaving rule breaks ratio-test ties lexicographically, which is the
classic symbolic perturbation: it makes every pivot strictly improving in
the perturbed sense, so no basis can repeat under any entering rule, and
termination is finite regardless of how entering columns are picked.
The rescue scan matters for the participation-game programs: every
deviation row sits at rhs 0, so phase 1 starts on a plateau where the one
artificial (ratio 1) always loses the ratio test to a zero-rhs row, and
Dantzig/Bland wander that plateau for hundreds of thousands of bases.  The
gain scan instead jumps straight to a column that can move the artificial
out.  All tie-breaking is by lowest index, so a given program always
produces bit-identical output.

An ``optimal`` result carries the dual vector and has been checked against
primal feasibility, dual feasibility, complementary slackness and the duality
gap; a violation raises :class:`NumericalError` instead of returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericalError, UsageError

_PIVOT_TOL = 1e-10
_RC_TOL = 1e-9

GE = ">="
EQ = "="


@dataclass(frozen=True)
class Tolerances:
    feas_tol: float = 1e-8
    cs_tol: float = 1e-8
    gap_tol: float = 1e-7


@dataclass
class LinearProgram:
    """maximize c @ x  s.t.  rows @ x (>= | =) rhs,  x >= 0."""

    c: np.ndarray
    rows: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rows.ndim != 2:
            self.rows = self.rows.reshape(len(self.rhs), -1)
        m, nv = self.rows.shape
        if self.c.shape != (nv,) or self.rhs.shape != (m,) or len(self.senses) != m:
            raise UsageError("inconsistent LP dimensions")
        if any(s not in (GE, EQ) for s in self.senses):
            raise UsageError(f"constraint senses must be '{GE}' or '{EQ}'")
        if not (np.isfinite(self.c).all() and np.isfinite(self.rows).all()
                and np.isfinite(self.rhs).all()):
            raise UsageError("LP data must be finite (no NaN/Inf)")

    @property
    def num_vars(self) -> int:
        return self.rows.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.rows.shape[0]


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    objective_value: float
    dual: np.ndarray
    iterations: int = 0
    max_primal_violation: float = 0.0
    max_dual_violation: float = 0.0
    max_cs_violation: float = 0.0
    duality_gap: float = 0.0


@dataclass
class FeasibilityReport:
    ok: bool
    max_violation: float
    row_residuals: np.ndarray
    bound_violations: np.ndarray
    worst_label: str = ""


def check_feasible(lp: LinearProgram, x: Sequence[float],
                   tol: Tolerances | None = None) -> FeasibilityReport:
    """Residuals of ``x`` against every constraint and variable bound."""
    tol = tol or Tolerances()
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.num_vars,):
        raise UsageError("x has the wrong length for this LP")
    ax = lp.rows @ x
    resid = np.empty(lp.num_constraints)
    for k, sense in enumerate(lp.senses):
        if sense == GE:
            resid[k] = max(0.0, lp.rhs[k] - ax[k])
        else:
            resid[k] = abs(ax[k] - lp.rhs[k])
    bound = np.maximum(0.0, -x)
    worst = ""
    max_v = 0.0
    if resid.size and resid.max() > max_v:
        k = int(resid.argmax())
        max_v = float(resid[k])
        worst = f"row[{k}] ({lp.senses[k]} {lp.rhs[k]:g})"
    if bound.size and bound.max() > max_v:
        j = int(bound.argmax())
        max_v = float(bound[j])
        worst = f"x[{j}] >= 0"
    return FeasibilityReport(ok=max_v <= tol.feas_tol, max_violation=max_v,
                             row_residuals=resid, bound_violations=bound,
                             worst_label=worst)


def _pivot(T: np.ndarray, W: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Pivot on (r, j); ``W`` is scratch space of T's shape for the rank-1 update."""
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    np.multiply.outer(col, T[r], out=W)
    T -= W
    T[:, j] = 0.0
    T[r, j] = 1.0
    # keep the rhs column nonnegative: drift below zero poisons the ratio test
    np.maximum(T[:-1, -1], 0.0, out=T[:-1, -1])
    basis[r] = j


def _choose_entering(obj_row: np.ndarray, allowed: np.ndarray, bland: bool) -> int:
    rc = np.where(allowed, obj_row, -np.inf)
    if bland:
        idx = np.nonzero(rc > _RC_TOL)[0]
        return int(idx[0]) if idx.size else -1
    j = int(np.argmax(rc))
    return j if rc[j] > _RC_TOL else -1


def _choose_entering_rescue(T: np.ndarray, allowed: np.ndarray, m: int) -> int:
    """Plateau escape: the column whose pivot yields the largest actual gain.

    On a degenerate plateau every Dantzig/Bland pivot has ratio zero, so the
    objective row never moves.  This scan prices every candidate column by
    reduced cost times its min-ratio — the true objective gain of pivoting
    there — and returns the best strictly improving column, or -1 when every
    available pivot is degenerate (then only Bland's walk can change the
    basis).  A column with no positive entries prices at +inf, which is the
    unbounded ray and is handled by the caller's ratio test.
    """
    obj = T[m, :-1]
    cand = np.nonzero(allowed & (obj > _RC_TOL))[0]
    if cand.size == 0:
        return -1
    # running row-by-row minimum: no (m x cand) ratio matrix
    min_ratio = np.full(cand.size, np.inf)
    ratio = np.empty(cand.size)
    for k in range(m):
        col = T[k, cand]
        ratio.fill(np.inf)
        np.divide(T[k, -1], col, out=ratio, where=col > _PIVOT_TOL)
        np.minimum(min_ratio, ratio, out=min_ratio)
    gain = obj[cand] * min_ratio
    best = int(np.argmax(gain))
    if gain[best] <= 1e-12:
        return -1
    return int(cand[best])


def _choose_leaving(T: np.ndarray, basis: np.ndarray, m: int, j: int,
                    lex_order: np.ndarray) -> int:
    col = T[:m, j]
    ok = col > _PIVOT_TOL
    if not ok.any():
        return -1
    ratios = np.full(m, np.inf)
    ratios[ok] = T[:m, -1][ok] / col[ok]
    best = ratios.min()
    cand = np.nonzero(ratios == best)[0]
    if cand.size > 1:
        # lexicographic tie-break: compare whole rows scaled by the pivot
        # column, scanning the initial basis columns first so rows start
        # lexicographically positive
        inv = 1.0 / col[cand]
        for c in lex_order:
            vals = T[cand, c] * inv
            keep = vals == vals.min()
            if not keep.all():
                cand = cand[keep]
                inv = inv[keep]
            if cand.size == 1:
                break
    return int(cand[np.argmin(basis[cand])]) if cand.size > 1 else int(cand[0])


def _run_simplex(T: np.ndarray, W: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
                 m: int, budget: list[int], lex_order: np.ndarray) -> str:
    """Iterate to optimality ('optimal') or detect 'unbounded'."""
    stall = 0
    stall_limit = max(50, 2 * m)
    while True:
        if stall:
            # The last pivot was degenerate, so we are on a plateau.  Look
            # for a pivot with a strictly positive ratio anywhere — it leaves
            # the plateau in one step.  This must happen immediately: a few
            # blind degenerate pivots can scramble the basis so that no
            # single-pivot escape exists anywhere along the subsequent walk.
            # When no escape exists yet, keep Dantzig, and drop to Bland's
            # rule only after a long run (its lowest-index walk is the
            # worst-case-proof fallback, not a good default).
            j = _choose_entering_rescue(T, allowed, m)
            if j < 0:
                j = _choose_entering(T[m, :-1], allowed,
                                     bland=stall >= stall_limit)
        else:
            j = _choose_entering(T[m, :-1], allowed, bland=False)
        if j < 0:
            return "optimal"
        r = _choose_leaving(T, basis, m, j, lex_order)
        if r < 0:
            return "unbounded"
        if budget[0] <= 0:
            raise NumericalError("simplex iteration cap exceeded")
        budget[0] -= 1
        before = T[m, -1]
        _pivot(T, W, basis, r, j)
        if T[m, -1] < before - 1e-12:  # objective row stores -objective
            stall = 0
        else:
            stall += 1


def solve(lp: LinearProgram, tol: Tolerances | None = None) -> LpSolution:
    """Two-phase simplex; returns primal and dual with certified optimality."""
    tol = tol or Tolerances()
    m, nv = lp.num_constraints, lp.num_vars
    budget = [50 * (nv + m)]

    if m == 0:
        if (lp.c > _RC_TOL).any():
            return LpSolution("unbounded", np.zeros(nv), np.inf, np.zeros(0))
        return LpSolution("optimal", np.zeros(nv), 0.0, np.zeros(0))

    # --- standard form -----------------------------------------------------
    # '>=' rows with nonpositive rhs are flipped to '<=' so their slack can
    # start basic; only unflipped '>=' rows and equalities need artificials.
    orient = np.ones(m)
    aux_sign = np.zeros(m)  # +1 slack, -1 surplus, 0 none (equality)
    needs_art = np.zeros(m, dtype=bool)
    for k, sense in enumerate(lp.senses):
        if sense == GE:
            if lp.rhs[k] <= 0:
                orient[k] = -1.0
                aux_sign[k] = 1.0
            else:
                aux_sign[k] = -1.0
                needs_art[k] = True
        else:
            if lp.rhs[k] < 0:
                orient[k] = -1.0
            needs_art[k] = True

    aux_rows = np.nonzero(aux_sign != 0)[0]
    n_aux = len(aux_rows)
    art_rows = np.nonzero(needs_art)[0]
    n_art = len(art_rows)
    n_real = nv + n_aux          # columns that survive into phase 2
    ncols = n_real + n_art

    # the tableau is built straight from the oriented rows; W is the one
    # workspace every pivot's rank-1 update reuses
    T = np.zeros((m + 1, ncols + 1))
    np.multiply(lp.rows, orient[:, None], out=T[:m, :nv])
    T[:m, -1] = lp.rhs * orient
    W = np.empty_like(T)
    basis = np.empty(m, dtype=np.int64)
    for idx, k in enumerate(aux_rows):
        T[k, nv + idx] = aux_sign[k]
        if not needs_art[k]:
            basis[k] = nv + idx
    for idx, k in enumerate(art_rows):
        T[k, n_real + idx] = 1.0
        basis[k] = n_real + idx

    allowed = np.zeros(ncols, dtype=bool)
    allowed[:n_real] = True  # artificial columns never (re)enter

    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis] = False
    lex_order = np.concatenate([basis, np.flatnonzero(nonbasic)])

    iterations_used = lambda: 50 * (nv + m) - budget[0]

    # --- phase 1 ------------------------------------------------------------
    if n_art:
        cost1 = np.zeros(ncols)
        cost1[n_real:] = -1.0
        T[m, :-1] = cost1
        T[m, -1] = 0.0
        for k in range(m):
            if cost1[basis[k]] != 0.0:
                T[m] -= cost1[basis[k]] * T[k]
        status = _run_simplex(T, W, basis, allowed, m, budget, lex_order)
        if status != "optimal":
            raise NumericalError("phase 1 reported unbounded; artificial objective is bounded")
        # top row stores -objective, so T[m, -1] equals the artificial sum
        if T[m, -1] > tol.feas_tol:
            return LpSolution("infeasible", np.zeros(nv), np.nan, np.zeros(m),
                              iterations=iterations_used())
        # pivot leftover artificials out of the basis; drop rows that are
        # linearly dependent on earlier ones
        drop = []
        for r in range(m):
            if basis[r] >= n_real:
                cand = np.nonzero(np.abs(T[r, :n_real]) > _PIVOT_TOL)[0]
                if cand.size:
                    _pivot(T, W, basis, r, int(cand[0]))
                    T[r, -1] = max(T[r, -1], 0.0)
                else:
                    drop.append(r)
        if drop:
            keep = [r for r in range(m) if r not in drop]
            T = np.vstack([T[keep], T[m:]])
            W = W[:len(keep) + 1]
            basis = basis[keep]
        else:
            keep = list(range(m))
    else:
        keep = list(range(m))
    m_eff = len(keep)

    # --- phase 2 ------------------------------------------------------------
    c_ext = np.zeros(ncols)
    c_ext[:nv] = lp.c
    T[m_eff, :-1] = c_ext
    T[m_eff, -1] = 0.0
    for k in range(m_eff):
        if c_ext[basis[k]] != 0.0:
            T[m_eff] -= c_ext[basis[k]] * T[k]
    status = _run_simplex(T, W, basis, allowed, m_eff, budget, lex_order)
    if status == "unbounded":
        return LpSolution("unbounded", np.zeros(nv), np.inf, np.zeros(m),
                          iterations=iterations_used())

    x = np.zeros(n_real)
    x[basis] = np.maximum(T[:m_eff, -1], 0.0)
    x_struct = x[:nv].copy()
    objective = float(lp.c @ x_struct)

    # --- dual from the final basis -------------------------------------------
    # B holds the m_eff basic columns of the oriented standard-form matrix
    B = np.zeros((m_eff, m_eff))
    row_pos = {k: pos for pos, k in enumerate(keep)}
    for pos, j in enumerate(basis):
        if j < nv:
            B[:, pos] = lp.rows[keep, j] * orient[keep]
        else:
            k = aux_rows[j - nv]
            if k in row_pos:
                B[row_pos[k], pos] = aux_sign[k]
    try:
        y_std = np.linalg.solve(B.T, c_ext[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular basis while extracting dual: {exc}") from exc
    y = np.zeros(m)
    for pos, k in enumerate(keep):
        y[k] = orient[k] * y_std[pos]

    # --- certificates ---------------------------------------------------------
    report = check_feasible(lp, x_struct, tol)
    primal_v = report.max_violation
    rc = lp.c - y @ lp.rows
    dual_v = float(rc.max(initial=0.0))
    for k, sense in enumerate(lp.senses):
        if sense == GE:
            dual_v = max(dual_v, float(y[k]))  # '>=' rows need y <= 0
    slack = lp.rows @ x_struct - lp.rhs
    cs_v = float(np.max(np.abs(y * slack), initial=0.0))
    cs_v = max(cs_v, float(np.max(np.abs(x_struct * rc), initial=0.0)))
    gap = abs(objective - float(y @ lp.rhs))

    if primal_v > tol.feas_tol or dual_v > tol.cs_tol or cs_v > tol.cs_tol or gap > tol.gap_tol:
        raise NumericalError(
            "optimality certificate failed: "
            f"primal={primal_v:.3e} dual={dual_v:.3e} cs={cs_v:.3e} gap={gap:.3e}")

    return LpSolution("optimal", x_struct, objective, y,
                      iterations=iterations_used(),
                      max_primal_violation=primal_v, max_dual_violation=dual_v,
                      max_cs_violation=cs_v, duality_gap=gap)
