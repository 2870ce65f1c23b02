"""Revised two-phase simplex for maximization LPs with a dual certificate.

Problem form: maximize ``c @ x`` subject to ``rows[k] @ x >= rhs[k]`` or
``rows[k] @ x == rhs[k]`` and ``x >= 0``.

The engine never forms a tableau.  It keeps the m x m basis inverse B⁻¹
and the basic values β = B⁻¹b, and works from the stored ``rows``:

* Pricing takes the simplex multipliers y = c_B B⁻¹ and computes every
  reduced cost with one product ``y @ rows``.
* Only the entering column is transformed (B⁻¹ a_j), and a pivot updates
  B⁻¹ and β in O(m²).

So a pivot reads ``rows`` once instead of rewriting an m x columns array,
which suits the participation-game programs: m = 2n+1 rows and 2^n columns.

The entering rule is Dantzig's (largest reduced cost, lowest index on ties).
Immediately after any degenerate pivot it switches to a rescue scan that
prices every candidate column by its actual objective gain (reduced cost
times min-ratio) and takes the best strictly improving pivot; the scan
forms the candidates' B⁻¹A columns in fixed-size blocks, so its memory does
not grow with the column count.  When every pivot is degenerate it stays
with Dantzig, dropping to Bland's lowest-index rule only after a long
degenerate run.
The leaving rule breaks ratio-test ties lexicographically on the rows of
B⁻¹, which is the classic symbolic perturbation: it makes every pivot
strictly improving in the perturbed sense, so no basis can repeat under any
entering rule, and termination is finite regardless of how entering columns
are picked.  Basic values that drift below zero are clamped to zero.

A caller that knows a good first vertex passes ``first_column``: that
column enters at the first pivot when it prices in.  For the participation
game a pure Nash equilibrium is such a column.  Every deviation row has rhs
0, so phase 1 otherwise starts on a degenerate plateau; entering a pure
equilibrium is one nondegenerate pivot that ends phase 1.  All tie-breaking
is by lowest index, so a given program always produces bit-identical
output.

An ``optimal`` result carries the dual vector, taken from one fresh solve
against the final basis columns rather than from the updated inverse, and
has been checked against primal feasibility, dual feasibility,
complementary slackness and the duality gap; a violation raises
:class:`NumericalError` instead of returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, UsageError

_PIVOT_TOL = 1e-10
_RC_TOL = 1e-9
_RESCUE_BLOCK = 1024  # candidate columns per B⁻¹A block in the rescue scan

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




class _Basis:
    """B⁻¹, β and the basic columns of one LP in standard form.

    No standard-form matrix is built.  Column j < nv is the structural
    column ``orient * rows[:, j]``; column nv + t is the slack (+1) or
    surplus (-1) of row ``aux_rows[t]``; column n_real + t is the
    artificial of row ``art_rows[t]``.  The starting basis holds one slack
    or artificial per row, each a unit column, so it starts as B = I.
    """

    def __init__(self, lp: LinearProgram, orient: np.ndarray, aux_rows: np.ndarray,
                 aux_sign: np.ndarray, art_rows: np.ndarray, basis: np.ndarray):
        self.rows = lp.rows
        self.orient = orient
        self.nv = lp.num_vars
        self.aux_rows = aux_rows
        self.aux_sign = aux_sign
        self.art_rows = art_rows
        self.n_real = self.nv + len(aux_rows)
        self.basis = basis
        self.binv = np.eye(len(basis))
        self.beta = lp.rhs * orient
        self.d = np.empty(self.n_real)  # reduced costs of the real columns

    def price(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs ``cost_j - y a_j`` of every real column, y = c_B B⁻¹."""
        y = cost[self.basis] @ self.binv
        d, nv = self.d, self.nv
        np.matmul(y * self.orient, self.rows, out=d[:nv])
        np.subtract(cost[:nv], d[:nv], out=d[:nv])
        d[nv:] = -y[self.aux_rows] * self.aux_sign
        d[self.basis[self.basis < self.n_real]] = 0.0
        return d

    def raw(self, j: int) -> np.ndarray:
        """Column j of the oriented standard-form matrix."""
        if j < self.nv:
            return self.orient * self.rows[:, j]
        a = np.zeros(len(self.basis))
        if j < self.n_real:
            a[self.aux_rows[j - self.nv]] = self.aux_sign[j - self.nv]
        else:
            a[self.art_rows[j - self.n_real]] = 1.0
        return a

    def column(self, j: int) -> np.ndarray:
        """The transformed column B⁻¹ a_j."""
        return self.binv @ self.raw(j)

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """B⁻¹ A[:, idx] for sorted real column indices ``idx``."""
        split = int(np.searchsorted(idx, self.nv))
        out = np.empty((len(self.basis), idx.size))
        out[:, :split] = (self.binv * self.orient) @ self.rows[:, idx[:split]]
        aux = idx[split:] - self.nv
        out[:, split:] = self.binv[:, self.aux_rows[aux]] * self.aux_sign[aux]
        return out

    def pivot(self, r: int, j: int, alpha: np.ndarray) -> None:
        """Make column j basic in row r, given its transformed column ``alpha``."""
        binv, beta = self.binv, self.beta
        pivot_row = binv[r] / alpha[r]
        pivot_value = beta[r] / alpha[r]
        col = alpha.copy()
        col[r] = 0.0
        binv -= np.outer(col, pivot_row)
        beta -= col * pivot_value
        binv[r] = pivot_row
        beta[r] = pivot_value
        # keep β nonnegative: drift below zero poisons the ratio test
        np.maximum(beta, 0.0, out=beta)
        self.basis[r] = j

    def basis_matrix(self) -> np.ndarray:
        """The basic columns of the oriented standard-form matrix, built afresh."""
        return np.column_stack([self.raw(j) for j in self.basis])


def _choose_entering(d: np.ndarray, bland: bool) -> int:
    if bland:
        idx = np.flatnonzero(d > _RC_TOL)
        return int(idx[0]) if idx.size else -1
    j = int(np.argmax(d))
    return j if d[j] > _RC_TOL else -1


def _choose_entering_rescue(st: _Basis, d: np.ndarray) -> int:
    """Plateau escape: the column whose pivot yields the largest actual gain.

    On a degenerate plateau every Dantzig/Bland pivot has ratio zero, so the
    objective never moves.  This scan prices every candidate column by
    reduced cost times its min-ratio — the true objective gain of pivoting
    there — and returns the best strictly improving column, or -1 when every
    available pivot is degenerate (then only Bland's walk can change the
    basis).  A column with no positive entries prices at +inf, which is the
    unbounded ray and is handled by the caller's ratio test.  The candidates'
    B⁻¹A columns are formed one block at a time.
    """
    cand = np.flatnonzero(d > _RC_TOL)
    best, best_gain = -1, 1e-12
    beta = st.beta[:, None]
    for start in range(0, cand.size, _RESCUE_BLOCK):
        idx = cand[start:start + _RESCUE_BLOCK]
        cols = st.columns(idx)
        ratio = np.full_like(cols, np.inf)
        np.divide(beta, cols, out=ratio, where=cols > _PIVOT_TOL)
        gain = d[idx] * ratio.min(axis=0)
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best, best_gain = int(idx[k]), gain[k]
    return best


def _choose_leaving(st: _Basis, alpha: np.ndarray) -> int:
    ok = alpha > _PIVOT_TOL
    if not ok.any():
        return -1
    ratios = np.full(alpha.size, np.inf)
    ratios[ok] = st.beta[ok] / alpha[ok]
    cand = np.flatnonzero(ratios == ratios.min())
    if cand.size > 1:
        # lexicographic tie-break: compare the candidate rows of B⁻¹ scaled
        # by the pivot column; B starts as I, so these rows start
        # lexicographically positive
        inv = 1.0 / alpha[cand]
        for c in range(st.binv.shape[1]):
            vals = st.binv[cand, c] * inv
            keep = vals == vals.min()
            if not keep.all():
                cand = cand[keep]
                inv = inv[keep]
            if cand.size == 1:
                break
    return int(cand[np.argmin(st.basis[cand])]) if cand.size > 1 else int(cand[0])


def _run_simplex(st: _Basis, cost: np.ndarray, budget: list[int], first: int = -1) -> str:
    """Iterate to optimality ('optimal') or detect 'unbounded'."""
    stall = 0
    stall_limit = max(50, 2 * len(st.basis))
    while True:
        d = st.price(cost)
        if first >= 0 and d[first] > _RC_TOL:
            j = first
        elif stall:
            # The last pivot was degenerate, so we are on a plateau.  Look
            # for a pivot with a strictly positive ratio anywhere — it leaves
            # the plateau in one step.  This must happen immediately: a few
            # blind degenerate pivots can scramble the basis so that no
            # single-pivot escape exists anywhere along the subsequent walk.
            # When no escape exists yet, keep Dantzig, and drop to Bland's
            # rule only after a long run (its lowest-index walk is the
            # worst-case-proof fallback, not a good default).
            j = _choose_entering_rescue(st, d)
            if j < 0:
                j = _choose_entering(d, bland=stall >= stall_limit)
        else:
            j = _choose_entering(d, bland=False)
        first = -1
        if j < 0:
            return "optimal"
        alpha = st.column(j)
        r = _choose_leaving(st, alpha)
        if r < 0:
            return "unbounded"
        if budget[0] <= 0:
            raise NumericalError("simplex iteration cap exceeded")
        budget[0] -= 1
        gain = d[j] * (st.beta[r] / alpha[r])
        st.pivot(r, j, alpha)
        stall = 0 if gain > 1e-12 else stall + 1


def solve(lp: LinearProgram, tol: Tolerances | None = None,
          first_column: int | None = None) -> LpSolution:
    """Two-phase simplex; returns primal and dual with certified optimality.

    ``first_column``, a structural column index, enters at the first pivot
    when its reduced cost is positive; otherwise the entering rule picks.
    """
    tol = tol or Tolerances()
    m, nv = lp.num_constraints, lp.num_vars
    budget = [50 * (nv + m)]
    if first_column is not None and not 0 <= first_column < nv:
        raise UsageError(f"first_column {first_column} is not a column of the LP")
    first = -1 if first_column is None else int(first_column)

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

    aux_rows = np.flatnonzero(aux_sign != 0)
    art_rows = np.flatnonzero(needs_art)
    n_real = nv + len(aux_rows)          # columns that survive into phase 2
    basis = np.empty(m, dtype=np.int64)
    for idx, k in enumerate(aux_rows):
        if not needs_art[k]:
            basis[k] = nv + idx
    for idx, k in enumerate(art_rows):
        basis[k] = n_real + idx
    st = _Basis(lp, orient, aux_rows, aux_sign[aux_rows], art_rows, basis)

    iterations_used = lambda: 50 * (nv + m) - budget[0]

    # --- phase 1 ------------------------------------------------------------
    if art_rows.size:
        cost1 = np.zeros(n_real + art_rows.size)
        cost1[n_real:] = -1.0
        if _run_simplex(st, cost1, budget, first) != "optimal":
            raise NumericalError("phase 1 reported unbounded; artificial objective is bounded")
        first = -1
        if st.beta[basis >= n_real].sum() > tol.feas_tol:
            return LpSolution("infeasible", np.zeros(nv), np.nan, np.zeros(m),
                              iterations=iterations_used())
        # pivot leftover artificials out of the basis; an artificial whose
        # row of B⁻¹A is zero marks a row dependent on the others, and it
        # stays basic at zero (its dual is 0, as if the row were dropped)
        for r in range(m):
            if basis[r] >= n_real:
                rho = st.binv[r]
                row = np.concatenate([(rho * orient) @ lp.rows,
                                      rho[aux_rows] * st.aux_sign])
                cand = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
                if cand.size:
                    j = int(cand[0])
                    st.pivot(r, j, st.column(j))

    # --- phase 2 ------------------------------------------------------------
    c_ext = np.zeros(n_real + art_rows.size)
    c_ext[:nv] = lp.c
    if _run_simplex(st, c_ext, budget, first) == "unbounded":
        return LpSolution("unbounded", np.zeros(nv), np.inf, np.zeros(m),
                          iterations=iterations_used())

    x_struct = np.zeros(nv)
    structural = basis < nv
    x_struct[basis[structural]] = np.maximum(st.beta[structural], 0.0)
    objective = float(lp.c @ x_struct)

    # --- dual from the final basis -------------------------------------------
    try:
        y_std = np.linalg.solve(st.basis_matrix().T, c_ext[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular basis while extracting dual: {exc}") from exc
    y = orient * y_std

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
