"""Revised two-phase simplex for the correlated-equilibrium program.

The engine solves one form: maximize ``c @ x`` subject to
``rows[:-1] @ x >= 0`` (the deviation rows), ``rows[-1] @ x == 1`` (the
normalization, a row of ones) and ``x >= 0``.  Every finite game has a
correlated equilibrium and the feasible set lies on the probability
simplex, so such a program is always feasible and bounded; an end that says
otherwise is a numerical failure and raises :class:`NumericalError`.

The standard form is fixed.  Every deviation row is negated, so its slack
is a unit column that starts basic at level 0; the normalization row gets
the only artificial.  Column ``nv + k`` is the unit column of row k, so the
starting basis is B = I.

The engine never forms a tableau.  It keeps the m x m basis inverse B⁻¹
and the basic values β = B⁻¹b, and works from the stored ``rows``:

* Pricing takes the simplex multipliers y = c_B B⁻¹ and computes every
  reduced cost with one product ``y @ rows``.
* Only the entering column is transformed (B⁻¹ a_j), and a pivot updates
  B⁻¹ and β in O(m²).

So a pivot reads ``rows`` once instead of rewriting an m x columns array,
which suits the participation-game programs: m = 2n+1 rows and 2^n columns.

Phase 1 first enters the feasible point mass with the largest objective,
if there is one: a column that is nonnegative in every deviation row.  In a
game that point mass is the best pure Nash equilibrium.  Every deviation
row has rhs 0, so phase 1 otherwise starts on a degenerate plateau;
entering a feasible point mass is one nondegenerate pivot that ends
phase 1.  With none, phase 1 runs from the identity basis.

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
are picked.  Basic values that drift below zero are clamped to zero.  All
tie-breaking is by lowest index, so a given program always produces
bit-identical output.

A result carries the dual vector, taken from one fresh solve against the
final basis columns rather than from the updated inverse, and has been
checked against primal feasibility, dual feasibility, complementary
slackness and the duality gap; a violation raises :class:`NumericalError`
instead of returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, UsageError

_PIVOT_TOL = 1e-10
_RC_TOL = 1e-9
_RESCUE_BLOCK = 1024  # candidate columns per B⁻¹A block in the rescue scan


@dataclass(frozen=True)
class Tolerances:
    feas_tol: float = 1e-8
    cs_tol: float = 1e-8
    gap_tol: float = 1e-7


@dataclass
class LinearProgram:
    """maximize c @ x  s.t.  rows[:-1] @ x >= 0,  rows[-1] @ x == 1,  x >= 0.

    The last row must be all ones.
    """

    c: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or 0 in self.rows.shape:
            raise UsageError("LP rows must be a 2-D array with at least one row and column")
        if self.c.shape != (self.num_vars,):
            raise UsageError("inconsistent LP dimensions")
        if not (np.isfinite(self.c).all() and np.isfinite(self.rows).all()):
            raise UsageError("LP data must be finite (no NaN/Inf)")
        if not (self.rows[-1] == 1.0).all():
            raise UsageError("the last LP row must be the normalization, all ones")

    @property
    def num_vars(self) -> int:
        return self.rows.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.rows.shape[0]

    @property
    def senses(self) -> tuple[str, ...]:
        return (">=",) * (self.num_constraints - 1) + ("=",)

    @property
    def rhs(self) -> np.ndarray:
        rhs = np.zeros(self.num_constraints)
        rhs[-1] = 1.0
        return rhs


@dataclass
class LpSolution:
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
    resid = np.maximum(0.0, -ax)
    resid[-1] = abs(ax[-1] - 1.0)
    bound = np.maximum(0.0, -x)
    worst = ""
    max_v = 0.0
    if resid.max() > max_v:
        k = int(resid.argmax())
        max_v = float(resid[k])
        worst = f"row[{k}] ({lp.senses[k]} {lp.rhs[k]:g})"
    if bound.max() > max_v:
        j = int(bound.argmax())
        max_v = float(bound[j])
        worst = f"x[{j}] >= 0"
    return FeasibilityReport(ok=max_v <= tol.feas_tol, max_violation=max_v,
                             row_residuals=resid, bound_violations=bound,
                             worst_label=worst)


class _Basis:
    """B⁻¹, β and the basic columns of one program in standard form.

    No standard-form matrix is built.  Column j < nv is the structural
    column ``orient * rows[:, j]``, with orient -1 on the deviation rows and
    +1 on the normalization.  Column nv + k is the unit column of row k: the
    slack of deviation row k, or for k = m-1 the artificial, column
    ``n_real``.  The starting basis holds them all, so it starts as B = I.
    """

    def __init__(self, lp: LinearProgram):
        m = lp.num_constraints
        self.rows = lp.rows
        self.orient = np.ones(m)
        self.orient[:-1] = -1.0
        self.nv = lp.num_vars
        self.n_real = self.nv + m - 1  # columns that survive into phase 2
        self.basis = np.arange(self.nv, self.nv + m)
        self.binv = np.eye(m)
        self.beta = lp.rhs * self.orient
        self.d = np.empty(self.n_real)  # reduced costs of the real columns

    def price(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs ``cost_j - y a_j`` of every real column, y = c_B B⁻¹."""
        y = cost[self.basis] @ self.binv
        d, nv = self.d, self.nv
        np.matmul(y * self.orient, self.rows, out=d[:nv])
        np.subtract(cost[:nv], d[:nv], out=d[:nv])
        d[nv:] = -y[:-1]
        d[self.basis[self.basis < self.n_real]] = 0.0
        return d

    def raw(self, j: int) -> np.ndarray:
        """Column j of the oriented standard-form matrix."""
        if j < self.nv:
            return self.orient * self.rows[:, j]
        a = np.zeros(len(self.basis))
        a[j - self.nv] = 1.0
        return a

    def column(self, j: int) -> np.ndarray:
        """The transformed column B⁻¹ a_j."""
        return self.binv @ self.raw(j)

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """B⁻¹ A[:, idx] for sorted real column indices ``idx``."""
        split = int(np.searchsorted(idx, self.nv))
        out = np.empty((len(self.basis), idx.size))
        out[:, :split] = (self.binv * self.orient) @ self.rows[:, idx[:split]]
        out[:, split:] = self.binv[:, idx[split:] - self.nv]
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


def _first_column(lp: LinearProgram) -> int:
    """The feasible point mass with the largest objective, or -1 if none is.

    Column k is feasible as a point mass when it is nonnegative in every
    deviation row; in a game that is a pure Nash equilibrium.  Ties go to
    the lowest index.
    """
    stable = np.ones(lp.num_vars, dtype=bool)
    for row in lp.rows[:-1]:
        stable &= row >= 0
    if not stable.any():
        return -1
    return int(np.argmax(np.where(stable, lp.c, -np.inf)))


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
    basis).  A column with no positive entries prices at +inf, which is an
    unbounded ray; the caller's ratio test then raises.  The candidates'
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


def _run_simplex(st: _Basis, cost: np.ndarray, budget: list[int], first: int = -1) -> None:
    """Pivot until no column prices in."""
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
            return
        alpha = st.column(j)
        r = _choose_leaving(st, alpha)
        if r < 0:
            raise NumericalError(
                f"no leaving row for column {j}: an unbounded ray, which a program "
                "on the probability simplex cannot have")
        if budget[0] <= 0:
            raise NumericalError("simplex iteration cap exceeded")
        budget[0] -= 1
        gain = d[j] * (st.beta[r] / alpha[r])
        st.pivot(r, j, alpha)
        stall = 0 if gain > 1e-12 else stall + 1


def solve(lp: LinearProgram, tol: Tolerances | None = None) -> LpSolution:
    """Two-phase simplex; returns primal and dual with certified optimality."""
    tol = tol or Tolerances()
    m, nv = lp.num_constraints, lp.num_vars
    cap = 50 * (nv + m)
    budget = [cap]
    st = _Basis(lp)
    basis, art = st.basis, st.n_real

    # --- phase 1: drive the normalization row's artificial to zero ----------
    cost1 = np.zeros(art + 1)
    cost1[art] = -1.0
    _run_simplex(st, cost1, budget, _first_column(lp))
    if st.beta[basis == art].sum() > tol.feas_tol:
        raise NumericalError(
            "phase 1 ended with a positive artificial: no point of the simplex meets "
            "the deviation rows, which a game's program always can")
    # pivot a leftover zero-level artificial out of the basis; if its row of
    # B⁻¹A is zero the row depends on the others, and the artificial stays
    # basic at zero (its dual is 0, as if the row were dropped)
    for r in np.flatnonzero(basis == art):
        rho = st.binv[r]
        row = np.concatenate([(rho * st.orient) @ lp.rows, rho[:-1]])
        cand = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
        if cand.size:
            j = int(cand[0])
            st.pivot(r, j, st.column(j))

    # --- phase 2 ------------------------------------------------------------
    c_ext = np.zeros(art + 1)
    c_ext[:nv] = lp.c
    _run_simplex(st, c_ext, budget)

    x_struct = np.zeros(nv)
    structural = basis < nv
    x_struct[basis[structural]] = np.maximum(st.beta[structural], 0.0)
    objective = float(lp.c @ x_struct)

    # --- dual from the final basis -------------------------------------------
    try:
        y_std = np.linalg.solve(st.basis_matrix().T, c_ext[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular basis while extracting dual: {exc}") from exc
    y = st.orient * y_std

    # --- certificates ---------------------------------------------------------
    report = check_feasible(lp, x_struct, tol)
    primal_v = report.max_violation
    rc = lp.c - y @ lp.rows
    # the deviation rows are '>=' rows of a maximization, so they need y <= 0
    dual_v = float(max(rc.max(initial=0.0), y[:-1].max(initial=0.0)))
    slack = lp.rows @ x_struct - lp.rhs
    cs_v = float(np.max(np.abs(y * slack), initial=0.0))
    cs_v = max(cs_v, float(np.max(np.abs(x_struct * rc), initial=0.0)))
    gap = abs(objective - float(y @ lp.rhs))

    if primal_v > tol.feas_tol or dual_v > tol.cs_tol or cs_v > tol.cs_tol or gap > tol.gap_tol:
        raise NumericalError(
            "optimality certificate failed: "
            f"primal={primal_v:.3e} dual={dual_v:.3e} cs={cs_v:.3e} gap={gap:.3e}")

    return LpSolution(x_struct, objective, y,
                      iterations=cap - budget[0],
                      max_primal_violation=primal_v, max_dual_violation=dual_v,
                      max_cs_violation=cs_v, duality_gap=gap)
