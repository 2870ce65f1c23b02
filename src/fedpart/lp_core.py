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

Phase 1 is one known pivot when some point mass is feasible: a column that
is nonnegative in every deviation row, in a game a pure Nash equilibrium.
The one with the largest objective enters in the normalization row, which
ends phase 1 with no pricing pass.  Every deviation row has rhs 0, so
phase 1 otherwise starts on a degenerate plateau; with no feasible point
mass it runs from the identity basis.

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
_STABLE_BLOCK = 1 << 14  # columns per block of the point-mass feasibility scan


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
    row_values: np.ndarray  # rows @ x
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
    k = int(resid.argmax())
    if resid[k] > max_v:
        max_v = float(resid[k])
        worst = f"row[{k}] ({lp.senses[k]} {lp.rhs[k]:g})"
    j = int(bound.argmax())
    if bound[j] > max_v:
        max_v = float(bound[j])
        worst = f"x[{j}] >= 0"
    return FeasibilityReport(ok=max_v <= tol.feas_tol, max_violation=max_v,
                             row_values=ax, bound_violations=bound,
                             worst_label=worst)


class _Basis:
    """B⁻¹, β and the basic columns of one program in standard form.

    No standard-form matrix is built.  Column j < nv is the structural
    column ``orient * rows[:, j]``, with orient -1 on the deviation rows and
    +1 on the normalization.  Column nv + k is the unit column of row k: the
    slack of deviation row k, or for k = m-1 the artificial, column
    ``n_real``.  The starting basis holds them all, so it starts as B = I.
    B⁻¹ and β are the two parts of one m x (m+1) array, so that a pivot
    updates both with one rank-one product.
    """

    def __init__(self, lp: LinearProgram):
        m = lp.num_constraints
        self.rows = lp.rows
        self.orient = np.ones(m)
        self.orient[:-1] = -1.0
        self.nv = lp.num_vars
        self.n_real = self.nv + m - 1  # columns that survive into phase 2
        self.basis = np.arange(self.nv, self.nv + m)
        self._inv_beta = np.zeros((m, m + 1))
        self._inv_beta.flat[::m + 2] = 1.0  # B⁻¹ = I
        self.binv = self._inv_beta[:, :m]
        self.beta = self._inv_beta[:, m]
        self.beta[:] = lp.rhs * self.orient
        # reduced costs of every column; the artificial's slot, d[n_real],
        # is written when it is basic and read by no rule
        self.d = np.empty(self.n_real + 1)
        self._d_real = self.d[:self.n_real]
        self._d_struct = self.d[:self.nv]
        self._d_slack = self.d[self.nv:self.n_real]

    def price(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs ``cost_j - y a_j`` of every real column, y = c_B B⁻¹."""
        y = cost[self.basis] @ self.binv
        np.matmul(y * self.orient, self.rows, out=self._d_struct)
        np.subtract(cost[:self.nv], self._d_struct, out=self._d_struct)
        np.negative(y[:-1], out=self._d_slack)
        self.d[self.basis] = 0.0
        return self._d_real

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
        split = int(idx.searchsorted(self.nv))
        out = np.empty((len(self.basis), idx.size))
        out[:, :split] = (self.binv * self.orient) @ self.rows[:, idx[:split]]
        out[:, split:] = self.binv[:, idx[split:] - self.nv]
        return out

    def pivot(self, r: int, j: int, alpha: np.ndarray) -> None:
        """Make column j basic in row r, given its transformed column ``alpha``."""
        inv_beta = self._inv_beta
        pivot_row = inv_beta[r] / alpha[r]
        # row r is overwritten below, so alpha[r] need not be zeroed first
        inv_beta -= alpha[:, None] * pivot_row
        inv_beta[r] = pivot_row
        # keep β nonnegative: drift below zero poisons the ratio test
        np.maximum(self.beta, 0.0, out=self.beta)
        self.basis[r] = j

    def basis_matrix(self) -> np.ndarray:
        """The basic columns of the oriented standard-form matrix, built afresh."""
        m = len(self.basis)
        slack = (self.basis >= self.nv).nonzero()[0]
        out = self.orient[:, None] * self.rows[:, np.minimum(self.basis, self.nv - 1)]
        out[:, slack] = 0.0
        out[self.basis[slack] - self.nv, slack] = 1.0
        return out


def _first_column(lp: LinearProgram) -> int:
    """The feasible point mass with the largest objective, or -1 if none is.

    Column k is feasible as a point mass when it is nonnegative in every
    deviation row; in a game that is a pure Nash equilibrium.  Ties go to
    the lowest index.
    """
    stable = np.empty(lp.num_vars, dtype=bool)
    for start in range(0, lp.num_vars, _STABLE_BLOCK):
        block = lp.rows[:-1, start:start + _STABLE_BLOCK]
        np.logical_and.reduce(block >= 0, axis=0, out=stable[start:start + _STABLE_BLOCK])
    if not stable.any():
        return -1
    return int(np.where(stable, lp.c, -np.inf).argmax())


def _choose_entering(d: np.ndarray, bland: bool) -> int:
    if bland:
        idx = (d > _RC_TOL).nonzero()[0]
        return int(idx[0]) if idx.size else -1
    j = int(d.argmax())
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
    cand = (d > _RC_TOL).nonzero()[0]
    best, best_gain = -1, 1e-12
    beta = st.beta[:, None]
    for start in range(0, cand.size, _RESCUE_BLOCK):
        idx = cand[start:start + _RESCUE_BLOCK]
        cols = st.columns(idx)
        ratio = np.full_like(cols, np.inf)
        np.divide(beta, cols, out=ratio, where=cols > _PIVOT_TOL)
        gain = d[idx] * ratio.min(axis=0)
        k = int(gain.argmax())
        if gain[k] > best_gain:
            best, best_gain = int(idx[k]), gain[k]
    return best


def _choose_leaving(st: _Basis, alpha: np.ndarray) -> int:
    rows = (alpha > _PIVOT_TOL).nonzero()[0]
    if not rows.size:
        return -1
    ratios = st.beta[rows] / alpha[rows]
    k = int(ratios.argmin())
    tied = ratios == ratios[k]
    if np.count_nonzero(tied) == 1:
        return int(rows[k])
    cand = rows[tied]
    # lexicographic tie-break: the candidate rows of B⁻¹ scaled by the pivot
    # column, compared column by column, then the lowest basic index; B
    # starts as I, so these rows start lexicographically positive.  lexsort
    # takes its last key as the primary one.
    scaled = st.binv[cand] * (1.0 / alpha[cand])[:, None]
    return int(cand[np.lexsort((st.basis[cand], *scaled.T[::-1]))[0]])


def _run_simplex(st: _Basis, cost: np.ndarray, budget: list[int]) -> None:
    """Pivot until no column prices in."""
    stall = 0
    stall_limit = max(50, 2 * len(st.basis))
    while True:
        d = st.price(cost)
        if stall:
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
    first = _first_column(lp)
    if first >= 0:
        # The point mass is <= 0 on every oriented deviation row, so the
        # ratio test can only pick the normalization row; after that pivot
        # every basic phase-1 cost is 0 and no column prices in.
        st.pivot(m - 1, first, st.column(first))
        budget[0] -= 1
    else:
        cost1 = np.zeros(art + 1)
        cost1[art] = -1.0
        _run_simplex(st, cost1, budget)
    art_rows = (basis == art).nonzero()[0]  # at most one row
    if art_rows.size and st.beta[art_rows[0]] > tol.feas_tol:
        raise NumericalError(
            "phase 1 ended with a positive artificial: no point of the simplex meets "
            "the deviation rows, which a game's program always can")
    # pivot a leftover zero-level artificial out of the basis; if its row of
    # B⁻¹A is zero the row depends on the others, and the artificial stays
    # basic at zero (its dual is 0, as if the row were dropped)
    for r in art_rows:
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
    rhs = lp.rhs
    slack = report.row_values - rhs
    cs_v = float(np.abs(y * slack).max(initial=0.0))
    cs_v = max(cs_v, float(np.abs(x_struct * rc).max(initial=0.0)))
    gap = abs(objective - float(y @ rhs))

    if primal_v > tol.feas_tol or dual_v > tol.cs_tol or cs_v > tol.cs_tol or gap > tol.gap_tol:
        worst = f" (worst: {report.worst_label})" if primal_v > tol.feas_tol else ""
        raise NumericalError(
            "optimality certificate failed: "
            f"primal={primal_v:.3e}{worst} dual={dual_v:.3e} cs={cs_v:.3e} gap={gap:.3e}")

    return LpSolution(x_struct, objective, y,
                      iterations=cap - budget[0],
                      max_primal_violation=primal_v, max_dual_violation=dual_v,
                      max_cs_violation=cs_v, duality_gap=gap)
