"""Dense simplex for small equality-form linear programs.

Solves min c.x subject to A x = b, x >= 0 from a basis of one artificial
variable per row, in two phases on one tableau.  Both phases follow
Bland's finite rules, which rule out cycling and make every pivot
sequence reproducible, and both pick their pivot by one tie rule: among
ratios within RATIO_TIE_TOL of the least, the lowest name (Bland, Math.
Oper. Res. 2 (1977) 103-107).  An artificial that leaves the basis never
re-enters, so one still basic sits in its own row.

Phase 1 is a dual simplex (Lemke, Naval Res. Logist. Q. 1 (1954) 36-47)
on the clipped costs max(c, 0), which make the artificial basis dual
feasible: every price starts nonnegative, and each pivot keeps it so.  The
leaving row is the infeasible basic variable with the lowest name: an
artificial more than PIVOT_TOL from zero, or a real variable below
-PIVOT_TOL.  The entering slot is the real slot whose entry in that row
has the sign of the row's right-hand side and passes PIVOT_TOL, with the
least ratio d_j / |t_rj| of price to entry.  A row with no such slot
admits no nonnegative solution.

Phase 2 is the primal simplex on the true costs, over the whole tableau.
The entering slot is the real slot with the lowest name whose reduced cost
is below -PIVOT_TOL.  The ratio test takes the rows whose entry passes
PIVOT_TOL, and also every basic artificial, which sits at zero, on an
entry of either sign with |t| > PIVOT_TOL, at ratio 0; the lowest basic
name breaks ties.  So the artificials stay at zero, and a redundant row
keeps its own artificial basic to the end.  When c >= 0 the clipped costs
are the costs, so phase 2 starts optimal; it pivots only for negative
costs, and it is where unboundedness shows.

The tableau is in dictionary form: one column (slot) per non-basic
variable plus the right-hand side, with `names[k]` the variable in slot
k.  Variables 0..n-1 are real and n..n+m-1 are the artificials, which
start basic; a basic variable's unit column is not stored.  On a pivot the
leaving variable's unit column takes the entering variable's slot, then
the ordinary pivot runs.  The tableau holds the m constraint rows, phase
2's cost row (c on the real slots), then phase 1's clipped costs.

A pivot divides the pivot row by the pivot entry, then subtracts
t[r, col] * (pivot row) from every other row r whose pivot-column entry
is nonzero, as one gathered rank-1 update that computes each row alone.
Each entry gets exactly the floating-point operations of a row-by-row
loop over a full tableau (every variable's column, the artificials'
identity block and both cost rows), so the pivots, the vertex, its value
and the errors are the same bytes as there, but for the sign of a zero in
a non-basic column, which no test on a coefficient tells apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import _frozen

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-12


class LpInfeasibleError(Exception):
    """The equality system has no nonnegative solution."""


class LpUnboundedError(Exception):
    """The objective decreases without bound over the feasible set."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min c.x  s.t.  a_eq x = b_eq, x >= 0; compares and hashes by identity, like Game."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        for name in ("c", "a_eq", "b_eq"):
            object.__setattr__(self, name, _frozen(getattr(self, name), float))
        c, a, b = self.c, self.a_eq, self.b_eq
        if a.ndim != 2:
            raise ValueError(f"a_eq must be a matrix, got {a.ndim} axes")
        if c.ndim != 1 or c.shape[0] != a.shape[1]:
            raise ValueError(f"c has shape {c.shape}, expected ({a.shape[1]},)")
        if b.ndim != 1 or b.shape[0] != a.shape[0]:
            raise ValueError(f"b_eq has shape {b.shape}, expected ({a.shape[0]},)")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("linear program data must be finite")


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot on (row, col); the leaving variable's unit column takes slot col."""
    pivot = tableau[row, col]
    hit = tableau[:, col] != 0.0
    hit[row] = False
    rows = hit.nonzero()[0]
    factors = tableau[rows, col][:, None]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    tableau[row] /= pivot
    tableau[rows] -= factors * tableau[row]


def _lowest_tied(ratios: np.ndarray, candidates: np.ndarray, names: np.ndarray) -> int:
    """The candidate of least ratio; ratios within RATIO_TIE_TOL of it go to the lowest name."""
    tied = candidates[ratios <= ratios.min() + RATIO_TIE_TOL]
    return int(tied[names[tied].argmin()])


def _exchange(tableau: np.ndarray, basis: np.ndarray, names: np.ndarray, real: np.ndarray,
              leave: int, enter: int) -> None:
    """Pivot slot enter into row leave; an artificial that leaves never re-enters."""
    _pivot(tableau, leave, enter)
    real[enter] = basis[leave] < names.size
    basis[leave], names[enter] = names[enter], basis[leave]


def _dual(tableau: np.ndarray, basis: np.ndarray, names: np.ndarray, real: np.ndarray) -> None:
    """Phase 1: dual simplex until every artificial is zero and every real variable nonnegative."""
    n = names.size
    rhs = tableau[:basis.size, -1]
    while True:
        artificial = basis >= n
        infeasible = ((rhs < -PIVOT_TOL) | (artificial & (rhs > PIVOT_TOL))).nonzero()[0]
        if infeasible.size == 0:
            return
        leave = int(infeasible[basis[infeasible].argmin()])  # Bland: lowest infeasible name
        row = tableau[leave, :-1]
        right_sign = row > PIVOT_TOL if rhs[leave] > 0.0 else row < -PIVOT_TOL
        slots = (right_sign & real).nonzero()[0]
        if slots.size == 0:
            residual = float(np.abs(rhs[artificial]).sum())
            raise LpInfeasibleError(f"no feasible point: artificial residual {residual!r}")
        enter = _lowest_tied(tableau[-1, slots] / np.abs(row[slots]), slots, names)
        _exchange(tableau, basis, names, real, leave, enter)


def _primal(tableau: np.ndarray, basis: np.ndarray, names: np.ndarray, real: np.ndarray) -> None:
    """Phase 2: primal simplex with Bland's rule on the cost row, over the real slots."""
    m, n = basis.size, names.size
    while True:
        eligible = ((tableau[m, :-1] < -PIVOT_TOL) & real).nonzero()[0]
        if eligible.size == 0:
            return
        enter = int(eligible[names[eligible].argmin()])  # Bland: lowest eligible name
        column = tableau[:m, enter]
        artificial = basis >= n  # basic at zero: leaves on an entry of either sign, at ratio 0
        rows = ((column > PIVOT_TOL) | (artificial & (np.abs(column) > PIVOT_TOL))).nonzero()[0]
        if rows.size == 0:
            raise LpUnboundedError("objective is unbounded below")
        ratios = np.where(artificial[rows], 0.0, tableau[rows, -1] / column[rows])
        _exchange(tableau, basis, names, real, _lowest_tied(ratios, rows, basis), enter)


def solve(lp: LinearProgram) -> tuple[np.ndarray, float]:
    """Optimal vertex and objective value.

    Raises LpInfeasibleError when phase 1 meets a row whose artificial
    variable cannot reach zero and LpUnboundedError when phase 2 finds a
    descent ray.
    """
    a = np.array(lp.a_eq)
    b = np.array(lp.b_eq)
    c = np.array(lp.c)
    m, n = a.shape

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # one tableau: the constraint rows, phase 2's cost row, then phase 1's
    # clipped costs max(c, 0); the artificial n + i of each row i starts
    # basic, so the slots hold the n real variables and every price of the
    # last row is nonnegative
    tableau = np.zeros((m + 2, n + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[m, :n] = c
    tableau[-1, :n] = np.maximum(c, 0.0)
    names = np.arange(n)
    basis = np.arange(n, n + m)
    real = np.ones(n, dtype=bool)  # slots that hold a real variable
    _dual(tableau, basis, names, real)
    _primal(tableau, basis, names, real)

    x = np.zeros(n)
    real_rows = basis < n  # a redundant row keeps its artificial basic at zero
    x[basis[real_rows]] = tableau[:m, -1][real_rows]
    np.clip(x, 0.0, None, out=x)  # scrub -1e-16 round-off
    return x, float(c @ x)
