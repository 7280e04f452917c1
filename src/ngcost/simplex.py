"""Dense simplex for small equality-form linear programs.

Solves min c.x subject to A x = b, x >= 0 from a basis of one artificial
variable per row, in two phases on one tableau.  Both phases follow
Bland's finite rules, which rule out cycling and make every pivot
sequence reproducible.

Phase 1 is a dual simplex (Lemke, Naval Res. Logist. Q. 1 (1954) 36-47)
on the clipped costs max(c, 0), which make the artificial basis dual
feasible: every price starts nonnegative, and each pivot keeps it so.  The
leaving row is the infeasible basic variable with the lowest name: an
artificial more than PIVOT_TOL from zero, or a real variable below
-PIVOT_TOL.  The entering slot is the real slot whose entry in that row
has the sign of the row's right-hand side and passes PIVOT_TOL, with the
least ratio d_j / |t_rj| of price to entry; ratios within RATIO_TIE_TOL of
the least go to the lowest name (Bland, Math. Oper. Res. 2 (1977)
103-107).  An artificial that leaves never re-enters, so one still basic
sits in its own row.  A row with no such slot admits no nonnegative
solution.  The artificials left basic, all at zero, are then pivoted out by
the same least ratio over entries of either sign, which keeps every price
nonnegative; a row with no real entry is redundant and dropped.

Phase 2 is the primal simplex on the true costs.  The entering variable is
the lowest name with a reduced cost below -PIVOT_TOL.  The leaving row is
chosen by a sequential scan over the rows whose coefficient passes
PIVOT_TOL: a ratio more than RATIO_TIE_TOL below the best so far wins, and
a ratio within RATIO_TIE_TOL of it wins only with a lower basic index.
When c >= 0 the clipped costs are the costs, so phase 2 starts optimal; it
pivots only for negative costs, and it is where unboundedness shows.

The tableau is in dictionary form: one column (slot) per non-basic
variable plus the right-hand side, with `names[k]` the variable in slot
k.  Variables 0..n-1 are real and n..n+m-1 are the artificials, which
start basic; a basic variable's unit column is not stored.  On a pivot the
leaving variable's unit column takes the entering variable's slot, then
the ordinary pivot runs.  The tableau holds the m constraint rows, phase
2's cost row (c on the real slots), then phase 1's clipped costs, the last
row, which phase 1 and the drive-out price.  Phase 2 is the slice of the
kept rows and the cost row on the slots of real variables and the
right-hand side.

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


def _least_ratio(tableau: np.ndarray, row: int, slots: np.ndarray, names: np.ndarray) -> int:
    """The slot of `slots` with the least price ratio d_j / |t[row, j]|.

    Ratios within RATIO_TIE_TOL of the least go to the lowest name.  Pivoting
    on it keeps every price of the last row nonnegative.
    """
    ratios = tableau[-1, slots] / np.abs(tableau[row, slots])
    tied = slots[ratios <= ratios.min() + RATIO_TIE_TOL]
    return int(tied[names[tied].argmin()])


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
        enter = _least_ratio(tableau, leave, slots, names)
        _pivot(tableau, leave, enter)
        real[enter] = basis[leave] < n  # an artificial that leaves never re-enters
        basis[leave], names[enter] = names[enter], basis[leave]


def _drive_out(tableau: np.ndarray, basis: np.ndarray, names: np.ndarray,
               real: np.ndarray) -> list[int]:
    """Pivot the artificials left basic out at zero; the rows kept, without the redundant ones.

    An artificial still basic sits in its own row, since none re-enters; a
    row with no real slot to pivot on is redundant and dropped.
    """
    n = names.size
    keep = []
    for i in range(basis.size):
        if basis[i] >= n:
            slots = ((np.abs(tableau[i, :-1]) > PIVOT_TOL) & real).nonzero()[0]
            if slots.size == 0:
                continue
            enter = _least_ratio(tableau, i, slots, names)
            _pivot(tableau, i, enter)
            real[enter] = False
            basis[i], names[enter] = names[enter], basis[i]
        keep.append(i)
    return keep


def _iterate(tableau: np.ndarray, basis: list[int], names: np.ndarray) -> None:
    """Phase 2: primal simplex with Bland's rule on the last row."""
    n_rows = len(basis)  # the cost row below the constraints takes no ratio test
    while True:
        eligible = (tableau[-1, :-1] < -PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return
        enter = int(eligible[names[eligible].argmin()])  # Bland: lowest eligible name
        column = tableau[:n_rows, enter]
        candidates = (column > PIVOT_TOL).nonzero()[0]
        if candidates.size == 0:
            raise LpUnboundedError("objective is unbounded below")
        ratios = tableau[candidates, -1] / column[candidates]
        leave = -1
        best_ratio = 0.0
        for i, ratio in zip(candidates.tolist(), ratios.tolist()):
            if (leave < 0 or ratio < best_ratio - RATIO_TIE_TOL or
                    (abs(ratio - best_ratio) <= RATIO_TIE_TOL and basis[i] < basis[leave])):
                leave = i
                best_ratio = ratio
        _pivot(tableau, leave, enter)
        basis[leave], names[enter] = int(names[enter]), basis[leave]


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
    keep = _drive_out(tableau, basis, names, real)

    # phase 2 is the kept rows and the cost row on the slots of real variables
    slots = real.nonzero()[0]
    phase2 = tableau[np.ix_(keep + [m], np.append(slots, n))]
    basis = basis[keep].tolist()
    _iterate(phase2, basis, names[slots])

    x = np.zeros(n)
    x[basis] = phase2[:-1, -1]
    np.clip(x, 0.0, None, out=x)  # scrub -1e-16 round-off
    return x, float(c @ x)
