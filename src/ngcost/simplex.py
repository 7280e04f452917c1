"""Dense two-phase simplex for small equality-form linear programs.

Solves min c.x subject to A x = b, x >= 0.  Bland's rule picks both the
entering variable (lowest index with negative reduced cost) and the
leaving row (lowest basic index among minimum ratios), which rules out
cycling and makes every pivot sequence reproducible.  The leaving row is
chosen by a sequential scan over the rows whose coefficient passes
PIVOT_TOL: a ratio more than RATIO_TIE_TOL below the best so far wins,
and a ratio within RATIO_TIE_TOL of it wins only with a lower basic index.

The tableau is in dictionary form: one column (slot) per non-basic
variable plus the right-hand side, with `names[k]` the variable in slot
k.  Variables 0..n-1 are real and n..n+m-1 are phase 1's artificials,
which start basic, so phase 1 starts with the n real variables in their
own slots.  A basic variable's column in a full tableau is a unit vector
that no pivot decision reads, so it is not stored.  On a pivot the
leaving variable takes the entering variable's slot: its unit column is
written there, then the ordinary pivot runs.  Phase 2 keeps the slots of
real variables and the rows that were not dropped as redundant.

A pivot divides the pivot row by the pivot entry, then subtracts
t[r, col] * (pivot row) from every other row r whose pivot-column entry
is nonzero, as one gathered rank-1 update.  Each entry gets exactly the
floating-point operations of a row-by-row loop over a full tableau, so
the pivots, the right-hand side, the optimal vertex, its value and every
error message are the same bytes as there.  Only the sign of a zero in a
non-basic column may differ (for instance, where a full tableau's unit
column held -0.0, the one written here holds +0.0).  Every test on a
coefficient (`!= 0.0`, `> PIVOT_TOL`, `< -PIVOT_TOL`, `abs`) treats +0.0
and -0.0 alike, and a signed zero never turns a product or a difference
nonzero, so it reaches no decision and no output.
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


def _iterate(tableau: np.ndarray, basis: list[int], names: np.ndarray) -> None:
    n_rows = tableau.shape[0] - 1
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

    Raises LpInfeasibleError when phase 1 cannot zero out the artificial
    variables and LpUnboundedError when phase 2 finds a descent ray.
    """
    a = np.array(lp.a_eq)
    b = np.array(lp.b_eq)
    c = np.array(lp.c)
    m, n = a.shape

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: minimize the sum of one artificial variable n + i per row i,
    # all basic, so the slots hold the n real variables
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    names = np.arange(n)
    basis = list(range(n, n + m))
    _iterate(tableau, basis, names)
    if -tableau[m, -1] > PIVOT_TOL:
        raise LpInfeasibleError(
            f"no feasible point: artificial residual {float(-tableau[m, -1])!r}"
        )

    # pivot leftover artificials out; a row with no real pivot is redundant
    real = names < n
    keep = []
    for i in range(m):
        if basis[i] >= n:
            usable = ((np.abs(tableau[i, :-1]) > PIVOT_TOL) & real).nonzero()[0]
            if usable.size == 0:
                continue
            enter = int(usable[names[usable].argmin()])
            _pivot(tableau, i, enter)
            basis[i], names[enter] = int(names[enter]), basis[i]
            real[enter] = False  # the artificial that left holds it now
        keep.append(i)

    # phase 2 keeps the kept rows and the slots of real variables
    slots = real.nonzero()[0]
    rows = len(keep)
    kept = tableau[keep]
    phase2 = np.zeros((rows + 1, slots.size + 1))
    phase2[:rows, :-1] = kept[:, slots]
    phase2[:rows, -1] = kept[:, -1]
    names = names[slots]
    basis = [basis[i] for i in keep]
    phase2[rows, :-1] = c[names]
    for i, var in enumerate(basis):
        phase2[rows] -= c[var] * phase2[i]
    _iterate(phase2, basis, names)

    x = np.zeros(n)
    x[basis] = phase2[:rows, -1]
    np.clip(x, 0.0, None, out=x)  # scrub -1e-16 round-off
    return x, float(c @ x)
