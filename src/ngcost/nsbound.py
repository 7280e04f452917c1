"""Non-signalling lower bounds on game cost via linear programming.

The non-signalling polytope relaxes the quantum set, so minimizing the
expected cost over it bounds every quantum strategy from below.  The LP
has one variable per behavior entry, minus the entries pinned to zero by
infinite costs, with per-input normalization and marginal-consistency
equalities.
"""

from __future__ import annotations

import numpy as np

from .games import Game, expected_cost, require_valid_game
from .quantum import Behavior
from .simplex import LinearProgram, LpInfeasibleError, solve

MARGINAL_TOL = 1e-9


class NonSignallingInfeasibleError(Exception):
    """The forced-zero pattern admits no non-signalling behavior."""


def is_nonsignalling(behavior: Behavior, tol: float = MARGINAL_TOL) -> bool:
    """True when each party's marginals ignore the other party's input."""
    p = behavior.p
    alice = p.sum(axis=3)  # (s, t, a)
    if float(np.max(alice.max(axis=1) - alice.min(axis=1))) > tol:
        return False
    bob = p.sum(axis=2)  # (s, t, b)
    if float(np.max(bob.max(axis=0) - bob.min(axis=0))) > tol:
        return False
    return True


def behavior_cost(game: Game, behavior: Behavior) -> float:
    """Expected cost of a behavior; +inf when weighted mass sits on an inf entry."""
    return expected_cost(game, behavior.p)


def ns_lower_bound(game: Game) -> tuple[float, Behavior]:
    """Minimum cost over non-signalling behaviors and an optimal witness.

    Every coordinate with infinite cost is removed from the LP (forced to
    exact zero) and contributes nothing to the objective.  Raises
    NonSignallingInfeasibleError when those zeros contradict the
    normalization and marginal constraints, and ValueError when
    validate_game reports a problem.
    """
    require_valid_game(game)
    n_s, n_t, n_a, n_b = game.n_s, game.n_t, game.n_a, game.n_b
    n_vars = n_s * n_t * n_a * n_b

    def idx(s, t, a, b):
        return ((s * n_t + t) * n_a + a) * n_b + b

    finite = np.isfinite(game.cost).ravel()
    free = np.flatnonzero(finite)

    rows = []
    rhs = []

    for s in range(n_s):  # normalization per input pair
        for t in range(n_t):
            row = np.zeros(n_vars)
            for a in range(n_a):
                for b in range(n_b):
                    row[idx(s, t, a, b)] = 1.0
            rows.append(row)
            rhs.append(1.0)

    for s in range(n_s):  # Alice's marginal independent of t
        for a in range(n_a):
            for t in range(1, n_t):
                row = np.zeros(n_vars)
                for b in range(n_b):
                    row[idx(s, t, a, b)] = 1.0
                    row[idx(s, t - 1, a, b)] -= 1.0
                rows.append(row)
                rhs.append(0.0)

    for t in range(n_t):  # Bob's marginal independent of s
        for b in range(n_b):
            for s in range(1, n_s):
                row = np.zeros(n_vars)
                for a in range(n_a):
                    row[idx(s, t, a, b)] = 1.0
                    row[idx(s - 1, t, a, b)] -= 1.0
                rows.append(row)
                rhs.append(0.0)

    a_eq = np.array(rows)[:, free]
    b_eq = np.array(rhs)
    weights = game.input_dist[:, :, None, None] * np.where(
        np.isfinite(game.cost), game.cost, 0.0
    )
    c = weights.ravel()[free]

    try:
        x, value = solve(LinearProgram(c, a_eq, b_eq))
    except LpInfeasibleError as exc:
        raise NonSignallingInfeasibleError(
            "the infinite-cost pattern forces zeros that no non-signalling "
            f"behavior satisfies: {exc}"
        ) from exc

    full = np.zeros(n_vars)
    full[free] = x
    witness = Behavior(full.reshape(n_s, n_t, n_a, n_b))
    return value, witness
