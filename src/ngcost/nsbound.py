"""Non-signalling lower bounds on game cost via linear programming.

The non-signalling polytope relaxes the quantum set, so minimizing the
expected cost over it bounds every quantum strategy from below.  The LP
has one variable per behavior entry, minus the entries pinned to zero by
infinite costs of positive-weight inputs (a zero-weight input costs
nothing anywhere), with per-input normalization and marginal-consistency
equalities.
"""

from __future__ import annotations

import numpy as np

from .games import Behavior, Game
from .simplex import LinearProgram, LpInfeasibleError, solve

MARGINAL_TOL = 1e-9


class NonSignallingInfeasibleError(Exception):
    """The forced-zero pattern admits no non-signalling behavior."""


def is_nonsignalling(behavior: Behavior) -> bool:
    """True when each party's marginals ignore the other party's input within MARGINAL_TOL."""
    p = behavior.p
    alice = p.sum(axis=3)  # (s, t, a)
    if float(np.max(alice.max(axis=1) - alice.min(axis=1))) > MARGINAL_TOL:
        return False
    bob = p.sum(axis=2)  # (s, t, b)
    if float(np.max(bob.max(axis=0) - bob.min(axis=0))) > MARGINAL_TOL:
        return False
    return True


def ns_lower_bound(game: Game) -> tuple[float, Behavior]:
    """Minimum cost over non-signalling behaviors and an optimal witness.

    Only the infinite entries of positive-weight inputs are removed from
    the LP (forced to exact zero); a zero-weight input costs nothing
    anywhere, so the witness may put mass there.  Raises
    NonSignallingInfeasibleError when the forced zeros contradict the
    normalization and marginal constraints.
    """
    n_s, n_t, n_a, n_b = game.n_s, game.n_t, game.n_a, game.n_b
    n_vars = n_s * n_t * n_a * n_b

    weights = game._weights.ravel()
    free = np.flatnonzero(np.isfinite(weights))

    # var[s, t, a, b] is the LP column of p(a, b | s, t).  Rows come in
    # three blocks: normalization per (s, t); Alice's marginal, ordered
    # (s, a, t) for t >= 1, as sum_b p(a,b|s,t) - p(a,b|s,t-1) = 0; and
    # Bob's, ordered (t, b, s) for s >= 1, summing over a.
    var = np.arange(n_vars).reshape(n_s, n_t, n_a, n_b)
    alice_plus = var[:, 1:].transpose(0, 2, 1, 3).reshape(-1, n_b)
    alice_minus = var[:, :-1].transpose(0, 2, 1, 3).reshape(-1, n_b)
    bob_plus = var[1:].transpose(1, 3, 0, 2).reshape(-1, n_a)
    bob_minus = var[:-1].transpose(1, 3, 0, 2).reshape(-1, n_a)
    n_norm, n_alice = n_s * n_t, alice_plus.shape[0]
    n_rows = n_norm + n_alice + bob_plus.shape[0]

    a_full = np.zeros((n_rows, n_vars))
    a_full[np.arange(n_norm)[:, None], var.reshape(n_norm, -1)] = 1.0
    alice_rows = np.arange(n_norm, n_norm + n_alice)[:, None]
    a_full[alice_rows, alice_plus] = 1.0
    a_full[alice_rows, alice_minus] = -1.0
    bob_rows = np.arange(n_norm + n_alice, n_rows)[:, None]
    a_full[bob_rows, bob_plus] = 1.0
    a_full[bob_rows, bob_minus] = -1.0

    a_eq = a_full[:, free]
    b_eq = np.zeros(n_rows)
    b_eq[:n_norm] = 1.0
    c = weights[free]

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
