"""Exact classical game values by deterministic-strategy enumeration.

Shared randomness never helps a minimizer, so the classical optimum is
attained by a pair of deterministic response functions.  Once one party's
response function is fixed, the cost separates over the other party's
inputs, and that party best-responds input by input (the local-bound
trick; see Brierley, Navascues & Vertesi, arXiv:1609.05011).  So only the
party with fewer strategies is enumerated, Alice's n_a**n_s or Bob's
n_b**n_t, and ENUMERATION_LIMIT applies to that party alone.

strategy_cost adds a pair's terms in the enumeration's order: over the
enumerated party's inputs inside, then over the responding party's inputs
left to right.  Rounded addition is monotone in each operand, so the
per-input best response gives each enumerated row its least float total,
and the least total over rows is exactly the least strategy_cost over all
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game

ENUMERATION_LIMIT = 10**8
# Strategies are scanned in blocks of about this many partial-cost entries
# (rows x other party's inputs x other party's answers), so memory stays
# bounded whatever the number of strategies.
_BLOCK_ENTRIES = 2**20


@dataclass(frozen=True)
class DeterministicStrategy:
    """Response functions alpha: s -> a and beta: t -> b, copied into tuples.

    So a strategy is hashable and compares by value; strategy_cost checks the answers.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))


def strategy_cost(game: Game, strategy: DeterministicStrategy) -> float:
    """Average cost of a deterministic strategy; may be +inf.

    Inputs with zero weight contribute nothing even when they hit an
    infinite cost entry.  The terms are added in the enumeration's order,
    each sum from +0.0: over the enumerated party's inputs (Alice's when
    n_a**n_s <= n_b**n_t, else Bob's), then over the other party's inputs
    left to right.  So the result may differ in the last bits from a sum in
    (s, t) order.

    Raises ValueError unless the answers are integers (numpy integers too,
    bool not) inside the answer alphabet, one per input.
    """
    alpha, beta = strategy.alpha, strategy.beta
    for name, answers, n_inputs, n_answers in (("alpha", alpha, game.n_s, game.n_a),
                                               ("beta", beta, game.n_t, game.n_b)):
        if len(answers) != n_inputs:
            raise ValueError(f"{name} has {len(answers)} entries, expected {n_inputs}")
        for i, x in enumerate(answers):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"{name}[{i}]={x!r} is not an integer answer")
            if not 0 <= x < n_answers:
                raise ValueError(f"{name}[{i}]={x} outside answer alphabet of size {n_answers}")

    enumerate_alice, table = _table(game)
    own, other = (alpha, beta) if enumerate_alice else (beta, alpha)
    partial = _partial_costs(table, np.array([own], dtype=np.int64))[0]
    return float(_total(partial[np.arange(len(other)), list(other)]))


def _table(game: Game) -> tuple[bool, np.ndarray]:
    """Whether Alice is the enumerated party (she has no more strategies than
    Bob), and table[x, u, y, v]: the weighted cost when the enumerated party
    answers u to input x and the responding party v to input y."""
    enumerate_alice = game.n_a ** game.n_s <= game.n_b ** game.n_t
    weighted = game._weights
    return enumerate_alice, (weighted.transpose(0, 2, 1, 3) if enumerate_alice
                             else weighted.transpose(1, 3, 0, 2))


def _partial_costs(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """partial[k, y, v]: row k's terms at responding input y and answer v,
    added over the enumerated party's inputs in order, from +0.0."""
    partial = np.zeros((len(rows),) + table.shape[2:])
    for x in range(table.shape[0]):
        partial += table[x, rows[:, x]]
    return partial


def _total(terms: np.ndarray) -> np.ndarray:
    """The sum over the last axis, left to right from +0.0.

    numpy's own sum is pairwise from 8 terms on, which reorders the additions.
    """
    total = np.zeros(terms.shape[:-1])
    for y in range(terms.shape[-1]):
        total += terms[..., y]
    return total


def _strategy_rows(start: int, stop: int, n_inputs: int, n_answers: int) -> np.ndarray:
    """Response functions number start..stop-1, one per row, in itertools.product order."""
    place = n_answers ** np.arange(n_inputs - 1, -1, -1)
    return np.arange(start, stop)[:, None] // place % n_answers


def _first_minimum(values: np.ndarray, pairs: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The smallest value and the lexicographically first pair attaining it."""
    low = float(values.min())
    hits = pairs[values == low]
    for column in range(hits.shape[1]):
        hits = hits[hits[:, column] == hits[:, column].min()]
    return low, tuple(hits[0].tolist())


def _best_pair(game: Game) -> tuple[float, tuple[int, ...]]:
    """The least strategy_cost and the lexicographically first (alpha + beta)
    attaining it whose responding party gives, at each input, its first
    answer of least partial cost."""
    enumerate_alice, table = _table(game)
    n_x, n_u, n_y, n_v = table.shape
    block = max(1, _BLOCK_ENTRIES // (n_y * n_v))
    n_rows = n_u ** n_x
    best = None
    for start in range(0, n_rows, block):
        rows = _strategy_rows(start, min(start + block, n_rows), n_x, n_u)
        partial = _partial_costs(table, rows)
        # argmin takes the first of equal answers: the first best response
        responses = partial.argmin(axis=2)
        pairs = np.hstack((rows, responses) if enumerate_alice else (responses, rows))
        candidate = _first_minimum(_total(partial.min(axis=2)), pairs)
        best = candidate if best is None else min(best, candidate)
    return best


def classical_cost(game: Game) -> tuple[float, DeterministicStrategy]:
    """Exact classical minimum and the first strategy attaining it.

    Only one party's deterministic strategies are enumerated, the side
    with fewer of them (Alice's on a tie), while the other party
    best-responds input by input.  The value is the least strategy_cost
    over all (alpha, beta).  The witness is the lexicographically first
    least-cost pair whose responding party gives its first best answer at
    each input, or the all-zeros pair when every pair costs +inf; the
    value is bitwise that witness's strategy_cost.

    Raises ValueError when both parties have more than ENUMERATION_LIMIT
    (10**8) strategies.
    """
    n_alpha, n_beta = game.n_a ** game.n_s, game.n_b ** game.n_t
    if min(n_alpha, n_beta) > ENUMERATION_LIMIT:
        raise ValueError(
            f"Alice has {n_alpha} and Bob {n_beta} deterministic strategies; "
            f"both exceed the enumeration limit {ENUMERATION_LIMIT}"
        )
    value, pair = _best_pair(game)
    if value == np.inf:
        pair = (0,) * (game.n_s + game.n_t)
    return value, DeterministicStrategy(pair[:game.n_s], pair[game.n_s:])
