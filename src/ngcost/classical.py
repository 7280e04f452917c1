"""Exact classical game values by deterministic-strategy enumeration.

Shared randomness never helps a minimizer, so the classical optimum is
attained by a pair of deterministic response functions.  Once one party's
response function is fixed, the cost separates over the other party's
inputs, and that party best-responds input by input (the local-bound
trick; see Brierley, Navascues & Vertesi, arXiv:1609.05011).  So only the
party with fewer strategies is enumerated, Alice's n_a**n_s or Bob's
n_b**n_t, and ENUMERATION_LIMIT applies to that party alone.  Value and
witness still equal those of a scan over every pair of strategies.
"""

from __future__ import annotations

import math
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
    infinite cost entry.  Answers must be integers (numpy integers too,
    bool not) inside the answer alphabet; anything else raises ValueError.
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

    return float(_pair_costs(game._weights, np.array([alpha + beta], dtype=np.int64))[0])


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


def _near_pairs(rows: np.ndarray, near: np.ndarray, chunk: int):
    """Each row k of rows joined with every response that answers each input y
    with some v where near[k, y, v] holds.

    Yields (rows, responses) arrays, one pair per row, at most chunk pairs
    at a time, so memory stays bounded however many pairs are near.
    """
    counts = near.sum(axis=2)
    sizes = counts.prod(axis=1)
    # answers[k, y, j]: the j-th near answer of row k at input y, ascending
    answers = np.argsort(~near, axis=2, kind="stable")
    ends = np.cumsum(sizes)
    for first in range(0, int(ends[-1]), chunk):
        index = np.arange(first, min(first + chunk, int(ends[-1])))
        k = np.searchsorted(ends, index, side="right")
        local = index - (ends[k] - sizes[k])
        responses = np.empty((index.size, near.shape[1]), dtype=np.int64)
        for y in range(near.shape[1] - 1, -1, -1):
            responses[:, y] = answers[k, y, local % counts[k, y]]
            local //= counts[k, y]
        yield rows[k], responses


def _pair_costs(weighted: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Cost of every (alpha + beta) row, its terms added in (s, t) order: strategy_cost's sum."""
    n_s, n_t, _, n_b = weighted.shape
    cells = weighted.reshape(n_s, n_t, -1)
    alpha = np.ascontiguousarray(pairs[:, :n_s].T) * n_b
    beta = np.ascontiguousarray(pairs[:, n_s:].T)
    total = np.zeros(len(pairs))
    for s in range(n_s):
        for t in range(n_t):
            total += cells[s, t].take(alpha[s] + beta[t])
    return total


def _best_pair(game: Game, enumerate_alice: bool) -> tuple[int, ...] | None:
    """The lexicographically first (alpha + beta) of least strategy_cost.

    Pairs are scored on game._weights.  One party's strategies are
    enumerated; for each, the other party's best response takes, input
    by input, the answer of least summed cost.
    Summed in this order a pair's cost can differ by a few ulps from
    strategy_cost, which adds in (s, t) order, so the pairs within a
    rounding bound of the least are re-scored in strategy_cost's order,
    as arrays.  That keeps the witness exactly that of a scan over all
    pairs.  Returns None when every pair costs +inf.
    """
    weighted = game._weights
    n_s, n_t = weighted.shape[:2]
    # table[x, u, y, v]: the enumerated party answers u to input x, the other v to y
    table = weighted.transpose(0, 2, 1, 3) if enumerate_alice else weighted.transpose(1, 3, 0, 2)
    n_x, n_u, n_y, n_v = table.shape
    # Two summation orders of a pair's n_s*n_t terms differ by at most about
    # 2 * n_s*n_t * 2**-53 times the sum of the terms' magnitudes.  A pair
    # that may cost no more than the best under strategy_cost lies within
    # four such errors of the least sum, in total and at every input of the
    # responding party; tol adds a margin of 2.  With tol 0 every finite
    # term is 0, so all sums are exact and no pair needs re-scoring.
    magnitude = np.where(np.isinf(weighted), 0.0, np.abs(weighted)).max(axis=(2, 3)).sum()
    tol = n_s * n_t * 2.0**-49 * float(magnitude)
    block = max(1, _BLOCK_ENTRIES // (n_y * n_v))
    pair_chunk = max(1, _BLOCK_ENTRIES // (n_s + n_t))
    n_rows = n_u ** n_x
    low, best, near_pairs = math.inf, None, 0.0
    for start in range(0, n_rows, block):
        rows = _strategy_rows(start, min(start + block, n_rows), n_x, n_u)
        partial = table[0, rows[:, 0]]
        for x in range(1, n_x):
            partial += table[x, rows[:, x]]
        least = partial.min(axis=2)
        costs = least.sum(axis=1)
        low = min(low, float(costs.min()))
        if tol == 0:
            # argmin takes the first of equal answers: the first best response
            responses = partial.argmin(axis=2)
            pairs = np.hstack((rows, responses) if enumerate_alice else (responses, rows))
            candidate = _first_minimum(costs, pairs)
            best = candidate if best is None else min(best, candidate)
            continue
        if low == math.inf:
            continue
        window = np.flatnonzero(costs <= low + tol)
        if window.size == 0:
            continue
        near = partial[window] <= least[window, :, None] + tol
        near_pairs += near.sum(axis=2).prod(axis=1, dtype=float).sum()
        if near_pairs > ENUMERATION_LIMIT:
            raise ValueError(
                f"{near_pairs:.0f} strategy pairs within rounding of the minimum exceed "
                f"the enumeration limit {ENUMERATION_LIMIT}"
            )
        for own, responses in _near_pairs(rows[window], near, pair_chunk):
            pairs = np.hstack((own, responses) if enumerate_alice else (responses, own))
            candidate = _first_minimum(_pair_costs(weighted, pairs), pairs)
            best = candidate if best is None else min(best, candidate)
    return None if best is None or best[0] == math.inf else best[1]


def classical_cost(game: Game) -> tuple[float, DeterministicStrategy]:
    """Exact classical minimum and the first strategy attaining it.

    Only one party's deterministic strategies are enumerated, the side
    with fewer of them (Alice's on a tie), while the other party
    best-responds input by input.  Value and witness are those of a scan
    over all (alpha, beta) in lexicographic order: the least
    strategy_cost, and the first pair attaining it, or the all-zeros pair
    when every pair costs +inf.

    Raises ValueError when both parties have more than ENUMERATION_LIMIT
    (10**8) strategies, or when more than that many pairs lie within
    rounding of the minimum.
    """
    n_alpha, n_beta = game.n_a ** game.n_s, game.n_b ** game.n_t
    if min(n_alpha, n_beta) > ENUMERATION_LIMIT:
        raise ValueError(
            f"Alice has {n_alpha} and Bob {n_beta} deterministic strategies; "
            f"both exceed the enumeration limit {ENUMERATION_LIMIT}"
        )
    pair = _best_pair(game, enumerate_alice=n_alpha <= n_beta)
    if pair is None:
        pair = (0,) * (game.n_s + game.n_t)
    witness = DeterministicStrategy(pair[:game.n_s], pair[game.n_s:])
    return strategy_cost(game, witness), witness
