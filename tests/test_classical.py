import itertools
import math

import numpy as np
import pytest

from ngcost import (
    DeterministicStrategy,
    Game,
    cap_infinities,
    classical_cost,
    make_chsh_game,
    make_hardy_game,
    strategy_cost,
)
from ngcost import classical

INF = math.inf


def test_strategy_cost_chsh_hand_values():
    g = make_chsh_game()
    # all-zero answers lose only on the (1,1) block
    assert strategy_cost(g, DeterministicStrategy((0, 0), (0, 0))) == 0.25
    # alpha = (0,1), beta = (0,0) wins block (1,1) but loses block (1,0)
    assert strategy_cost(g, DeterministicStrategy((0, 1), (0, 0))) == 0.25
    assert strategy_cost(g, DeterministicStrategy((0, 0), (0, 1))) == 0.25


def test_strategy_cost_hardy_hand_values():
    g = make_hardy_game(1.0)
    # all-ones answers avoid every forbidden entry and pay T on block (0,0)
    assert strategy_cost(g, DeterministicStrategy((1, 1), (1, 1))) == 0.25
    # all-zero answers hit the forbidden (0,0 | 1,1) entry
    assert strategy_cost(g, DeterministicStrategy((0, 0), (0, 0))) == INF


def test_strategy_cost_skips_zero_weight_inputs():
    base = make_hardy_game(1.0)
    dist = np.zeros((2, 2))
    dist[0, 0] = 1.0
    g = Game(2, 2, 2, 2, dist, base.cost)
    assert strategy_cost(g, DeterministicStrategy((0, 0), (0, 0))) == 0.0


def loop_strategy_cost(game, strategy):
    """strategy_cost as a plain loop in its order of addition, kept as the reference:
    over the enumerated party's inputs inside, the responding party's outside."""
    alpha, beta = strategy.alpha, strategy.beta
    enumerate_alice = game.n_a ** game.n_s <= game.n_b ** game.n_t
    n_x, n_y = (game.n_s, game.n_t) if enumerate_alice else (game.n_t, game.n_s)
    total = 0.0
    for y in range(n_y):
        partial = 0.0
        for x in range(n_x):
            s, t = (x, y) if enumerate_alice else (y, x)
            weight = game.input_dist[s, t]
            if weight == 0.0:
                continue
            c = game.cost[s, t, alpha[s], beta[t]]
            if math.isinf(c):
                return math.inf
            partial += weight * c
        total += partial
    return float(total)


def test_strategy_cost_equals_the_loop_reference_bitwise():
    rng = np.random.default_rng(19)
    for k in range(300):
        shape = tuple(int(v) for v in rng.integers(1, 4, size=4))
        game = random_game(rng, shape, kind=k % 3)  # kinds 0 and 2: negative costs
        for _ in range(5):
            strategy = DeterministicStrategy(tuple(rng.integers(0, shape[2], shape[0]).tolist()),
                                             tuple(rng.integers(0, shape[3], shape[1]).tolist()))
            got, expected = strategy_cost(game, strategy), loop_strategy_cost(game, strategy)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (k, strategy)


def test_strategy_cost_validates_shapes():
    g = make_chsh_game()
    with pytest.raises(ValueError):
        strategy_cost(g, DeterministicStrategy((0,), (0, 0)))
    with pytest.raises(ValueError):
        strategy_cost(g, DeterministicStrategy((0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        strategy_cost(g, DeterministicStrategy((0, 2), (0, 0)))
    with pytest.raises(ValueError):
        strategy_cost(g, DeterministicStrategy((0, 0), (-1, 0)))
    with pytest.raises(ValueError, match="integer"):
        strategy_cost(g, DeterministicStrategy((0.5, 0), (0, 0)))
    with pytest.raises(ValueError, match="integer"):
        strategy_cost(g, DeterministicStrategy((True, 0), (0, 0)))
    numpy_ints = DeterministicStrategy((np.int64(1), 0), (0, np.int8(1)))
    assert strategy_cost(g, numpy_ints) == strategy_cost(g, DeterministicStrategy((1, 0), (0, 1)))


def test_deterministic_strategy_holds_tuples_of_the_answers_given():
    g = make_chsh_game()
    alpha, beta = [0, 1], [0, 0]
    strategy = DeterministicStrategy(alpha, beta)
    alpha[0], beta[1] = 1, 1
    assert (strategy.alpha, strategy.beta) == ((0, 1), (0, 0))
    assert strategy == DeterministicStrategy((0, 1), (0, 0))
    assert hash(strategy) == hash(DeterministicStrategy((0, 1), (0, 0)))
    from_arrays = DeterministicStrategy(np.array([0, 1]), np.array([1, 0]))
    assert from_arrays == DeterministicStrategy((0, 1), (1, 0))
    assert from_arrays != strategy
    assert strategy_cost(g, from_arrays) == strategy_cost(g, DeterministicStrategy((0, 1), (1, 0)))
    # the answers are not converted, so strategy_cost still refuses them
    with pytest.raises(ValueError, match=r"^alpha\[0\]=0.5 is not an integer answer$"):
        strategy_cost(g, DeterministicStrategy([0.5, 0], [0, 0]))
    with pytest.raises(ValueError, match=r"^beta\[1\]=True is not an integer answer$"):
        strategy_cost(g, DeterministicStrategy([0, 0], np.array([0, True], dtype=object)))


def test_classical_chsh_exact():
    value, witness = classical_cost(make_chsh_game())
    assert value == 0.25
    assert witness == DeterministicStrategy((0, 0), (0, 0))


def test_classical_hardy_value_and_witness():
    g = make_hardy_game(1.0)
    value, witness = classical_cost(g)
    assert value == 0.25
    assert witness == DeterministicStrategy((0, 1), (1, 0))
    assert strategy_cost(g, witness) == 0.25
    # the all-ones strategy is among the optima
    assert strategy_cost(g, DeterministicStrategy((1, 1), (1, 1))) == value


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 7.0])
def test_classical_hardy_scales_with_penalty(T):
    value, _ = classical_cost(make_hardy_game(T))
    assert value == T / 4.0


@pytest.mark.parametrize("cap_factor", [1.01, 10.0])
def test_classical_hardy_cap_invariant(cap_factor):
    for T in (0.5, 1.0, 2.0):
        g = make_hardy_game(T)
        capped = cap_infinities(g, cap_factor * T)
        assert classical_cost(capped)[0] == classical_cost(g)[0] == T / 4.0


def test_classical_scaling_and_zero_game():
    g = make_chsh_game()
    tripled = Game(2, 2, 2, 2, g.input_dist, 3.0 * g.cost)
    value, witness = classical_cost(tripled)
    assert value == 0.75
    assert witness == classical_cost(g)[1]

    zero = Game(2, 2, 2, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 2)))
    assert classical_cost(zero)[0] == 0.0


def test_classical_all_infinite_game():
    cost = np.full((2, 2, 2, 2), INF)
    g = Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)
    value, witness = classical_cost(g)
    assert value == INF
    assert witness == DeterministicStrategy((0, 0), (0, 0))


@pytest.mark.parametrize("finite", [0.0, 0.5])
def test_classical_infinite_game_with_finite_entries_keeps_the_first_pair(finite):
    # Bob's input 0 forbids every answer, so every pair costs +inf even
    # though answer 1 to input 1 is finite
    cost = np.full((1, 2, 1, 2), INF)
    cost[0, 1, 0, 1] = finite
    value, witness = classical_cost(Game(1, 2, 1, 2, np.full((1, 2), 0.5), cost))
    assert value == INF
    assert witness == DeterministicStrategy((0,), (0, 0))


def test_classical_is_lower_bound_over_random_strategies():
    rng = np.random.default_rng(3)
    for _ in range(5):
        cost = rng.uniform(-1.0, 2.0, size=(2, 2, 2, 2))
        dist = rng.uniform(0.0, 1.0, size=(2, 2))
        dist /= dist.sum()
        g = Game(2, 2, 2, 2, dist, cost)
        best, witness = classical_cost(g)
        assert strategy_cost(g, witness) == best
        for _ in range(50):
            alpha = tuple(rng.integers(0, 2, size=2))
            beta = tuple(rng.integers(0, 2, size=2))
            assert strategy_cost(g, DeterministicStrategy(alpha, beta)) >= best


def test_classical_matches_full_enumeration_on_random_game():
    rng = np.random.default_rng(4)
    cost = rng.uniform(0.0, 1.0, size=(2, 2, 3, 2))
    dist = np.full((2, 2), 0.25)
    g = Game(2, 2, 3, 2, dist, cost)
    best, _ = classical_cost(g)
    brute = min(
        strategy_cost(g, DeterministicStrategy(alpha, beta))
        for alpha in itertools.product(range(3), repeat=2)
        for beta in itertools.product(range(2), repeat=2)
    )
    assert best == brute


def test_classical_refuses_huge_enumeration():
    # both parties have 10**9 strategies
    g = Game(9, 9, 10, 10, np.full((9, 9), 1.0 / 81.0), np.zeros((9, 9, 10, 10)))
    with pytest.raises(ValueError, match="enumeration limit"):
        classical_cost(g)


def test_classical_values_a_game_where_every_pair_ties():
    # every one of the 2**30 pairs costs 1, summed from non-dyadic weights 1/225;
    # the enumeration scores 2**15 rows of one party and re-scores no pair
    g = Game(15, 15, 2, 2, np.full((15, 15), 1.0 / 225.0), np.ones((15, 15, 2, 2)))
    partial = total = 0.0
    for _ in range(15):
        partial += 1.0 / 225.0
    for _ in range(15):
        total += partial
    value, witness = classical_cost(g)
    assert value == total == 0.9999999999999999
    assert witness == DeterministicStrategy((0,) * 15, (0,) * 15)
    assert strategy_cost(g, witness) == value


def test_classical_keeps_a_positive_zero():
    # every cost is -0.0, so each weighted term is -0.0; sums start from +0.0
    g = Game(2, 2, 2, 2, np.full((2, 2), 0.25), -np.zeros((2, 2, 2, 2)))
    value, witness = classical_cost(g)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert witness == DeterministicStrategy((0, 0), (0, 0))
    assert math.copysign(1.0, strategy_cost(g, witness)) == 1.0


def test_classical_enumerates_only_the_smaller_side():
    # Alice has 10**9 strategies, Bob a single one
    g = Game(9, 1, 10, 1, np.full((9, 1), 1.0 / 9.0), np.zeros((9, 1, 10, 1)))
    value, witness = classical_cost(g)
    assert value == 0.0
    assert witness == DeterministicStrategy((0,) * 9, (0,))


@pytest.mark.parametrize("entry, message", [
    (math.nan, "invalid cost entry at \\(0,1,1,0\\): nan"),
    (-INF, "invalid cost entry at \\(0,1,1,0\\): -inf"),
])
def test_classical_rejects_invalid_cost_entries(entry, message):
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 1, 1, 0] = entry
    with pytest.raises(ValueError, match=message):
        classical_cost(Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost))


def test_classical_rejects_unnormalized_distribution():
    # the game cannot be built, so classical_cost never sees one
    with pytest.raises(ValueError, match="not normalized"):
        classical_cost(Game(2, 2, 2, 2, np.full((2, 2), 0.3), make_chsh_game().cost))


def full_scan(game):
    """The scan over every (alpha, beta) in lexicographic order that classical_cost replaces."""
    best_cost = INF
    best = None
    for alpha in itertools.product(range(game.n_a), repeat=game.n_s):
        for beta in itertools.product(range(game.n_b), repeat=game.n_t):
            candidate = DeterministicStrategy(alpha, beta)
            cost = strategy_cost(game, candidate)
            if cost < best_cost or best is None:
                best_cost = cost
                best = candidate
    return best_cost, best


def random_game(rng, shape, kind):
    """A random game of one of four kinds; kinds 1-3 force many exact ties."""
    n_s, n_t, n_a, n_b = shape
    if kind == 0:
        dist, cost = rng.random((n_s, n_t)), rng.uniform(-1.0, 2.0, size=shape)
    elif kind == 1:  # integer costs, uniform weights (1/3, 1/9, ...: sums round)
        dist, cost = np.ones((n_s, n_t)), rng.integers(0, 3, size=shape).astype(float)
    elif kind == 2:  # integer costs, random weights, some of them zero
        dist, cost = rng.random((n_s, n_t)), rng.integers(-1, 2, size=shape).astype(float)
        dist[rng.random((n_s, n_t)) < 0.3] = 0.0
        dist.flat[rng.integers(dist.size)] = 1.0
    else:  # every entry +inf
        dist, cost = np.ones((n_s, n_t)), np.full(shape, INF)
    cost[rng.random(shape) < 0.2] = INF
    return Game(n_s, n_t, n_a, n_b, dist / dist.sum(), cost)


def test_classical_equals_the_full_scan_on_random_games():
    rng = np.random.default_rng(17)
    sides = {"<": 0, "==": 0, ">": 0}
    for k in range(300):
        shape = tuple(int(v) for v in rng.integers(1, 4, size=4))
        game = random_game(rng, shape, kind=k % 4)
        n_alpha, n_beta = shape[2] ** shape[0], shape[3] ** shape[1]
        sides["<" if n_alpha < n_beta else "==" if n_alpha == n_beta else ">"] += 1
        assert classical_cost(game) == full_scan(game), (k, shape)
    assert min(sides.values()) >= 30


# Uniform weights 1/6 and integer costs give many pairs of exactly equal
# cost whose float sums still differ in the last ulps, so rounding in
# strategy_cost's order decides both the value and the first pair attaining
# it.  Values and witnesses are those of full_scan.
ROUNDED_TIES = [
    ((2, 3, 2, 2), [[[[0, 1], [INF, 0]], [[1, INF], [1, 2]], [[INF, INF], [INF, 2]]],
                    [[[1, 2], [INF, 1]], [[1, 1], [2, 1]], [[1, 1], [INF, 0]]]],
     1.0, ((1, 1), (1, 0, 1))),
    ((3, 2, 2, 2), [[[[0, 1], [1, INF]], [[1, 1], [INF, 0]]],
                    [[[INF, INF], [1, 2]], [[1, 0], [2, 0]]],
                    [[[INF, 2], [1, INF]], [[INF, 1], [2, INF]]]],
     1.1666666666666665, ((0, 1, 0), (1, 1))),
]


@pytest.mark.parametrize("shape, cost, value, witness", ROUNDED_TIES)
def test_classical_breaks_rounded_ties_like_the_full_scan(shape, cost, value, witness):
    game = Game(*shape, np.full(shape[:2], 1.0 / 6.0), cost)
    expected = (value, DeterministicStrategy(*witness))
    assert full_scan(game) == expected
    assert classical_cost(game) == expected


def table_scan(game):
    """Full scan as one numpy table: cost[i, j] of alpha row i and beta row j."""
    alphas = np.array(list(itertools.product(range(game.n_a), repeat=game.n_s)))
    betas = np.array(list(itertools.product(range(game.n_b), repeat=game.n_t)))
    weight = game.input_dist[:, :, None, None]
    weighted = weight * np.where(weight > 0, game.cost, 0.0)
    enumerate_alice = len(alphas) <= len(betas)
    n_x, n_y = (game.n_s, game.n_t) if enumerate_alice else (game.n_t, game.n_s)
    table = np.zeros((len(alphas), len(betas)))
    for y in range(n_y):  # strategy_cost's order of addition
        partial = np.zeros_like(table)
        for x in range(n_x):
            s, t = (x, y) if enumerate_alice else (y, x)
            partial += weighted[s, t][alphas[:, s][:, None], betas[:, t][None, :]]
        table += partial
    i, j = np.unravel_index(np.argmin(table), table.shape)
    witness = DeterministicStrategy(tuple(alphas[i].tolist()), tuple(betas[j].tolist()))
    return float(table[i, j]), witness


@pytest.mark.parametrize("shape", [(10, 10, 2, 2), (2, 2, 10, 10), (10, 3, 2, 10), (3, 10, 10, 2)])
def test_classical_equals_the_table_scan_on_larger_games(shape):
    rng = np.random.default_rng(sum(shape))
    dist = rng.random(shape[:2]) + 0.5
    cost = rng.random(shape)
    cost[rng.random(shape) < 0.1] = INF
    game = Game(*shape, dist / dist.sum(), cost)
    assert classical_cost(game) == table_scan(game)


def tied_games():
    """Games where many pairs cost exactly the same: uniform weights, dyadic
    (1/16, 1/8) and not (1/9, 1/6, 1/12), over all-ones or 0/1 cost tables."""
    rng = np.random.default_rng(23)
    games = []
    shapes = [(4, 4, 2, 2), (2, 4, 2, 2), (3, 3, 2, 2), (2, 3, 3, 2), (3, 4, 2, 3), (3, 3, 3, 3)]
    for shape in shapes:
        dist = np.full(shape[:2], 1.0 / (shape[0] * shape[1]))
        games.append(Game(*shape, dist, np.ones(shape)))
        games.append(Game(*shape, dist, rng.integers(0, 2, size=shape).astype(float)))
        cost = rng.integers(0, 2, size=shape).astype(float)
        cost[rng.random(shape) < 0.15] = INF
        games.append(Game(*shape, dist, cost))
    return games


@pytest.mark.parametrize("block", [None, 16], ids=["one-block", "many-chunks"])
def test_classical_rescores_tied_pairs_like_the_full_scan(monkeypatch, block):
    # many pairs tie exactly; the enumeration's per-input first best response
    # must pick the full scan's value and pair, also over many small blocks
    if block is not None:
        monkeypatch.setattr(classical, "_BLOCK_ENTRIES", block)
    for game in tied_games():
        assert classical_cost(game) == full_scan(game), game.cost.shape
