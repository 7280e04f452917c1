import math
from fractions import Fraction

import numpy as np
import pytest
from ns_games import captured_ns_lps, negative_ns_games, random_ns_games
from ns_vertices import NS_VERTICES, exact_ns_value
from scipy.optimize import linprog

from ngcost import (
    Behavior,
    FamilyParams,
    Game,
    NonSignallingInfeasibleError,
    behavior_of,
    chsh_optimal_strategy,
    classical_cost,
    evaluate_quantum_strategy,
    expected_cost,
    hardy_strategy,
    is_nonsignalling,
    make_chsh_game,
    make_family_game,
    make_hardy_game,
    ns_lower_bound,
    seesaw_upper_bound,
)

INF = math.inf


def pr_box():
    p = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == s * t:
                        p[s, t, a, b] = 0.5
    return Behavior(p)


def hardy_half_half(T=1.0):
    # zero-cost answers split half-half; avoids all three forbidden entries
    p = np.zeros((2, 2, 2, 2))
    for s, t in [(0, 0), (0, 1), (1, 0)]:
        p[s, t, 0, 0] = 0.5
        p[s, t, 1, 1] = 0.5
    p[1, 1, 0, 1] = 0.5
    p[1, 1, 1, 0] = 0.5
    return Behavior(p)


def test_pr_box_is_nonsignalling_and_free_on_chsh():
    box = pr_box()
    assert is_nonsignalling(box)
    assert expected_cost(make_chsh_game(), box) == 0.0


def test_uniform_behavior_cost_on_chsh():
    uniform = Behavior(np.full((2, 2, 2, 2), 0.25))
    # each block holds two unit-cost entries at probability 1/4, weight 1/4
    assert expected_cost(make_chsh_game(), uniform) == 0.5


def test_signalling_behavior_is_detected():
    p = np.zeros((2, 2, 2, 2))
    p[0, 0, 0, 0] = 1.0  # Alice outputs 0 when t = 0 ...
    p[0, 1, 1, 1] = 1.0  # ... but 1 when t = 1
    p[1, 0, 0, 0] = 1.0
    p[1, 1, 0, 0] = 1.0
    assert not is_nonsignalling(Behavior(p))
    q = np.zeros((2, 2, 2, 2))
    for s in range(2):
        q[s, :, 0, s] = 1.0  # Alice always answers 0, Bob answers Alice's input
    assert not is_nonsignalling(Behavior(q))


def test_quantum_behaviors_are_nonsignalling():
    for qs in (chsh_optimal_strategy(), hardy_strategy(0.6)):
        assert is_nonsignalling(behavior_of(qs))


def test_pr_box_is_the_optimal_hardy_behavior():
    # the PR box avoids all three forbidden entries and pays T/8 on block (0,0)
    assert expected_cost(make_hardy_game(1.0), pr_box()) == 0.125


def test_behavior_cost_infinite_on_forbidden_mass():
    uniform = Behavior(np.full((2, 2, 2, 2), 0.25))
    assert expected_cost(make_hardy_game(1.0), uniform) == INF


def test_ns_chsh_is_zero():
    value, witness = ns_lower_bound(make_chsh_game())
    assert abs(value) <= 1e-9
    assert value >= -1e-12
    assert is_nonsignalling(witness)
    assert abs(expected_cost(make_chsh_game(), witness) - value) <= 1e-9


def test_ns_hardy_is_penalty_over_eight():
    game = make_hardy_game(1.0)
    value, witness = ns_lower_bound(game)
    assert abs(value - 0.125) <= 1e-9
    assert is_nonsignalling(witness)
    assert abs(expected_cost(game, witness) - value) <= 1e-9
    # forced zeros are exact, not merely small
    assert witness.p[0, 1, 0, 1] == 0.0
    assert witness.p[1, 0, 1, 0] == 0.0
    assert witness.p[1, 1, 0, 0] == 0.0

    # the explicit half-half behavior is feasible and optimal
    explicit = hardy_half_half()
    assert is_nonsignalling(explicit)
    assert expected_cost(game, explicit) == 0.125

    value2, _ = ns_lower_bound(make_hardy_game(2.0))
    assert abs(value2 - 0.25) <= 1e-9


def test_ns_zero_game():
    zero = Game(2, 2, 2, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 2)))
    value, witness = ns_lower_bound(zero)
    assert abs(value) <= 1e-12
    assert is_nonsignalling(witness)


def test_ns_is_a_lower_bound():
    games = [
        make_chsh_game(),
        make_hardy_game(1.0),
        make_family_game(FamilyParams(0.5, 0.8)),
        make_family_game(FamilyParams(1.2, 1.5)),
    ]
    rng = np.random.default_rng(41)
    for _ in range(4):
        cost = rng.uniform(0.0, 1.0, size=(2, 2, 2, 2))
        dist = rng.uniform(0.1, 1.0, size=(2, 2))
        dist /= dist.sum()
        games.append(Game(2, 2, 2, 2, dist, cost))
    for game in games:
        value, _ = ns_lower_bound(game)
        assert value <= classical_cost(game)[0] + 1e-9
    quantum = evaluate_quantum_strategy(make_chsh_game(), chsh_optimal_strategy())
    assert ns_lower_bound(make_chsh_game())[0] <= quantum + 1e-9


def test_vertex_oracle_has_the_24_vertices_of_the_ns_polytope():
    tables = set()
    for vertex in NS_VERTICES:
        p = np.zeros((2, 2, 2, 2))
        for entry, mass in vertex.items():
            p[entry] = float(mass)
        assert is_nonsignalling(Behavior(p))
        tables.add(p.tobytes())
    assert len(NS_VERTICES) == len(tables) == 24
    assert exact_ns_value(make_chsh_game()) == 0
    assert exact_ns_value(make_hardy_game(1.0)) == Fraction(1, 8)


def _binary_games_with_infinities(seed: int, count: int) -> list[Game]:
    """2x2x2x2 games, about 3 entries in 10 +inf, often with zero-weight inputs."""
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        shape = (2, 2, 2, 2)
        cost = rng.integers(0, 4, size=shape).astype(float) if k % 2 else rng.uniform(0, 3, shape)
        cost[rng.random(shape) < 0.3] = INF
        weights = rng.integers(0, 3, size=(2, 2)).astype(float)
        weights[0, 0] += weights.sum() == 0
        games.append(Game(*shape, weights / weights.sum(), cost))
    return games


def test_ns_bound_is_the_least_allowed_vertex_cost():
    phis = [(k + 0.5) * (math.pi / 2) / 32 for k in range(32)]
    family = [make_family_game(FamilyParams(phi, w)) for phi in phis for w in (0.0, 0.5, 1.0, 2.0)]
    games = [make_chsh_game(), make_hardy_game(1.0)] + family + _binary_games_with_infinities(71, 400)
    infeasible = 0
    for game in games:
        exact = exact_ns_value(game)
        try:
            value = ns_lower_bound(game)[0]
        except NonSignallingInfeasibleError:
            assert exact is None, game
            infeasible += 1
        else:
            assert exact is not None and abs(value - float(exact)) <= 1e-12, game
    assert infeasible > 0


def test_ns_infeasible_when_block_fully_forbidden():
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 0] = INF
    game = Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)
    with pytest.raises(NonSignallingInfeasibleError):
        ns_lower_bound(game)


def test_ns_infeasible_via_marginal_contradiction():
    # input (0,0) forbids a=0 entirely while input (0,1) forbids a=1,
    # so Alice's marginal cannot ignore Bob's input
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 0, 0, :] = INF
    cost[0, 1, 1, :] = INF
    game = Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)
    with pytest.raises(NonSignallingInfeasibleError):
        ns_lower_bound(game)


def test_ns_deterministic_witness():
    first = ns_lower_bound(make_hardy_game(1.0))
    second = ns_lower_bound(make_hardy_game(1.0))
    assert first[0] == second[0]
    assert np.array_equal(first[1].p, second[1].p)


def _scipy_ns_result(game):
    """Independent LP assembly: scipy's result on the same polytope problem."""
    n_s, n_t, n_a, n_b = game.n_s, game.n_t, game.n_a, game.n_b
    n_vars = n_s * n_t * n_a * n_b

    def idx(s, t, a, b):
        return ((s * n_t + t) * n_a + a) * n_b + b

    rows, rhs = [], []
    for s in range(n_s):
        for t in range(n_t):
            row = np.zeros(n_vars)
            row[[idx(s, t, a, b) for a in range(n_a) for b in range(n_b)]] = 1.0
            rows.append(row)
            rhs.append(1.0)
    for s in range(n_s):
        for a in range(n_a):
            for t in range(1, n_t):
                row = np.zeros(n_vars)
                for b in range(n_b):
                    row[idx(s, t, a, b)] += 1.0
                    row[idx(s, 0, a, b)] -= 1.0
                rows.append(row)
                rhs.append(0.0)
    for t in range(n_t):
        for b in range(n_b):
            for s in range(1, n_s):
                row = np.zeros(n_vars)
                for a in range(n_a):
                    row[idx(s, t, a, b)] += 1.0
                    row[idx(0, t, a, b)] -= 1.0
                rows.append(row)
                rhs.append(0.0)

    weight = game.input_dist[:, :, None, None]
    c = (weight * np.where(np.isfinite(game.cost), game.cost, 0.0)).ravel()
    # only the forbidden entries of inputs that occur are pinned to zero
    pinned = (np.isinf(game.cost) & (weight > 0)).ravel()
    bounds = [(0.0, 0.0) if pinned[i] else (0.0, None) for i in range(n_vars)]
    return linprog(c, A_eq=np.array(rows), b_eq=np.array(rhs), bounds=bounds, method="highs")


def _scipy_ns_value(game):
    res = _scipy_ns_result(game)
    assert res.status == 0
    return res.fun


def test_ns_matches_scipy_on_assorted_games():
    games = [
        make_chsh_game(),
        make_hardy_game(1.0),
        make_hardy_game(3.0),
        make_family_game(FamilyParams(0.4, 0.0)),
        make_family_game(FamilyParams(1.1, 2.5)),
    ]
    rng = np.random.default_rng(43)
    for _ in range(5):
        cost = rng.uniform(0.0, 2.0, size=(2, 2, 2, 2))
        dist = rng.uniform(0.05, 1.0, size=(2, 2))
        dist /= dist.sum()
        games.append(Game(2, 2, 2, 2, dist, cost))
    # zero-weight inputs: an all-forbidden block, and forbidden entries that
    # would contradict a marginal if they were pinned
    idle = np.zeros((2, 2, 2, 2))
    idle[0, 0] = [[0.0, 1.0], [1.0, 0.0]]
    idle[1, 1] = INF
    games.append(Game(2, 2, 2, 2, [[1 / 3, 1 / 3], [1 / 3, 0.0]], idle))
    cost = rng.uniform(-1.0, 2.0, size=(3, 2, 2, 2))
    cost[0, 0, 0, :] = INF
    cost[0, 1, 1, :] = INF
    cost[2, 1, 0, 1] = INF
    games.append(Game(3, 2, 2, 2, [[0.2, 0.0], [0.3, 0.1], [0.4, 0.0]], cost))
    for game in games:
        ours, _ = ns_lower_bound(game)
        theirs = _scipy_ns_value(game)
        assert abs(ours - theirs) <= 1e-7


def test_ns_matches_scipy_on_negative_cost_games():
    # costs below zero: the only non-signalling LPs on which phase 2 pivots
    seen = {0: 0, 2: 0}
    for game in negative_ns_games(5, 40):
        res = _scipy_ns_result(game)
        seen[res.status] += 1
        if res.status == 2:
            with pytest.raises(NonSignallingInfeasibleError):
                ns_lower_bound(game)
            continue
        value, witness = ns_lower_bound(game)
        assert abs(value - res.fun) <= 1e-7
        assert is_nonsignalling(witness)
        assert abs(expected_cost(game, witness) - value) <= 1e-9
    assert seen == {0: 38, 2: 2}


def _chsh_with_cost_entry(entry):
    cost = make_chsh_game().cost.copy()
    cost[0, 1, 1, 0] = entry
    return Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)


# Builders, not games: an invalid Game raises when it is built.
INVALID_GAMES = {
    "nan": (lambda: _chsh_with_cost_entry(math.nan),
            "invalid cost entry at \\(0,1,1,0\\): nan"),
    "minus-inf": (lambda: _chsh_with_cost_entry(-INF),
                  "invalid cost entry at \\(0,1,1,0\\): -inf"),
    "unnormalized": (lambda: Game(2, 2, 2, 2, np.full((2, 2), 0.3), make_chsh_game().cost),
                     "not normalized"),
}


@pytest.mark.parametrize("solver", [ns_lower_bound, seesaw_upper_bound], ids=["ns", "seesaw"])
@pytest.mark.parametrize("case", sorted(INVALID_GAMES))
def test_ns_and_seesaw_reject_invalid_games(solver, case):
    build, message = INVALID_GAMES[case]
    with pytest.raises(ValueError, match=message):
        solver(build())


def _loop_ns_program(game):
    """The constraint builder before it was vectorized, kept as the reference."""
    n_s, n_t, n_a, n_b = game.n_s, game.n_t, game.n_a, game.n_b
    n_vars = n_s * n_t * n_a * n_b

    def idx(s, t, a, b):
        return ((s * n_t + t) * n_a + a) * n_b + b

    free = np.flatnonzero(np.isfinite(game.cost).ravel())
    rows, rhs = [], []
    for s in range(n_s):
        for t in range(n_t):
            row = np.zeros(n_vars)
            for a in range(n_a):
                for b in range(n_b):
                    row[idx(s, t, a, b)] = 1.0
            rows.append(row)
            rhs.append(1.0)
    for s in range(n_s):
        for a in range(n_a):
            for t in range(1, n_t):
                row = np.zeros(n_vars)
                for b in range(n_b):
                    row[idx(s, t, a, b)] = 1.0
                    row[idx(s, t - 1, a, b)] -= 1.0
                rows.append(row)
                rhs.append(0.0)
    for t in range(n_t):
        for b in range(n_b):
            for s in range(1, n_s):
                row = np.zeros(n_vars)
                for a in range(n_a):
                    row[idx(s, t, a, b)] = 1.0
                    row[idx(s - 1, t, a, b)] -= 1.0
                rows.append(row)
                rhs.append(0.0)
    weights = game.input_dist[:, :, None, None] * np.where(
        np.isfinite(game.cost), game.cost, 0.0
    )
    return np.array(rows)[:, free], np.array(rhs), weights.ravel()[free]


def test_ns_program_matches_loop_builder_bitwise(monkeypatch):
    games = random_ns_games(7, 30)
    rng = np.random.default_rng(8)
    for shape in [(1, 1, 2, 3), (1, 4, 2, 2), (3, 1, 3, 2), (2, 3, 1, 4)]:
        cost = rng.uniform(0.0, 2.0, size=shape)
        cost.flat[0] = INF
        n_s, n_t = shape[:2]
        games.append(Game(*shape, np.full((n_s, n_t), 1.0 / (n_s * n_t)), cost))
    for game, lp in zip(games, captured_ns_lps(monkeypatch, games)):
        for got, expected in zip((lp.a_eq, lp.b_eq, lp.c), _loop_ns_program(game)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
