"""Property tests: JSON round-trips, the classical value under capping, and
the ns bound and the see-saw on games with zero-weight inputs.

Shapes stay small so that each example runs in milliseconds; the
hypothesis profile in conftest.py makes the examples the same on every run.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ngcost import (
    Game,
    QuantumStrategy,
    SeesawConfig,
    cap_infinities,
    classical_cost,
    evaluate_quantum_strategy,
    game_from_dict,
    game_to_dict,
    ns_lower_bound,
    seesaw_upper_bound,
    strategy_from_dict,
    strategy_to_dict,
    validate_game,
    validate_strategy,
)

UNIT = st.floats(-1.0, 1.0, width=64)
SIZE = st.integers(1, 3)


def _projective_povm(re: np.ndarray, im: np.ndarray, n_out: int) -> np.ndarray:
    """Projectors onto groups of columns of the unitary Q of re + i im; some may be 0."""
    q, _ = np.linalg.qr(re + 1j * im)
    groups = np.array_split(np.arange(q.shape[0]), n_out)
    return np.array([q[:, g] @ q[:, g].conj().T for g in groups])


@st.composite
def quantum_strategies(draw) -> QuantumStrategy:
    d_a, d_b, n_s, n_t, n_a, n_b = (draw(SIZE) for _ in range(6))
    state = draw(arrays(float, (2, d_a * d_b), elements=UNIT))
    state = state[0] + 1j * state[1]
    norm = np.linalg.norm(state)
    assume(norm > 1e-3)
    sides = []
    for n_in, n_out, dim in ((n_s, n_a, d_a), (n_t, n_b, d_b)):
        parts = draw(arrays(float, (n_in, 2, dim, dim), elements=UNIT))
        sides.append([_projective_povm(re, im, n_out) for re, im in parts])
    return QuantumStrategy(d_a, d_b, state / norm, sides[0], sides[1])


COST = st.one_of(st.floats(0.0, 10.0, width=64), st.integers(0, 5).map(float),
                 st.just(math.inf))
FINITE_COST = st.one_of(st.floats(0.0, 10.0, width=64), st.integers(0, 5).map(float))


@st.composite
def games(draw, max_size: int = 3, weight=st.floats(0.0, 1.0, width=64)) -> Game:
    n_s, n_t, n_a, n_b = (draw(st.integers(1, max_size)) for _ in range(4))
    weights = draw(arrays(float, (n_s, n_t), elements=weight))
    assume(weights.sum() > 1e-3)
    cost = draw(arrays(float, (n_s, n_t, n_a, n_b), elements=COST))
    game = Game(n_s, n_t, n_a, n_b, weights / weights.sum(), cost)
    assume(validate_game(game) == [])
    return game


@given(quantum_strategies())
def test_strategy_json_round_trip_is_bitwise(qs):
    assert validate_strategy(qs) == []
    text = json.dumps(strategy_to_dict(qs))
    back = strategy_from_dict(json.loads(text))
    assert (back.d_a, back.d_b) == (qs.d_a, qs.d_b)
    for name in ("state", "alice_povms", "bob_povms"):
        assert getattr(back, name).shape == getattr(qs, name).shape
        assert getattr(back, name).tobytes() == getattr(qs, name).tobytes()
    assert json.dumps(strategy_to_dict(back)) == text


@given(games())
def test_game_json_round_trip_is_bitwise(game):
    text = json.dumps(game_to_dict(game))
    back = game_from_dict(json.loads(text))
    assert (back.n_s, back.n_t, back.n_a, back.n_b) == (game.n_s, game.n_t, game.n_a, game.n_b)
    assert back.input_dist.tobytes() == game.input_dist.tobytes()
    assert back.cost.tobytes() == game.cost.tobytes()
    assert json.dumps(game_to_dict(back)) == text


# Small integer input weights keep the threshold cap finite.
@given(games(max_size=2, weight=st.integers(0, 4)), st.floats(1e-3, 10.0), st.floats(1e-3, 10.0))
def test_classical_value_is_cap_invariant_above_the_threshold(game, margin, low_margin):
    """Capping +inf at cap > max finite cost never raises the classical value, and keeps it
    whenever cap * w >= value for every positive input weight w with an infinite entry:
    then every strategy that meets a capped entry costs at least the uncapped optimum.
    """
    value = classical_cost(game)[0]
    assume(math.isfinite(value))
    max_finite = game.max_finite_cost()
    hit = np.isinf(game.cost).any(axis=(2, 3)) & (game.input_dist > 0)
    w_min = float(game.input_dist[hit].min()) if hit.any() else 1.0
    cap = max(max_finite, value / w_min) * (1.0 + margin) + margin
    assert classical_cost(cap_infinities(game, cap))[0] == value
    low_cap = max_finite * (1.0 + low_margin) + low_margin
    assert classical_cost(cap_infinities(game, low_cap))[0] <= value


@given(games(max_size=2, weight=st.integers(0, 2)))
def test_ns_bound_is_feasible_and_below_classical_with_zero_weight_inputs(game):
    """A zero-weight input pins no entry of the LP, even where its cost is +inf: every
    deterministic strategy of finite cost is then a feasible non-signalling behavior.
    """
    assume((game.input_dist == 0).any())
    value = classical_cost(game)[0]
    if math.isfinite(value):
        assert ns_lower_bound(game)[0] <= value + 1e-9


@st.composite
def binary_games_with_idle_infinities(draw) -> Game:
    """Binary-answer games whose +inf costs all sit on inputs of weight zero."""
    n_s, n_t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    weights = draw(arrays(float, (n_s, n_t), elements=st.integers(0, 2), fill=st.nothing()))
    assume(weights.sum() > 0)
    cost = draw(arrays(float, (n_s, n_t, 2, 2), elements=FINITE_COST))
    infinite = draw(arrays(bool, (n_s, n_t, 2, 2)))
    cost[infinite & (weights == 0)[:, :, None, None]] = math.inf
    return Game(n_s, n_t, 2, 2, weights / weights.sum(), cost)


@given(binary_games_with_idle_infinities())
def test_seesaw_runs_on_infinities_of_zero_weight_inputs(game):
    """The see-saw needs no cap for +inf entries that no input of positive weight meets:
    its value is that of the strategy it returns, and never below the ns bound.
    """
    report = seesaw_upper_bound(game, SeesawConfig(restarts=3, max_iters=60, seed=3))
    c = report.best_cost
    replay = evaluate_quantum_strategy(game, report.best_strategy)
    assert abs(c - replay) <= 1e-12 * max(1.0, abs(c))
    assert ns_lower_bound(game)[0] <= c + 1e-9


def test_a_cap_below_the_threshold_can_lower_the_classical_value():
    # Bob's answer 0 is forbidden on the rare input s = 1 and free on s = 0.
    cost = np.zeros((2, 1, 2, 2))
    cost[0, 0] = [[0.0, 10.0], [10.0, 10.0]]
    cost[1, 0] = [[math.inf, 0.0], [math.inf, 0.0]]
    game = Game(2, 1, 2, 2, [[0.99], [0.01]], cost)
    assert classical_cost(game)[0] == 9.9
    assert math.isclose(classical_cost(cap_infinities(game, 11.0))[0], 0.11)
    assert classical_cost(cap_infinities(game, 1000.0))[0] == 9.9
