import math

import numpy as np
import pytest

from ngcost import (
    FamilyParams,
    Game,
    SeesawConfig,
    auto_cap,
    cap_infinities,
    classical_cost,
    evaluate_quantum_strategy,
    game_operator,
    load_strategy,
    make_chsh_game,
    make_family_game,
    make_hardy_game,
    optimal_state,
    save_strategy,
    seesaw_upper_bound,
    update_alice,
    update_bob,
)
from ngcost import seesaw
from ngcost.linalg import herm_eig, kron, partial_trace_b
from ngcost.quantum import QuantumStrategy, validate_strategy

from qubit_oracle import qubit_grid_minimum

TSIRELSON_COST = (2.0 - math.sqrt(2.0)) / 4.0
HARDY_QUANTUM_UB = 0.25 * (1.0 - (5.0 * math.sqrt(5.0) - 11.0) / 2.0)


def chsh_measurements():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    root = math.sqrt(2.0)

    def povm(obs):
        return (np.eye(2) + obs) / 2.0, (np.eye(2) - obs) / 2.0

    alice = (povm(sz), povm(sx))
    bob = (povm(-(sx + sz) / root), povm((sx - sz) / root))
    return alice, bob


def random_projective(rng, dim=2):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    p0 = np.outer(q[:, 0], q[:, 0].conj())
    return p0, np.eye(dim) - p0


def test_game_operator_on_chsh_optimal_measurements():
    g = make_chsh_game()
    alice, bob = chsh_measurements()
    op = game_operator(g, alice, bob)
    assert op.shape == (4, 4)
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12
    eigs = np.linalg.eigvalsh(op)
    assert abs(eigs[0] - TSIRELSON_COST) <= 1e-9


def test_game_operator_trivial_povms():
    g = make_chsh_game()
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    trivial = ((eye, zero), (eye, zero))
    op = game_operator(g, trivial, trivial)
    # only outcome (0,0) has support; sum of pi * C(0,0|s,t) is 1/4
    assert np.max(np.abs(op - 0.25 * np.eye(4))) <= 1e-12


def test_game_operator_rejects_infinite_and_misshapen():
    with pytest.raises(ValueError, match="cap"):
        game_operator(make_hardy_game(1.0), *chsh_measurements())
    g = make_chsh_game()
    alice, bob = chsh_measurements()
    with pytest.raises(ValueError):
        game_operator(g, alice[:1], bob)


def test_optimal_state_matches_expectation():
    g = make_chsh_game()
    alice, bob = chsh_measurements()
    state, cost = optimal_state(g, alice, bob)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
    assert abs(cost - TSIRELSON_COST) <= 1e-9
    op = game_operator(g, alice, bob)
    assert abs(float(np.vdot(state, op @ state).real) - cost) <= 1e-12


def _cost_of(game, state, alice, bob):
    op = game_operator(game, alice, bob)
    return float(np.vdot(state, op @ state).real)


def test_update_alice_never_increases_cost():
    g = make_chsh_game()
    rng = np.random.default_rng(51)
    for _ in range(5):
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        alice = (random_projective(rng), random_projective(rng))
        bob = (random_projective(rng), random_projective(rng))
        before = _cost_of(g, state, alice, bob)
        updated = update_alice(g, state, bob)
        after = _cost_of(g, state, updated, bob)
        assert after <= before + 1e-12
        for povm in updated:
            total = povm[0] + povm[1]
            assert np.max(np.abs(total - np.eye(2))) <= 1e-10
            for element in povm:
                assert np.max(np.abs(element - element.conj().T)) <= 1e-10
                assert np.max(np.abs(element @ element - element)) <= 1e-10


def test_update_alice_reaches_the_exact_subproblem_optimum():
    # independent route: the best POVM value is the sum of negative
    # eigenvalues of R0 - R1 plus trace(R1)
    g = make_chsh_game()
    rng = np.random.default_rng(52)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    bob = (random_projective(rng), random_projective(rng))

    rho = np.outer(state, state.conj())
    weights = g.input_dist[:, :, None, None] * g.cost
    R = np.zeros((2, 2, 2, 2), dtype=complex)  # (s, a, i, j)
    for s in range(2):
        for a in range(2):
            for t in range(2):
                for b in range(2):
                    R[s, a] += weights[s, t, a, b] * partial_trace_b(
                        kron(np.eye(2), bob[t][b]) @ rho, 2, 2)
    expected = 0.0
    for s in range(2):
        eigs = np.linalg.eigvalsh(R[s, 0] - R[s, 1])
        expected += eigs[eigs < 0.0].sum() + np.trace(R[s, 1]).real

    updated = update_alice(g, state, bob)
    assert abs(_cost_of(g, state, updated, bob) - expected) <= 1e-10


@pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2), (4, 4)])
def test_updates_match_the_kron_partial_trace_reference(d_a, d_b):
    # the loop the batched kernel replaced, kept as the reference
    from ngcost.linalg import partial_trace_a
    g = make_family_game(FamilyParams(1.1, 0.7))
    rng = np.random.default_rng(59)
    state = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
    state /= np.linalg.norm(state)
    alice = tuple(random_projective(rng, d_a) for _ in range(2))
    bob = tuple(random_projective(rng, d_b) for _ in range(2))
    rho = np.outer(state, state.conj())
    weights = g.input_dist[:, :, None, None] * g.cost
    R_a = np.zeros((2, 2, d_a, d_a), dtype=complex)  # (s, a, i, j)
    R_b = np.zeros((2, 2, d_b, d_b), dtype=complex)  # (t, b, k, l)
    for s, t, a, b in np.ndindex(2, 2, 2, 2):
        R_a[s, a] += weights[s, t, a, b] * partial_trace_b(
            kron(np.eye(d_a), bob[t][b]) @ rho, d_a, d_b)
        R_b[t, b] += weights[s, t, a, b] * partial_trace_a(
            kron(alice[s][a], np.eye(d_b)) @ rho, d_a, d_b)

    def best_value(R):
        total = 0.0
        for x in range(2):
            eigs = np.linalg.eigvalsh(R[x, 0] - R[x, 1])
            total += eigs[eigs < 0.0].sum() + np.trace(R[x, 1]).real
        return total

    new_alice = update_alice(g, state, bob)
    new_bob = update_bob(g, state, alice)
    assert abs(_cost_of(g, state, new_alice, bob) - best_value(R_a)) <= 1e-10
    assert abs(_cost_of(g, state, alice, new_bob) - best_value(R_b)) <= 1e-10


def test_update_bob_mirrors_update_alice_on_symmetric_games():
    # family games are symmetric under swapping the parties
    g = make_family_game(FamilyParams(0.3, 1.2))
    rng = np.random.default_rng(53)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    raw = raw + raw.T  # symmetric under swap of the two qubits
    state = raw.reshape(-1)
    state /= np.linalg.norm(state)
    povms = (random_projective(rng), random_projective(rng))
    from_alice = update_alice(g, state, povms)
    from_bob = update_bob(g, state, povms)
    for pa, pb in zip(from_alice, from_bob):
        assert np.max(np.abs(pa[0] - pb[0])) <= 1e-9


def test_update_handles_zero_operator():
    zero = Game(2, 2, 2, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 2)))
    rng = np.random.default_rng(54)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    povms = (random_projective(rng), random_projective(rng))
    updated = update_alice(zero, state, povms)
    for p0, p1 in updated:
        # no strictly negative eigenvalues: outcome 0 gets nothing
        assert np.max(np.abs(p0)) <= 1e-12
        assert np.max(np.abs(p1 - np.eye(2))) <= 1e-12


def test_update_rejects_infinite_costs_and_nonbinary_outcomes():
    rng = np.random.default_rng(55)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    povms = (random_projective(rng), random_projective(rng))
    with pytest.raises(ValueError, match="cap"):
        update_alice(make_hardy_game(1.0), state, povms)
    wide = Game(2, 2, 3, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 3, 2)))
    with pytest.raises(ValueError, match="n_a"):
        update_alice(wide, state, povms)
    wide_b = Game(2, 2, 2, 3, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 3)))
    with pytest.raises(ValueError, match="n_b"):
        update_bob(wide_b, state, povms)


def test_update_alice_rejects_a_state_not_divisible_by_d_b():
    alice, bob = chsh_measurements()
    with pytest.raises(ValueError, match="not divisible by d_b=2"):
        update_alice(make_chsh_game(), np.full(3, 1.0, dtype=complex), bob)


def idle_input_games():
    """A game whose only +inf entries sit on inputs of weight zero, and the
    same game with those entries set to 0."""
    rng = np.random.default_rng(61)
    cost = rng.uniform(0.0, 1.0, size=(2, 2, 2, 2))
    cost[1, 0, 1, 0] = cost[1, 1, 0, 0] = cost[1, 1, 1, 1] = math.inf
    dist = [[0.5, 0.5], [0.0, 0.0]]
    zeroed = np.where(np.isinf(cost), 0.0, cost)
    return Game(2, 2, 2, 2, dist, cost), Game(2, 2, 2, 2, dist, zeroed)


def test_see_saw_steps_accept_infinite_entries_of_zero_weight_inputs():
    idle, zeroed = idle_input_games()
    alice, bob = chsh_measurements()
    state = np.full(4, 0.5, dtype=complex)
    assert np.array_equal(game_operator(idle, alice, bob), game_operator(zeroed, alice, bob))
    assert np.array_equal(update_alice(idle, state, bob), update_alice(zeroed, state, bob))
    assert np.array_equal(update_bob(idle, state, alice), update_bob(zeroed, state, alice))


def test_seesaw_on_zero_weight_infinities_equals_the_zeroed_game_bitwise():
    idle, zeroed = idle_input_games()
    config = SeesawConfig(seed=2, restarts=5)
    got, want = seesaw_upper_bound(idle, config), seesaw_upper_bound(zeroed, config)
    assert got.best_cost == want.best_cost
    assert got.best_restart == want.best_restart
    assert got.traces == want.traces
    for name in ("state", "alice_povms", "bob_povms"):
        assert np.array_equal(getattr(got.best_strategy, name), getattr(want.best_strategy, name))


def test_optimal_state_and_update_alice_reject_nan_costs():
    cost = make_chsh_game().cost.copy()
    cost[0, 1, 1, 0] = math.nan
    with pytest.raises(ValueError, match="invalid cost entry at \\(0,1,1,0\\): nan"):
        Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)
    # a raw weighted table can still hold the NaN; the steps refuse it
    table = 0.25 * cost
    alice, bob = chsh_measurements()
    state = np.full(4, 0.5, dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        optimal_state(table, alice, bob)
    with pytest.raises(ValueError, match="finite"):
        update_alice(table, state, bob)


@pytest.mark.parametrize("entry, message", [
    (math.nan, "weighted cost table entries must be finite or \\+inf, got nan"),
    (-math.inf, "weighted cost table entries must be finite or \\+inf, got -inf"),
    (math.inf, "cap them first"),
], ids=["nan", "minus-inf", "plus-inf"])
def test_steps_refuse_every_non_finite_table_entry(entry, message):
    table = 0.25 * make_chsh_game().cost
    table[1, 0, 0, 1] = entry
    games = [table]
    if entry == math.inf:  # an uncapped Hardy game: +inf costs on inputs of positive weight
        games.append(make_hardy_game(1.0))
        assert np.isposinf(games[-1]._weights).any()
    alice, bob = chsh_measurements()
    state = np.full(4, 0.5, dtype=complex)
    for game in games:
        for step in (lambda: game_operator(game, alice, bob),
                     lambda: optimal_state(game, alice, bob),
                     lambda: update_alice(game, state, bob),
                     lambda: update_bob(game, state, alice)):
            with pytest.raises(ValueError, match=message):
                step()


def test_each_step_checks_its_game_once(monkeypatch):
    checks = []
    check = seesaw._CheckedTables.__init__

    def counted(self, table):
        checks.append(np.shape(table))
        check(self, table)

    monkeypatch.setattr(seesaw._CheckedTables, "__init__", counted)
    game = make_family_game(FamilyParams(0.9, 1.4))
    alice, bob = chsh_measurements()
    state = np.full(4, 0.5, dtype=complex)
    checked = seesaw._weights_of(game)
    for step, args in ((game_operator, (alice, bob)), (optimal_state, (alice, bob)),
                       (update_alice, (state, bob)), (update_bob, (state, alice))):
        for given, calls in ((game, 1), (game._weights, 1), (checked, 0)):
            checks.clear()
            step(given, *args)
            assert checks == [(2, 2, 2, 2)] * calls, (step.__name__, type(given).__name__)


def _random_batch(rng, size, n, dim):
    return np.array([[random_projective(rng, dim) for _ in range(n)] for _ in range(size)])


def test_steps_on_a_stack_match_single_calls():
    rng = np.random.default_rng(56)
    for game, d_a, d_b in [(make_family_game(FamilyParams(0.9, 1.4)), 2, 2),
                           (cap_infinities(make_hardy_game(1.0), 10.0), 2, 3),
                           (make_chsh_game(), 4, 2)]:
        states = rng.normal(size=(5, d_a * d_b)) + 1j * rng.normal(size=(5, d_a * d_b))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        alice = _random_batch(rng, 5, 2, d_a)
        bob = _random_batch(rng, 5, 2, d_b)
        ops = game_operator(game, alice, bob)
        new_alice = update_alice(game, states, bob)
        new_bob = update_bob(game, states, alice)
        best_states, best_costs = optimal_state(game, alice, bob)
        assert ops.shape == (5, d_a * d_b, d_a * d_b)
        assert new_alice.shape == (5, 2, 2, d_a, d_a)
        assert new_bob.shape == (5, 2, 2, d_b, d_b)
        assert best_states.shape == (5, d_a * d_b) and best_costs.shape == (5,)
        for r in range(5):
            assert np.max(np.abs(ops[r] - game_operator(game, alice[r], bob[r]))) <= 1e-12
            assert np.max(np.abs(new_alice[r] - update_alice(game, states[r], bob[r]))) <= 1e-12
            assert np.max(np.abs(new_bob[r] - update_bob(game, states[r], alice[r]))) <= 1e-12
            state, cost = optimal_state(game, alice[r], bob[r])
            assert isinstance(cost, float)
            assert abs(best_costs[r] - cost) <= 1e-12
            assert abs(abs(np.vdot(best_states[r], state)) - 1.0) <= 1e-12


def family_grid(phis, ws):
    """The sweep grid: family games with every +inf entry capped at auto_cap."""
    games = [make_family_game(FamilyParams(phi, w)) for phi in phis for w in ws]
    return [cap_infinities(g, auto_cap(g)) if np.isinf(g.cost).any() else g for g in games]


HARDY_CAPS = [cap_infinities(make_hardy_game(1.0), cap) for cap in (2.0, 4.0, 10.0)]
# largest weighted costs max|pi C| of 2.5e8 and 2.5e7
LARGE_COSTS = [cap_infinities(make_hardy_game(1.0), 1e9), make_family_game(FamilyParams(0.5, 1e-8))]


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (4, 4)])
def test_steps_on_a_sequence_of_games_match_per_game_calls_bitwise(d_a, d_b):
    # entry r of the stacked weighted cost table plays games[owner[r]]; each
    # game's rows must come out exactly as a call with that one game on those rows
    rng = np.random.default_rng(60)
    games = family_grid([0.3, 1.076], [0.0, 1.4]) + HARDY_CAPS[:1]
    owner = np.array([0, 1, 2, 3, 4, 1, 0, 4, 3, 2, 2])
    table = np.array([games[g]._weights for g in owner])
    size = len(owner)
    states = rng.normal(size=(size, d_a * d_b)) + 1j * rng.normal(size=(size, d_a * d_b))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    alice = _random_batch(rng, size, 2, d_a)
    bob = _random_batch(rng, size, 2, d_b)
    ops = game_operator(table, alice, bob)
    new_alice = update_alice(table, states, bob)
    new_bob = update_bob(table, states, alice)
    best_states, best_costs = optimal_state(table, alice, bob)
    for g, game in enumerate(games):
        rows = owner == g
        assert np.array_equal(ops[rows], game_operator(game, alice[rows], bob[rows]))
        assert np.array_equal(new_alice[rows], update_alice(game, states[rows], bob[rows]))
        assert np.array_equal(new_bob[rows], update_bob(game, states[rows], alice[rows]))
        state, cost = optimal_state(game, alice[rows], bob[rows])
        assert np.array_equal(best_states[rows], state)
        assert np.array_equal(best_costs[rows], cost)


def test_steps_reject_mixed_shapes_and_a_sequence_of_the_wrong_length():
    # games of mixed shapes cannot share one stacked table; the grid driver
    # refuses them (test_grid_driver_rejects_mixed_shapes_before_any_iteration),
    # and a table whose input counts disagree with the POVMs is refused here
    rng = np.random.default_rng(62)
    chsh = make_chsh_game()._weights
    three = Game(3, 2, 2, 2, np.full((3, 2), 1 / 6), np.zeros((3, 2, 2, 2)))._weights
    alice, bob = _random_batch(rng, 2, 2, 2), _random_batch(rng, 2, 2, 2)
    states = np.full((2, 4), 0.5, dtype=complex)
    with pytest.raises(ValueError, match="shape"):
        game_operator(np.array([three, three]), alice, bob)
    with pytest.raises(ValueError, match="weighted cost table has shape"):
        update_alice(chsh[0], states, bob)
    with pytest.raises(ValueError, match="batch"):
        update_bob(np.array([chsh] * 3), states, alice)
    with pytest.raises(ValueError, match="cap"):
        optimal_state(np.array([chsh, make_hardy_game(1.0)._weights]), alice, bob)


def test_grid_driver_rejects_mixed_shapes_before_any_iteration():
    three = Game(3, 2, 2, 2, np.full((3, 2), 1 / 6), np.zeros((3, 2, 2, 2)))
    with pytest.raises(ValueError, match="shape"):
        seesaw._seesaw_stack([make_chsh_game(), three], SeesawConfig(restarts=2))
    with pytest.raises(ValueError, match="cap"):
        seesaw._seesaw_stack([make_chsh_game(), make_hardy_game(1.0)], SeesawConfig(restarts=2))


def assert_same_report(got, want):
    assert got.best_cost == want.best_cost
    assert got.best_restart == want.best_restart
    assert got.traces == want.traces  # tuple equality also compares lengths
    for name in ("state", "alice_povms", "bob_povms"):
        assert np.array_equal(getattr(got.best_strategy, name), getattr(want.best_strategy, name))


def assert_value_matches_strategy(game, report):
    # the replay's rounding grows with the largest weighted cost; the second
    # term only decides for costs above about 1e3
    replay = evaluate_quantum_strategy(game, report.best_strategy)
    tol = max(1e-12 * max(1.0, abs(report.best_cost)), 1e-15 * float(np.abs(game._weights).max()))
    assert abs(report.best_cost - replay) <= tol


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (4, 4)])
@pytest.mark.parametrize("grid", ["family", "hardy-caps"])
def test_grid_driver_matches_per_game_seesaw_bitwise(grid, d_a, d_b):
    # each stack mixes games whose largest weighted costs run from 0.5 to 2.5e8
    games = (family_grid([0.05, 0.49, 1.076, 1.5], [0.0, 0.5, 1.0]) if grid == "family"
             else HARDY_CAPS) + LARGE_COSTS
    config = SeesawConfig(d_a=d_a, d_b=d_b, restarts=3, max_iters=60, seed=5)
    reports = seesaw._seesaw_stack(games, config)
    assert len(reports) == len(games)
    for game, report in zip(games, reports):
        assert_same_report(report, seesaw_upper_bound(game, config))
        assert_value_matches_strategy(game, report)


@pytest.mark.parametrize("cap", [1, 4, 7])
def test_grid_driver_runs_grids_above_the_stack_cap_in_chunks(monkeypatch, cap):
    # cap 1 and 4 hold one game of 3 restarts per stack, 7 holds two
    games = family_grid([0.3, 0.8, 1.2], [0.0, 1.0]) + HARDY_CAPS
    config = SeesawConfig(restarts=3, max_iters=80, seed=9)
    monkeypatch.setattr(seesaw, "_STACK_ENTRIES", cap)
    for game, report in zip(games, seesaw._seesaw_stack(games, config)):
        assert_same_report(report, seesaw_upper_bound(game, config))


def test_grid_driver_on_a_grid_larger_than_the_stack():
    config = SeesawConfig(restarts=3, max_iters=40, seed=4)
    games = family_grid(np.linspace(0.0, 1.5, 15), [0.0, 0.5, 1.0])
    assert len(games) * config.restarts > seesaw._STACK_ENTRIES
    for game, report in zip(games, seesaw._seesaw_stack(games, config)):
        assert_same_report(report, seesaw_upper_bound(game, config))
        assert_value_matches_strategy(game, report)


def test_a_grid_checks_its_tables_once_and_hands_the_steps_read_only_rows(monkeypatch):
    checks, writable, stacks = [], [], []
    check, run_stack = seesaw._CheckedTables.__init__, seesaw._run_stack

    def counted(self, table):
        checks.append(np.shape(table))
        check(self, table)

    def counted_stack(*args):
        stacks.append(len(args[2]))
        return run_stack(*args)

    def read_only(step):
        def wrapped(table, *args):
            writable.extend(getattr(table, name).flags.writeable for name in table.__slots__)
            return step(table, *args)
        return wrapped

    monkeypatch.setattr(seesaw._CheckedTables, "__init__", counted)
    monkeypatch.setattr(seesaw, "_run_stack", counted_stack)
    for step in (update_alice, update_bob, optimal_state):
        monkeypatch.setattr(seesaw, step.__name__, read_only(step))
    config = SeesawConfig(restarts=3, max_iters=80, seed=9)
    # one sweep row, whose 9 entries stop at different iterations, as one
    # stack; then a grid of 7 games in stacks of 2 games
    row = family_grid([0.859], [0.0, 0.5, 1.0])
    grid = family_grid([0.3, 1.2], [0.0, 1.0]) + HARDY_CAPS
    for games, cap, n_stacks in ((row, seesaw._STACK_ENTRIES, 1), (grid, 7, 4)):
        monkeypatch.setattr(seesaw, "_STACK_ENTRIES", cap)
        for seen in (checks, writable, stacks):
            seen.clear()
        reports = seesaw._seesaw_stack(games, config)
        assert checks == [(len(games), 2, 2, 2, 2)]
        assert len(stacks) == n_stacks and sum(stacks) == len(games) * config.restarts
        assert writable and not any(writable)
        assert len({len(trace) for report in reports for trace in report.traces}) > 2


def test_a_chunked_grid_refuses_an_uncapped_game_in_its_last_stack_before_any_iteration(
        monkeypatch):
    def never(*args):
        raise AssertionError("update_alice ran before the refusal")

    monkeypatch.setattr(seesaw, "_STACK_ENTRIES", 3)
    monkeypatch.setattr(seesaw, "update_alice", never)
    games = family_grid([0.3, 1.2], [0.5, 1.0]) + [make_hardy_game(1.0)]
    with pytest.raises(ValueError, match="cap them first"):
        seesaw._seesaw_stack(games, SeesawConfig(restarts=3))


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (4, 4)])
def test_each_entry_of_a_stack_runs_bitwise_as_it_would_alone(d_a, d_b):
    # entries of different games in no particular order, each from its own
    # start: restarts taken in reversed order
    games = family_grid([0.859], [0.0, 1.0]) + HARDY_CAPS[:1] + LARGE_COSTS
    config = SeesawConfig(d_a=d_a, d_b=d_b, restarts=3, max_iters=60, seed=5)
    checked = seesaw._CheckedTables(np.array([game._weights for game in games]))
    owner = np.array([3, 0, 4, 1, 2, 0, 4, 1])
    starts = [seesaw._random_start(config, 2, 2, r) for r in reversed(range(len(owner)))]
    state, alice, bob = (np.array(part, dtype=complex) for part in zip(*starts))
    alone = []
    for e in range(len(owner)):
        rows = [part[e:e + 1].copy() for part in (state, alice, bob)]
        (trace,) = seesaw._run_stack(checked.take(owner[e:e + 1]), config.tol, *rows,
                                     config.max_iters)
        alone.append((trace, rows))
    traces = seesaw._run_stack(checked.take(owner), config.tol, state, alice, bob, config.max_iters)
    assert len(traces) == len(owner)
    for e, (trace, rows) in enumerate(alone):
        assert np.array(traces[e]).tobytes() == np.array(trace).tobytes()
        for whole, part in zip((state, alice, bob), rows):
            assert whole[e].tobytes() == part[0].tobytes()
    assert len({len(trace) for trace in traces}) > 2


def test_update_rejects_mismatched_batch_axes():
    rng = np.random.default_rng(58)
    g = make_chsh_game()
    states = rng.normal(size=(3, 4)) + 0j
    with pytest.raises(ValueError, match="batch"):
        update_alice(g, states, _random_batch(rng, 2, 2, 2))
    with pytest.raises(ValueError, match="batch"):
        update_bob(g, states[0].reshape(2, 2), _random_batch(rng, 1, 2, 2)[0])
    with pytest.raises(ValueError, match="batch"):
        game_operator(g, _random_batch(rng, 3, 2, 2), _random_batch(rng, 2, 2, 2))


@pytest.mark.parametrize("game", [make_chsh_game(), cap_infinities(make_hardy_game(1.0), 10.0)],
                         ids=["chsh", "capped-hardy"])
@pytest.mark.parametrize("dim", [2, 4])
def test_batch_width_does_not_leak_between_restarts(game, dim):
    k = 3
    narrow = seesaw_upper_bound(game, SeesawConfig(d_a=dim, d_b=dim, restarts=k, seed=7))
    wide = seesaw_upper_bound(game, SeesawConfig(d_a=dim, d_b=dim, restarts=2 * k, seed=7))
    assert wide.traces[:k] == narrow.traces  # tuple equality also compares lengths


def test_seesaw_chsh_reaches_tsirelson():
    report = seesaw_upper_bound(make_chsh_game(), SeesawConfig(seed=1))
    assert TSIRELSON_COST - 1e-9 <= report.best_cost <= TSIRELSON_COST + 1e-4
    assert report.restarts == 32
    assert validate_strategy(report.best_strategy) == []
    replay = evaluate_quantum_strategy(make_chsh_game(), report.best_strategy)
    assert abs(replay - report.best_cost) <= 1e-10


def test_seesaw_traces_are_monotone():
    # a step can rise by rounding alone, by at most about 2e-15 * max|pi C|
    for game in [make_chsh_game()] + LARGE_COSTS:
        report = seesaw_upper_bound(game, SeesawConfig(seed=2, restarts=6))
        bound = max(1e-12, 1e-14 * float(np.abs(game._weights).max()))
        for trace in report.traces:
            diffs = np.diff(np.array(trace))
            assert diffs.max() <= bound
        # the winning restart is the earliest whose final cost is the best
        assert report.traces[report.best_restart][-1] == report.best_cost
        assert all(trace[-1] > report.best_cost for trace in report.traces[:report.best_restart])


def test_seesaw_is_deterministic():
    config = SeesawConfig(seed=5, restarts=4)
    first = seesaw_upper_bound(make_chsh_game(), config)
    second = seesaw_upper_bound(make_chsh_game(), config)
    assert first.best_cost == second.best_cost
    assert first.traces == second.traces
    assert np.array_equal(first.best_strategy.state, second.best_strategy.state)


def test_seesaw_zero_game_converges_immediately():
    zero = Game(2, 2, 2, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 2)))
    report = seesaw_upper_bound(zero, SeesawConfig(seed=3, restarts=2))
    assert report.best_cost == 0.0
    for trace in report.traces:
        assert len(trace) == 2  # initial cost plus a single converged round


def test_an_improvement_of_exactly_tol_keeps_a_restart_going():
    # the largest weighted cost, about 0.59, is at unit scale (k = 0), so the loop
    # compares the trace's own costs against tol itself
    cost = np.random.default_rng(64).uniform(0.0, 0.9, size=(2, 2, 2, 2))
    game = Game(2, 2, 2, 2, [[0.7, 0.1], [0.1, 0.1]], cost)
    assert seesaw._weights_of(game).k == 0
    trace = seesaw_upper_bound(game, SeesawConfig(restarts=1, seed=5)).traces[0]
    tie = trace[0] - trace[1]
    assert tie > 0
    tied = seesaw_upper_bound(game, SeesawConfig(restarts=1, seed=5, tol=tie)).traces[0]
    # the first iteration improves by exactly tol, so the restart runs on
    assert tied[:2] == trace[:2] and len(tied) > 2


def test_seesaw_capped_hardy_beats_strategy_family_bound():
    capped = cap_infinities(make_hardy_game(1.0), 10.0)
    report = seesaw_upper_bound(capped, SeesawConfig(seed=1, restarts=6))
    assert report.best_cost <= HARDY_QUANTUM_UB + 1e-6
    assert report.best_cost >= 0.125 - 1e-9  # stays above the NS floor


def test_seesaw_rejects_bad_input():
    with pytest.raises(ValueError, match="cap"):
        seesaw_upper_bound(make_hardy_game(1.0))
    wide = Game(2, 2, 3, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 3, 2)))
    with pytest.raises(ValueError, match="binary"):
        seesaw_upper_bound(wide)
    with pytest.raises(ValueError):
        SeesawConfig(restarts=0)
    with pytest.raises(ValueError):
        SeesawConfig(tol=0.0)
    with pytest.raises(ValueError):
        SeesawConfig(d_a=0)


@pytest.mark.parametrize("field, value, kind", [
    ("d_a", True, "positive"), ("d_b", 2.0, "positive"), ("restarts", 2.5, "positive"),
    ("max_iters", False, "positive"), ("restarts", 0, "positive"),
    ("seed", 1.5, "non-negative"), ("seed", -1, "non-negative"), ("seed", True, "non-negative"),
])
def test_config_refuses_bools_floats_and_out_of_range_integers(field, value, kind):
    with pytest.raises(ValueError) as info:
        SeesawConfig(**{field: value})
    assert str(info.value) == f"{field} must be a {kind} integer, got {value!r}"


@pytest.mark.parametrize("value", [True, math.inf, math.nan, 0, -1, "1e-9"])
def test_config_refuses_a_tol_that_is_not_a_finite_positive_real(value):
    with pytest.raises(ValueError) as info:
        SeesawConfig(tol=value)
    assert str(info.value) == f"tol must be a finite positive real, got {value!r}"


@pytest.mark.parametrize("value", [1, np.float64(1e-9), np.int64(1)])
def test_config_stores_tol_as_float(value):
    tol = SeesawConfig(tol=value).tol
    assert type(tol) is float and tol == float(value)


@pytest.mark.parametrize("game, classical", [
    (make_family_game(FamilyParams(0.5, 1e-8)), 0.11985638715105075),  # near the Hardy endpoint
    (cap_infinities(make_hardy_game(1.0), 3e6), 0.25),
    (cap_infinities(make_hardy_game(1.0), 1e9), 0.25),
])
def test_seesaw_runs_on_games_with_large_costs(game, classical):
    # the see-saw runs each game at unit scale, so the rounding asymmetry of
    # its operators stays inside herm_eig's absolute check whatever the costs
    report = seesaw_upper_bound(game, SeesawConfig(restarts=3, max_iters=100, seed=1))
    assert report.best_cost <= classical + 1e-6
    replay = evaluate_quantum_strategy(game, report.best_strategy)
    assert abs(replay - report.best_cost) <= 1e-6


@pytest.mark.parametrize("cap", [1e11, 1e12, 1e13])
def test_huge_caps_keep_hardy_below_the_classical_value(cap):
    # at unit scale the finite Hardy costs are 1e-13 to 1e-11 of the largest
    # entry; NEGATIVE_EIG_TOL must stay below that share for them to steer
    # a best response, else every restart ends at the classical 0.25
    game = cap_infinities(make_hardy_game(1.0), cap)
    report = seesaw_upper_bound(game, SeesawConfig(restarts=8, seed=1))
    assert report.best_cost < 0.2289


@pytest.mark.parametrize("game", LARGE_COSTS, ids=["hardy-cap-1e9", "family-0.5-1e-8"])
def test_steps_run_on_a_game_with_large_costs(game):
    # a Game is brought to unit scale inside every step, not only by the restart loop
    rng = np.random.default_rng(63)
    for _ in range(5):
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        bob = (random_projective(rng), random_projective(rng))
        new_alice = update_alice(game, state, bob)
        new_bob = update_bob(game, state, new_alice)
        best_state, cost = optimal_state(game, new_alice, new_bob)
        # the operator of a Game is that of its table as given, bitwise
        op = game_operator(game, new_alice, new_bob)
        assert op.tobytes() == game_operator(game._weights, new_alice, new_bob).tobytes()
        scale = float(np.abs(game._weights).max())
        assert abs(float(np.vdot(best_state, op @ best_state).real) - cost) <= 1e-14 * scale
        assert cost <= _cost_of(game, state, new_alice, new_bob) + 1e-14 * scale


def test_numpy_integer_config_gives_a_strategy_that_saves_and_loads(tmp_path):
    config = SeesawConfig(d_a=np.int64(2), d_b=np.int64(2), restarts=np.int64(3),
                          max_iters=np.int32(200), seed=np.uint8(4))
    assert config == SeesawConfig(d_a=2, d_b=2, restarts=3, max_iters=200, seed=4)
    assert all(type(getattr(config, name)) is int
               for name in ("d_a", "d_b", "restarts", "max_iters", "seed"))
    best = seesaw_upper_bound(make_chsh_game(), config).best_strategy
    path = tmp_path / "best.json"
    save_strategy(best, str(path))
    back = load_strategy(str(path))
    assert (back.d_a, back.d_b) == (2, 2)
    for part in ("state", "alice_povms", "bob_povms"):
        assert np.array_equal(getattr(back, part), getattr(best, part))


def test_seesaw_matches_qubit_oracle_on_capped_hardy():
    capped = cap_infinities(make_hardy_game(1.0), 4.0)
    report = seesaw_upper_bound(capped, SeesawConfig(seed=1, restarts=8))
    oracle = qubit_grid_minimum(capped)
    assert abs(report.best_cost - oracle) <= 1e-3


def test_seesaw_never_beats_ns_on_random_games():
    from ngcost import ns_lower_bound
    rng = np.random.default_rng(57)
    for k in range(3):
        cost = rng.uniform(0.0, 1.0, size=(2, 2, 2, 2))
        dist = rng.uniform(0.1, 1.0, size=(2, 2))
        dist /= dist.sum()
        g = Game(2, 2, 2, 2, dist, cost)
        report = seesaw_upper_bound(g, SeesawConfig(seed=k, restarts=4))
        assert ns_lower_bound(g)[0] <= report.best_cost + 1e-6
        assert report.best_cost <= classical_cost(g)[0] + 1e-6


def public_step_reports(games, config):
    """_seesaw_stack's reports, from a plain loop over the public steps.

    One raw stacked table holds every (game, restart) entry at unit scale;
    each iteration gathers the active entries' rows afresh and runs
    update_alice, update_bob and optimal_state on them.  An entry stops
    when an iteration improves its cost by less than tol / 2**k, or after
    max_iters iterations; costs and traces are multiplied back by 2**k.
    """
    tables, exponents = seesaw._unit_scale(np.array([game._weights for game in games]))
    restarts = config.restarts
    starts = [seesaw._random_start(config, tables.shape[1], tables.shape[2], r)
              for r in range(restarts)]
    state, alice, bob = (np.array([start[part] for _ in games for start in starts], dtype=complex)
                         for part in range(3))
    table = np.repeat(tables, restarts, axis=0)
    tol = np.ldexp(config.tol, -np.repeat(exponents, restarts))
    op = game_operator(table, alice, bob)
    cost = np.einsum("ri,rij,rj->r", state.conj(), op, state).real
    traces = [[c] for c in cost.tolist()]
    active = np.arange(len(table))
    for _ in range(config.max_iters):
        new_alice = update_alice(table[active], state[active], bob[active])
        new_bob = update_bob(table[active], state[active], new_alice)
        new_state, new_cost = optimal_state(table[active], new_alice, new_bob)
        alice[active], bob[active], state[active] = new_alice, new_bob, new_state
        for r, c in zip(active.tolist(), new_cost.tolist()):
            traces[r].append(c)
        keep = cost[active] - new_cost >= tol[active]
        cost[active] = new_cost
        active = active[keep]
        if active.size == 0:
            break
    reports = []
    for g, k in enumerate(exponents.tolist()):
        rows = slice(g * restarts, (g + 1) * restarts)
        best = int(np.argmin(cost[rows]))
        e = g * restarts + best
        reports.append((math.ldexp(float(cost[e]), k), best,
                        tuple(tuple(math.ldexp(c, k) for c in t) for t in traces[rows]),
                        QuantumStrategy(config.d_a, config.d_b, state[e], alice[e], bob[e])))
    return reports


def assert_matches_public_steps(games, config):
    reports = seesaw._seesaw_stack(games, config)
    lengths = set()
    for report, (cost, best, traces, strategy) in zip(reports, public_step_reports(games, config),
                                                       strict=True):
        assert report.best_cost == cost
        assert report.best_restart == best
        assert report.traces == traces  # tuple equality also compares lengths
        for name in ("state", "alice_povms", "bob_povms"):
            assert getattr(report.best_strategy, name).tobytes() == getattr(strategy, name).tobytes()
        lengths |= {len(trace) - 1 for trace in traces}
    return lengths


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (4, 4)])
def test_restart_loop_matches_a_plain_loop_over_the_public_steps_bitwise(d_a, d_b):
    # the slowest family game of the benchmark grid runs past max_iters; the
    # others stop earlier, each at its own iteration; LARGE_COSTS have k != 0
    games = family_grid([0.3, 0.859], [0.0, 1.0]) + HARDY_CAPS[:1] + LARGE_COSTS
    config = SeesawConfig(d_a=d_a, d_b=d_b, restarts=3, max_iters=60, seed=1239691164)
    lengths = assert_matches_public_steps(games, config)
    assert config.max_iters in lengths and len(lengths) > 2


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3)])
@pytest.mark.parametrize("knob, lengths", [({"max_iters": 1}, {1}), ({"tol": 1.0}, {1, 2})],
                         ids=["max-iters-1", "tol-1"])
def test_restart_loop_matches_a_plain_loop_when_every_active_entry_stops_at_once(
        d_a, d_b, knob, lengths):
    # max_iters=1 stops every entry at the first iteration; tol=1.0 stops every
    # unit-cost entry there and the LARGE_COSTS entries, the rest, at the second
    games = family_grid([0.3, 0.859], [0.0, 1.0]) + HARDY_CAPS[:1] + LARGE_COSTS
    config = SeesawConfig(d_a=d_a, d_b=d_b, restarts=3, seed=1239691164, **knob)
    assert assert_matches_public_steps(games, config) == lengths


@pytest.mark.parametrize("cap", [2, 7])
def test_chunked_restart_loop_matches_a_plain_loop_over_the_public_steps_bitwise(monkeypatch, cap):
    # cap 2 holds one game of 3 restarts per stack, 7 holds two
    monkeypatch.setattr(seesaw, "_STACK_ENTRIES", cap)
    games = family_grid([0.859, 1.2], [0.0, 1.0]) + LARGE_COSTS
    config = SeesawConfig(restarts=3, max_iters=80, seed=9)
    assert config.max_iters in assert_matches_public_steps(games, config)


def test_every_seesaw_matrix_passes_the_hermitian_rule(monkeypatch):
    # herm_eig is called three times an iteration, on every active entry's
    # response blocks (n_s for Alice, then n_t for Bob) and game operator
    game, (d_a, d_b) = family_grid([0.3], [0.5])[0], (2, 3)
    config = SeesawConfig(d_a=d_a, d_b=d_b, restarts=4, max_iters=40, seed=3)
    calls = []

    def recorded(mat):
        calls.append(np.shape(mat))
        return herm_eig(mat)

    monkeypatch.setattr(seesaw, "herm_eig", recorded)
    report = seesaw_upper_bound(game, config)
    monkeypatch.undo()
    assert_same_report(report, seesaw_upper_bound(game, config))
    lengths = [len(trace) - 1 for trace in report.traces]
    assert len(set(lengths)) > 1
    assert len(calls) == 3 * max(lengths)
    for i in range(max(lengths)):
        active = sum(length > i for length in lengths)
        assert calls[3 * i:3 * i + 3] == [(active, game.n_s, d_a, d_a), (active, game.n_t, d_b, d_b),
                                          (active, d_a * d_b, d_a * d_b)]


def step_bytes(result) -> list[bytes]:
    return [np.asarray(part).tobytes() for part in (result if isinstance(result, tuple) else (result,))]


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3)])
def test_steps_given_checked_tables_return_the_bytes_of_the_raw_table_and_the_game(d_a, d_b):
    rng = np.random.default_rng(64)
    # the last game's largest weighted cost, about 0.594, is already at unit scale (k = 0)
    unit = Game(2, 2, 2, 2, [[0.7, 0.1], [0.1, 0.1]], rng.uniform(0.0, 0.9, size=(2, 2, 2, 2)))
    games = family_grid([0.3, 1.076], [0.0, 1.4]) + LARGE_COSTS + [unit]
    owner = np.array([0, 1, 2, 3, 4, 5, 6, 1, 0])
    size = len(owner)
    states = rng.normal(size=(size, d_a * d_b)) + 1j * rng.normal(size=(size, d_a * d_b))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    alice, bob = _random_batch(rng, size, 2, d_a), _random_batch(rng, size, 2, d_b)
    steps = ((game_operator, (alice, bob)), (update_alice, (states, bob)),
             (update_bob, (states, alice)), (optimal_state, (alice, bob)))
    # a raw stack of tables off unit scale, each brought to it by the check
    table = np.array([games[g]._weights for g in owner])
    checked = seesaw._CheckedTables(table)
    assert not checked.weights.flags.writeable and checked.k.any()
    for step, args in steps:
        assert step_bytes(step(checked, *args)) == step_bytes(step(table, *args))
    # one shared table, as a Game gives it
    for game in games:
        checked = seesaw._weights_of(game)
        for step, args in steps:
            assert step_bytes(step(checked, *args)) == step_bytes(step(game, *args))
    assert checked.k == 0


@pytest.mark.parametrize("game", LARGE_COSTS, ids=["hardy-cap-1e9", "family-0.5-1e-8"])
def test_steps_on_a_games_table_or_its_one_entry_stack_return_the_games_bytes(game):
    # a raw table is brought to unit scale as its Game is, so herm_eig's
    # absolute Hermitian check sees the same matrices whatever the costs
    rng = np.random.default_rng(65)
    for _ in range(3):
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        alice = np.array([random_projective(rng), random_projective(rng)])
        bob = np.array([random_projective(rng), random_projective(rng)])
        for step, args in ((game_operator, (alice, bob)), (update_alice, (state, bob)),
                           (update_bob, (state, alice)), (optimal_state, (alice, bob))):
            expected = step_bytes(step(game, *args))
            assert step_bytes(step(game._weights, *args)) == expected, step.__name__
            stacked = step(game._weights[None], *(arg[None] for arg in args))
            parts = stacked if isinstance(stacked, tuple) else (stacked,)
            assert step_bytes(tuple(part[0] for part in parts)) == expected, step.__name__


def test_checked_tables_are_read_only_on_every_route_and_take_holds_a_fresh_checks_bytes(
        monkeypatch):
    built, stacks = [], []
    check, run_stack = seesaw._CheckedTables.__init__, seesaw._run_stack

    def recorded(self, table):
        check(self, table)
        built.append(self)

    def recorded_stack(table, *args):
        stacks.append(table)
        return run_stack(table, *args)

    monkeypatch.setattr(seesaw._CheckedTables, "__init__", recorded)
    monkeypatch.setattr(seesaw, "_run_stack", recorded_stack)
    games = family_grid([0.859], [0.0, 1.0]) + LARGE_COSTS
    seesaw._seesaw_stack(games, SeesawConfig(restarts=2, max_iters=5, seed=1))
    assert len(built) == 1 and len(stacks) == 1
    raw = np.array([game._weights for game in games])
    picks = (np.array([3, 0, 2, 3]), np.array([True, False, True, True]))
    routes = {"game": seesaw._weights_of(games[2]), "table": seesaw._weights_of(raw[2]),
              "stack": built[0], "stack rows": stacks[0]}
    routes.update((f"take {rows}", built[0].take(rows)) for rows in picks)
    for route, checked in routes.items():
        for name in checked.__slots__:
            assert not getattr(checked, name).flags.writeable, (route, name)
    for rows in picks:
        taken, fresh = built[0].take(rows), seesaw._CheckedTables(raw[rows])
        for name in fresh.__slots__:
            got, want = getattr(taken, name), getattr(fresh, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("entry, message", [
    (math.nan, "weighted cost table entries must be finite or \\+inf, got nan"),
    (-math.inf, "weighted cost table entries must be finite or \\+inf, got -inf"),
    (math.inf, "cap them first"),
], ids=["nan", "minus-inf", "plus-inf"])
def test_a_non_finite_table_cannot_become_checked_tables(entry, message):
    table = np.array([0.25 * make_chsh_game().cost] * 2)
    table[1, 1, 0, 0, 1] = entry
    with pytest.raises(ValueError, match=message):
        seesaw._CheckedTables(table)
    with pytest.raises(ValueError, match="weighted cost table has shape"):
        seesaw._CheckedTables(table[0, 0])
