"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test prints a single "criterion NN PASS" line; under `pytest -v`
every criterion also shows up as its own pass/fail row.
"""

import math
import time

import numpy as np
import pytest

from ngcost import (
    FamilyParams,
    Game,
    SeesawConfig,
    auto_cap,
    behavior_cost,
    behavior_of,
    cap_infinities,
    chsh_optimal_strategy,
    classical_cost,
    evaluate_quantum_strategy,
    hardy_strategy,
    herm_eig,
    is_nonsignalling,
    make_chsh_game,
    make_family_game,
    make_hardy_game,
    ns_lower_bound,
    optimize_hardy_theta,
    partial_trace_a,
    partial_trace_b,
    seesaw_upper_bound,
)
from ngcost.cli import main
from ngcost.quantum import Behavior

from qubit_oracle import qubit_grid_minimum

TSIRELSON_COST = (2.0 - math.sqrt(2.0)) / 4.0
HARDY_P_MAX = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def report(num, detail):
    print(f"criterion {num:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def hardy_opt():
    return optimize_hardy_theta()


def test_criterion_01_classical_chsh_exact():
    value, witness = classical_cost(make_chsh_game())
    assert value == 0.25
    from ngcost import strategy_cost
    assert strategy_cost(make_chsh_game(), witness) == 0.25
    report(1, f"classical CHSH cost {value!r}, exact")


def test_criterion_02_chsh_quantum_strategy_value():
    value = evaluate_quantum_strategy(make_chsh_game(), chsh_optimal_strategy())
    assert abs(value - TSIRELSON_COST) <= 1e-9
    report(2, f"builtin CHSH strategy cost {value!r} vs (2-sqrt2)/4, err {abs(value - TSIRELSON_COST):.2e}")


def test_criterion_03_seesaw_chsh_fast_and_tight():
    start = time.perf_counter()
    rep = seesaw_upper_bound(make_chsh_game(), SeesawConfig(d_a=2, d_b=2, restarts=32, seed=1))
    elapsed = time.perf_counter() - start
    assert TSIRELSON_COST - 1e-9 <= rep.best_cost <= TSIRELSON_COST + 1e-4
    assert elapsed < 1.0
    report(3, f"see-saw CHSH best {rep.best_cost!r} in {elapsed:.3f}s (32 restarts)")


def test_criterion_04_hardy_theta_optimum(hardy_opt):
    theta, p00 = hardy_opt
    assert abs(p00 - HARDY_P_MAX) <= 1e-9
    assert abs(math.cos(theta) ** 2 - GOLDEN) <= 1e-6
    report(4, f"hardy p* {p00!r}, cos^2(theta*) {math.cos(theta)**2!r}")


def test_criterion_05_hardy_strategy_cost(hardy_opt):
    theta, _ = hardy_opt
    value = evaluate_quantum_strategy(make_hardy_game(1.0), hardy_strategy(theta))
    target = 0.25 * (1.0 - HARDY_P_MAX)
    assert abs(value - target) <= 1e-9
    report(5, f"hardy strategy cost {value!r} vs (1 - p*)/4, err {abs(value - target):.2e}")


def test_criterion_06_classical_hardy_scaling_and_cap_invariance():
    for T in (0.5, 1.0, 2.0, 7.0):
        game = make_hardy_game(T)
        assert classical_cost(game)[0] == T / 4.0
        for cap in (1.01 * T, 10.0 * T):
            assert classical_cost(cap_infinities(game, cap))[0] == T / 4.0
    report(6, "classical hardy cost is T/4 for T in {0.5, 1, 2, 7}, caps {1.01T, 10T} leave it unchanged")


def test_criterion_07_family_endpoints():
    chsh_end = make_family_game(FamilyParams(0.0, 1.0))
    chsh = make_chsh_game()
    assert np.array_equal(chsh_end.cost, chsh.cost)
    assert np.array_equal(chsh_end.input_dist, chsh.input_dist)

    hardy_end = make_family_game(FamilyParams(math.pi / 4, 0.0))
    hardy = make_hardy_game(math.sqrt(2.0) / 2.0)
    assert np.array_equal(np.isinf(hardy_end.cost), np.isinf(hardy.cost))
    finite = np.isfinite(hardy_end.cost)
    # sin(pi/4) sits one ulp below sqrt(2)/2, so the finite entries are
    # compared at 1e-12 instead of bit-exactly
    gap = float(np.max(np.abs(hardy_end.cost[finite] - hardy.cost[finite])))
    assert gap <= 1e-12
    report(7, f"family endpoints match CHSH exactly and hardy(sqrt2/2) within {gap:.2e}")


def test_criterion_08_ns_values():
    chsh_value, chsh_witness = ns_lower_bound(make_chsh_game())
    assert abs(chsh_value) <= 1e-9
    assert is_nonsignalling(chsh_witness)
    # PR-box feasibility pins the optimum at zero
    pr = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == s * t:
                        pr[s, t, a, b] = 0.5
    assert behavior_cost(make_chsh_game(), Behavior(pr)) == 0.0

    hardy = make_hardy_game(1.0)
    hardy_value, hardy_witness = ns_lower_bound(hardy)
    assert abs(hardy_value - 0.125) <= 1e-9
    assert is_nonsignalling(hardy_witness)
    # explicit half-half behavior is feasible at exactly 1/8
    half = np.zeros((2, 2, 2, 2))
    for s, t in [(0, 0), (0, 1), (1, 0)]:
        half[s, t, 0, 0] = half[s, t, 1, 1] = 0.5
    half[1, 1, 0, 1] = half[1, 1, 1, 0] = 0.5
    explicit = Behavior(half)
    assert is_nonsignalling(explicit)
    assert behavior_cost(hardy, explicit) == 0.125
    report(8, f"ns CHSH {chsh_value!r}, ns hardy {hardy_value!r} with feasible cross-checks")


def test_criterion_09_solver_chain_on_grid_and_random_games():
    games = []
    for phi in np.linspace(0.0, math.pi / 2, 5):
        for w in np.linspace(0.2, 2.0, 5):
            games.append(make_family_game(FamilyParams(float(phi), float(w))))
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        cost = rng.uniform(0.0, 1.0, size=(2, 2, 2, 2))
        dist = rng.uniform(0.05, 1.0, size=(2, 2))
        dist /= dist.sum()
        games.append(Game(2, 2, 2, 2, dist, cost))

    worst_ns_gap = -math.inf
    worst_classical_gap = -math.inf
    for k, game in enumerate(games):
        classical = classical_cost(game)[0]
        quantum = seesaw_upper_bound(game, SeesawConfig(seed=9 + k, restarts=8,
                                                        max_iters=300)).best_cost
        ns = ns_lower_bound(game)[0]
        assert ns <= quantum + 1e-6
        assert quantum <= classical + 1e-6
        worst_ns_gap = max(worst_ns_gap, ns - quantum)
        worst_classical_gap = max(worst_classical_gap, quantum - classical)
    report(9, f"chain held on 45 games; max(ns - seesaw) {worst_ns_gap:.2e}, "
              f"max(seesaw - classical) {worst_classical_gap:.2e}")


def test_criterion_10_hardy_zero_conditions(hardy_opt):
    theta_star, _ = hardy_opt
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3, theta_star):
        p = behavior_of(hardy_strategy(theta)).p
        assert p[0, 1, 0, 1] <= 1e-10
        assert p[1, 0, 1, 0] <= 1e-10
        assert p[1, 1, 0, 0] <= 1e-10
        assert p[0, 0, 0, 0] > 0.0
    report(10, "hardy zero conditions hold at pi/6, pi/4, pi/3 and theta*")


def test_criterion_11_numerics():
    rng = np.random.default_rng(61)
    dims = [2 + (k % 15) for k in range(50)]  # cycles through 2..16
    worst_residual = 0.0
    worst_ortho = 0.0
    for dim in dims:
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = (m + m.conj().T) / 2.0
        w, v = herm_eig(H)
        worst_residual = max(worst_residual, float(np.max(np.abs(H @ v - v @ np.diag(w)))))
        worst_ortho = max(worst_ortho, float(np.max(np.abs(v.conj().T @ v - np.eye(dim)))))
    assert worst_residual <= 1e-10
    assert worst_ortho <= 1e-10

    worst_trace = 0.0
    for d_a, d_b in [(2, 2), (2, 3), (3, 2), (4, 4), (2, 4)]:
        m = rng.normal(size=(d_a * d_b, d_a * d_b)) + 1j * rng.normal(size=(d_a * d_b, d_a * d_b))
        worst_trace = max(worst_trace,
                          abs(np.trace(partial_trace_b(m, d_a, d_b)) - np.trace(m)),
                          abs(np.trace(partial_trace_a(m, d_a, d_b)) - np.trace(m)))
    assert worst_trace <= 1e-12
    report(11, f"herm_eig residual {worst_residual:.2e}, orthonormality {worst_ortho:.2e}, "
               f"partial-trace drift {worst_trace:.2e}")


def test_criterion_12_qubit_oracle_matches_seesaw():
    game = make_chsh_game()
    oracle = qubit_grid_minimum(game)
    rep = seesaw_upper_bound(game, SeesawConfig(seed=1, restarts=32))
    assert abs(oracle - rep.best_cost) <= 1e-3
    report(12, f"brute-force qubit oracle {oracle!r} vs see-saw {rep.best_cost!r}, "
               f"diff {abs(oracle - rep.best_cost):.2e}")


def test_criterion_13_sweep_reproducibility(tmp_path, capsys):
    args = ["sweep", "--phi-range", "0", "1.5", "2", "--w-range", "0.5", "1.5", "2",
            "--restarts", "4", "--seed", "3"]
    paths = [tmp_path / name for name in ("run1.csv", "run2.csv", "run3.csv")]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--out", str(paths[2])]) == 0
    capsys.readouterr()
    first = paths[0].read_bytes()
    assert paths[1].read_bytes() == first
    assert paths[2].read_bytes() == first
    report(13, f"sweep CSV byte-identical across three runs (size {len(first)} bytes)")
