import math
from collections import Counter

import numpy as np
import pytest
from ns_games import captured_ns_lps, random_ns_games
from scipy.optimize import linprog

from ngcost import (FamilyParams, Game, LinearProgram, LpInfeasibleError, LpUnboundedError,
                    auto_cap, cap_infinities, make_family_game, simplex, solve)
from ngcost.simplex import PIVOT_TOL, RATIO_TIE_TOL, _pivot


def test_simple_equality_lp():
    # min x + 2y  s.t.  x + y = 1
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    x, value = solve(lp)
    assert abs(value - 1.0) <= 1e-9
    assert np.allclose(x, [1.0, 0.0], atol=1e-9)


def test_two_constraint_lp():
    # min -x - y  s.t.  x + 2y = 4, x + y = 3  ->  x = 2, y = 1
    lp = LinearProgram([-1.0, -1.0], [[1.0, 2.0], [1.0, 1.0]], [4.0, 3.0])
    x, value = solve(lp)
    assert np.allclose(x, [2.0, 1.0], atol=1e-9)
    assert abs(value + 3.0) <= 1e-9


def test_negative_rhs_is_handled():
    # -x - y = -1 is the simplex row x + y = 1 after flipping
    lp = LinearProgram([1.0, 0.0], [[-1.0, -1.0]], [-1.0])
    x, value = solve(lp)
    assert abs(value) <= 1e-9
    assert abs(x.sum() - 1.0) <= 1e-9


def test_redundant_rows_are_dropped():
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
                       [1.0, 1.0, 2.0])
    x, value = solve(lp)
    assert abs(value - 1.0) <= 1e-9


def test_infeasible_contradiction():
    lp = LinearProgram([0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(LpInfeasibleError):
        solve(lp)


def test_infeasible_negative_requirement():
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-1.0])
    with pytest.raises(LpInfeasibleError):
        solve(lp)


def test_unbounded_detection():
    # y pinned, x free to grow with negative cost
    lp = LinearProgram([-1.0, 0.0], [[0.0, 1.0]], [1.0])
    with pytest.raises(LpUnboundedError):
        solve(lp)


def test_degenerate_zero_rhs():
    lp = LinearProgram([1.0, 1.0, 0.0], [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                       [0.0, 1.0])
    x, value = solve(lp)
    assert abs(value) <= 1e-9


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0, np.inf], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError, match="a_eq must be a matrix, got 1 axes"):
        LinearProgram([1.0], [1.0], [1.0])


def test_linear_program_compares_and_hashes_by_identity():
    # like Game, Behavior and QuantumStrategy: array fields cannot decide ==
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    twin = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    assert lp == lp and lp != twin
    assert len({lp, twin, lp}) == 2


def test_deterministic_resolution():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(4, 8))
    x0 = rng.uniform(0.0, 1.0, size=8)
    b = a @ x0
    c = rng.normal(size=8)
    first = solve(LinearProgram(c, a, b))
    second = solve(LinearProgram(c, a, b))
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_random_lps_match_scipy():
    rng = np.random.default_rng(29)
    checked = 0
    for trial in range(25):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 10))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.0, 1.0, size=n)
        b = a @ x0  # feasible by construction
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            with pytest.raises(LpUnboundedError):
                solve(LinearProgram(c, a, b))
            continue
        assert ref.status == 0
        x, value = solve(LinearProgram(c, a, b))
        assert np.max(np.abs(a @ x - b)) <= 1e-8
        assert x.min() >= 0.0
        assert abs(value - ref.fun) <= 1e-7
        checked += 1
    assert checked >= 10


# A row-by-row simplex over a full tableau (every variable's column, the
# artificials' identity block and both cost rows), kept as the reference:
# the dictionary-form, vectorized code must take the same pivots and return
# the same bytes.  `seen` counts the cases the comparison must exercise.
def _ref_pivot(tableau, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def _ref_least_ratio(tableau, row, cols, seen):
    # cols in ascending name order, so the first within the tie window is the lowest name
    ratios = [tableau[-1, j] / abs(tableau[row, j]) for j in cols]
    best = min(ratios)
    enter = -1
    for j, ratio in zip(cols, ratios):
        if ratio <= best + RATIO_TIE_TOL:
            if ratio != best:
                seen["inexact tie"] += 1
            if enter < 0:
                enter = j
    return enter


def _ref_dual(tableau, basis, n, seen):
    m = len(basis)
    while True:
        leave = -1
        for i in range(m):
            value = tableau[i, -1]
            if value < -PIVOT_TOL or (basis[i] >= n and value > PIVOT_TOL):
                if leave < 0 or basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return
        sign = 1.0 if tableau[leave, -1] > 0.0 else -1.0
        cols = [j for j in range(n) if j not in basis and sign * tableau[leave, j] > PIVOT_TOL]
        if not cols:
            artificial = [i for i in range(m) if basis[i] >= n]
            residual = float(np.abs(tableau[artificial, -1]).sum())
            raise LpInfeasibleError(f"no feasible point: artificial residual {residual!r}")
        enter = _ref_least_ratio(tableau, leave, cols, seen)
        _ref_pivot(tableau, leave, enter)
        basis[leave] = enter


def _ref_iterate(tableau, basis, n_cols, seen):
    n_rows = tableau.shape[0] - 1
    while True:
        enter = -1
        for j in range(n_cols):
            if tableau[-1, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best_ratio = 0.0
        for i in range(n_rows):
            coeff = tableau[i, enter]
            if coeff > PIVOT_TOL:
                ratio = tableau[i, -1] / coeff
                if leave >= 0 and ratio != best_ratio and abs(ratio - best_ratio) <= RATIO_TIE_TOL:
                    seen["inexact tie"] += 1
                if (leave < 0 or ratio < best_ratio - RATIO_TIE_TOL or
                        (abs(ratio - best_ratio) <= RATIO_TIE_TOL and basis[i] < basis[leave])):
                    leave = i
                    best_ratio = ratio
        if leave < 0:
            raise LpUnboundedError("objective is unbounded below")
        _ref_pivot(tableau, leave, enter)
        basis[leave] = enter


def _ref_solve(lp, seen):
    a = np.array(lp.a_eq)
    b = np.array(lp.b_eq)
    c = np.array(lp.c)
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    # phase 1 is a dual simplex on the clipped costs, from the artificial basis
    tableau = np.zeros((m + 2, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = c
    tableau[m + 1, :n] = np.maximum(c, 0.0)
    basis = list(range(n, n + m))
    _ref_dual(tableau, basis, n, seen)
    keep = []
    for i in range(m):
        if basis[i] >= n:
            cols = [j for j in range(n) if j not in basis and abs(tableau[i, j]) > PIVOT_TOL]
            if not cols:
                seen["dropped row"] += 1
                continue
            enter = _ref_least_ratio(tableau, i, cols, seen)
            _ref_pivot(tableau, i, enter)
            basis[i] = enter
        keep.append(i)
    # phase 2: primal Bland on the true cost row, over the real columns
    phase2 = tableau[np.ix_(keep + [m], list(range(n)) + [n + m])]
    basis = [basis[i] for i in keep]
    _ref_iterate(phase2, basis, n, seen)
    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = phase2[i, -1]
    np.clip(x, 0.0, None, out=x)
    return x, float(c @ x)


def _outcome(solver, lp):
    try:
        x, value = solver(lp)
    except (LpInfeasibleError, LpUnboundedError) as exc:
        return type(exc), str(exc)
    return "solved", x.dtype, x.shape, x.tobytes(), value


def _assert_same_as_reference(lps):
    seen = Counter()
    for lp in lps:
        expected = _outcome(lambda p: _ref_solve(p, seen), lp)
        got = _outcome(solve, lp)
        assert got == expected
        seen[expected[0]] += 1
    return seen


def _random_lps(seed, count):
    rng = np.random.default_rng(seed)
    lps = []
    for k in range(count):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m + 1, 14))
        kind = k % 5
        if kind == 0:  # real data, feasible by construction
            a = rng.normal(size=(m, n))
            b = a @ rng.uniform(0.0, 1.0, size=n)
            c = rng.normal(size=n)
        else:  # small integers: exact ties and zero right-hand sides
            a = rng.integers(-2, 4, size=(m, n)).astype(float)
            b = a @ rng.integers(0, 2, size=n) * rng.integers(0, 2, size=m)
            c = rng.integers(-3, 4, size=n).astype(float)
        if kind == 2:  # ratios tied within RATIO_TIE_TOL but not exactly
            b = b + rng.integers(-3, 4, size=m) * 2e-13
        if kind == 3:  # redundant rows: copies and exact doublings
            dup = rng.integers(0, m, size=int(rng.integers(1, m + 1)))
            scale = rng.choice([1.0, 2.0, -1.0], size=dup.size)
            a = np.vstack([a, scale[:, None] * a[dup]])
            b = np.concatenate([b, scale * b[dup]])
        if kind == 4:  # nonnegative costs keep most of these bounded
            c = np.abs(c)
        lps.append(LinearProgram(c, a, b))
    return lps


def test_random_lps_match_highs_status_and_value():
    # an independent check of what the row-loop reference only checks for
    # self-consistency: the same status as HiGHS, and the same optimal value
    status = {0: "solved", 2: LpInfeasibleError, 3: LpUnboundedError}
    seen = Counter()
    for lp in _random_lps(41, 400):
        ref = linprog(lp.c, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, None), method="highs")
        got = _outcome(solve, lp)
        assert got[0] == status[ref.status]
        if ref.status == 0:
            assert abs(got[-1] - ref.fun) <= 1e-7
        seen[got[0]] += 1
    assert seen == {"solved": 183, LpUnboundedError: 117, LpInfeasibleError: 100}


def test_pivot_matches_row_loop_on_non_basic_columns():
    # full tableaux with a basis of unit columns, holding +0.0, -0.0 and
    # negative entries; the pivot on the non-basic columns alone must give
    # the row loop's rhs bytes and, in every non-basic column, its nonzero
    # pattern and nonzero bytes (only the signs of zeros may differ there)
    rng = np.random.default_rng(17)
    values = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 3.0])
    for _ in range(300):
        m, n_vars = int(rng.integers(1, 10)), int(rng.integers(2, 14))
        m = min(m, n_vars - 1)
        shape = (m + 1, n_vars + 1)
        full = rng.choice(values, size=shape) * rng.choice([1.0, 0.7, -1.3], size=shape)
        basis = rng.permutation(n_vars)[:m].tolist()
        full[:, basis] = rng.choice([0.0, -0.0], size=(m + 1, m))
        full[range(m), basis] = 1.0
        names = np.array([j for j in range(n_vars) if j not in basis])
        row, col = int(rng.integers(m)), int(rng.integers(names.size))
        full[row, names[col]] = rng.choice([1.5, -2.0, 0.25])
        tableau = full[:, np.append(names, -1)]
        _ref_pivot(full, row, names[col])
        _pivot(tableau, row, col)
        names[col] = basis[row]
        assert tableau[:, -1].tobytes() == full[:, -1].tobytes()
        expected = full[:, names]
        nonzero = expected != 0.0
        assert np.array_equal(tableau[:, :-1] != 0.0, nonzero)
        assert tableau[:, :-1][nonzero].tobytes() == expected[nonzero].tobytes()


def test_vectorized_pivots_match_row_loop_on_random_lps():
    lps = _random_lps(41, 400)
    # the integer-cost LPs again, their costs moved by multiples of 2e-13:
    # prices tied within RATIO_TIE_TOL but not exactly, for phase 1's ratio test
    rng = np.random.default_rng(43)
    lps += [LinearProgram(lp.c + rng.integers(-3, 4, size=lp.c.size) * 2e-13, lp.a_eq, lp.b_eq)
            for k, lp in enumerate(lps) if k % 5]
    seen = _assert_same_as_reference(lps)
    assert seen["solved"] >= 100
    assert seen[LpInfeasibleError] >= 50
    assert seen[LpUnboundedError] >= 50
    assert seen["inexact tie"] >= 100
    assert seen["dropped row"] >= 70


def test_vectorized_pivots_match_row_loop_on_constructed_edge_cases():
    lps = [
        # infeasible: one variable asked to equal 1 and 2
        LinearProgram([0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0]),
        # infeasible: nonnegative variables summing to -1
        LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-1.0]),
        # unbounded: x grows freely with negative cost
        LinearProgram([-1.0, 0.0], [[0.0, 1.0]], [1.0]),
        # unbounded in phase 2 after a degenerate phase 1
        LinearProgram([-1.0, -1.0, 0.0], [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 1.0]),
        # every row redundant but the first
        LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [-3.0, -3.0]],
                      [1.0, 1.0, 2.0, -3.0]),
        # ratios 1 and 1 + 1e-13 tie; the lower basic index must leave
        LinearProgram([-1.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                      [1.0 + 1e-13, 1.0]),
    ]
    seen = _assert_same_as_reference(lps)
    assert seen[LpInfeasibleError] == 2
    assert seen[LpUnboundedError] == 2
    assert seen["dropped row"] == 3


def _family_sweep_games():
    # the benchmark's G(phi, w) grid: 32 midpoint phis with w = 0 capped at
    # auto_cap, 0.5 and 1, plus w = 2
    games = []
    for phi in (np.arange(32) + 0.5) * (math.pi / 2) / 32:
        hardy_like = make_family_game(FamilyParams(phi, 0.0))
        games.append(cap_infinities(hardy_like, auto_cap(hardy_like)))
        games += [make_family_game(FamilyParams(phi, w)) for w in (0.5, 1.0, 2.0)]
    return games


def test_vectorized_pivots_match_row_loop_on_ns_lps(monkeypatch):
    lps = captured_ns_lps(monkeypatch, random_ns_games(5, 30))
    # 2x2x2x2 has 4 + 4 + 4 constraint rows, 5x5x4x4 has 25 + 80 + 80
    assert (lps[0].a_eq.shape[0], lps[-1].a_eq.shape[0]) == (12, 185)
    lps += captured_ns_lps(monkeypatch, _family_sweep_games())
    seen = _assert_same_as_reference(lps)
    assert seen["solved"] >= 25
    assert seen["inexact tie"] >= 1000
    assert seen["dropped row"] >= 200


def _wide_ns_games(seed):
    # 3x3x3x3, 4x4x3x3 and 5x5x2x2 games with 20-40% +inf entries: LPs of
    # 45-105 rows, many of them redundant, at degenerate vertices.  All but
    # every fourth game keep one deterministic strategy finite, and the last
    # never plays two inputs, so their +inf entries pin nothing.
    rng = np.random.default_rng(seed)
    games = []
    for k, shape in enumerate([(3, 3, 3, 3), (4, 4, 3, 3), (5, 5, 2, 2)] * 8):
        n_s, n_t, n_a, n_b = shape
        dist = rng.random((n_s, n_t)) + 0.5
        cost = rng.integers(0, 4, size=shape).astype(float) if k % 2 else rng.random(shape)
        forbidden = rng.random(shape) < 0.2 + 0.2 * rng.random()
        if k % 4 != 3:
            alpha, beta = rng.integers(n_a, size=n_s), rng.integers(n_b, size=n_t)
            forbidden[np.arange(n_s)[:, None], np.arange(n_t), alpha[:, None], beta] = False
        if k == 23:
            dist[0, 1] = dist[n_s - 1, 0] = 0.0
            forbidden[0, 1] = forbidden[n_s - 1, 0] = True
        cost[forbidden] = math.inf
        games.append(Game(*shape, dist / dist.sum(), cost))
    return games


def _tied_wide_ns_games(seed):
    # _wide_ns_games with uniform inputs and every finite cost an integer
    # moved by a multiple of 2e-13: prices tied within RATIO_TIE_TOL but not
    # exactly, for phase 1's ratio test
    rng = np.random.default_rng(seed)
    games = []
    for game in _wide_ns_games(seed):
        cost = np.floor(4 * game.cost) + rng.integers(0, 4, size=game.cost.shape) * 2e-13
        dist = np.full((game.n_s, game.n_t), 1 / (game.n_s * game.n_t))
        games.append(Game(game.n_s, game.n_t, game.n_a, game.n_b, dist, cost))
    return games


def test_dictionary_pivots_match_row_loop_on_wide_ns_lps(monkeypatch):
    lps = captured_ns_lps(monkeypatch, _wide_ns_games(23))
    assert [lp.a_eq.shape[0] for lp in lps[:3]] == [45, 88, 105]
    lps += captured_ns_lps(monkeypatch, _tied_wide_ns_games(23))
    lps += [
        # no rows: the origin, or a ray
        LinearProgram([1.0, 2.0], np.zeros((0, 2)), []),
        LinearProgram([-1.0, 2.0], np.zeros((0, 2)), []),
        # no columns: every row redundant, or one infeasible
        LinearProgram([], np.zeros((2, 0)), [0.0, 0.0]),
        LinearProgram([], np.zeros((2, 0)), [0.0, -1.0]),
        LinearProgram([], np.zeros((0, 0)), []),
    ]
    seen = _assert_same_as_reference(lps)
    assert seen["solved"] >= 20
    assert seen[LpInfeasibleError] >= 2 and seen[LpUnboundedError] == 1
    assert seen["inexact tie"] >= 500
    assert seen["dropped row"] >= 300


def test_phase_two_starts_optimal_on_nonnegative_costs(monkeypatch):
    # with c >= 0 the clipped costs of phase 1 are the costs, and phase 1 and
    # the drive-out keep every price nonnegative, so phase 2 makes no pivot.
    # No artificial re-enters, so a row dropped as redundant still holds its
    # own artificial n + i: the rows kept are the rows of the final basis.
    lps = captured_ns_lps(monkeypatch, random_ns_games(5, 30))
    lps += captured_ns_lps(monkeypatch, _family_sweep_games())
    lps += captured_ns_lps(monkeypatch, _wide_ns_games(23))
    lps = [lp for lp in lps if (lp.c >= 0.0).all()]
    seen = Counter()
    pivot, drive_out, iterate = simplex._pivot, simplex._drive_out, simplex._iterate

    def counted_pivot(*args):
        seen["pivot"] += 1
        pivot(*args)

    def checked_drive_out(tableau, basis, names, real):
        keep = drive_out(tableau, basis, names, real)
        dropped = sorted(set(range(basis.size)) - set(keep))
        assert basis[dropped].tolist() == [names.size + i for i in dropped]
        seen["dropped row"] += len(dropped)
        return keep

    def counted_iterate(tableau, basis, names):
        before = seen["pivot"]
        iterate(tableau, basis, names)
        seen["phase 2 pivot"] += seen["pivot"] - before

    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "_drive_out", checked_drive_out)
    monkeypatch.setattr(simplex, "_iterate", counted_iterate)
    for lp in lps:
        try:
            solve(lp)
        except LpInfeasibleError:
            seen["infeasible"] += 1
    assert len(lps) == 30 + 128 + 24
    assert seen["phase 2 pivot"] == 0
    assert seen["pivot"] >= 4000 and seen["dropped row"] >= 1000
