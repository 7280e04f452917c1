import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ngcost import (
    Behavior,
    Game,
    QuantumStrategy,
    behavior_of,
    chsh_optimal_strategy,
    evaluate_quantum_strategy,
    expected_cost,
    hardy_strategy,
    load_strategy,
    make_chsh_game,
    make_hardy_game,
    observable_to_povm,
    optimize_hardy_theta,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
import ngcost.quantum
from ngcost import herm_eig
from ngcost.linalg import HERMITIAN_TOL, kron
from ngcost.quantum import validate_strategy

TSIRELSON_COST = (2.0 - math.sqrt(2.0)) / 4.0
HARDY_P_MAX = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def hardy_p00_closed_form(theta):
    c = math.cos(theta)
    return math.sin(theta) ** 2 * c ** 4 / (1.0 + c * c)


@pytest.fixture(scope="module")
def hardy_opt():
    return optimize_hardy_theta()


def correlator(p, s, t):
    return p[s, t, 0, 0] + p[s, t, 1, 1] - p[s, t, 0, 1] - p[s, t, 1, 0]


def test_observable_to_povm():
    p0, p1 = observable_to_povm(np.diag([1.0, -1.0]))
    assert np.array_equal(p0, np.diag([1.0, 0.0]))
    assert np.array_equal(p1, np.diag([0.0, 1.0]))


def test_chsh_strategy_is_valid_and_reaches_tsirelson():
    qs = chsh_optimal_strategy()
    assert validate_strategy(qs) == []
    p = behavior_of(qs).p
    root_half = 1.0 / math.sqrt(2.0)
    assert abs(correlator(p, 0, 0) - root_half) <= 1e-12
    assert abs(correlator(p, 0, 1) - root_half) <= 1e-12
    assert abs(correlator(p, 1, 0) - root_half) <= 1e-12
    assert abs(correlator(p, 1, 1) + root_half) <= 1e-12
    chsh = (correlator(p, 0, 0) + correlator(p, 0, 1)
            + correlator(p, 1, 0) - correlator(p, 1, 1))
    assert abs(chsh - 2.0 * math.sqrt(2.0)) <= 1e-9
    assert abs(p[0, 0, 0, 0] + p[0, 0, 1, 1] - (1.0 + root_half) / 2.0) <= 1e-9

    value = evaluate_quantum_strategy(make_chsh_game(), qs)
    assert abs(value - TSIRELSON_COST) <= 1e-9


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_hardy_strategy_zero_conditions(theta):
    qs = hardy_strategy(theta)
    assert validate_strategy(qs) == []
    assert abs(np.linalg.norm(qs.state) - 1.0) <= 1e-12
    p = behavior_of(qs).p
    assert p[0, 1, 0, 1] <= 1e-10
    assert p[1, 0, 1, 0] <= 1e-10
    assert p[1, 1, 0, 0] <= 1e-10
    assert p[0, 0, 0, 0] > 0.0


def test_hardy_closed_form_matches_behavior():
    # anchor the closed form at two angles, then sample more broadly
    for theta in (math.pi / 4, math.pi / 3):
        p = behavior_of(hardy_strategy(theta)).p
        assert abs(p[0, 0, 0, 0] - hardy_p00_closed_form(theta)) <= 1e-12
    rng = np.random.default_rng(17)
    for theta in rng.uniform(0.05, math.pi / 2 - 0.05, size=10):
        p = behavior_of(hardy_strategy(float(theta))).p
        assert abs(p[0, 0, 0, 0] - hardy_p00_closed_form(float(theta))) <= 1e-10


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, math.nan, 3.0])
def test_hardy_strategy_rejects_bad_theta(theta):
    with pytest.raises(ValueError):
        hardy_strategy(theta)


def test_optimize_hardy_theta_hits_golden_ratio(hardy_opt):
    theta, p00 = hardy_opt
    assert abs(p00 - HARDY_P_MAX) <= 1e-9
    assert abs(math.cos(theta) ** 2 - GOLDEN) <= 1e-6
    # a plain grid brackets the same maximum
    grid = np.linspace(0.0, math.pi / 2, 1002)[1:-1]
    grid_max = max(hardy_p00_closed_form(float(t)) for t in grid)
    assert abs(grid_max - p00) <= 1e-6


def test_optimize_hardy_theta_is_the_closed_form(hardy_opt):
    theta, p00 = hardy_opt
    assert type(theta) is float
    assert abs(math.cos(theta) ** 2 - GOLDEN) <= 1e-15
    assert abs(math.tan(theta) ** 2 - GOLDEN) <= 1e-15
    assert abs(p00 - hardy_p00_closed_form(theta)) <= 1e-15
    assert abs(p00 - HARDY_P_MAX) <= 1e-15


def test_hardy_strategy_cost_on_hardy_game(hardy_opt):
    theta, p00 = hardy_opt
    qs = hardy_strategy(theta)
    value = evaluate_quantum_strategy(make_hardy_game(1.0), qs)
    assert abs(value - 0.25 * (1.0 - HARDY_P_MAX)) <= 1e-9
    value2 = evaluate_quantum_strategy(make_hardy_game(2.0), qs)
    assert abs(value2 - 0.5 * (1.0 - HARDY_P_MAX)) <= 1e-9
    # the strategy really does stay off the forbidden entries
    assert value < math.inf


def test_product_strategy_hits_forbidden_entry():
    basis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    qs = QuantumStrategy(2, 2, state, (basis, basis), (basis, basis))
    p = behavior_of(qs).p
    assert np.allclose(p[:, :, 0, 0], 1.0)
    assert evaluate_quantum_strategy(make_hardy_game(1.0), qs) == math.inf
    assert evaluate_quantum_strategy(make_chsh_game(), qs) == 0.25


def test_behavior_rows_sum_to_one():
    for qs in (chsh_optimal_strategy(), hardy_strategy(0.7)):
        sums = behavior_of(qs).p.sum(axis=(2, 3))
        assert np.max(np.abs(sums - 1.0)) <= 1e-9


def test_evaluate_matches_behavior_cost_on_random_strategies():
    rng = np.random.default_rng(23)
    g = make_chsh_game()
    for _ in range(5):
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        povms = []
        for _ in range(4):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            p0 = np.outer(q[:, 0], q[:, 0].conj())
            povms.append((p0, np.eye(2) - p0))
        qs = QuantumStrategy(2, 2, state, (povms[0], povms[1]), (povms[2], povms[3]))
        direct = evaluate_quantum_strategy(g, qs)
        via_behavior = expected_cost(g, behavior_of(qs))
        assert abs(direct - via_behavior) <= 1e-12
        assert direct >= TSIRELSON_COST - 1e-9  # never below the quantum floor


def test_evaluate_rejects_shape_mismatch():
    qs = chsh_optimal_strategy()
    g = make_chsh_game()
    bad = QuantumStrategy(2, 2, qs.state, qs.alice_povms[:1], qs.bob_povms)
    with pytest.raises(ValueError):
        evaluate_quantum_strategy(g, bad)


def construction_error(*args) -> str:
    """The message of the ValueError that QuantumStrategy(*args) raises."""
    with pytest.raises(ValueError) as info:
        QuantumStrategy(*args)
    return str(info.value)


def test_validate_strategy_reports_problems():
    qs = chsh_optimal_strategy()
    assert "norm" in construction_error(2, 2, qs.state * 0.9, qs.alice_povms, qs.bob_povms)

    not_sum = ((np.eye(2) * 0.5, np.eye(2) * 0.4), qs.alice_povms[1])
    assert "sum to identity" in construction_error(2, 2, qs.state, not_sum, qs.bob_povms)

    negative = ((np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])), qs.alice_povms[1])
    assert "negative eigenvalue" in construction_error(2, 2, qs.state, negative, qs.bob_povms)

    skew = np.array([[0.5, 0.5], [-0.5, 0.5]])
    lopsided = ((skew, np.eye(2) - skew), qs.alice_povms[1])
    assert "not Hermitian" in construction_error(2, 2, qs.state, lopsided, qs.bob_povms)


def test_povms_off_the_identity_raise_at_construction_as_in_load_strategy(tmp_path):
    qs = chsh_optimal_strategy()
    alice = np.array(qs.alice_povms)
    alice[0, 1] *= 0.5
    message = "alice measurement 0 does not sum to identity (deviation 0.5)"
    assert construction_error(2, 2, qs.state, alice, qs.bob_povms) == message
    doc = strategy_to_dict(qs)
    doc["alice_povms"] = np.stack((alice.real, alice.imag), axis=-1).tolist()
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_strategy(str(path))
    assert str(info.value) == message


@pytest.mark.parametrize("dim", [True, 2.0, np.float64(2.0), 0, np.int64(-1)])
def test_strategy_refuses_dimensions_that_are_not_positive_integers(dim):
    qs = chsh_optimal_strategy()
    assert construction_error(dim, 2, qs.state, qs.alice_povms, qs.bob_povms) == \
        f"d_a must be a positive integer, got {dim!r}"
    assert construction_error(2, dim, qs.state, qs.alice_povms, qs.bob_povms) == \
        f"d_b must be a positive integer, got {dim!r}"


def test_strategy_refuses_a_side_without_measurements():
    qs = chsh_optimal_strategy()
    assert construction_error(2, 2, qs.state, np.zeros((0, 2, 2, 2)), qs.bob_povms) == \
        "alice has no measurements"


def test_strategy_stores_numpy_integer_dimensions_as_int():
    qs = chsh_optimal_strategy()
    built = QuantumStrategy(np.int64(2), np.int32(2), qs.state, qs.alice_povms, qs.bob_povms)
    assert type(built.d_a) is int and type(built.d_b) is int
    assert strategy_to_dict(built) == strategy_to_dict(qs)


def test_behavior_of_raises_on_invalid_strategy():
    # an invalid strategy cannot be built, so it never reaches behavior_of
    qs = chsh_optimal_strategy()
    with pytest.raises(ValueError, match="norm"):
        behavior_of(QuantumStrategy(2, 2, qs.state * 2.0, qs.alice_povms, qs.bob_povms))


def skewed_projector_strategy():
    """Alice's elements are 5e-11 i ones((4, 4)) off Hermitian, inside the 1e-10 rule."""
    P = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    E = 5e-11j * np.ones((4, 4))
    return (4, 1, np.ones(4) / 2.0, [[P + E, np.eye(4) - P - E]], [[np.eye(1), np.zeros((1, 1))]])


def test_behavior_of_scores_a_strategy_the_constructor_accepts():
    # the constructor's Hermitian rule accepts this strategy; its score is that
    # of the Hermitian parts, where the raw elements would give p an
    # imaginary part of 2e-10
    qs = QuantumStrategy(*skewed_projector_strategy())
    assert behavior_of(qs).p.ravel().tolist() == [0.5, 0.0, 0.5, 0.0]


@pytest.mark.parametrize("gap, passes", [(9e-11, True), (1.1e-10, False)])
def test_herm_eig_and_strategies_follow_one_hermitian_rule(gap, passes):
    assert HERMITIAN_TOL == 1e-10
    skew = np.zeros((2, 2), dtype=complex)
    skew[0, 1] = gap * 1j  # max|P - P^dag| is gap
    P = np.diag([1.0, 0.0]) + skew
    args = (2, 1, [1.0, 0.0], [[P, np.eye(2) - P]], [[np.eye(1), np.zeros((1, 1))]])
    if passes:
        herm_eig(P)
        QuantumStrategy(*args)
    else:
        with pytest.raises(ValueError, match="^matrix is not Hermitian within 1e-10$"):
            herm_eig(P)
        assert construction_error(*args) == (
            "alice element (0,0) is not Hermitian within 1e-10; "
            "alice element (0,1) is not Hermitian within 1e-10")


def test_strategy_stores_hermitian_parts_that_a_rebuild_keeps_bitwise(monkeypatch):
    rng = np.random.default_rng(21)
    strategies = [skewed_projector_strategy()]
    for d in (2, 3):
        noise = 1e-11j * rng.uniform(-1.0, 1.0, size=(d, d))
        alice = np.array([random_povm(rng, d, 2) for _ in range(2)])
        alice[:, 0] += noise + noise.T  # within the rule, kept off Hermitian
        alice[:, 1] -= noise + noise.T
        state = rng.normal(size=d) + 1j * rng.normal(size=d)
        strategies.append((d, 1, state / np.linalg.norm(state), alice,
                           [[np.eye(1), np.zeros((1, 1))]]))
    # signed zeros: -0 on a diagonal's imaginary part and on a conjugate pair
    signed = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    signed[:, 0, 1] = signed[:, 1, 0] = complex(-0.0, -0.0)
    signed[0, 0, 0] = complex(1.0, -0.0)
    strategies.append((2, 1, [1.0, 0.0], [signed], [[np.eye(1), np.zeros((1, 1))]]))
    for args in strategies:
        qs = QuantumStrategy(*args)
        for raw, stored in ((args[3], qs.alice_povms), (args[4], qs.bob_povms)):
            raw = np.asarray(raw, dtype=complex)
            assert stored.tobytes() == ((raw + raw.conj().swapaxes(-1, -2)) / 2.0).tobytes()
        again = QuantumStrategy(qs.d_a, qs.d_b, qs.state, qs.alice_povms, qs.bob_povms)
        assert again.alice_povms.tobytes() == qs.alice_povms.tobytes()
        assert again.bob_povms.tobytes() == qs.bob_povms.tobytes()

    # exactly Hermitian elements are stored as given, even an odd subnormal
    # that halving before adding would round
    given = []
    freeze = ngcost.quantum._freeze_povms
    monkeypatch.setattr(ngcost.quantum, "_freeze_povms",
                        lambda povms, name: given.append(freeze(povms, name)) or given[-1])
    tiny = np.array([[0.0, 3 * 5e-324], [3 * 5e-324, 0.0]])
    built = (chsh_optimal_strategy(), hardy_strategy(0.3), hardy_strategy(1.2),
             QuantumStrategy(2, 1, [1.0, 0.0], [[np.diag([1.0, 0.0]) + tiny,
                                                 np.diag([0.0, 1.0]) - tiny]],
                             [[np.eye(1), np.zeros((1, 1))]]))
    assert len(given) == 2 * len(built)
    for qs, alice, bob in zip(built, given[::2], given[1::2]):
        assert qs.alice_povms.tobytes() == alice.tobytes()
        assert qs.bob_povms.tobytes() == bob.tobytes()


def test_strategy_refuses_huge_hermitian_elements_that_sum_to_identity():
    # each element's P + P^dag overflows; its eigenvalues are still those of P
    huge = np.array([[0.0, 1e308], [1e308, 0.0]])
    alice = [[np.eye(2) / 2.0 + huge, np.eye(2) / 2.0 - huge]]
    assert construction_error(2, 1, [1.0, 0.0], alice, [[np.eye(1), np.zeros((1, 1))]]) == (
        "alice element (0,0) has negative eigenvalue -1e+308; "
        "alice element (0,1) has negative eigenvalue -1e+308")


def test_behavior_validation():
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0, 0, 0] = 0.25 - 1e-13
    p[0, 0, 0, 1] = 0.25 + 1e-13
    Behavior(p)  # fine within tolerance

    q = np.full((2, 2, 2, 2), 0.25)
    q[0, 0, 0, 0] = -1e-13
    q[0, 0, 1, 1] = 0.5 + 1e-13
    b = Behavior(q)
    assert b.p[0, 0, 0, 0] == 0.0  # clamped

    with pytest.raises(ValueError, match="negative"):
        Behavior(np.full((2, 2, 2, 2), 0.25) - 0.3)
    with pytest.raises(ValueError, match="sum to 1"):
        Behavior(np.full((2, 2, 2, 2), 0.2))
    with pytest.raises(ValueError, match="4 axes"):
        Behavior(np.full((2, 2, 4), 0.25))


def test_strategy_json_round_trip(tmp_path):
    for qs in (chsh_optimal_strategy(), hardy_strategy(0.9)):
        path = tmp_path / "strategy.json"
        save_strategy(qs, str(path))
        back = load_strategy(str(path))
        assert np.array_equal(back.state, qs.state)
        for side in ("alice_povms", "bob_povms"):
            for povm_a, povm_b in zip(getattr(back, side), getattr(qs, side)):
                for m_a, m_b in zip(povm_a, povm_b):
                    assert np.array_equal(m_a, m_b)
        assert evaluate_quantum_strategy(make_chsh_game(), back) == \
            evaluate_quantum_strategy(make_chsh_game(), qs)


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_save_strategy_refuses_non_finite_entries_and_writes_no_file(tmp_path, entry):
    qs = chsh_optimal_strategy()
    state = qs.state.copy()
    state[1] = entry
    path = tmp_path / "strategy.json"
    with pytest.raises(ValueError):
        save_strategy(QuantumStrategy(2, 2, state, qs.alice_povms, qs.bob_povms), str(path))
    assert not path.exists()


def test_strategy_from_dict_rejects_bad_documents():
    doc = strategy_to_dict(chsh_optimal_strategy())
    doc["surprise"] = 1
    with pytest.raises(ValueError, match="unknown fields"):
        strategy_from_dict(doc)

    doc = strategy_to_dict(chsh_optimal_strategy())
    doc["state"] = doc["state"][:3]
    with pytest.raises(ValueError, match="state"):
        strategy_from_dict(doc)

    doc = strategy_to_dict(chsh_optimal_strategy())
    doc["state"][0] = [0.1, 0.2, 0.3]
    with pytest.raises(ValueError, match="pair"):
        strategy_from_dict(doc)

    doc = strategy_to_dict(chsh_optimal_strategy())
    doc["alice_povms"][0][0][0] = [[0.0, 0.0]]
    with pytest.raises(ValueError, match="alice_povms"):
        strategy_from_dict(doc)

    doc = strategy_to_dict(chsh_optimal_strategy())
    doc["state"] = [[v[0] * 0.5, v[1] * 0.5] for v in doc["state"]]
    with pytest.raises(ValueError, match="norm"):
        strategy_from_dict(doc)


def _replace(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _strategy_error_cases():
    """(path, replacement, message) for every level of state and alice_povms."""
    pair = "a [re, im] pair"
    cases = [(("state",), v, "state must be a list of 4 entries")
             for v in ("x", [], [[0.0, 0.0]] * 5)]
    cases += [(("state", 2), v, f"state[2] must be {pair}, got {v!r}")
              for v in ([1.0], [1.0, "0"], [True, 0.0], 0.5)]
    alice = strategy_to_dict(chsh_optimal_strategy())["alice_povms"]
    for level in range(4):
        index = (1, 0, 1)[:level]
        where = "alice_povms" + "".join(f"[{i}]" for i in index)
        cases += [(("alice_povms", *index), v, f"{where} must be a nonempty list")
                  for v in ("x", [])]
        if level > 0:
            # any length passes the reader; one list longer than its siblings is ragged
            longer = alice
            for i in index:
                longer = longer[i]
            cases.append((("alice_povms", *index), longer + longer[:1],
                          "alice_povms are ragged; expected (inputs, outcomes, d, d)"))
    cases += [(("alice_povms", 1, 0, 1, 0), v,
               f"alice_povms[1][0][1][0] must be {pair}, got {v!r}")
              for v in ([0.0, False], [0.0], "0")]
    return cases


@pytest.mark.parametrize("path, value, message", _strategy_error_cases())
def test_strategy_from_dict_names_field_and_position(path, value, message):
    doc = strategy_to_dict(chsh_optimal_strategy())
    _replace(doc, path, value)
    with pytest.raises(ValueError) as excinfo:
        strategy_from_dict(doc)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind", [np.int64, np.float32, Fraction])
def test_strategy_from_dict_reads_any_real_pair_part(kind):
    # the game loader's rule: any real but a bool, so a numpy integer, a
    # float32 or a Fraction part reads as its float
    doc = strategy_to_dict(chsh_optimal_strategy())
    doc["state"][0] = [kind(0), kind(0)]  # [0.0, 0.0]
    doc["alice_povms"][0][0][0][0] = [kind(1), kind(0)]  # [1.0, 0.0]
    floats = json.loads(json.dumps(doc, default=float))
    assert isinstance(floats["state"][0][0], float)
    got, expected = strategy_from_dict(doc), strategy_from_dict(floats)
    for field in ("state", "alice_povms", "bob_povms"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()


def test_strategy_from_dict_reads_any_number_of_inputs():
    doc = strategy_to_dict(chsh_optimal_strategy())
    doc["alice_povms"].append(doc["alice_povms"][0])
    assert strategy_from_dict(doc).n_s == 3


def random_povm(rng, dim, n_out):
    """Projective measurement onto the columns of a random unitary, grouped into n_out outcomes."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    groups = np.array_split(np.arange(dim), n_out)
    return tuple(q[:, g] @ q[:, g].conj().T for g in groups)


def kron_loop_behavior(qs):
    """The Born rule one Kronecker product per (s, t, a, b), as behavior_of used to compute it."""
    psi = qs.state
    p = np.zeros((qs.n_s, qs.n_t, qs.n_a, qs.n_b))
    for s in range(qs.n_s):
        for t in range(qs.n_t):
            for a in range(qs.n_a):
                for b in range(qs.n_b):
                    op = kron(qs.alice_povms[s][a], qs.bob_povms[t][b])
                    p[s, t, a, b] = complex(np.vdot(psi, op @ psi)).real
    return p


@pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2), (4, 4)])
def test_behavior_of_matches_the_kron_loop(d_a, d_b):
    rng = np.random.default_rng(d_a * 10 + d_b)
    for n_s, n_t, n_a, n_b in [(2, 2, 2, 2), (3, 2, 2, 3)]:
        state = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
        qs = QuantumStrategy(
            d_a, d_b, state / np.linalg.norm(state),
            tuple(random_povm(rng, d_a, n_a) for _ in range(n_s)),
            tuple(random_povm(rng, d_b, n_b) for _ in range(n_t)),
        )
        assert np.max(np.abs(behavior_of(qs).p - kron_loop_behavior(qs))) <= 1e-14


def loop_validate_povms(d_a, d_b, alice_povms, bob_povms):
    """validate_strategy's POVM checks one element at a time, one eigvalsh per element.

    The reference for the stacked checks: the same messages, grouped by kind
    per side in (measurement, element) order.
    """
    problems = []
    for side, povms, dim in (("alice", alice_povms, d_a), ("bob", bob_povms, d_b)):
        non_finite, not_hermitian, negative, off = [], [], [], []
        for x in range(povms.shape[0]):
            total = np.zeros((dim, dim), dtype=complex)
            for k in range(povms.shape[1]):
                element = povms[x, k]
                if not np.isfinite(element).all():
                    non_finite.append(f"{side} element ({x},{k}) has non-finite entries")
                    continue
                total += element
                if np.max(np.abs(element - element.conj().T)) > 1e-10:
                    not_hermitian.append(f"{side} element ({x},{k}) is not Hermitian within 1e-10")
                    continue
                low = float(np.linalg.eigvalsh((element + element.conj().T) / 2.0)[0])
                if low < -1e-10:
                    negative.append(f"{side} element ({x},{k}) has negative eigenvalue {low!r}")
            deviation = float(np.max(np.abs(total - np.eye(dim))))
            if np.isfinite(povms[x]).all() and deviation > 1e-10:
                off.append(f"{side} measurement {x} does not sum to identity "
                           f"(deviation {deviation!r})")
        problems += non_finite + not_hermitian + negative + off
    return problems


def perturb(rng, povms):
    """Copy of a POVM stack with one element non-Hermitian, negative, off-sum or non-finite."""
    out = np.array(povms)
    n_in, n_out, dim, _ = out.shape
    x, k = rng.integers(n_in), rng.integers(n_out)
    eps = rng.choice([1e-11, 1e-9, 0.3])
    kind = rng.choice(["hermitian", "negative", "sum", "non-finite"])
    if kind == "hermitian":
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out[x, k] += eps * (m - m.conj().T)
    elif kind == "negative":
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        shift = eps * np.outer(v, v.conj()) / np.vdot(v, v).real
        out[x, k] -= shift
        out[x, (k + 1) % n_out] += shift
    elif kind == "sum":
        with np.errstate(invalid="ignore"):  # the element may already hold inf
            out[x, k] *= 1.0 + eps
    else:
        i, j = rng.integers(dim, size=2)
        out[x, k, i, j] = rng.choice([complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf])
    return out


def test_stacked_validation_matches_the_element_loop():
    rng = np.random.default_rng(2024)
    seen = {"non-finite": 0, "not Hermitian": 0, "negative eigenvalue": 0, "sum to identity": 0}
    valid = 0
    for _ in range(400):
        d_a, d_b = rng.integers(1, 5, size=2)
        n_s, n_t, n_a, n_b = rng.integers(1, 4, size=4)
        state = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
        alice = np.array([random_povm(rng, d_a, n_a) for _ in range(n_s)])
        bob = np.array([random_povm(rng, d_b, n_b) for _ in range(n_t)])
        for _ in range(rng.integers(0, 4)):
            if rng.random() < 0.5:
                alice = perturb(rng, alice)
            else:
                bob = perturb(rng, bob)
        args = (int(d_a), int(d_b), state / np.linalg.norm(state), alice, bob)
        expected = loop_validate_povms(*args[:2], alice.astype(complex), bob.astype(complex))
        if expected:
            assert construction_error(*args) == "; ".join(expected)
        else:
            assert validate_strategy(QuantumStrategy(*args)) == []
        valid += not expected
        for problem in expected:
            seen[next(kind for kind in seen if kind in problem)] += 1
    assert valid >= 50
    assert min(seen.values()) >= 20, seen


def test_every_strategy_that_builds_has_a_behavior():
    # eigenvalues down to -PSD_TOL pass the strategy check, and the Born rule
    # multiplies them by eigenvalues up to 1 + PSD_TOL; Behavior clamps both
    tol = ngcost.quantum.PSD_TOL
    slight = QuantumStrategy(1, 1, [1.0], [[[[1 + 5e-11]], [[-5e-11]]]], [[[[1.0]], [[0.0]]]])
    edge = [[[[1 + tol]], [[-tol]]]]
    worst = QuantumStrategy(1, 1, [1.0], edge, edge)
    game = Game(1, 1, 2, 2, [[1.0]], [[[[0.0, 1.0], [1.0, 0.0]]]])
    for qs in (slight, worst):
        assert behavior_of(qs).p.min() == 0.0
        assert evaluate_quantum_strategy(game, qs) == 0.0
    with pytest.raises(ValueError, match="behavior has negative probability -1.1e-10"):
        Behavior([[[[1.0 + 1.1e-10, -1.1e-10], [0.0, 0.0]]]])


def test_strategy_construction_rejects_ragged_and_non_square_povms():
    qs = chsh_optimal_strategy()
    three = (np.eye(2) / 3.0,) * 3
    with pytest.raises(ValueError, match="alice_povms are ragged"):
        QuantumStrategy(2, 2, qs.state, (qs.alice_povms[0], three), qs.bob_povms)
    with pytest.raises(ValueError, match="bob_povms are ragged"):
        QuantumStrategy(2, 2, qs.state, qs.alice_povms, ((np.eye(2), np.zeros((3, 3))),))
    with pytest.raises(ValueError, match=r"alice_povms have shape \(2, 2, 2\)"):
        QuantumStrategy(2, 2, qs.state, qs.alice_povms[0], qs.bob_povms)
    with pytest.raises(ValueError, match=r"bob_povms have shape \(1, 1, 2, 3\)"):
        QuantumStrategy(2, 2, qs.state, qs.alice_povms, np.zeros((1, 1, 2, 3)))


def test_strategy_povms_are_one_frozen_array_per_side():
    qs = hardy_strategy(0.7)
    for povms in (qs.alice_povms, qs.bob_povms):
        assert povms.shape == (2, 2, 2, 2) and povms.dtype == complex
        assert not povms.flags.writeable
    assert (qs.n_s, qs.n_t, qs.n_a, qs.n_b) == (2, 2, 2, 2)
    source = np.array(qs.alice_povms)
    copy = QuantumStrategy(2, 2, qs.state, source, qs.bob_povms)
    source[0, 0] = 0.0
    assert validate_strategy(copy) == []


def test_validate_strategy_reports_wrong_element_size():
    qs = chsh_optimal_strategy()
    qutrit = np.array([[np.eye(3)]])
    assert construction_error(2, 2, qs.state, qs.alice_povms, qutrit) == \
        "bob elements have shape (3, 3), expected (2, 2)"


def test_validate_strategy_reports_wrong_state_shape():
    qs = chsh_optimal_strategy()
    assert construction_error(2, 2, qs.state[:3], qs.alice_povms, qs.bob_povms) == \
        "state has shape (3,), expected (4,)"


def test_validate_strategy_rejects_non_finite_entries():
    qs = chsh_optimal_strategy()
    for bad_value in (math.nan, math.inf):
        state = np.array(qs.state)
        state[1] = bad_value
        assert construction_error(2, 2, state, qs.alice_povms, qs.bob_povms) == \
            "state has non-finite entries"

    bob = np.array(qs.bob_povms)
    bob[1, 0, 0, 1] = complex(0.0, math.nan)
    assert construction_error(2, 2, qs.state, qs.alice_povms, bob) == \
        "bob element (1,0) has non-finite entries"


@pytest.mark.parametrize("bad_value", [math.nan, math.inf, -math.inf])
def test_behavior_rejects_non_finite_tables(bad_value):
    p = np.full((2, 2, 2, 2), 0.25)
    p[1, 0, 1, 1] = bad_value
    with pytest.raises(ValueError, match="non-finite"):
        Behavior(p)
