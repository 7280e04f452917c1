"""Quantum strategies, their behaviors, and reference constructions.

A strategy is a pure state on C^dA x C^dB together with one POVM per
input on each side.  behavior_of turns a strategy into the probability
table p(a, b | s, t); evaluate_quantum_strategy weights that table by
the game costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import (PSD_TOL, Behavior, Game, _check_document, _frozen, _positive_int,
                    _read_json, _read_nested, _real, _write_json, expected_cost)
# kron is no longer used here; it stays importable from this module because
# benchmarks/tracer.py wraps it by name.
from .linalg import HERMITIAN_TOL, _hermitian_part, kron  # noqa: F401

SUM_TOL = 1e-10
NORM_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _freeze_povms(povms, name: str) -> np.ndarray:
    try:
        arr = _frozen(povms, complex)
    except ValueError as exc:
        raise ValueError(f"{name} are ragged; expected (inputs, outcomes, d, d)") from exc
    if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
        raise ValueError(f"{name} have shape {arr.shape}, expected (inputs, outcomes, d, d)")
    return arr


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """Pure state plus per-input POVMs for both parties.

    alice_povms[s, a] is a dA x dA element of an (n_s, n_a, dA, dA) array,
    bob_povms[t, b] is dB x dB, and state is a vector of length dA*dB.
    Arrays are copied and frozen, and ragged or non-square POVMs raise ValueError;
    so does any problem validate_strategy finds, with every diagnostic joined by "; ".
    A POVM element P that passes is stored as its Hermitian part (P + P^dag)/2.
    """

    d_a: int
    d_b: int
    state: np.ndarray
    alice_povms: np.ndarray
    bob_povms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", _frozen(self.state, complex))
        object.__setattr__(self, "alice_povms", _freeze_povms(self.alice_povms, "alice_povms"))
        object.__setattr__(self, "bob_povms", _freeze_povms(self.bob_povms, "bob_povms"))
        problems = validate_strategy(self)  # looked up by name: benchmarks/tracer.py wraps it
        if problems:
            raise ValueError("; ".join(problems))
        for name in ("alice_povms", "bob_povms"):  # the checked Hermitian parts are kept
            part = _hermitian_part(getattr(self, name))[1]
            object.__setattr__(self, name, _frozen(part, complex))
        for name in ("d_a", "d_b"):  # numpy integers become int, as save_strategy needs
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def n_s(self) -> int:
        return self.alice_povms.shape[0]

    @property
    def n_t(self) -> int:
        return self.bob_povms.shape[0]

    @property
    def n_a(self) -> int:
        return self.alice_povms.shape[1]

    @property
    def n_b(self) -> int:
        return self.bob_povms.shape[1]


def validate_strategy(strategy: QuantumStrategy) -> list[str]:
    """Diagnostics for a strategy, run when one is built; empty list means valid."""
    try:
        d_a, d_b = _positive_int(strategy.d_a, "d_a"), _positive_int(strategy.d_b, "d_b")
    except ValueError as exc:
        return [str(exc)]
    problems = []

    state = strategy.state
    if state.shape != (d_a * d_b,):
        problems.append(f"state has shape {state.shape}, expected ({d_a * d_b},)")
    elif not np.isfinite(state).all():
        problems.append("state has non-finite entries")
    else:
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > NORM_TOL:
            problems.append(f"state norm is {norm!r}, expected 1")

    for side, povms, dim in (("alice", strategy.alice_povms, d_a),
                             ("bob", strategy.bob_povms, d_b)):
        if povms.shape[0] == 0:
            problems.append(f"{side} has no measurements")
            continue
        if povms.shape[2] != dim:
            problems.append(
                f"{side} elements have shape {povms.shape[2:]}, expected {(dim, dim)}"
            )
            continue
        finite = np.isfinite(povms).all(axis=(2, 3))
        # non-finite elements are reported as such and checked no further
        checked = np.where(finite[:, :, None, None], povms, 0.0)
        hermitian, parts = _hermitian_part(checked)
        # huge finite entries may overflow to inf here, which is then reported
        with np.errstate(over="ignore"):
            deviation = np.max(np.abs(checked.sum(axis=1) - np.eye(dim)), axis=(1, 2))
        lowest = np.linalg.eigvalsh(parts)[..., 0]
        # each message loop runs only when its test found a failure
        if not finite.all():
            for x, k in zip(*np.nonzero(~finite)):
                problems.append(f"{side} element ({x},{k}) has non-finite entries")
        if not hermitian.all():
            for x, k in zip(*np.nonzero(~hermitian)):
                problems.append(f"{side} element ({x},{k}) is not Hermitian within {HERMITIAN_TOL}")
        if (lowest < -PSD_TOL).any():
            for x, k in zip(*np.nonzero(hermitian & (lowest < -PSD_TOL))):
                problems.append(
                    f"{side} element ({x},{k}) has negative eigenvalue {float(lowest[x, k])!r}"
                )
        if (deviation > SUM_TOL).any():
            for x in np.flatnonzero(finite.all(axis=1) & (deviation > SUM_TOL)):
                problems.append(
                    f"{side} measurement {x} does not sum to identity "
                    f"(deviation {float(deviation[x])!r})"
                )
    return problems


def behavior_of(strategy: QuantumStrategy) -> Behavior:
    """Born-rule table p(a, b | s, t) = <psi| A^s_a x B^t_b |psi>; built strategies are valid."""
    psi = strategy.state.reshape(strategy.d_a, strategy.d_b)
    # right[t, b, k, j] = sum_l B^t_b[j, l] psi[k, l]
    right = np.einsum("tbjl,kl->tbkj", strategy.bob_povms, psi)
    p = np.einsum("ij,saik,tbkj->stab", psi.conj(), strategy.alice_povms, right)
    return Behavior(p.real)  # the POVMs are held exactly Hermitian: p.imag is rounding only


def _require_same_shape(game: Game, strategy: QuantumStrategy) -> None:
    if (strategy.n_s, strategy.n_t) != (game.n_s, game.n_t) or \
            (strategy.n_a, strategy.n_b) != (game.n_a, game.n_b):
        raise ValueError(
            f"strategy shape ({strategy.n_s},{strategy.n_t},{strategy.n_a},{strategy.n_b}) "
            f"does not match game ({game.n_s},{game.n_t},{game.n_a},{game.n_b})"
        )


def evaluate_quantum_strategy(game: Game, strategy: QuantumStrategy) -> float:
    """Expected cost of a (built, so valid) strategy; a shape unlike the game's raises."""
    _require_same_shape(game, strategy)
    return expected_cost(game, behavior_of(strategy))


def observable_to_povm(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary POVM of a +-1 observable; outcome 0 is the +1 eigenspace."""
    obs = np.asarray(obs, dtype=complex)
    eye = np.eye(obs.shape[0])
    return (eye + obs) / 2.0, (eye - obs) / 2.0


def chsh_optimal_strategy() -> QuantumStrategy:
    """Singlet with measurement angles that reach the Tsirelson bound.

    Alice measures sigma_z and sigma_x; Bob measures -(sigma_x+sigma_z)/sqrt(2)
    and (sigma_x-sigma_z)/sqrt(2).  Each +-1 observable becomes a binary POVM
    with outcome 0 on the +1 eigenspace.
    """
    root = math.sqrt(2.0)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / root
    alice = (observable_to_povm(PAULI_Z), observable_to_povm(PAULI_X))
    bob = (
        observable_to_povm(-(PAULI_X + PAULI_Z) / root),
        observable_to_povm((PAULI_X - PAULI_Z) / root),
    )
    return QuantumStrategy(2, 2, psi, alice, bob)


def hardy_strategy(theta: float) -> QuantumStrategy:
    """One-parameter Hardy strategy, theta strictly inside (0, pi/2).

    State (sin t |11> + cos t (|01> + |10>)) / sqrt(1 + cos^2 t).  Input 0
    measures the rotated basis {sin t |0> - cos t |1>, cos t |0> + sin t |1>};
    input 1 measures the computational basis.  Both parties use the same pair.
    """
    theta = _real(theta, "theta", "real strictly inside (0, pi/2)", lambda x: 0 < x < math.pi / 2)
    c, s = math.cos(theta), math.sin(theta)
    norm = math.sqrt(1.0 + c * c)
    psi = np.array([0.0, c, c, s]) / norm

    # real projectors: exactly Hermitian, so they are stored as given
    b0, b1 = np.array([s, -c]), np.array([c, s])
    rotated = (np.outer(b0, b0), np.outer(b1, b1))
    computational = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    povms = (rotated, computational)
    return QuantumStrategy(2, 2, psi, povms, povms)


def optimize_hardy_theta() -> tuple[float, float]:
    """The Hardy angle that maximizes p(0,0 | 0,0), and that probability.

    With x = cos^2 theta, p00(theta) = sin^2 theta cos^4 theta / (1 + cos^2 theta)
    = x^2 (1 - x) / (1 + x), whose derivative vanishes where x^2 + x = 1.
    So cos^2 theta* = tan^2 theta* = (sqrt 5 - 1)/2 and p* = x^5 =
    (5 sqrt 5 - 11)/2 (Hardy, PRL 71, 1665 (1993)).  Returns (theta, p),
    where p is the Born-rule value of hardy_strategy(theta).
    """
    theta = math.atan(math.sqrt((math.sqrt(5.0) - 1.0) / 2.0))
    return theta, float(behavior_of(hardy_strategy(theta)).p[0, 0, 0, 0])


def _to_pairs(arr: np.ndarray) -> list:
    """Nested lists of the array with each complex entry as a [re, im] pair."""
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def _pair(value) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(value)
    return complex(*(_real(v, "part", "real", lambda x: True) for v in value))  # NaN and inf too


_PAIR = ("a [re, im] pair", _pair)  # leaf parser for games._read_nested
_ANY_POVMS = (None, None, None, None)  # shapes are checked by QuantumStrategy


_STRATEGY_FIELDS = {"d_a", "d_b", "state", "alice_povms", "bob_povms"}


def strategy_to_dict(strategy: QuantumStrategy) -> dict:
    return {
        "d_a": strategy.d_a,
        "d_b": strategy.d_b,
        "state": _to_pairs(strategy.state),
        "alice_povms": _to_pairs(strategy.alice_povms),
        "bob_povms": _to_pairs(strategy.bob_povms),
    }


def strategy_from_dict(data: dict) -> QuantumStrategy:
    d_a, d_b = _check_document(data, "strategy", _STRATEGY_FIELDS, ("d_a", "d_b"))
    return QuantumStrategy(
        d_a, d_b,
        _read_nested(data["state"], (d_a * d_b,), _PAIR, "state"),
        _read_nested(data["alice_povms"], _ANY_POVMS, _PAIR, "alice_povms"),
        _read_nested(data["bob_povms"], _ANY_POVMS, _PAIR, "bob_povms"),
    )


def save_strategy(strategy: QuantumStrategy, path: str) -> None:
    """Write strategy_to_dict as JSON; a NaN or inf entry raises ValueError and writes no file."""
    _write_json(path, strategy_to_dict(strategy))


def load_strategy(path: str) -> QuantumStrategy:
    return strategy_from_dict(_read_json(path))
