"""Quantum strategies, their behaviors, and reference constructions.

A strategy is a pure state on C^dA x C^dB together with one POVM per
input on each side.  behavior_of turns a strategy into the probability
table p(a, b | s, t); evaluate_quantum_strategy weights that table by
the game costs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .games import Game, _check_document, _read_nested, expected_cost
# kron is no longer used here; it stays importable from this module because
# benchmarks/tracer.py wraps it by name.
from .linalg import kron  # noqa: F401

PSD_TOL = 1e-10
SUM_TOL = 1e-10
NORM_TOL = 1e-10
IMAG_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _freeze(arr) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.flags.writeable = False
    return out


def _freeze_povms(povms, name: str) -> np.ndarray:
    try:
        arr = _freeze(povms)
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
    Arrays are copied and frozen; ragged or non-square POVMs raise ValueError.
    """

    d_a: int
    d_b: int
    state: np.ndarray
    alice_povms: np.ndarray
    bob_povms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", _freeze(self.state))
        object.__setattr__(self, "alice_povms", _freeze_povms(self.alice_povms, "alice_povms"))
        object.__setattr__(self, "bob_povms", _freeze_povms(self.bob_povms, "bob_povms"))

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
    """Diagnostics for a strategy; empty list means valid."""
    problems = []
    d_a, d_b = strategy.d_a, strategy.d_b
    if d_a < 1 or d_b < 1:
        problems.append(f"local dimensions must be positive, got ({d_a}, {d_b})")
        return problems

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
        adjoint = checked.conj().swapaxes(2, 3)
        hermitian = np.max(np.abs(checked - adjoint), axis=(2, 3)) <= PSD_TOL
        # halving first keeps huge finite entries from overflowing
        lowest = np.linalg.eigvalsh(checked / 2.0 + adjoint / 2.0)[..., 0]
        deviation = np.max(np.abs(checked.sum(axis=1) - np.eye(dim)), axis=(1, 2))
        for x, k in zip(*np.nonzero(~finite)):
            problems.append(f"{side} element ({x},{k}) has non-finite entries")
        for x, k in zip(*np.nonzero(~hermitian)):
            problems.append(f"{side} element ({x},{k}) is not Hermitian within 1e-10")
        for x, k in zip(*np.nonzero(hermitian & (lowest < -PSD_TOL))):
            problems.append(
                f"{side} element ({x},{k}) has negative eigenvalue {float(lowest[x, k])!r}"
            )
        for x in np.flatnonzero(finite.all(axis=1) & (deviation > SUM_TOL)):
            problems.append(
                f"{side} measurement {x} does not sum to identity "
                f"(deviation {float(deviation[x])!r})"
            )
    return problems


@dataclass(frozen=True, eq=False)
class Behavior:
    """Probability table p indexed by (s, t, a, b).

    Entries in [-1e-12, 0) are clamped to zero; anything more negative is
    invalid, as are non-finite entries and a per-input row that does not
    sum to 1 within 1e-9.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float)
        if arr.ndim != 4:
            raise ValueError(f"behavior table must have 4 axes (s,t,a,b), got {arr.ndim}")
        if not np.isfinite(arr).all():
            raise ValueError("behavior has non-finite entries")
        low = float(arr.min()) if arr.size else 0.0
        if low < -1e-12:
            raise ValueError(f"behavior has negative probability {low!r}")
        np.clip(arr, 0.0, None, out=arr)
        sums = arr.sum(axis=(2, 3))
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > 1e-9:
            raise ValueError(f"behavior rows must sum to 1 (largest deviation {worst!r})")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)


def behavior_of(strategy: QuantumStrategy) -> Behavior:
    """Born-rule table p(a, b | s, t) = <psi| A^s_a x B^t_b |psi>."""
    problems = validate_strategy(strategy)
    if problems:
        raise ValueError("; ".join(problems))
    psi = strategy.state.reshape(strategy.d_a, strategy.d_b)
    # right[t, b, k, j] = sum_l B^t_b[j, l] psi[k, l]
    right = np.einsum("tbjl,kl->tbkj", strategy.bob_povms, psi)
    p = np.einsum("ij,saik,tbkj->stab", psi.conj(), strategy.alice_povms, right)
    worst = np.unravel_index(np.argmax(np.abs(p.imag)), p.shape)
    if abs(p.imag[worst]) > IMAG_TOL:
        s, t, a, b = (int(i) for i in worst)
        raise ValueError(
            f"probability at ({s},{t},{a},{b}) has imaginary part {float(p.imag[worst])!r}"
        )
    return Behavior(p.real)


def _require_same_shape(game: Game, strategy: QuantumStrategy) -> None:
    if (strategy.n_s, strategy.n_t) != (game.n_s, game.n_t) or \
            (strategy.n_a, strategy.n_b) != (game.n_a, game.n_b):
        raise ValueError(
            f"strategy shape ({strategy.n_s},{strategy.n_t},{strategy.n_a},{strategy.n_b}) "
            f"does not match game ({game.n_s},{game.n_t},{game.n_a},{game.n_b})"
        )


def evaluate_quantum_strategy(game: Game, strategy: QuantumStrategy) -> float:
    """Expected cost of the strategy's behavior under the game."""
    _require_same_shape(game, strategy)
    return expected_cost(game, behavior_of(strategy).p)


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
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    root = math.sqrt(2.0)
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
    theta = float(theta)
    if not (0.0 < theta < math.pi / 2):
        raise ValueError(f"theta must lie strictly inside (0, pi/2), got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    norm = math.sqrt(1.0 + c * c)
    psi = np.zeros(4, dtype=complex)
    psi[1] = c / norm
    psi[2] = c / norm
    psi[3] = s / norm

    b0 = np.array([s, -c], dtype=complex)
    b1 = np.array([c, s], dtype=complex)
    rotated = (np.outer(b0, b0.conj()), np.outer(b1, b1.conj()))
    computational = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
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
    if (not isinstance(value, list) or len(value) != 2 or
            any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ValueError(value)
    return complex(*value)


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

    strategy = QuantumStrategy(
        d_a, d_b,
        _read_nested(data["state"], (d_a * d_b,), _PAIR, "state"),
        _read_nested(data["alice_povms"], _ANY_POVMS, _PAIR, "alice_povms"),
        _read_nested(data["bob_povms"], _ANY_POVMS, _PAIR, "bob_povms"),
    )
    problems = validate_strategy(strategy)
    if problems:
        raise ValueError("; ".join(problems))
    return strategy


def save_strategy(strategy: QuantumStrategy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strategy_to_dict(strategy), fh, indent=2)
        fh.write("\n")


def load_strategy(path: str) -> QuantumStrategy:
    with open(path, "r", encoding="utf-8") as fh:
        return strategy_from_dict(json.load(fh))
