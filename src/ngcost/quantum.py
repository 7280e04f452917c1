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

from .games import Game, _check_document, expected_cost
# kron is no longer used here; it stays importable from this module because
# benchmarks/tracer.py wraps it by name.
from .linalg import kron  # noqa: F401

PSD_TOL = 1e-10
SUM_TOL = 1e-10
NORM_TOL = 1e-10
IMAG_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """Pure state plus per-input POVMs for both parties.

    alice_povms[s][a] is a dA x dA matrix, bob_povms[t][b] is dB x dB,
    and state is a vector of length dA*dB.  Arrays are copied and frozen.
    """

    d_a: int
    d_b: int
    state: np.ndarray
    alice_povms: tuple[tuple[np.ndarray, ...], ...]
    bob_povms: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "state", _freeze(self.state))
        object.__setattr__(
            self, "alice_povms",
            tuple(tuple(_freeze(m) for m in povm) for povm in self.alice_povms),
        )
        object.__setattr__(
            self, "bob_povms",
            tuple(tuple(_freeze(m) for m in povm) for povm in self.bob_povms),
        )

    @property
    def n_s(self) -> int:
        return len(self.alice_povms)

    @property
    def n_t(self) -> int:
        return len(self.bob_povms)

    @property
    def n_a(self) -> int:
        return len(self.alice_povms[0]) if self.alice_povms else 0

    @property
    def n_b(self) -> int:
        return len(self.bob_povms[0]) if self.bob_povms else 0


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
    else:
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > NORM_TOL:
            problems.append(f"state norm is {norm!r}, expected 1")

    for side, povms, dim in (("alice", strategy.alice_povms, d_a),
                             ("bob", strategy.bob_povms, d_b)):
        if not povms:
            problems.append(f"{side} has no measurements")
            continue
        n_out = len(povms[0])
        for x, povm in enumerate(povms):
            if len(povm) != n_out:
                problems.append(f"{side} measurement {x} has {len(povm)} outcomes, expected {n_out}")
                continue
            total = np.zeros((dim, dim), dtype=complex)
            for k, element in enumerate(povm):
                if element.shape != (dim, dim):
                    problems.append(
                        f"{side} element ({x},{k}) has shape {element.shape}, expected {(dim, dim)}"
                    )
                    continue
                if np.max(np.abs(element - element.conj().T)) > PSD_TOL:
                    problems.append(f"{side} element ({x},{k}) is not Hermitian within 1e-10")
                    continue
                eigs = np.linalg.eigvalsh((element + element.conj().T) / 2.0)
                if eigs[0] < -PSD_TOL:
                    problems.append(
                        f"{side} element ({x},{k}) has negative eigenvalue {eigs[0]!r}"
                    )
                total += element
            deviation = float(np.max(np.abs(total - np.eye(dim))))
            if deviation > SUM_TOL:
                problems.append(
                    f"{side} measurement {x} does not sum to identity (deviation {deviation!r})"
                )
    return problems


@dataclass(frozen=True, eq=False)
class Behavior:
    """Probability table p indexed by (s, t, a, b).

    Entries in [-1e-12, 0) are clamped to zero; anything more negative is
    invalid, as is a per-input row that does not sum to 1 within 1e-9.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float)
        if arr.ndim != 4:
            raise ValueError(f"behavior table must have 4 axes (s,t,a,b), got {arr.ndim}")
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
    alice = np.array(strategy.alice_povms)
    bob = np.array(strategy.bob_povms)
    # right[t, b, k, j] = sum_l B^t_b[j, l] psi[k, l]
    right = np.einsum("tbjl,kl->tbkj", bob, psi)
    p = np.einsum("ij,saik,tbkj->stab", psi.conj(), alice, right)
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


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_pairs(mat: np.ndarray) -> list:
    return [[_complex_to_pair(v) for v in row] for row in np.asarray(mat, dtype=complex)]


def _pair_to_complex(value, where: str) -> complex:
    if (not isinstance(value, list) or len(value) != 2 or
            any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ValueError(f"{where} must be a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _pairs_to_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f"{where} must be a {dim}x{dim} matrix")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{where} row {i} must have {dim} entries")
        for j, v in enumerate(row):
            out[i, j] = _pair_to_complex(v, f"{where}[{i}][{j}]")
    return out


_STRATEGY_FIELDS = {"d_a", "d_b", "state", "alice_povms", "bob_povms"}


def strategy_to_dict(strategy: QuantumStrategy) -> dict:
    return {
        "d_a": strategy.d_a,
        "d_b": strategy.d_b,
        "state": [_complex_to_pair(v) for v in strategy.state],
        "alice_povms": [[_matrix_to_pairs(m) for m in povm] for povm in strategy.alice_povms],
        "bob_povms": [[_matrix_to_pairs(m) for m in povm] for povm in strategy.bob_povms],
    }


def strategy_from_dict(data: dict) -> QuantumStrategy:
    d_a, d_b = _check_document(data, "strategy", _STRATEGY_FIELDS, ("d_a", "d_b"))

    state_raw = data["state"]
    if not isinstance(state_raw, list) or len(state_raw) != d_a * d_b:
        raise ValueError(f"state must be a list of {d_a * d_b} [re, im] pairs")
    state = np.array(
        [_pair_to_complex(v, f"state[{i}]") for i, v in enumerate(state_raw)], dtype=complex
    )

    povm_sets = []
    for name, dim in (("alice_povms", d_a), ("bob_povms", d_b)):
        raw = data[name]
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"{name} must be a nonempty list of measurements")
        povms = []
        for x, povm_raw in enumerate(raw):
            if not isinstance(povm_raw, list) or not povm_raw:
                raise ValueError(f"{name}[{x}] must be a nonempty list of matrices")
            povms.append(tuple(
                _pairs_to_matrix(m, dim, f"{name}[{x}][{k}]") for k, m in enumerate(povm_raw)
            ))
        povm_sets.append(tuple(povms))

    strategy = QuantumStrategy(d_a, d_b, state, povm_sets[0], povm_sets[1])
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
