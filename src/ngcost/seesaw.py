"""See-saw minimization of quantum game cost with random restarts.

Each round alternates three exact subproblems: best binary POVMs for
Alice given the state and Bob, best for Bob given the state and Alice,
then the minimum-eigenvalue state of the resulting game operator.  Every
step solves its subproblem exactly, so the cost trace never increases
and the final value is a valid quantum upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .games import Game, require_valid_game
# kron and the partial traces are no longer used here; they stay importable
# from this module because benchmarks/tracer.py wraps them by name.
from .linalg import herm_eig, kron, partial_trace_a, partial_trace_b  # noqa: F401
from .quantum import QuantumStrategy

NEGATIVE_EIG_TOL = 1e-12


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs for the restart loop; defaults suit 2x2x2x2 games."""

    d_a: int = 2
    d_b: int = 2
    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError(f"local dimensions must be positive, got ({self.d_a}, {self.d_b})")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class SeesawReport:
    """Best value found, the strategy attaining it, its restart and per-restart traces."""

    best_cost: float
    best_strategy: QuantumStrategy
    best_restart: int
    traces: tuple[tuple[float, ...], ...] = field(repr=False)

    @property
    def restarts(self) -> int:
        return len(self.traces)


def _require_finite(game: Game) -> None:
    if game.has_infinite_costs():
        raise ValueError("game has infinite costs; cap them before running the see-saw")


def _povm_stack(povms, n_inputs: int, n_outcomes: int, who: str) -> np.ndarray:
    P = np.asarray(povms, dtype=complex)
    if P.ndim < 4 or P.shape[-4:-2] != (n_inputs, n_outcomes) or P.shape[-2] != P.shape[-1]:
        raise ValueError(
            f"{who} POVMs have shape {P.shape}, expected (...,{n_inputs},{n_outcomes},d,d)"
        )
    return P


def game_operator(game: Game, alice_povms, bob_povms) -> np.ndarray:
    """Operator whose expectation on |psi> is the expected cost.

    G = sum_{s,t,a,b} pi(s,t) C(a,b|s,t) A^s_a x B^t_b, returned as a
    dense (dA*dB) x (dA*dB) Hermitian matrix.  POVMs of shape
    (..., n, outcomes, d, d) with equal leading batch axes give a stack
    of operators of shape (..., dA*dB, dA*dB).
    """
    _require_finite(game)
    A = _povm_stack(alice_povms, game.n_s, game.n_a, "alice")
    B = _povm_stack(bob_povms, game.n_t, game.n_b, "bob")
    if A.shape[:-4] != B.shape[:-4]:
        raise ValueError(f"batch axes differ: alice {A.shape[:-4]}, bob {B.shape[:-4]}")
    d_a, d_b = A.shape[-1], B.shape[-1]
    bob_side = np.einsum("stab,...tbkl->...sakl", game._weights, B)
    G = np.einsum("...saij,...sakl->...ikjl", A, bob_side)
    return G.reshape(A.shape[:-4] + (d_a * d_b, d_a * d_b))


def optimal_state(game: Game, alice_povms, bob_povms) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimum-eigenvalue state of the game operator and its cost.

    With batch axes the states have shape (..., dA*dB) and the costs
    come back as an array of shape (...).
    """
    w, v = herm_eig(game_operator(game, alice_povms, bob_povms))
    cost = w[..., 0]
    return v[..., :, 0].copy(), (cost.copy() if cost.ndim else float(cost))


def _best_response(weights: np.ndarray, psi: np.ndarray, other: np.ndarray) -> np.ndarray:
    # weights[s, t, a, b] puts the responding party first; psi[..., i, m] is
    # the state with the responder's index i first; other[..., t, b, k, m]
    # holds the fixed party's POVMs.  The reduced operator for outcome a is
    # R[s, a] = sum_{t,b} weights[s, t, a, b] psi other[t, b]^T psi^dag.
    gap = weights[:, :, 0] - weights[:, :, 1]
    other_gap = np.einsum("stb,...tbkm->...smk", gap, other)
    psi_dag = psi.conj().swapaxes(-1, -2)[..., None, :, :]
    delta = psi[..., None, :, :] @ other_gap @ psi_dag
    # outcome 0 collects the strictly negative eigenspace; zero modes go to 1
    w, v = herm_eig(delta)
    neg = v * (w < -NEGATIVE_EIG_TOL)[..., None, :]
    p0 = neg @ v.conj().swapaxes(-1, -2)
    return np.stack([p0, np.eye(psi.shape[-2], dtype=complex) - p0], axis=-3)


def _checked_state(state, other: np.ndarray, who: str) -> np.ndarray:
    psi = np.asarray(state, dtype=complex)
    d_other = other.shape[-1]
    if psi.ndim < 1 or psi.shape[-1] % d_other != 0:
        raise ValueError(f"state length {psi.shape[-1:]} is not divisible by {who}={d_other}")
    if psi.shape[:-1] != other.shape[:-4]:
        raise ValueError(f"batch axes differ: state {psi.shape[:-1]}, POVMs {other.shape[:-4]}")
    return psi


def update_alice(game: Game, state: np.ndarray, bob_povms) -> np.ndarray:
    """Exact best binary projective response for Alice, Bob and state fixed.

    Returns an array of shape (..., n_s, 2, dA, dA) holding the projectors
    for outcomes 0 and 1 of every input; a state of shape (..., dA*dB) and
    Bob POVMs of shape (..., n_t, 2, dB, dB) update every batch entry.
    """
    _require_finite(game)
    if game.n_a != 2:
        raise ValueError(f"measurement update needs n_a = 2, got {game.n_a}")
    B = _povm_stack(bob_povms, game.n_t, game.n_b, "bob")
    psi = _checked_state(state, B, "d_b")
    psi = psi.reshape(psi.shape[:-1] + (-1, B.shape[-1]))
    return _best_response(game._weights, psi, B)


def update_bob(game: Game, state: np.ndarray, alice_povms) -> np.ndarray:
    """Exact best binary projective response for Bob, Alice and state fixed.

    Returns an array of shape (..., n_t, 2, dB, dB), with the batch
    conventions of update_alice.  It is Alice's update on the game with
    the parties swapped.
    """
    _require_finite(game)
    if game.n_b != 2:
        raise ValueError(f"measurement update needs n_b = 2, got {game.n_b}")
    A = _povm_stack(alice_povms, game.n_s, game.n_a, "alice")
    psi = _checked_state(state, A, "d_a")
    psi = psi.reshape(psi.shape[:-1] + (A.shape[-1], -1)).swapaxes(-1, -2)
    return _best_response(game._weights.transpose(1, 0, 3, 2), psi, A)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_binary_projective(rng: np.random.Generator, dim: int):
    # random orthonormal frame; outcome 0 takes the first floor(dim/2) directions
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    half = q[:, : dim // 2]
    p0 = half @ half.conj().T
    return p0, np.eye(dim, dtype=complex) - p0


def _random_start(config: SeesawConfig, game: Game, restart: int):
    rng = np.random.default_rng([config.seed, restart])
    state = _random_state(rng, config.d_a * config.d_b)
    alice = [_random_binary_projective(rng, config.d_a) for _ in range(game.n_s)]
    bob = [_random_binary_projective(rng, config.d_b) for _ in range(game.n_t)]
    return state, alice, bob


def seesaw_upper_bound(game: Game, config: SeesawConfig = SeesawConfig()) -> SeesawReport:
    """Best quantum cost found over config.restarts random restarts.

    Each restart draws its own state and measurements from a generator
    seeded by (seed, restart index), so results do not depend on how
    restarts are scheduled.  All restarts advance together as one stack;
    a restart leaves the stack, keeping its state, measurements and
    trace, when an iteration improves its cost by less than config.tol
    or after config.max_iters rounds.  Ties between restarts keep the
    earliest one.  Raises ValueError when validate_game reports a
    problem or the game has infinite costs.
    """
    require_valid_game(game)
    _require_finite(game)
    if game.n_a != 2 or game.n_b != 2:
        raise ValueError(
            f"see-saw handles binary answers only, got n_a={game.n_a}, n_b={game.n_b}"
        )
    starts = [_random_start(config, game, r) for r in range(config.restarts)]
    state, alice, bob = (np.array(part, dtype=complex) for part in zip(*starts))
    operator = game_operator(game, alice, bob)
    cost = np.einsum("ri,rij,rj->r", state.conj(), operator, state).real
    traces = [[c] for c in cost.tolist()]
    active = np.arange(config.restarts)
    for _ in range(config.max_iters):
        new_alice = update_alice(game, state[active], bob[active])
        new_bob = update_bob(game, state[active], new_alice)
        new_state, new_cost = optimal_state(game, new_alice, new_bob)
        alice[active], bob[active], state[active] = new_alice, new_bob, new_state
        for r, c in zip(active.tolist(), new_cost.tolist()):
            traces[r].append(c)
        improvement = cost[active] - new_cost
        cost[active] = new_cost
        active = active[improvement >= config.tol]
        if active.size == 0:
            break
    best = int(np.argmin(cost))
    best_strategy = QuantumStrategy(config.d_a, config.d_b, state[best], alice[best], bob[best])
    return SeesawReport(float(cost[best]), best_strategy, best, tuple(tuple(t) for t in traces))
