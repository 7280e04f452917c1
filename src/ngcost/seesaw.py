"""See-saw minimization of quantum game cost with random restarts.

Each round alternates three exact subproblems: best binary POVMs for
Alice given the state and Bob, best for Bob given the state and Alice,
then the minimum-eigenvalue state of the resulting game operator.  Every
step solves its subproblem exactly, so the cost trace never increases
and the final value is a valid quantum upper bound.
"""

from __future__ import annotations

from collections.abc import Sequence
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


# The most (game, restart) entries one stack holds; a larger grid runs in
# chunks of whole games, so memory stays bounded whatever its size.
_STACK_ENTRIES = 128


def _weights_of(game: Game | np.ndarray) -> np.ndarray:
    """game._weights, or a weighted cost table as a float array.

    Raises ValueError when a table has fewer than 4 axes or an input of
    positive weight has an infinite cost entry.
    """
    weights = game._weights if isinstance(game, Game) else np.asarray(game, dtype=float)
    if weights.ndim < 4:
        raise ValueError(f"weighted cost table has shape {weights.shape}, "
                         "expected (...,n_s,n_t,n_a,n_b)")
    # +inf entries of zero-weight inputs are 0 in the table and need no cap
    if np.isinf(weights).any():
        raise ValueError("game has infinite costs; cap them first (cap_infinities, or --cap)")
    return weights


def _povm_stack(povms, n_inputs: int, n_outcomes: int, who: str) -> np.ndarray:
    P = np.asarray(povms, dtype=complex)
    if P.ndim < 4 or P.shape[-4:-2] != (n_inputs, n_outcomes) or P.shape[-2] != P.shape[-1]:
        raise ValueError(
            f"{who} POVMs have shape {P.shape}, expected (...,{n_inputs},{n_outcomes},d,d)"
        )
    return P


def _require_batch(weights: np.ndarray, batch: tuple[int, ...]) -> None:
    # a stacked table gives one table per batch entry
    if weights.ndim > 4 and batch != weights.shape[:-4]:
        raise ValueError(f"batch axes differ: table {weights.shape[:-4]}, POVMs {batch}")


def game_operator(game: Game | np.ndarray, alice_povms, bob_povms) -> np.ndarray:
    """Operator whose expectation on |psi> is the expected cost.

    G = sum_{s,t,a,b} pi(s,t) C(a,b|s,t) A^s_a x B^t_b, returned as a
    dense (dA*dB) x (dA*dB) Hermitian matrix.  POVMs of shape
    (..., n, outcomes, d, d) with equal leading batch axes give a stack
    of operators of shape (..., dA*dB, dA*dB).  game is one Game, shared
    by every batch entry, or a weighted cost table pi(s,t) C(a,b|s,t) of
    shape (..., n_s, n_t, n_a, n_b), one table per batch entry.
    """
    weights = _weights_of(game)
    n_s, n_t, n_a, n_b = weights.shape[-4:]
    A = _povm_stack(alice_povms, n_s, n_a, "alice")
    B = _povm_stack(bob_povms, n_t, n_b, "bob")
    if A.shape[:-4] != B.shape[:-4]:
        raise ValueError(f"batch axes differ: alice {A.shape[:-4]}, bob {B.shape[:-4]}")
    _require_batch(weights, A.shape[:-4])
    d_a, d_b = A.shape[-1], B.shape[-1]
    bob_side = np.einsum("...stab,...tbkl->...sakl", weights, B)
    G = np.einsum("...saij,...sakl->...ikjl", A, bob_side)
    return G.reshape(A.shape[:-4] + (d_a * d_b, d_a * d_b))


def optimal_state(game: Game | np.ndarray, alice_povms,
                  bob_povms) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimum-eigenvalue state of the game operator and its cost.

    With batch axes the states have shape (..., dA*dB) and the costs
    come back as an array of shape (...).  game is as in game_operator.
    """
    w, v = herm_eig(game_operator(game, alice_povms, bob_povms))
    cost = w[..., 0]
    return v[..., :, 0].copy(), (cost.copy() if cost.ndim else float(cost))


def _best_response(weights: np.ndarray, psi: np.ndarray, other: np.ndarray) -> np.ndarray:
    # weights[..., s, t, a, b] puts the responding party first; psi[..., i, m]
    # is the state with the responder's index i first; other[..., t, b, k, m]
    # holds the fixed party's POVMs.  The reduced operator for outcome a is
    # R[s, a] = sum_{t,b} weights[s, t, a, b] psi other[t, b]^T psi^dag.
    gap = weights[..., 0, :] - weights[..., 1, :]
    other_gap = np.einsum("...stb,...tbkm->...smk", gap, other)
    psi_dag = psi.conj().swapaxes(-1, -2)[..., None, :, :]
    delta = psi[..., None, :, :] @ other_gap @ psi_dag
    # outcome 0 collects the strictly negative eigenspace; zero modes go to 1
    w, v = herm_eig(delta)
    neg = v * (w < -NEGATIVE_EIG_TOL)[..., None, :]
    p0 = neg @ v.conj().swapaxes(-1, -2)
    povms = np.empty(p0.shape[:-2] + (2,) + p0.shape[-2:], dtype=complex)
    povms[..., 0, :, :] = p0
    np.subtract(np.eye(psi.shape[-2], dtype=complex), p0, out=povms[..., 1, :, :])
    return povms


def _checked_state(state, other: np.ndarray, who: str) -> np.ndarray:
    psi = np.asarray(state, dtype=complex)
    d_other = other.shape[-1]
    if psi.ndim < 1 or psi.shape[-1] % d_other != 0:
        raise ValueError(f"state length {psi.shape[-1:]} is not divisible by {who}={d_other}")
    if psi.shape[:-1] != other.shape[:-4]:
        raise ValueError(f"batch axes differ: state {psi.shape[:-1]}, POVMs {other.shape[:-4]}")
    return psi


def update_alice(game: Game | np.ndarray, state: np.ndarray, bob_povms) -> np.ndarray:
    """Exact best binary projective response for Alice, Bob and state fixed.

    Returns an array of shape (..., n_s, 2, dA, dA) holding the projectors
    for outcomes 0 and 1 of every input; a state of shape (..., dA*dB) and
    Bob POVMs of shape (..., n_t, 2, dB, dB) update every batch entry.
    game is as in game_operator.
    """
    weights = _weights_of(game)
    n_s, n_t, n_a, n_b = weights.shape[-4:]
    if n_a != 2:
        raise ValueError(f"measurement update needs n_a = 2, got {n_a}")
    B = _povm_stack(bob_povms, n_t, n_b, "bob")
    psi = _checked_state(state, B, "d_b")
    _require_batch(weights, psi.shape[:-1])
    psi = psi.reshape(psi.shape[:-1] + (-1, B.shape[-1]))
    return _best_response(weights, psi, B)


def update_bob(game: Game | np.ndarray, state: np.ndarray, alice_povms) -> np.ndarray:
    """Exact best binary projective response for Bob, Alice and state fixed.

    Returns an array of shape (..., n_t, 2, dB, dB), with the batch
    conventions of update_alice.  It is Alice's update on the game with
    the parties swapped.
    """
    weights = _weights_of(game)
    n_s, n_t, n_a, n_b = weights.shape[-4:]
    if n_b != 2:
        raise ValueError(f"measurement update needs n_b = 2, got {n_b}")
    A = _povm_stack(alice_povms, n_s, n_a, "alice")
    psi = _checked_state(state, A, "d_a")
    _require_batch(weights, psi.shape[:-1])
    psi = psi.reshape(psi.shape[:-1] + (A.shape[-1], -1)).swapaxes(-1, -2)
    return _best_response(weights.swapaxes(-4, -3).swapaxes(-2, -1), psi, A)


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


def _random_start(config: SeesawConfig, n_s: int, n_t: int, restart: int):
    rng = np.random.default_rng([config.seed, restart])
    state = _random_state(rng, config.d_a * config.d_b)
    alice = [_random_binary_projective(rng, config.d_a) for _ in range(n_s)]
    bob = [_random_binary_projective(rng, config.d_b) for _ in range(n_t)]
    return state, alice, bob


def _run_stack(tables: np.ndarray, config: SeesawConfig, starts) -> list[SeesawReport]:
    """Every (game, restart) entry of a stack of weighted cost tables advanced together.

    Entry g * restarts + r is restart r of tables[g], started from
    starts[r].
    """
    n_games, restarts = len(tables), config.restarts
    state, alice, bob = (np.concatenate([part] * n_games) for part in starts)
    weights = np.repeat(tables, restarts, axis=0)
    active = np.arange(n_games * restarts)
    operator = game_operator(weights, alice, bob)
    cost = np.einsum("ri,rij,rj->r", state.conj(), operator, state).real
    traces = [[c] for c in cost.tolist()]
    for _ in range(config.max_iters):
        table, psi = weights[active], state[active]
        new_alice = update_alice(table, psi, bob[active])
        new_bob = update_bob(table, psi, new_alice)
        new_state, new_cost = optimal_state(table, new_alice, new_bob)
        alice[active], bob[active], state[active] = new_alice, new_bob, new_state
        for r, c in zip(active.tolist(), new_cost.tolist()):
            traces[r].append(c)
        improvement = cost[active] - new_cost
        cost[active] = new_cost
        active = active[improvement >= config.tol]
        if active.size == 0:
            break
    reports = []
    for first in range(0, n_games * restarts, restarts):
        best = int(np.argmin(cost[first:first + restarts]))
        e = first + best
        best_strategy = QuantumStrategy(config.d_a, config.d_b, state[e], alice[e], bob[e])
        reports.append(SeesawReport(float(cost[e]), best_strategy, best,
                                    tuple(tuple(t) for t in traces[first:first + restarts])))
    return reports


def _seesaw_stack(games: Sequence[Game], config: SeesawConfig) -> list[SeesawReport]:
    """seesaw_upper_bound of each of a sequence of same-shape games, in order.

    Every game is validated before any iteration runs.  The random
    starts depend only on config and the input counts, so they are
    drawn once; then every (game, restart) pair advances as one entry of
    a stack of whole games, as many as fit in _STACK_ENTRIES entries but
    at least one.
    Each entry keeps its own stopping rule, so every report equals that
    of seesaw_upper_bound on its game alone.
    """
    for game in games:
        require_valid_game(game)
    shapes = sorted({game._weights.shape for game in games})
    if len(shapes) != 1:
        raise ValueError(f"games must share one shape, got {shapes or 'no game'}")
    tables = _weights_of(np.array([game._weights for game in games]))
    n_s, n_t, n_a, n_b = tables.shape[-4:]
    if n_a != 2 or n_b != 2:
        raise ValueError(f"see-saw handles binary answers only, got n_a={n_a}, n_b={n_b}")
    starts = [_random_start(config, n_s, n_t, r) for r in range(config.restarts)]
    starts = [np.array(part, dtype=complex) for part in zip(*starts)]
    per_stack = max(1, _STACK_ENTRIES // config.restarts)
    reports = []
    for first in range(0, len(tables), per_stack):
        reports += _run_stack(tables[first:first + per_stack], config, starts)
    return reports


def seesaw_upper_bound(game: Game, config: SeesawConfig = SeesawConfig()) -> SeesawReport:
    """Best quantum cost found over config.restarts random restarts.

    Each restart draws its own state and measurements from a generator
    seeded by (seed, restart index), so results do not depend on how
    restarts are scheduled.  All restarts advance together as one stack;
    a restart leaves the stack, keeping its state, measurements and
    trace, when an iteration improves its cost by less than config.tol
    or after config.max_iters rounds.  Ties between restarts keep the
    earliest one.  Raises ValueError when validate_game reports a
    problem or an input of positive weight has an infinite cost entry;
    +inf entries of zero-weight inputs cost nothing and need no cap.
    """
    return _seesaw_stack([game], config)[0]
