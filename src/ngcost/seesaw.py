"""See-saw minimization of quantum game cost with random restarts.

Each round alternates three exact subproblems: best binary POVMs for
Alice given the state and Bob, best for Bob given the state and Alice,
then the minimum-eigenvalue state of the resulting game operator.  Every
step solves its subproblem exactly, so in exact arithmetic the cost trace
never increases, and the final value is a valid quantum upper bound.  In
floating point a step can rise by rounding alone, by at most about
2e-15 times the game's largest weighted cost max|pi C|.

Every step admits its game through one check (_weights_of): a Game or a
weighted cost table becomes _CheckedTables, and checked tables pass as
they are.  The check divides each table by the power of two that brings
its largest entry into [0.5, 1), which is exact, and keeps the exponent:
herm_eig's absolute Hermitian check and NEGATIVE_EIG_TOL then act at that
unit scale, whatever the costs, and costs are multiplied back.  The
restart loop checks its games' tables once, before any iteration; each
step it calls gets read-only rows of them and checks only the shapes and
batch axes of its other arguments.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .games import Game, _frozen, _positive_int, _real
# kron and the partial traces are no longer used here; they stay importable
# from this module because benchmarks/tracer.py wraps them by name.
from .linalg import herm_eig, kron, partial_trace_a, partial_trace_b  # noqa: F401
from .quantum import QuantumStrategy

# applies at unit scale, that is relative to a game's largest weighted cost; a few
# rounding units, so costs down to ~1e-13 of the largest still steer a response
NEGATIVE_EIG_TOL = 1e-15


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs for the restart loop; defaults suit 2x2x2x2 games.

    d_a, d_b, restarts and max_iters must be positive integers and seed a
    non-negative one (Python or numpy integers, stored as int; not bool or
    float); tol must be a finite positive real, not bool, stored as float.
    Anything else raises ValueError.
    """

    d_a: int = 2
    d_b: int = 2
    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name in ("d_a", "d_b", "restarts", "max_iters", "seed"):
            value = _positive_int(getattr(self, name), name, zero=name == "seed")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tol", _real(self.tol, "tol"))


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


def _unit_scale(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each table of a stack divided by 2**k, with k = frexp(max|entry|)[1].

    Returns the tables, each with its largest |entry| in [0.5, 1), and the
    exponents k, of shape weights.shape[:-4]; k = 0 for an all-zero table.
    The division is exact.
    """
    largest = np.abs(weights).max(axis=(-4, -3, -2, -1), keepdims=True)
    k = np.frexp(largest)[1]
    return np.ldexp(weights, -k), k.reshape(weights.shape[:-4])


class _CheckedTables:
    """A weighted cost table, or a stack of them, that passed the one table check.

    Raises ValueError when the table has fewer than 4 axes or an entry that
    is not finite; +inf, an infinite cost of positive weight, asks for a
    cap.  Holds, read-only, each table at unit scale (see _unit_scale), its
    exponent k, of shape weights.shape[:-4], and each party's outcome gap.
    """

    __slots__ = ("weights", "alice_gap", "bob_gap", "k")

    def __init__(self, table):
        weights = np.asarray(table, dtype=float)
        if weights.ndim < 4:
            raise ValueError(f"weighted cost table has shape {weights.shape}, "
                             "expected (...,n_s,n_t,n_a,n_b)")
        # +inf entries of zero-weight inputs are 0 in the table and need no cap
        if not np.isfinite(weights).all():
            bad = weights[np.isnan(weights) | np.isneginf(weights)]
            if bad.size:
                raise ValueError(f"weighted cost table entries must be finite or +inf, got {bad[0]}")
            raise ValueError("game has infinite costs; cap them first (cap_infinities, or --cap)")
        weights, k = _unit_scale(weights)
        self.weights = _frozen(weights, float)
        # a party's outcome 0 minus outcome 1, on the table that puts that party
        # first: all a binary response reads
        swapped = self.weights.swapaxes(-4, -3).swapaxes(-2, -1)
        self.alice_gap = _frozen(self.weights[..., 0, :] - self.weights[..., 1, :], float)
        self.bob_gap = _frozen(swapped[..., 0, :] - swapped[..., 1, :], float)
        self.k = _frozen(k, int)

    def take(self, rows) -> _CheckedTables:
        """The given rows of each held array, read-only: gathered, with no check run.

        Gaps are elementwise, so they hold the bytes a check of those rows would.
        """
        taken = object.__new__(_CheckedTables)
        for name in self.__slots__:
            held = getattr(self, name)
            setattr(taken, name, _frozen(held[rows], held.dtype))
        return taken


def _weights_of(game: Game | np.ndarray | _CheckedTables) -> _CheckedTables:
    """How every step admits its game: as checked tables, which pass as they are.

    A Game gives its weighted cost table; a table or a stack gives itself.
    """
    if isinstance(game, _CheckedTables):
        return game
    return _CheckedTables(game._weights if isinstance(game, Game) else game)


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
    shape (..., n_s, n_t, n_a, n_b), one table per batch entry.  The
    operator is built on each table at unit scale and multiplied back,
    which is exact.
    """
    checked = _weights_of(game)
    G = _unit_operator(checked, alice_povms, bob_povms)
    # ldexp on the real and imaginary parts keeps even the signs of zeros
    return np.ldexp(G.view(float), checked.k[..., None, None]).view(complex)


def _unit_operator(checked: _CheckedTables, alice_povms, bob_povms) -> np.ndarray:
    weights = checked.weights
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
    come back as an array of shape (...).  game is as in game_operator:
    the eigensolve runs at unit scale, and the cost is multiplied back.
    """
    checked = _weights_of(game)
    w, v = herm_eig(_unit_operator(checked, alice_povms, bob_povms))
    cost = np.ldexp(w[..., 0], checked.k)
    return v[..., :, 0].copy(), (cost if cost.ndim else float(cost))


def _best_response(gap: np.ndarray, psi: np.ndarray, other: np.ndarray) -> np.ndarray:
    # gap[..., s, t, b] is a _CheckedTables outcome gap, of the table
    # weights[..., s, t, a, b] that puts the responding party first;
    # psi[..., i, m] is the state with the responder's index i first;
    # other[..., t, b, k, m] holds the fixed party's POVMs.  The reduced
    # operator for outcome a is
    # R[s, a] = sum_{t,b} weights[s, t, a, b] psi other[t, b]^T psi^dag.
    other_gap = np.einsum("...stb,...tbkm->...smk", gap, other)
    psi_dag = psi.conj().swapaxes(-1, -2)[..., None, :, :]
    delta = psi[..., None, :, :] @ other_gap @ psi_dag
    # outcome 0 collects the strictly negative eigenspace; zero modes go to 1
    w, v = herm_eig(delta)
    neg = v * (w < -NEGATIVE_EIG_TOL)[..., None, :]
    p0 = neg @ v.conj().swapaxes(-1, -2)
    povms = np.empty(p0.shape[:-2] + (2,) + p0.shape[-2:], dtype=complex)
    povms[..., 0, :, :] = p0
    np.subtract(_identity(psi.shape[-2]), p0, out=povms[..., 1, :, :])
    return povms


@cache
def _identity(dim: int) -> np.ndarray:
    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


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
    game is as in game_operator; NEGATIVE_EIG_TOL is relative to each
    table's largest weighted cost.
    """
    checked = _weights_of(game)
    n_s, n_t, n_a, n_b = checked.weights.shape[-4:]
    if n_a != 2:
        raise ValueError(f"measurement update needs n_a = 2, got {n_a}")
    B = _povm_stack(bob_povms, n_t, n_b, "bob")
    psi = _checked_state(state, B, "d_b")
    _require_batch(checked.weights, psi.shape[:-1])
    psi = psi.reshape(psi.shape[:-1] + (-1, B.shape[-1]))
    return _best_response(checked.alice_gap, psi, B)


def update_bob(game: Game | np.ndarray, state: np.ndarray, alice_povms) -> np.ndarray:
    """Exact best binary projective response for Bob, Alice and state fixed.

    Returns an array of shape (..., n_t, 2, dB, dB), with the batch
    conventions of update_alice.  It is Alice's update on the game with
    the parties swapped.
    """
    checked = _weights_of(game)
    n_s, n_t, n_a, n_b = checked.weights.shape[-4:]
    if n_b != 2:
        raise ValueError(f"measurement update needs n_b = 2, got {n_b}")
    A = _povm_stack(alice_povms, n_s, n_a, "alice")
    psi = _checked_state(state, A, "d_a")
    _require_batch(checked.weights, psi.shape[:-1])
    psi = psi.reshape(psi.shape[:-1] + (A.shape[-1], -1)).swapaxes(-1, -2)
    return _best_response(checked.bob_gap, psi, A)


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


def _run_stack(table: _CheckedTables, tol: float, state: np.ndarray, alice: np.ndarray,
               bob: np.ndarray, max_iters: int) -> list[list[float]]:
    """Every entry of a stack advanced together; returns each entry's cost trace.

    Entry e runs from state[e], alice[e] and bob[e] on table row e until an
    iteration improves its cost, at its game's scale, by less than tol, or
    for max_iters iterations; its trace ends at its final cost, and its final
    rows are written to state[e], alice[e] and bob[e] once, when it stops.
    The active entries' states, Bob rows and costs live in compact arrays.
    """
    operator = game_operator(table, alice, bob)
    cost = np.einsum("ri,rij,rj->r", state.conj(), operator, state).real
    traces = [[c] for c in cost.tolist()]
    active, psi, now_bob = np.arange(len(traces)), state, bob
    for i in range(1, max_iters + 1):
        new_alice = update_alice(table, psi, now_bob)
        now_bob = update_bob(table, psi, new_alice)
        psi, new_cost = optimal_state(table, new_alice, now_bob)
        for e, c in zip(active.tolist(), new_cost.tolist()):
            traces[e].append(c)
        keep = (cost - new_cost >= tol) & (i < max_iters)
        cost = new_cost
        if keep.all():
            continue
        stop = ~keep
        for whole, part in zip((state, alice, bob), (psi, new_alice, now_bob)):
            whole[active[stop]] = part[stop]
        active, psi, now_bob, cost = (part[keep] for part in (active, psi, now_bob, cost))
        if active.size == 0:
            break
        table = table.take(keep)
    return traces


def _seesaw_stack(games: Sequence[Game], config: SeesawConfig) -> list[SeesawReport]:
    """seesaw_upper_bound of each of a sequence of same-shape games, in order.

    The games' tables are checked once, together, before any iteration
    runs.  Each stack of whole games, as many as fit in _STACK_ENTRIES
    (game, restart) entries but at least one, gives each entry its own row:
    its game's checked table and its restart's start (drawn once for all
    games).  So every report equals that of seesaw_upper_bound on its game.
    """
    shapes = sorted({game._weights.shape for game in games})
    if len(shapes) != 1:
        raise ValueError(f"games must share one shape, got {shapes or 'no game'}")
    checked = _CheckedTables(np.array([game._weights for game in games]))
    n_s, n_t, n_a, n_b = checked.weights.shape[-4:]
    if n_a != 2 or n_b != 2:
        raise ValueError(f"see-saw handles binary answers only, got n_a={n_a}, n_b={n_b}")
    restarts = config.restarts
    starts = [_random_start(config, n_s, n_t, r) for r in range(restarts)]
    starts = [np.array(part, dtype=complex) for part in zip(*starts)]
    per_stack = max(1, _STACK_ENTRIES // restarts) * restarts
    entries = np.arange(len(games) * restarts)
    reports = []
    for first in range(0, len(entries), per_stack):
        owner, restart = np.divmod(entries[first:first + per_stack], restarts)
        state, alice, bob = (part[restart] for part in starts)
        traces = _run_stack(checked.take(owner), config.tol, state, alice, bob, config.max_iters)
        for g in range(0, len(traces), restarts):
            game_traces = tuple(tuple(trace) for trace in traces[g:g + restarts])
            best = int(np.argmin([trace[-1] for trace in game_traces]))
            e = g + best
            strategy = QuantumStrategy(config.d_a, config.d_b, state[e], alice[e], bob[e])
            reports.append(SeesawReport(game_traces[best][-1], strategy, best, game_traces))
    return reports


def seesaw_upper_bound(game: Game, config: SeesawConfig = SeesawConfig()) -> SeesawReport:
    """Best quantum cost found over config.restarts random restarts.

    Each restart draws its own state and measurements from a generator
    seeded by (seed, restart index), so results do not depend on how
    restarts are scheduled.  All restarts advance together as one stack;
    a restart leaves the stack, keeping its state, measurements and
    trace, when an iteration improves its cost by less than config.tol
    or after config.max_iters rounds.  Ties between restarts keep the
    earliest one.  Raises ValueError when an input of positive weight
    has an infinite cost entry; +inf entries of zero-weight inputs cost
    nothing and need no cap.
    """
    return _seesaw_stack([game], config)[0]
