"""Cost-table games over finite input/output alphabets.

A game pairs an input distribution pi(s, t) with a cost table
C(a, b | s, t).  Cost entries are floats where +inf marks a forbidden
answer pair; NaN and -inf are rejected.  Built-in constructors cover
the CHSH game, the Hardy game with penalty T, and the two-parameter
family G(phi, w) that contains both as endpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

INF_PROB_TOL = 1e-12
DIST_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Game:
    """Two-party game: alphabet sizes, input distribution, cost table.

    input_dist has shape (n_s, n_t) and cost has shape
    (n_s, n_t, n_a, n_b).  Arrays are copied and frozen on construction;
    invariants are checked by validate_game, not here, so that invalid
    tables can still be built and diagnosed.
    """

    n_s: int
    n_t: int
    n_a: int
    n_b: int
    input_dist: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        dist = np.array(self.input_dist, dtype=float)
        cost = np.array(self.cost, dtype=float)
        dist.flags.writeable = False
        cost.flags.writeable = False
        object.__setattr__(self, "input_dist", dist)
        object.__setattr__(self, "cost", cost)

    @cached_property
    def _weights(self) -> np.ndarray:
        # pi(s, t) * C(a, b | s, t), read-only.  The see-saw's update and
        # operator functions read it on every step; the arrays it is built
        # from are frozen, so it is computed once per game.
        weights = self.input_dist[:, :, None, None] * self.cost
        weights.flags.writeable = False
        return weights

    def has_infinite_costs(self) -> bool:
        return bool(np.isinf(self.cost).any())

    def max_finite_cost(self) -> float:
        finite = self.cost[np.isfinite(self.cost)]
        return float(finite.max()) if finite.size else 0.0


def make_chsh_game() -> Game:
    """CHSH as a cost game: unit cost whenever a xor b != s*t, uniform inputs.

    This is the family endpoint G(0, 1).
    """
    return make_family_game(FamilyParams(0.0, 1.0))


def make_hardy_game(T: float = 1.0) -> Game:
    """Hardy game with penalty T > 0.

    On inputs (0, 0) every answer except (0, 0) costs T.  The three
    answer/input pairs that a Hardy-type argument forbids cost +inf:
    (0,1 | 0,1), (1,0 | 1,0) and (0,0 | 1,1).  Everything else is free.
    """
    T = float(T)
    if not math.isfinite(T) or T <= 0:
        raise ValueError(f"penalty T must be positive and finite, got {T}")
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 0] = [[0.0, T], [T, T]]
    cost[0, 1, 0, 1] = math.inf
    cost[1, 0, 1, 0] = math.inf
    cost[1, 1, 0, 0] = math.inf
    return Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the game family G(phi, w): phi in [0, pi/2], w >= 0."""

    phi: float
    w: float

    def __post_init__(self):
        phi = float(self.phi)
        w = float(self.w)
        if not (0.0 <= phi <= math.pi / 2):  # also rejects NaN
            raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
        if not (w >= 0.0 and math.isfinite(w)):
            raise ValueError(f"w must be a nonnegative finite real, got {w}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "w", w)


def make_family_game(params: FamilyParams) -> Game:
    """Game G(phi, w) with uniform inputs, using the convention 1/0 = +inf.

    Cost blocks, rows indexed by a and columns by b:

        (s,t)=(0,0): [[0, cos phi], [cos phi, sin phi]]
        (s,t)=(0,1): [[0, 1/w], [w, 0]]
        (s,t)=(1,0): [[0, w], [1/w, 0]]
        (s,t)=(1,1): [[1/w, 0], [0, w]]

    G(0, 1) is the CHSH game and G(pi/4, 0) is the Hardy game with
    T = sqrt(2)/2.
    """
    phi, w = params.phi, params.w
    inv_w = math.inf if w == 0.0 else 1.0 / w
    c, s = math.cos(phi), math.sin(phi)
    cost = np.empty((2, 2, 2, 2))
    cost[0, 0] = [[0.0, c], [c, s]]
    cost[0, 1] = [[0.0, inv_w], [w, 0.0]]
    cost[1, 0] = [[0.0, w], [inv_w, 0.0]]
    cost[1, 1] = [[inv_w, 0.0], [0.0, w]]
    return Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)


def cap_infinities(game: Game, cap: float) -> Game:
    """Replace every +inf cost with the finite value cap.

    cap must exceed the largest finite cost already in the table, so
    capping never reorders existing preferences.  The input distribution
    is reused unchanged.
    """
    cap = float(cap)
    if not math.isfinite(cap) or cap <= 0:
        raise ValueError(f"cap must be positive and finite, got {cap}")
    max_finite = game.max_finite_cost()
    if cap <= max_finite:
        raise ValueError(
            f"cap {cap} must exceed the largest finite cost {max_finite}"
        )
    cost = np.where(np.isinf(game.cost), cap, game.cost)
    return Game(game.n_s, game.n_t, game.n_a, game.n_b, game.input_dist, cost)


def auto_cap(game: Game) -> float:
    """Default cap: twice the largest finite cost (1.0 for all-zero tables)."""
    max_finite = game.max_finite_cost()
    return 2.0 * max_finite if max_finite > 0 else 1.0


def validate_game(game: Game) -> list[str]:
    """Return human-readable diagnostics; empty list means the game is valid."""
    problems = []
    for name, size in (("n_s", game.n_s), ("n_t", game.n_t),
                       ("n_a", game.n_a), ("n_b", game.n_b)):
        if not isinstance(size, int) or size < 1:
            problems.append(f"alphabet size {name} must be a positive integer, got {size}")
    if problems:
        return problems

    dist = game.input_dist
    if dist.shape != (game.n_s, game.n_t):
        problems.append(
            f"input distribution has shape {dist.shape}, expected {(game.n_s, game.n_t)}"
        )
    else:
        for s, t in zip(*np.nonzero(~(np.isfinite(dist) & (dist >= 0)))):
            problems.append(f"invalid input probability at ({s},{t}): {dist[s, t]}")
        total = float(dist.sum())
        if abs(total - 1.0) > DIST_SUM_TOL:
            problems.append(f"input distribution not normalized (sum={total!r})")

    cost = game.cost
    expected = (game.n_s, game.n_t, game.n_a, game.n_b)
    if cost.shape != expected:
        problems.append(f"cost table has shape {cost.shape}, expected {expected}")
    else:
        for s, t, a, b in zip(*np.nonzero(np.isnan(cost) | (cost == -math.inf))):
            problems.append(f"invalid cost entry at ({s},{t},{a},{b}): {cost[s, t, a, b]}")
    return problems


def require_valid_game(game: Game) -> None:
    """Raise ValueError with validate_game's diagnostics, joined by "; "."""
    problems = validate_game(game)
    if problems:
        raise ValueError("; ".join(problems))


def expected_cost(game: Game, p: np.ndarray) -> float:
    """Average cost of a probability table p(a, b | s, t) under the game.

    Infinite cost entries contribute 0 when their input weight is zero or
    their probability is at most 1e-12, and make the total +inf otherwise.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != game.cost.shape:
        raise ValueError(f"probability table has shape {p.shape}, expected {game.cost.shape}")
    weight = game.input_dist[:, :, None, None]
    infinite = np.isinf(game.cost)
    if np.any(infinite & (weight > 0) & (p > INF_PROB_TOL)):
        return math.inf
    return float(np.sum(weight * np.where(infinite, 0.0, game.cost) * p))


_GAME_FIELDS = {"n_s", "n_t", "n_a", "n_b", "input_dist", "cost"}


def _finite(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(value)
    return float(value)


# Leaf parsers for _read_nested: what an entry must be, and how to read one.
_PROBABILITY = ("an input probability (a finite number)", _finite)
_COST_ENTRY = ('a cost entry (a finite number or "inf")',
               lambda value: math.inf if value == "inf" else _finite(value))


def game_to_dict(game: Game) -> dict:
    cost = game.cost.astype(object)
    cost[np.isinf(game.cost)] = "inf"
    return {
        "n_s": game.n_s,
        "n_t": game.n_t,
        "n_a": game.n_a,
        "n_b": game.n_b,
        "input_dist": game.input_dist.tolist(),
        "cost": cost.tolist(),
    }


def _check_document(data, kind: str, fields: set[str], sizes: tuple[str, ...]) -> tuple[int, ...]:
    """Check a JSON document's field set and return its positive-integer sizes.

    Shared by the game and strategy loaders; kind names the document in
    the error messages.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    keys = set(data)
    if keys != fields:
        unknown = sorted(keys - fields)
        missing = sorted(fields - keys)
        parts = []
        if unknown:
            parts.append(f"unknown fields {unknown}")
        if missing:
            parts.append(f"missing fields {missing}")
        raise ValueError(f"invalid {kind} document: " + ", ".join(parts))
    for name in sizes:
        v = data[name]
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    return tuple(data[name] for name in sizes)


def _read_nested(raw, shape: tuple, leaf: tuple, where: str) -> list:
    """Read nonempty JSON lists nested len(shape) deep into the same nesting of leaf values.

    shape gives each level's length, None where any length will do.  leaf
    is (description, parse): parse returns an entry's value or raises.
    Errors name the field and the bracketed position, e.g. cost[0][1][1][0].
    """
    what, parse = leaf
    path = []  # filled innermost first, and only while an error unwinds

    def read(raw, depth):
        if depth == len(shape):
            try:
                return parse(raw)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"must be {what}, got {raw!r}") from None
        n = shape[depth]
        if not isinstance(raw, list) or not raw or (n is not None and len(raw) != n):
            raise ValueError("must be a nonempty list" if n is None
                             else f"must be a list of {n} entries")
        out = []
        for i, entry in enumerate(raw):
            try:
                out.append(read(entry, depth + 1))
            except ValueError:
                path.append(i)
                raise
        return out

    try:
        return read(raw, 0)
    except ValueError as exc:
        position = "".join(f"[{i}]" for i in reversed(path))
        raise ValueError(f"{where}{position} {exc}") from None


def game_from_dict(data: dict) -> Game:
    shape = _check_document(data, "game", _GAME_FIELDS, ("n_s", "n_t", "n_a", "n_b"))
    dist = _read_nested(data["input_dist"], shape[:2], _PROBABILITY, "input_dist")
    cost = _read_nested(data["cost"], shape, _COST_ENTRY, "cost")
    game = Game(*shape, dist, cost)
    require_valid_game(game)
    return game


def save_game(game: Game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2)
        fh.write("\n")


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))
