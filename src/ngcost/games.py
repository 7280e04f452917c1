"""Cost-table games over finite input/output alphabets.

A game pairs an input distribution pi(s, t) with a cost table
C(a, b | s, t); expected_cost scores a Behavior p(a, b | s, t) on it.  Cost
entries are floats where +inf marks a forbidden answer pair; building a
Game with a NaN or -inf cost, or with an input distribution that is not a
probability distribution, raises ValueError.
Built-in constructors cover the CHSH game, the Hardy game with penalty
T, and the two-parameter family G(phi, w) that contains both as endpoints.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

INF_PROB_TOL = 1e-12
DIST_SUM_TOL = 1e-12
# The one floor for negative values: a strategy's POVM elements have eigenvalues
# in about [-PSD_TOL, 1 + PSD_TOL], so a Born probability <psi|A x B|psi> is at
# least -PSD_TOL * (1 + PSD_TOL); a Behavior clamps that, less 1e-12 for rounding, to 0
PSD_TOL = 1e-10
_PROB_FLOOR = -(PSD_TOL * (1.0 + PSD_TOL) + 1e-12)


@dataclass(frozen=True, eq=False)
class Game:
    """Two-party game: alphabet sizes, input distribution, cost table.

    input_dist has shape (n_s, n_t) and cost has shape
    (n_s, n_t, n_a, n_b).  Arrays are copied, frozen and checked on
    construction, and sizes are stored as int: a size that is not a
    positive integer (a bool or a float is not), a bad shape, a NaN or
    -inf cost, or an input distribution that is negative, not finite or
    does not sum to 1 raise ValueError with every diagnostic, joined by "; ".
    """

    n_s: int
    n_t: int
    n_a: int
    n_b: int
    input_dist: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "input_dist", _frozen(self.input_dist, float))
        object.__setattr__(self, "cost", _frozen(self.cost, float))
        problems = _problems(self)
        if problems:
            raise ValueError("; ".join(problems))

    @cached_property
    def _weights(self) -> np.ndarray:
        # pi(s, t) * C(a, b | s, t), and 0 wherever pi is 0, +inf entries
        # included: the one weighted cost table every solver reads.
        # Read-only, and computed once per game from the frozen arrays.
        pi = self.input_dist[:, :, None, None]
        return _frozen(pi * np.where(pi > 0, self.cost, 0.0), float)

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
    T = _real(T, "penalty T")
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 0] = [[0.0, T], [T, T]]
    cost[0, 1, 0, 1] = math.inf
    cost[1, 0, 1, 0] = math.inf
    cost[1, 1, 0, 0] = math.inf
    return Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the game family G(phi, w): phi in [0, pi/2], w finite and >= 0."""

    phi: float
    w: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _real(self.phi, "phi", "real in [0, pi/2]",
                                              lambda x: 0.0 <= x <= math.pi / 2))
        object.__setattr__(self, "w", _real(self.w, "w", "finite non-negative real",
                                            lambda x: 0.0 <= x < math.inf))


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
    cap = _real(cap, "cap")
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


def _positive_int(value, name: str, zero: bool = False) -> int:
    """value as an int: a Python or numpy integer of at least 1, or of at least 0 with zero.

    A bool, a float or a smaller value raises ValueError naming name.
    The one rule for every size, count and seed ngcost is given.
    """
    least, kind = (0, "non-negative") if zero else (1, "positive")
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def _real(value, name: str, kind: str = "finite positive real",
          ok=lambda x: 0.0 < x < math.inf) -> float:
    """value as a float: a numbers.Real (numpy reals too) but not a bool, for which ok holds.

    Anything else, a value too large for a float included, raises ValueError
    naming name and kind.  The one rule for every real parameter ngcost is given.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int or Fraction beyond the float range
            if ok(x := float(value)):
                return x
    raise ValueError(f"{name} must be a {kind}, got {value!r}")


def _frozen(value, dtype) -> np.ndarray:
    """A read-only copy of value as a dtype array: how every value type holds an array.

    A complex value for a float dtype raises ValueError; numpy would drop its imaginary part.
    """
    arr = np.asarray(value)
    if dtype is float and arr.dtype.kind == "c":
        raise ValueError(f"expected real entries, got a {arr.dtype} array")
    arr = np.array(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _problems(game: Game) -> list[str]:
    """Human-readable diagnostics of a game's arrays; empty when they make a game.

    Sizes that pass are stored on the game as int.
    """
    problems = []
    for name in ("n_s", "n_t", "n_a", "n_b"):
        try:
            size = _positive_int(getattr(game, name), f"alphabet size {name}")
            object.__setattr__(game, name, size)
        except ValueError as exc:
            problems.append(str(exc))
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
        with np.errstate(invalid="ignore"):  # +inf and -inf entries sum to NaN
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


@dataclass(frozen=True, eq=False)
class Behavior:
    """Checked probability table p indexed by (s, t, a, b), copied and frozen.

    Entries in [_PROB_FLOOR, 0), as any built strategy's Born rule gives,
    are clamped to zero; anything more negative is invalid, as are an empty
    axis, non-finite entries and a per-input row that does not sum to 1
    within 1e-9.  expected_cost scores nothing else.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.p, float)
        if arr.ndim != 4:
            raise ValueError(f"behavior table must have 4 axes (s,t,a,b), got {arr.ndim}")
        if arr.size == 0:
            raise ValueError(f"behavior table has an empty axis, shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("behavior has non-finite entries")
        low = float(arr.min())
        if low < _PROB_FLOOR:
            raise ValueError(f"behavior has negative probability {low!r}")
        p = _frozen(np.clip(arr, 0.0, None), float)
        worst = float(np.max(np.abs(p.sum(axis=(2, 3)) - 1.0)))
        if worst > 1e-9:
            raise ValueError(f"behavior rows must sum to 1 (largest deviation {worst!r})")
        object.__setattr__(self, "p", p)


def expected_cost(game: Game, behavior: Behavior) -> float:
    """Average cost of a behavior p(a, b | s, t) under the game.

    Infinite cost entries contribute 0 when their input weight is zero or
    their probability is at most 1e-12, and make the total +inf otherwise.
    A raw array raises TypeError, and a table of another shape ValueError.
    """
    if not isinstance(behavior, Behavior):
        raise TypeError(f"expected_cost scores a Behavior, got {type(behavior).__name__}")
    p = behavior.p
    if p.shape != game.cost.shape:
        raise ValueError(f"probability table has shape {p.shape}, expected {game.cost.shape}")
    weights = game._weights
    infinite = np.isinf(weights)
    if np.any(infinite & (p > INF_PROB_TOL)):
        return math.inf
    return float(np.sum(np.where(infinite, 0.0, weights) * p))


_GAME_FIELDS = {"n_s", "n_t", "n_a", "n_b", "input_dist", "cost"}


def _finite(value) -> float:
    return _real(value, "entry", "finite real", math.isfinite)


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
    return tuple(_positive_int(data[name], name) for name in sizes)


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
    return Game(*shape, dist, cost)


def _write_json(path: str, doc: dict) -> None:
    """Write doc as indented JSON; a NaN or inf entry raises ValueError and writes no file."""
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def save_game(game: Game, path: str) -> None:
    _write_json(path, game_to_dict(game))


def load_game(path: str) -> Game:
    return game_from_dict(_read_json(path))
