"""Random games with +inf entries and the linear programs ns_lower_bound builds.

Shared by the simplex and non-signalling tests.  Shapes run from 2x2x2x2
to 5x5x4x4 (both extremes always included), every other game has small
integer costs (many exactly tied ratios) and the rest real costs, and
about one entry in six is +inf.  negative_ns_games adds costs below zero,
the only non-signalling LPs on which the simplex's phase 2 pivots.
"""

import math

import numpy as np

from ngcost import Game, ns_lower_bound, nsbound


def random_ns_games(seed: int, count: int) -> list[Game]:
    rng = np.random.default_rng(seed)
    shapes = [(2, 2, 2, 2)]
    for _ in range(count - 2):
        n_s, n_t = rng.integers(2, 6, size=2)
        n_a, n_b = rng.integers(2, 5, size=2)
        shapes.append((int(n_s), int(n_t), int(n_a), int(n_b)))
    shapes.append((5, 5, 4, 4))
    games = []
    for k, shape in enumerate(shapes):
        if k % 2:
            cost = rng.integers(0, 4, size=shape).astype(float)
        else:
            cost = rng.uniform(0.0, 3.0, size=shape)
        cost[rng.random(shape) < 1 / 6] = math.inf
        n_s, n_t = shape[:2]
        games.append(Game(*shape, np.full((n_s, n_t), 1.0 / (n_s * n_t)), cost))
    return games


def negative_ns_games(seed: int, count: int) -> list[Game]:
    """Games up to 4x4x3x3 with costs in [-1, 2), about one entry in five +inf."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        n_s, n_t, n_a, n_b = shape = (*rng.integers(2, 5, size=2), *rng.integers(2, 4, size=2))
        cost = rng.uniform(-1.0, 2.0, size=shape)
        cost[rng.random(shape) < 0.2] = math.inf
        dist = rng.random((n_s, n_t)) + 0.5
        games.append(Game(*shape, dist / dist.sum(), cost))
    return games


class _Captured(Exception):
    pass


def captured_ns_lps(monkeypatch, games: list[Game]) -> list:
    """The LinearProgram ns_lower_bound hands to the simplex, one per game."""

    def capture(lp):
        raise _Captured(lp)

    lps = []
    with monkeypatch.context() as patch:
        patch.setattr(nsbound, "solve", capture)
        for game in games:
            try:
                ns_lower_bound(game)
            except _Captured as got:
                lps.append(got.args[0])
            else:
                raise AssertionError("ns_lower_bound returned without solving an LP")
    return lps
