"""Exact non-signalling value of a 2x2x2x2 game from the vertices of the NS polytope.

The behaviors p(a, b | s, t) with two inputs and two outputs per party
that are non-signalling form a polytope with exactly 24 vertices
(Barrett, Linden, Massar, Pironio, Popescu & Roberts, PRA 71, 022101
(2005), quant-ph/0404097): the 16 deterministic behaviors
p = [a = alpha(s)] [b = beta(t)], and the 8 PR boxes
p = 1/2 [a xor b = st xor xs xor yt xor z] for x, y, z in {0, 1}.

A +inf cost entry of a positive-weight input pins its probability to 0.
Each pin is a face of the polytope, so the feasible set is a face too,
and its vertices are the polytope's vertices that put no mass on a pinned
entry.  The least cost over those allowed vertices is therefore the NS
value, and no allowed vertex means the game is infeasible.  Costs are
summed in fractions.Fraction from the game's exact float entries.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ngcost import Game

INPUTS = list(itertools.product(range(2), repeat=2))


def _deterministic() -> list[dict]:
    return [{(s, t, alpha[s], beta[t]): Fraction(1) for s, t in INPUTS}
            for alpha in itertools.product(range(2), repeat=2)
            for beta in itertools.product(range(2), repeat=2)]


def _pr_boxes() -> list[dict]:
    half = Fraction(1, 2)
    return [{(s, t, a, b): half for s, t in INPUTS for a, b in INPUTS
             if a ^ b == (s * t) ^ (x * s) ^ (y * t) ^ z}
            for x, y, z in itertools.product(range(2), repeat=3)]


# each vertex maps the (s, t, a, b) entries it puts mass on to that mass
NS_VERTICES = _deterministic() + _pr_boxes()


def exact_ns_value(game: Game) -> Fraction | None:
    """The least cost of an allowed vertex, or None when no vertex is allowed."""
    if (game.n_s, game.n_t, game.n_a, game.n_b) != (2, 2, 2, 2):
        raise ValueError("the vertex oracle covers 2x2x2x2 games only")
    best = None
    for vertex in NS_VERTICES:
        total = Fraction(0)
        for (s, t, a, b), mass in vertex.items():
            weight = float(game.input_dist[s, t])
            if weight == 0.0:
                continue
            cost = float(game.cost[s, t, a, b])
            if cost == math.inf:
                break
            total += Fraction(weight) * Fraction(cost) * mass
        else:
            best = total if best is None else min(best, total)
    return best
