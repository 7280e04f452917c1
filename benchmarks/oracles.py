"""Reference computations the benchmark checks ngcost's outputs against.

None of these call ngcost's solvers: the classical value is a numpy brute
force over all strategy pairs, the non-signalling value comes from
scipy's HiGHS LP solver on an LP built here, and behaviors come from a
Born-rule einsum.  scipy is imported only when an LP oracle is needed,
so it never counts towards set-up time or the measured process's memory.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

HARDY_P00 = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
UNIFORM_2X2 = np.full((2, 2), 0.25)


def family_cost(phi: float, w: float) -> np.ndarray:
    """Cost table of G(phi, w) as the README defines it, with 1/0 = +inf."""
    inv_w = math.inf if w == 0.0 else 1.0 / w
    c, s = math.cos(phi), math.sin(phi)
    return np.array([
        [[[0.0, c], [c, s]], [[0.0, inv_w], [w, 0.0]]],
        [[[0.0, w], [inv_w, 0.0]], [[inv_w, 0.0], [0.0, w]]],
    ])


def hardy_cost(T: float) -> np.ndarray:
    """Hardy game: T on inputs (0,0) unless a=b=0, +inf on the three Hardy-forbidden events."""
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 0] = [[0.0, T], [T, T]]
    cost[0, 1, 0, 1] = cost[1, 0, 1, 0] = cost[1, 1, 0, 0] = math.inf
    return cost


def capped(cost: np.ndarray, cap: float) -> np.ndarray:
    return np.where(np.isinf(cost), cap, cost)


def auto_cap(cost: np.ndarray) -> float:
    """The CLI's `--cap auto`: twice the largest finite entry, 1.0 if that is 0."""
    top = float(cost[np.isfinite(cost)].max())
    return 2.0 * top if top > 0 else 1.0


def all_strategies(n_inputs: int, n_answers: int) -> np.ndarray:
    """Every deterministic response function, one per row, in lexicographic order."""
    return np.array(list(itertools.product(range(n_answers), repeat=n_inputs)), dtype=np.intp)


def classical_table(dist: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Cost of every deterministic pair: table[i, j] for alpha row i, beta row j."""
    n_s, n_t, n_a, n_b = cost.shape
    alphas, betas = all_strategies(n_s, n_a), all_strategies(n_t, n_b)
    table = np.zeros((len(alphas), len(betas)))
    for s in range(n_s):
        for t in range(n_t):
            if dist[s, t] == 0.0:
                continue
            block = dist[s, t] * cost[s, t]
            table += block[alphas[:, s]][:, betas[:, t]]
    return table


def strategy_index(choice, n_answers: int) -> int:
    """Row of a response function in all_strategies' order."""
    index = 0
    for answer in choice:
        index = index * n_answers + int(answer)
    return index


def ns_value(dist: np.ndarray, cost: np.ndarray) -> float:
    """Minimum expected cost over non-signalling behaviors, by scipy's linprog.

    Entries with infinite cost are pinned to zero by their variable bounds.
    """
    from scipy.optimize import linprog

    n_s, n_t, n_a, n_b = shape = cost.shape
    finite = np.isfinite(cost)
    objective = (dist[:, :, None, None] * np.where(finite, cost, 0.0)).ravel()
    rows = []
    for s, t in itertools.product(range(n_s), range(n_t)):
        row = np.zeros(shape)
        row[s, t] = 1.0
        rows.append((row.ravel(), 1.0))
    for s, a, t in itertools.product(range(n_s), range(n_a), range(1, n_t)):
        row = np.zeros(shape)
        row[s, t, a, :] = 1.0
        row[s, 0, a, :] = -1.0
        rows.append((row.ravel(), 0.0))
    for t, b, s in itertools.product(range(n_t), range(n_b), range(1, n_s)):
        row = np.zeros(shape)
        row[s, t, :, b] = 1.0
        row[0, t, :, b] = -1.0
        rows.append((row.ravel(), 0.0))
    a_eq = np.array([r for r, _ in rows])
    b_eq = np.array([v for _, v in rows])
    bounds = [(0.0, None if ok else 0.0) for ok in finite.ravel()]
    res = linprog(objective, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def behavior_problems(p: np.ndarray, cost: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Why p is not a normalized non-signalling behavior avoiding infinite costs."""
    problems = []
    if p.shape != cost.shape:
        return [f"behavior shape {p.shape} differs from game shape {cost.shape}"]
    if p.min() < -tol:
        problems.append(f"negative probability {p.min()!r}")
    if np.max(np.abs(p.sum(axis=(2, 3)) - 1.0)) > tol:
        problems.append("behavior rows do not sum to 1")
    alice = p.sum(axis=3)
    bob = p.sum(axis=2)
    if np.max(np.abs(alice - alice[:, :1])) > tol or np.max(np.abs(bob - bob[:1])) > tol:
        problems.append("behavior is signalling")
    if np.any(p[np.isinf(cost)] > tol):
        problems.append("behavior puts weight on an infinite cost")
    return problems


def behavior_cost(dist: np.ndarray, cost: np.ndarray, p: np.ndarray) -> float:
    """Expected cost, counting infinite entries as zero where p vanishes."""
    finite = np.where(np.isfinite(cost), cost, 0.0)
    return float(np.sum(dist[:, :, None, None] * finite * p))


def born_behavior(state: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """p[s,t,a,b] = <psi| A[s,a] x B[t,b] |psi> for a state on C^dA x C^dB."""
    d_a, d_b = alice.shape[-1], bob.shape[-1]
    psi = np.asarray(state, dtype=complex).reshape(d_a, d_b)
    return np.einsum("ij,saik,tbjl,kl->stab", psi.conj(), alice, bob, psi).real


def hardy_arrays(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """State and per-input projectors of the Hardy family, built from its formula.

    State (sin t |11> + cos t (|01> + |10>)) / sqrt(1 + cos^2 t); input 0
    measures {sin t|0> - cos t|1>, cos t|0> + sin t|1>}, input 1 the
    computational basis; both parties measure alike.
    """
    c, s = math.cos(theta), math.sin(theta)
    state = np.array([0.0, c, c, s], dtype=complex) / math.sqrt(1.0 + c * c)
    rotated = [np.outer(v, v) for v in (np.array([s, -c]), np.array([c, s]))]
    computational = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    povms = np.array([rotated, computational], dtype=complex)
    return state, povms


def strategy_from_json(doc: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State and POVM stacks from a strategy document, read without ngcost."""
    def matrix(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    state = np.array([complex(re, im) for re, im in doc["state"]])
    alice = np.array([[matrix(m) for m in povm] for povm in doc["alice_povms"]])
    bob = np.array([[matrix(m) for m in povm] for povm in doc["bob_povms"]])
    return state, alice, bob
