"""The benchmark's workloads: inputs made from a seed, task lists, output checks.

A workload is a fixed list of CLI invocations (one pass).  The runner
repeats passes; every task must print the same bytes on every pass, and
the first output of each task is checked here against oracles.py.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

CHAIN_SLACK = 1e-6  # the see-saw may sit ~5e-10 above the classical value
CLASSICAL_TOL = 1e-12
LP_TOL = 1e-7
BORN_TOL = 1e-12
STRATEGY_TOL = 1e-9
SWEEP_HEADER = "phi,w,classical,seesaw,ns,quantum_classical_gap"


@dataclass(frozen=True)
class Task:
    kind: str
    argv: tuple[str, ...]


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def _write_game(path: Path, dist: np.ndarray, cost: np.ndarray) -> None:
    doc = {
        "n_s": cost.shape[0], "n_t": cost.shape[1], "n_a": cost.shape[2], "n_b": cost.shape[3],
        "input_dist": dist.tolist(),
        "cost": np.where(np.isinf(cost), "inf", cost.astype(object)).tolist(),
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


class Workload:
    """Task list plus per-task reference checks; subclasses fill both in."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.tasks: list[Task] = []
        self.seesaw_bounds: dict[int, float] = {}
        self._references: dict[bytes, tuple[float, float]] = {}

    def check(self, index: int, stdout: str) -> list[str]:
        raise NotImplementedError

    def _reference(self, cost: np.ndarray) -> tuple[float, float]:
        """Brute-force classical and linprog ns values of a 2x2x2x2 uniform-input game."""
        key = cost.tobytes()
        if key not in self._references:
            self._references[key] = (
                float(oracles.classical_table(oracles.UNIFORM_2X2, cost).min()),
                oracles.ns_value(oracles.UNIFORM_2X2, cost))
        return self._references[key]

    def _check_chain(self, cost, classical, seesaw, ns) -> list[str]:
        """Reported values against the oracles, then ns <= seesaw <= classical."""
        classical_ref, ns_ref = self._reference(cost)
        problems = []
        if not _close(classical, classical_ref, CLASSICAL_TOL):
            problems.append(f"classical {classical!r} != brute force {classical_ref!r}")
        if not _close(ns, ns_ref, LP_TOL):
            problems.append(f"ns {ns!r} != linprog {ns_ref!r}")
        if not ns <= seesaw + CHAIN_SLACK:
            problems.append(f"ns {ns!r} above see-saw {seesaw!r}")
        if not seesaw <= classical + CHAIN_SLACK:
            problems.append(f"see-saw {seesaw!r} above classical {classical!r}")
        return problems


class FamilySweep(Workload):
    """Rows of the G(phi, w) grid through `sweep`, all three solvers, w = 0 capped."""

    name = "family-sweep"
    ROWS = 32
    # w = 2 is left out: near phi = 1.076 the see-saw needs ~1200 iterations there
    # and, stopped at the default 500, ends above the classical value
    W_MAX = 1.0
    W_POINTS = 3
    RESTARTS = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        # a fixed phi grid; the seed draws each row's restart seed.  The see-saw's
        # work changes sharply with phi: random phis made seeds' runs differ by 20%
        # in throughput and 23% in tail latency.
        self.phis = [float(v) for v in (np.arange(self.ROWS) + 0.5) * (math.pi / 2) / self.ROWS]
        for phi in self.phis:
            self.tasks.append(Task("sweep", (
                "sweep", "--phi-range", repr(phi), repr(phi), "1",
                "--w-range", "0", repr(self.W_MAX), str(self.W_POINTS), "--cap", "auto",
                "--restarts", str(self.RESTARTS), "--dims", "2", "2",
                "--seed", str(int(rng.integers(1, 2**31))),
            )))

    def check(self, index: int, stdout: str) -> list[str]:
        lines = stdout.splitlines()
        if not lines or lines[0] != SWEEP_HEADER:
            return [f"unexpected sweep header {lines[:1]!r}"]
        ws = np.linspace(0.0, self.W_MAX, self.W_POINTS)
        if len(lines) != 1 + len(ws):
            return [f"sweep printed {len(lines) - 1} rows, expected {len(ws)}"]
        problems = []
        for j, (line, w) in enumerate(zip(lines[1:], ws)):
            phi_s, w_s, classical, seesaw, ns, gap = (float(v) for v in line.split(","))
            if (phi_s, w_s) != (self.phis[index], float(w)):
                problems.append(f"row {j} is at ({phi_s}, {w_s}), expected ({self.phis[index]}, {w})")
                continue
            cost = oracles.family_cost(phi_s, w_s)
            cost = oracles.capped(cost, oracles.auto_cap(cost))
            problems += self._check_chain(cost, classical, seesaw, ns)
            if gap != classical - seesaw:
                problems.append(f"gap column {gap!r} != classical - seesaw")
            self.seesaw_bounds[index * len(ws) + j] = seesaw
        return problems


class WideGames(Workload):
    """`classical` and `ns` on random games with larger alphabets and +inf entries."""

    name = "wide-games"
    # (shape, games per pass, share of +inf entries, enumerate classically).
    # Many mid-sized LPs rather than a few large ones: simplex time varies by
    # 2x or more between random games of one shape.
    PLAN = (
        ((3, 3, 3, 3), 16, 0.2, True),
        ((5, 5, 2, 2), 16, 0.2, True),
        ((4, 4, 3, 3), 16, 0.3, True),
        ((4, 4, 4, 4), 3, 0.0, True),
        ((6, 6, 3, 3), 10, 0.4, False),
        ((5, 5, 4, 4), 1, 0.5, False),
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        self.games = {}
        for shape, count, inf_share, enumerate_ in self.PLAN:
            for _ in range(count):
                dist, cost = self._random_game(rng, shape, inf_share)
                path = workdir / f"game-{len(self.games)}.json"
                _write_game(path, dist, cost)
                self.games[str(path)] = (dist, cost)
                kinds = ("classical", "ns") if enumerate_ else ("ns",)
                self.tasks += [Task(k, (k, "--game", str(path), "--json")) for k in kinds]

    @staticmethod
    def _random_game(rng, shape, inf_share):
        n_s, n_t, n_a, n_b = shape
        dist = rng.random((n_s, n_t)) + 0.5
        dist /= dist.sum()
        cost = rng.random(shape)
        # +inf never hits one deterministic strategy, so every value stays finite
        alpha, beta = rng.integers(n_a, size=n_s), rng.integers(n_b, size=n_t)
        forbidden = rng.random(shape) < inf_share
        forbidden[np.arange(n_s)[:, None], np.arange(n_t)[None, :],
                  alpha[:, None], beta[None, :]] = False
        cost[forbidden] = math.inf
        return dist, cost

    def check(self, index: int, stdout: str) -> list[str]:
        task = self.tasks[index]
        dist, cost = self.games[task.argv[2]]
        doc = json.loads(stdout)
        value = float(doc["cost"])
        if task.kind == "classical":
            table = oracles.classical_table(dist, cost)
            best = float(table.min())
            alpha, beta = doc["witness"]["alpha"], doc["witness"]["beta"]
            witness = table[oracles.strategy_index(alpha, cost.shape[2]),
                            oracles.strategy_index(beta, cost.shape[3])]
            problems = []
            if not _close(value, best, CLASSICAL_TOL):
                problems.append(f"classical {value!r} != brute force {best!r}")
            if not _close(float(witness), best, CLASSICAL_TOL):
                problems.append(f"witness costs {witness!r}, not {best!r}")
            return problems
        p = np.array(doc["witness"], dtype=float)
        problems = oracles.behavior_problems(p, cost)
        reference = oracles.ns_value(dist, cost)
        if not _close(value, reference, LP_TOL):
            problems.append(f"ns {value!r} != linprog {reference!r}")
        if not problems and not _close(oracles.behavior_cost(dist, cost, p), value, STRATEGY_TOL):
            problems.append("ns witness cost differs from the reported value")
        return problems


class HardyStrategies(Workload):
    """Hardy strategy evaluation, `hardy-theta`, and a qudit see-saw saved and re-read."""

    name = "hardy-strategies"
    THETAS = 20
    PENALTIES = 3
    SEESAWS = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        thetas = (np.arange(self.THETAS) + rng.uniform(0.05, 0.95, self.THETAS)) \
            * (math.pi / 2) / self.THETAS
        penalties = rng.uniform(0.5, 3.0, self.PENALTIES)
        cli_seed = str(int(rng.integers(1, 2**31)))
        self.capped_of: dict[str, np.ndarray] = {}
        self.seesaw_of: dict[str, float] = {}

        quantum = []
        for T in penalties:
            for theta in thetas:
                quantum.append(Task("quantum", (
                    "quantum", "--builtin", "hardy", "--T", repr(float(T)),
                    "--strategy", f"hardy:{float(theta)!r}", "--json")))
        seesaws = []
        for k in range(self.SEESAWS):
            T = float(rng.uniform(0.5, 3.0))
            cap = float(T * rng.uniform(2.0, 4.0))
            game_path = workdir / f"hardy-capped-{k}.json"
            out_path = workdir / f"hardy-strategy-{k}.json"
            cost = oracles.capped(oracles.hardy_cost(T), cap)
            _write_game(game_path, oracles.UNIFORM_2X2, cost)
            self.capped_of[str(out_path)] = cost
            seesaws.append(Task("seesaw", (
                "seesaw", "--builtin", "hardy", "--T", repr(T), "--cap", repr(cap),
                "--dims", "4", "4", "--restarts", "2",
                "--seed", cli_seed, "--out", str(out_path), "--json")))
            seesaws.append(Task("strategy", (
                "quantum", "--game", str(game_path), "--strategy", str(out_path), "--json")))
        # the angle optimizer runs twice a pass so that it is always the tail
        theta_task = Task("hardy-theta", ("hardy-theta", "--json"))
        half = len(quantum) // 2
        self.tasks = [theta_task] + quantum[:half] + seesaws + [theta_task] + quantum[half:]

    def check(self, index: int, stdout: str) -> list[str]:
        task = self.tasks[index]
        doc = json.loads(stdout)
        if task.kind == "hardy-theta":
            state, povms = oracles.hardy_arrays(doc["theta"])
            p00 = oracles.born_behavior(state, povms, povms)[0, 0, 0, 0]
            problems = []
            if abs(doc["p00"] - oracles.HARDY_P00) > STRATEGY_TOL:
                problems.append(f"p00* {doc['p00']!r} is not (5*sqrt(5)-11)/2")
            if abs(doc["p00"] - p00) > BORN_TOL:
                problems.append(f"p00 {doc['p00']!r} != Born rule {p00!r} at theta")
            return problems
        if task.kind == "quantum":
            T = float(task.argv[4])
            state, povms = oracles.hardy_arrays(float(task.argv[6][len("hardy:"):]))
            return self._check_behavior(doc, oracles.hardy_cost(T), state, povms, povms)
        if task.kind == "seesaw":
            out_path = task.argv[task.argv.index("--out") + 1]
            seesaw = float(doc["best_cost"])
            self.seesaw_of[out_path] = seesaw
            self.seesaw_bounds[index] = seesaw
            cost = self.capped_of[out_path]
            classical, ns = self._reference(cost)  # ngcost's own are not run here
            return self._check_chain(cost, classical, seesaw, ns)
        out_path = task.argv[4]
        state, alice, bob = oracles.strategy_from_json(
            json.loads(Path(out_path).read_text(encoding="utf-8")))
        problems = self._check_behavior(doc, self.capped_of[out_path], state, alice, bob)
        if abs(doc["cost"] - self.seesaw_of[out_path]) > STRATEGY_TOL:
            problems.append(f"saved strategy costs {doc['cost']!r}, "
                            f"see-saw reported {self.seesaw_of[out_path]!r}")
        return problems

    @staticmethod
    def _check_behavior(doc, cost, state, alice, bob) -> list[str]:
        p = np.array(doc["behavior"], dtype=float)
        reference = oracles.born_behavior(state, alice, bob)
        problems = []
        if p.shape != reference.shape or np.max(np.abs(p - reference)) > BORN_TOL:
            problems.append("behavior differs from the Born rule")
        else:
            expected = oracles.behavior_cost(oracles.UNIFORM_2X2, cost, reference)
            if doc["cost"] == "inf" or not _close(float(doc["cost"]), expected, BORN_TOL):
                problems.append(f"cost {doc['cost']!r} != Born-rule cost {expected!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (FamilySweep, WideGames, HardyStrategies)}
