"""Outside-in tracing of ngcost's layers.

The tracer replaces a module attribute, such as `ngcost.seesaw.update_alice`,
with a wrapper that records a span around each call.  It patches the name
the *caller* looks up, so `ngcost.seesaw.herm_eig` (the see-saw's reference
to `linalg.herm_eig`) is traced apart from any other caller's.  Nothing in
ngcost is edited; `installed()` restores every original on exit.

A name that no longer exists is reported as absent and never fails the
run, so the tracer outlives refactors that fold or drop functions.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute its callers look up, layer metric name)
WRAPS = (
    ("ngcost.cli", "main", "cli.main"),
    ("ngcost.cli", "load_game", "games.load_game"),
    ("ngcost.quantum", "expected_cost", "games.expected_cost"),
    ("ngcost.cli", "classical_cost", "classical.classical_cost"),
    ("ngcost.cli", "ns_lower_bound", "nsbound.ns_lower_bound"),
    ("ngcost.nsbound", "solve", "simplex.solve"),
    ("ngcost.cli", "seesaw_upper_bound", "seesaw.seesaw_upper_bound"),
    ("ngcost.seesaw", "update_alice", "seesaw.update_alice"),
    ("ngcost.seesaw", "update_bob", "seesaw.update_bob"),
    ("ngcost.seesaw", "optimal_state", "seesaw.optimal_state"),
    ("ngcost.seesaw", "game_operator", "seesaw.game_operator"),
    ("ngcost.seesaw", "herm_eig", "linalg.seesaw.herm_eig"),
    ("ngcost.seesaw", "kron", "linalg.seesaw.kron"),
    ("ngcost.seesaw", "partial_trace_a", "linalg.seesaw.partial_trace"),
    ("ngcost.seesaw", "partial_trace_b", "linalg.seesaw.partial_trace"),
    ("ngcost.quantum", "kron", "linalg.quantum.kron"),
    ("ngcost.cli", "behavior_of", "quantum.behavior_of"),
    ("ngcost.quantum", "behavior_of", "quantum.behavior_of"),
    ("ngcost.quantum", "validate_strategy", "quantum.validate_strategy"),
    ("ngcost.cli", "evaluate_quantum_strategy", "quantum.evaluate_quantum_strategy"),
    ("ngcost.cli", "optimize_hardy_theta", "quantum.optimize_hardy_theta"),
    ("ngcost.cli", "load_strategy", "quantum.load_strategy"),
    ("ngcost.cli", "save_strategy", "quantum.save_strategy"),
)

BEST_TOL = 1e-9


def _count_pairs(counters, args, kwargs, result):
    game = args[0]
    counters["classical.pairs_scanned"] += game.n_a ** game.n_s * game.n_b ** game.n_t


def _count_lp(counters, args, kwargs, result):
    rows, cols = args[0].a_eq.shape
    counters["nsbound.lp_rows"] += rows
    counters["nsbound.lp_cols"] += cols


def _count_restarts(counters, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    for trace in result.traces:
        counters["seesaw.restarts"] += 1
        counters["seesaw.iterations"] += len(trace) - 1
        counters["seesaw.max_iters_stops"] += len(trace) - 1 == config.max_iters
        counters["seesaw.restarts_at_best"] += trace[-1] <= result.best_cost + BEST_TOL


# Counts taken from a layer's arguments or result, keyed by its metric name.
HOOKS = {
    "classical.classical_cost": _count_pairs,
    "simplex.solve": _count_lp,
    "seesaw.seesaw_upper_bound": _count_restarts,
}


class Tracer:
    """Records (name, start, end, parent span, task) for every wrapped call."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.task = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    @contextmanager
    def installed(self):
        """Wrap every name in `wraps` for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self.restore()

    def _install(self):
        present = set()
        for module_name, attr, layer in self.wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
            present.add(layer)
        self.absent = sorted({layer for _, _, layer in self.wraps} - present)

    def restore(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def leftovers(self) -> list[str]:
        """Wrapped names that do not hold their original function."""
        return [f"{module.__name__}.{attr}" for module, attr, original in self._originals
                if getattr(module, attr) is not original]

    def _wrap(self, fn, layer):
        if layer not in self.names:
            self.names.append(layer)
        name = self.names.index(layer)
        hook = HOOKS.get(layer)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def layer_totals(tracer: Tracer) -> dict[str, list]:
    """[calls, self seconds, inclusive seconds] of every wrapped name that is present."""
    totals = {name: [0, 0.0, 0.0] for name in tracer.names}
    for (name, start, end, _, _), own in zip(tracer.spans, self_times(tracer.spans)):
        entry = totals[tracer.names[name]]
        entry[0] += 1
        entry[1] += own
        entry[2] += end - start
    return totals


def layer_metrics(tracer: Tracer, totals: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass calls and self time of every present layer, plus derived counts."""
    metrics = {}
    for name, (calls, own, _) in totals.items():
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.self_s"] = (own / passes, "s")

    c = tracer.counters
    if "classical.classical_cost" in totals:
        pairs = c["classical.pairs_scanned"]
        busy = totals["classical.classical_cost"][2]
        metrics["classical.pairs_scanned"] = (pairs / passes, "count")
        metrics["classical.pairs_per_s"] = (pairs / busy if busy else 0.0, "1/s")
    if "simplex.solve" in totals:
        metrics["nsbound.lp_rows"] = (c["nsbound.lp_rows"] / passes, "count")
        metrics["nsbound.lp_cols"] = (c["nsbound.lp_cols"] / passes, "count")
    if "seesaw.seesaw_upper_bound" in totals:
        restarts, iterations = c["seesaw.restarts"], c["seesaw.iterations"]
        busy = totals["seesaw.seesaw_upper_bound"][2]
        for key in ("seesaw.restarts", "seesaw.iterations", "seesaw.max_iters_stops"):
            metrics[key] = (c[key] / passes, "count")
        metrics["seesaw.iter_us"] = (1e6 * busy / iterations if iterations else 0.0, "us")
        metrics["seesaw.restarts_at_best_ratio"] = (
            c["seesaw.restarts_at_best"] / restarts if restarts else 0.0, "ratio")
    return metrics


def layer_shares(tracer: Tracer, totals: dict) -> dict[str, float]:
    """Share of all task time spent as self time in each layer, largest first.

    A layer is a metric name without its function: `seesaw`, or
    `linalg.seesaw` for linalg calls made by the see-saw.
    """
    task_time = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    shares = Counter()
    for name, (_, own, _) in totals.items():
        shares[name.rsplit(".", 1)[0]] += own / task_time if task_time else 0.0
    return dict(shares.most_common())


def calls_by_task(tracer: Tracer) -> dict[int, Counter]:
    """Wrapped-call counts of each task, for checking that repeats do the same work."""
    out = defaultdict(Counter)
    for name, _, _, _, task in tracer.spans:
        out[task][tracer.names[name]] += 1
    return out
