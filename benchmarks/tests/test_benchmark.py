"""Tests of the benchmark harness: checks, tracing, self time and the tail rule."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ngcost import cli  # noqa: E402


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _corrupt_csv(text: str, column: int, value) -> str:
    lines = text.splitlines()
    cells = lines[2].split(",")  # the w > 0 row of the grid
    cells[column] = repr(value(float(cells[2]), float(cells[3]), float(cells[4])))
    lines[2] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workload = workloads.FamilySweep(3, tmp_path_factory.mktemp("sweep"))
    return workload, _stdout(workload.tasks[0].argv)


def test_sweep_output_passes_its_checks(sweep):
    workload, text = sweep
    assert workload.check(0, text) == []
    assert len(workload.seesaw_bounds) == workloads.FamilySweep.W_POINTS


@pytest.mark.parametrize("column, value, reason", [
    (2, lambda c, s, n: c + 1e-3, "brute force"),
    (4, lambda c, s, n: n + 1e-3, "linprog"),
    (3, lambda c, s, n: c + 1e-3, "above classical"),
    (3, lambda c, s, n: n - 1e-3, "ns"),
])
def test_checker_flags_corrupted_sweep_values(sweep, column, value, reason):
    workload, text = sweep
    problems = workload.check(0, _corrupt_csv(text, column, value))
    assert any(reason in p for p in problems), problems


def test_checker_flags_corrupted_wide_game_values(tmp_path):
    workload = workloads.WideGames(5, tmp_path)
    for index, task in enumerate(workload.tasks[:2]):
        text = _stdout(task.argv)
        assert workload.check(index, text) == []
        doc = json.loads(text)
        doc["cost"] += 1e-4
        assert workload.check(index, json.dumps(doc)), task.kind


def test_runner_counts_every_run_of_a_bad_output(tmp_path):
    class FakeCli:
        calls = 0

        def main(self, argv):
            FakeCli.calls += 1
            print("phi,w,classical,seesaw,ns,quantum_classical_gap\n" if FakeCli.calls < 3
                  else "different bytes")
            return 0

    workload = workloads.FamilySweep(1, tmp_path)
    workload.tasks = workload.tasks[:1]
    runner = run.Runner(FakeCli(), workload)
    for _ in range(3):
        runner.run(0)
    failed, problems = runner.check()
    assert failed == 3 + 1  # three runs of a wrong sweep, one of them also differs
    assert any("differs from its first run" in p for p in problems)


def test_self_time_subtracts_covered_child_time():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),    # child
        (2, 2.0, 3.0, 1, 0),    # grandchild
        (1, 5.0, 6.0, 0, 0),    # second child
        (1, 9.5, 12.0, 0, 0),   # overruns its parent: only 0.5 s is covered
        (3, 11.0, 11.5, -1, 1),  # another task's root
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.0, 2.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 5.0, 0, 0), (1, 3.0, 7.0, 0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


@pytest.mark.parametrize("n, rank, percentile", [
    (11, 1, 100 / 11), (20, 10, 50.0), (100, 90, 90.0), (1000, 990, 99.0),
    (1010, 1000, 100_000 / 1010),
])
def test_tail_leaves_ten_samples_beyond(n, rank, percentile):
    samples = list(np.random.default_rng(n).permutation(np.arange(1, n + 1, dtype=float)))
    value, pct = run.tail(samples)
    assert value == rank
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert pct == pytest.approx(percentile)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_traced_run_restores_every_function_and_reports_absent_names():
    import ngcost.cli
    import ngcost.seesaw
    wraps = tracer.WRAPS + (("ngcost.seesaw", "no_such_function", "seesaw.folded_update"),
                            ("ngcost.no_such_module", "f", "gone.f"))
    originals = {(m, a): getattr(sys.modules.get(m), a, None) for m, a, _ in wraps}
    trace = tracer.Tracer(wraps)
    with pytest.raises(RuntimeError):
        with trace.installed():
            assert ngcost.seesaw.update_alice is not originals[("ngcost.seesaw", "update_alice")]
            assert _stdout(["seesaw", "--builtin", "chsh", "--restarts", "1"])
            raise RuntimeError("a failing task must still leave ngcost unpatched")
    assert trace.absent == ["gone.f", "seesaw.folded_update"]
    assert trace.leftovers() == []
    for (module, attr), original in originals.items():
        assert getattr(sys.modules.get(module), attr, None) is original, f"{module}.{attr}"
    metrics = tracer.layer_metrics(trace, tracer.layer_totals(trace), passes=1)
    assert metrics["cli.main.calls"] == (1.0, "count")
    assert metrics["seesaw.restarts"] == (1.0, "count")
    assert metrics["seesaw.update_alice.calls"][0] == metrics["seesaw.iterations"][0]
    assert "seesaw.folded_update.calls" not in metrics
    shares = tracer.layer_shares(trace, tracer.layer_totals(trace))
    assert sum(shares.values()) == pytest.approx(1.0)


def test_oracles_reproduce_known_values():
    chsh = np.array([[[[float((a ^ b) != s * t) for b in (0, 1)] for a in (0, 1)]
                      for t in (0, 1)] for s in (0, 1)])
    assert oracles.classical_table(oracles.UNIFORM_2X2, chsh).min() == 0.25
    assert oracles.ns_value(oracles.UNIFORM_2X2, chsh) == pytest.approx(0.0, abs=1e-12)
    state, povms = oracles.hardy_arrays(0.6662394332060085)  # the README's optimal angle
    p = oracles.born_behavior(state, povms, povms)
    assert p[0, 0, 0, 0] == pytest.approx(oracles.HARDY_P00, abs=1e-12)
    assert oracles.behavior_problems(p, oracles.hardy_cost(1.0), tol=1e-12) == []
