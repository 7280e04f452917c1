"""ngcost benchmark: one workload through `ngcost.cli.main(argv)`, in-process.

    python3 benchmarks/run.py --workload family-sweep --seed 1 --seconds 25 --trace 0

Load is a closed loop: one process, one caller thread, each task starting
after the previous one returns.  The task list of a workload is one pass;
passes repeat until --seconds have elapsed.  Every output is checked
against independent oracles after the timed passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced for half
the time and traced for the other half and prints per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 if any check failed and 2 if ngcost's source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10
MIN_PASSES = 2


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile): the (n - TAIL_BEYOND)-th smallest sample,
    which is the 100 * (n - TAIL_BEYOND) / n percentile.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n


def machine() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Runs tasks through cli.main, timing each and keeping its first output."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.reference: dict[int, tuple] = {}
        self.runs = [0] * len(workload.tasks)
        self.mismatches: list[str] = []
        self.trace = None
        self.task_id = 0

    def run(self, index: int) -> float:
        out, err = io.StringIO(), io.StringIO()
        if self.trace is not None:
            self.trace.task = self.task_id
        self.task_id += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(self.workload.tasks[index].argv))
            except Exception:  # a crash is a failed task, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        result = (code, out.getvalue(), err.getvalue())
        self.runs[index] += 1
        first = self.reference.setdefault(index, result)
        if result != first:
            self.mismatches.append(f"task {index}: output differs from its first run")
        return elapsed

    def passes(self, seconds: float, min_passes: int) -> list[list[float]]:
        """Task times of whole passes over the task list, until `seconds` have gone by."""
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append([self.run(i) for i in range(len(self.workload.tasks))])
        return passes

    def warm_up(self):
        """One task of each kind, so lazy imports and first-call costs are paid."""
        seen = set()
        for i, task in enumerate(self.workload.tasks):
            if task.kind not in seen:
                seen.add(task.kind)
                self.run(i)

    def check(self) -> tuple[int, list[str]]:
        """Failed task runs and their reasons; every run of a bad output fails."""
        failed = len(self.mismatches)
        problems = list(self.mismatches)
        for index in range(len(self.workload.tasks)):
            code, stdout, stderr = self.reference[index]
            if code != 0:
                found = [f"exit code {code}: {stderr.strip()[-500:]}"]
            else:
                try:
                    found = self.workload.check(index, stdout)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    found = [f"unreadable output ({exc!r})"]
            if found:
                failed += self.runs[index]
                problems += [f"task {index} {self.workload.tasks[index].argv}: {p}" for p in found]
        return failed, problems


def throughput(passes: list[list[float]]) -> float:
    """Median over passes of tasks completed per second of task time."""
    return statistics.median(len(p) / sum(p) for p in passes)


def traced_passes(runner: Runner, seconds: float):
    """Passes with every layer wrapped; also checks that repeats made the same calls."""
    trace = tracer.Tracer()
    runner.trace = trace
    first, n_tasks = runner.task_id, len(runner.workload.tasks)
    try:
        with trace.installed():
            passes = runner.passes(seconds, 1)
    finally:
        runner.trace = None
    problems = []
    per_task = tracer.calls_by_task(trace)
    for task_id, counts in per_task.items():
        if counts != per_task[first + (task_id - first) % n_tasks]:
            problems.append(f"traced task {task_id} made other calls than in the first pass")
    if trace.leftovers():
        problems.append(f"wrappers left installed: {trace.leftovers()}")
    return trace, passes, problems


def measure_setup(workload: str, seed: int) -> float:
    """Median time, over fresh processes, to import ngcost and build the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = WORK / f"setup-{workload}-{i}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-child", str(workdir)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_child(workload: str, seed: int, workdir: Path) -> None:
    start = time.perf_counter()
    import ngcost  # noqa: F401  (importing is part of what set-up costs)
    import workloads
    workdir.mkdir(parents=True)
    workloads.WORKLOADS[workload](seed, workdir)
    print(time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["family-sweep", "wide-games", "hardy-strategies"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ngcost" / "__init__.py").is_file():
        print(f"error: ngcost source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child is not None:
        setup_child(args.workload, args.seed, args.setup_child)
        return 0

    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    import ngcost.cli as cli
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(cli, workload)
    runner.warm_up()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tasks_per_pass": len(workload.tasks)}

    if args.trace == 0:
        passes = runner.passes(args.seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = runner.check()
        times = [t for p in passes for t in p]
        tail_s, tail_pct = tail(times)
        bounds = list(workload.seesaw_bounds.values())
        metrics = {
            "setup_s": (setup_s, "s"),
            "tasks_per_s": (throughput(passes), "1/s"),
            "task_p50_ms": (1000.0 * statistics.median(times), "ms"),
            "task_tail_ms": (1000.0 * tail_s, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        printed = dict(metrics, failed_ratio=(failed / sum(runner.runs), "ratio"))
        if bounds:
            printed["seesaw_bound_mean"] = (statistics.fmean(bounds), "cost")
        notes = [f"task_tail_ms is p{tail_pct:.4g} of {len(times)} timed tasks"]
        report.update(passes=len(passes), task_tail_percentile=tail_pct,
                      task_tail_samples=len(times))
    else:
        passes = runner.passes(args.seconds / 2, 1)
        trace, traced, problems = traced_passes(runner, args.seconds / 2)
        failed, check_problems = runner.check()
        failed += len(problems)
        problems += check_problems
        totals = tracer.layer_totals(trace)
        metrics = tracer.layer_metrics(trace, totals, len(traced))
        metrics["trace.overhead_ratio"] = (throughput(passes) / throughput(traced), "ratio")
        printed = metrics
        shares = tracer.layer_shares(trace, totals)
        notes = [f"traced passes: {len(traced)}; absent layers: {trace.absent or 'none'}",
                 "self-time share of task time: "
                 + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())]
        spans_path = OUT / f"{args.workload}-spans.json"
        spans_path.write_text(json.dumps({
            "names": trace.names,
            "columns": ["name", "start", "end", "parent", "task"],
            "spans": trace.spans,
        }))
        report.update(passes=len(passes), traced_passes=len(traced), absent_layers=trace.absent,
                      layer_shares=shares, spans_file=str(spans_path.relative_to(ROOT)))
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(runner.runs)
    report.update(
        attempted=attempted, failed=failed, machine=machine(), problems=problems[:50],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in printed.items()})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2))

    print(f"machine: {json.dumps(report['machine'])}")
    print(f"workload {args.workload} seed {args.seed}: {report['passes']} passes of "
          f"{len(workload.tasks)} tasks, {attempted} tasks run, {failed} failed")
    for line in [f"check failed: {p}" for p in problems[:20]] + notes:
        print(f"  {line}")
    for name, (value, unit) in printed.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
