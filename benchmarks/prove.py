"""Repeat the benchmark over seeds and report each metric's spread.

    python3 benchmarks/prove.py --seeds 1-10 [--workloads family-sweep] [--out FILE]
    python3 benchmarks/prove.py --determinism 7

The first form runs `run.py --trace 0` once per seed and workload and
prints, per end-to-end metric, the median and the interquartile range as
a share of the median (quartiles from statistics.quantiles(n=4)) next to
the metric's bound in BENCHMARK.json.  --out writes the same figures as
JSON, which is how benchmarks/baseline.json was made.

The second form runs every workload twice with --trace 1 on one seed and
checks that exact counts (calls, see-saw iterations, strategy pairs, LP
shape) repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_SUFFIXES = (".calls", "seesaw.iterations", "seesaw.restarts", "classical.pairs_scanned",
                  "nsbound.lp_rows", "nsbound.lp_cols")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the machine record of one run.py invocation."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line.split(": ", 1)[1]) for line in lines
                   if line.startswith("machine: "))
    return json.loads(lines[-1]), machine


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spreads(config: dict, workloads: list[str], seeds: list[int]) -> tuple[dict, dict]:
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result, machine = run(workload, seed, config["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name} {values[name][-1]:.5g}" for name in bounds), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:17s} {name:13s} median {median:11.5g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}  {flag}", flush=True)
    return summary, machine


def determinism(seed: int, workloads: list[str]) -> bool:
    ok = True
    for workload in workloads:
        first, second = (run(workload, seed, 4, 1)[0]["metrics"] for _ in range(2))
        exact = [k for k in first if k.endswith(EXACT_SUFFIXES)]
        differ = [k for k in exact if first[k]["value"] != second.get(k, {}).get("value")]
        print(f"{workload}: {len(exact)} exact counts, {len(differ)} differ {differ}")
        ok &= not differ
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", type=Path, help="write medians and spreads as JSON here")
    parser.add_argument("--determinism", type=int, metavar="SEED",
                        help="check that exact counts repeat on this seed instead")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in config["workloads"]]
    if args.determinism is not None:
        return 0 if determinism(args.determinism, workloads) else 1
    summary, machine = spreads(config, workloads, args.seeds)
    if args.out:
        args.out.write_text(json.dumps({
            "machine": machine, "run_seconds": config["run_seconds"], "seeds": args.seeds,
            "workloads": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
