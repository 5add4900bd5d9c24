"""Steadiness report: run workloads K times and show each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 [--workload hot_hits ...] [--first-seed 1]

Each run is one ``perfbench/run.py --trace 0`` invocation with its own
seed and ``BENCHMARK.json``'s ``run_seconds``.  For every end-to-end
metric the report prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the interquartile and max−min
spreads as shares of the median, the bound from ``BENCHMARK.json``,
whether the quartile spread stays under a third of that bound, and the
values of every run in seed order.  The bounds were set from this
report.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def report(workload: str, results: list[dict], bounds: dict) -> list[str]:
    lines = [
        f"## {workload}: {len(results)} runs, "
        f"{sum(r['attempted'] for r in results)} operations, "
        f"{sum(r['failed'] for r in results)} failed",
        "",
        "| metric | unit | median | q1 | q3 | iqr/median | (max-min)/median "
        "| bound | iqr < bound/3 | values |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / median if median else 0.0
        full = (max(values) - min(values)) / median if median else 0.0
        bound = bounds[name]
        lines.append(
            f"| {name} | {unit} | {median:.4g} | {q1:.4g} | {q3:.4g} | {iqr:.3f} "
            f"| {full:.3f} | {bound} | {'yes' if iqr < bound / 3 else 'NO'} "
            f"| {' '.join(f'{v:.4g}' for v in values)} |"
        )
    return lines


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        results = []
        for offset in range(args.runs):
            results.append(
                run_once(workload, args.first_seed + offset, benchmark["run_seconds"])
            )
            print(f"# {workload} seed {args.first_seed + offset} done", file=sys.stderr)
        print("\n".join(report(workload, results, bounds)) + "\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
