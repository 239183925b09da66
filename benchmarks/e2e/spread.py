"""Measure the run-to-run spread of every end-to-end metric.

From the repository root::

    python benchmarks/e2e/spread.py                         # 5 runs at seed 1
    python benchmarks/e2e/spread.py --runs 10 --vary-seed   # seeds 1..10

Runs each workload ``--runs`` times, each in a fresh process, then
prints per metric and workload the median, the quartiles, the spread
(distance between the quartiles as a share of the median) and the
largest deviation from the median as a share of it, next to the bound
``BENCHMARK.json`` fixes for the metric.  ``ok`` marks a spread below a
third of the bound, ``near`` one below the bound and ``OVER`` one past
it.  The bounds in ``BENCHMARK.json`` are chosen from
this output.  Each run's metrics also go to standard error as one JSON
line.

Two sets at seed 1 show whether the same commit reproduces its own
medians within the bounds; ``--vary-seed`` shows how far the metrics
move with the inputs drawn from the seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    if child.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    print(json.dumps({"workload": workload, "seed": seed, **values}),
          file=sys.stderr, flush=True)
    return values


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) or 1.0
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / scale,
        "max_dev": max(abs(v - median) for v in values) / scale,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed 1 + i instead of seed 1")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':16s} {'metric':12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'maxdev':>7s} {'bound':>6s}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, 1 + (i if args.vary_seed else 0))
                for i in range(args.runs)]
        for metric, bound in bounds.items():
            stats = summarize([run[metric] for run in runs])
            verdict = ("ok" if stats["spread"] < bound / 3
                       else "near" if stats["spread"] <= bound else "OVER")
            print(f"{workload:16s} {metric:12s} {stats['median']:12.6g} "
                  f"{stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:7.2%} {stats['max_dev']:7.2%} "
                  f"{bound:6.2%} {verdict}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
