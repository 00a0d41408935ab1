"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/spread.py [--workloads a,b] [--runs 10] [--first-seed 100]
                            [--trace] [--record FILE]

For every workload, runs ``run.py --trace 0`` once per seed for the
``run_seconds`` of BENCHMARK.json, and prints, per end-to-end metric, the
median, the quartiles (`statistics.quantiles`, n=4) and the interquartile
spread as a share of the median, next to the metric's bound.  A spread at
or above a third of its bound is marked.  ``--trace`` adds one traced run
per workload (first seed).  ``--record`` writes everything, with each
run's details, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import ROOT, WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]),
            "details": json.loads(lines[-2])["details"]}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"runs_per_workload": args.runs, "seconds": seconds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [bench(workload, s, seconds, 0) for s in seeds]
        stats = {name: summarize([r["result"]["metrics"][name]["value"]
                                  for r in runs]) for name in bounds}
        entry = {"seeds": list(seeds), "end_to_end": stats,
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "runs": runs}
        print(f"{workload}: {entry['attempted']} jobs, "
              f"{entry['failed']} failed")
        for name, st in stats.items():
            mark = "" if name == "setup_s" or st["spread"] < bounds[name] / 3 \
                else "  <-- spread >= bound/3"
            print(f"  {name:<12} median {st['median']:<12.6g} "
                  f"q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g} "
                  f"spread {st['spread']:.4f} (bound {bounds[name]}){mark}")
        if args.trace:
            entry["traced"] = bench(workload, args.first_seed, seconds, 1)
        record["workloads"][workload] = entry
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
