#!/usr/bin/env python3
"""Steadiness report: repeat one workload and compare spreads to bounds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload dse --runs 10 --seed 1

Runs ``perfbench/run.py`` once per seed (``--seed``, ``--seed + 1``,
...) with ``BENCHMARK.json``'s ``run_seconds``, one run at a time, then
prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile
range over median), the metric's bound and the spread of the same runs'
values before host-speed scaling.  A spread over the bound
marks the metric ``NOISY``; over a third of the bound, ``tight``.  The
raw results go to ``.perfbench/steadiness-<workload>.json``.  Exits 1
when any run failed or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    seconds = declared["run_seconds"]

    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        unscaled = [json.loads(line.split(": ", 1)[1]) for line in lines
                    if line.startswith("unscaled: ")]
        runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall,
                     "result": result,
                     "unscaled": unscaled[0] if unscaled else None})
        print(f"seed {seed}: exit {proc.returncode} in {wall:.1f}s",
              flush=True)

    state = os.path.join(ROOT, ".perfbench")
    os.makedirs(state, exist_ok=True)
    with open(os.path.join(state, f"steadiness-{args.workload}.json"),
              "w") as handle:
        json.dump(runs, handle, indent=1)

    ok = all(run["exit"] == 0 for run in runs)
    print(f"{'metric':<22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} {'unscaled':>8s}")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        values = [run["result"]["metrics"][name]["value"]
                  for run in runs if run["result"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        raw = [run["unscaled"][name] for run in runs if run["unscaled"]]
        raw_q1, raw_q2, raw_q3 = statistics.quantiles(raw, n=4)
        verdict = ""
        if spread > metric["bound"]:
            verdict = "NOISY"
            ok = False
        elif spread > metric["bound"] / 3:
            verdict = "tight"
        print(f"{name:<22s} {q2:12.4g} {q1:12.4g} {q3:12.4g} "
              f"{spread:7.3f} {metric['bound']:6.2f} "
              f"{(raw_q3 - raw_q1) / raw_q2:8.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
