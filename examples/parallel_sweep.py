#!/usr/bin/env python3
"""Parallel design-space sweeps with the SweepEngine.

Demonstrates the evaluation layer added on top of the paper's model:

1. profile several workloads once (the only expensive step);
2. warm an on-disk, content-addressed profile store so repeated sweeps
   skip the StatStack stack-distance conversion;
3. sweep the (profiles x configs) grid on a worker pool -- results
   are bitwise identical to the in-process run;
4. consume the sweep as a STREAM, folding Pareto frontiers while later
   design points are still being evaluated.

Run:  PYTHONPATH=src python examples/parallel_sweep.py
"""

import tempfile
import time

from repro import SamplingConfig, generate_trace, make_workload, \
    profile_application
from repro.core.machine import design_space
from repro.explore import StreamingParetoFront, SweepEngine
from repro.profiler.serialization import ProfileStore

WORKLOADS = ["gcc", "gamess", "mcf", "libquantum"]


def main() -> None:
    # 1. One-time profiling.
    profiles = []
    for name in WORKLOADS:
        trace = generate_trace(make_workload(name),
                               max_instructions=30_000)
        profiles.append(
            profile_application(trace, SamplingConfig(1000, 5000))
        )

    configs = design_space()  # the 243-core space of Table 6.3
    grid = len(profiles) * len(configs)

    with tempfile.TemporaryDirectory() as cache_dir:
        store = ProfileStore(cache_dir)

        # 2. First sweep: cold store (tables are computed and persisted).
        engine = SweepEngine(workers=1, store=store)
        started = time.time()
        engine.sweep(profiles, configs)
        cold = time.time() - started

        # 3. Second sweep: warm store + parallel workers.  Bitwise
        #    identical to the first; just faster.
        engine = SweepEngine(workers=4, store=store)

        # 4. Stream: frontiers update point by point, so the interesting
        #    designs are known long before the sweep finishes.
        frontiers = {name: StreamingParetoFront() for name in WORKLOADS}
        started = time.time()
        for point in engine.iter_sweep(profiles, configs):
            frontiers[point.workload].add_point(point)
        warm = time.time() - started

    print(f"grid: {len(WORKLOADS)} workloads x {len(configs)} configs "
          f"= {grid} evaluations")
    print(f"cold sweep (serial):          {cold:6.2f} s "
          f"({grid / cold:7.0f} evals/s)")
    print(f"warm sweep (4 workers):       {warm:6.2f} s "
          f"({grid / warm:7.0f} evals/s)\n")

    for name in WORKLOADS:
        frontier = frontiers[name].frontier()
        print(f"=== {name}: {len(frontier)} Pareto-optimal designs ===")
        for seconds, watts, point in frontier[:5]:
            print(f"  {point.config.name:<30s} {seconds * 1e6:8.1f} us  "
                  f"{watts:6.2f} W  CPI {point.cpi:5.2f}")
        if len(frontier) > 5:
            print(f"  ... and {len(frontier) - 5} more")
        print()


if __name__ == "__main__":
    main()
