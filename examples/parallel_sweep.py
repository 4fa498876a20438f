#!/usr/bin/env python3
"""Parallel design-space sweeps with the SweepEngine.

Demonstrates the evaluation layer added on top of the paper's model:

1. profile several workloads once (the only expensive step);
2. sweep the (profiles x configs) grid in-process, then again on a
   pool of 4 workers -- the results are bitwise identical;
3. consume the parallel sweep as a STREAM, folding Pareto frontiers
   while later design points are still being evaluated.

Run:  PYTHONPATH=src python examples/parallel_sweep.py
"""

import time

from repro import SamplingConfig, generate_trace, make_workload, \
    profile_application
from repro.core.machine import design_space
from repro.explore import StreamingParetoFront, SweepEngine

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

    # 2. Serial sweep, in-process.
    started = time.perf_counter()
    serial = SweepEngine(workers=1).sweep(profiles, configs)
    serial_seconds = time.perf_counter() - started

    # 3. The same grid on 4 workers, streamed: frontiers update point by
    #    point, so the interesting designs are known long before the
    #    sweep finishes.
    frontiers = {name: StreamingParetoFront() for name in WORKLOADS}
    parallel = {name: [] for name in WORKLOADS}
    started = time.perf_counter()
    for point in SweepEngine(workers=4).iter_sweep(profiles, configs):
        frontiers[point.workload].add_point(point)
        parallel[point.workload].append(point)
    parallel_seconds = time.perf_counter() - started

    identical = all(
        (a.cpi, a.power_watts) == (b.cpi, b.power_watts)
        for name in WORKLOADS
        for a, b in zip(serial[name], parallel[name])
    )
    print(f"grid: {len(WORKLOADS)} workloads x {len(configs)} configs "
          f"= {grid} evaluations")
    print(f"serial sweep (1 worker):      {serial_seconds:6.2f} s "
          f"({grid / serial_seconds:7.0f} evals/s)")
    print(f"parallel sweep (4 workers):   {parallel_seconds:6.2f} s "
          f"({grid / parallel_seconds:7.0f} evals/s)")
    print(f"bitwise identical:            {'yes' if identical else 'NO'}"
          "\n")

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
