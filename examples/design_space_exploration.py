#!/usr/bin/env python3
"""Design-space exploration: Pareto frontiers from one profile per app.

Reproduces the paper's headline use case (thesis Chapter 7): sweep a
design space with the analytical model -- hundreds of configurations in
seconds because the profile was collected once -- and extract the
performance/power Pareto frontier to shortlist interesting cores.

The sweep runs in-process on the SweepEngine, which memoizes
per-profile intermediates across configurations; see
examples/parallel_sweep.py for its worker-pool and streaming modes.

Run:  python examples/design_space_exploration.py
"""

import time

from repro import (
    AnalyticalModel,
    SamplingConfig,
    SweepEngine,
    generate_trace,
    make_workload,
    profile_application,
)
from repro.core.machine import design_space
from repro.explore.pareto import pareto_front

WORKLOADS = ["bzip2", "calculix"]  # the thesis' Fig 7.4 pair


def main() -> None:
    # One-time profiling (the only workload-dependent cost).
    profiles = []
    for name in WORKLOADS:
        trace = generate_trace(make_workload(name),
                               max_instructions=30_000)
        profiles.append(
            profile_application(trace, SamplingConfig(1000, 5000))
        )

    # The full 243-core space of thesis Table 6.3.
    configs = design_space()
    print(f"evaluating {len(configs)} configurations x "
          f"{len(WORKLOADS)} workloads ...")
    started = time.time()
    engine = SweepEngine(model=AnalyticalModel())
    results = engine.sweep(profiles, configs)
    elapsed = time.time() - started
    total = len(configs) * len(WORKLOADS)
    print(f"done: {total} model evaluations in {elapsed:.1f} s "
          f"({total / elapsed:.0f} evaluations/s)\n")

    for name, points in results.items():
        coordinates = [(p.seconds, p.power_watts) for p in points]
        frontier = pareto_front(coordinates)
        print(f"=== {name}: {len(frontier)} Pareto-optimal of "
              f"{len(points)} designs ===")
        frontier.sort(key=lambda i: coordinates[i][0])
        for index in frontier[:10]:
            point = points[index]
            print(f"  {point.config.name:<30s} "
                  f"{point.seconds * 1e6:8.1f} us  "
                  f"{point.power_watts:6.2f} W  "
                  f"CPI {point.cpi:5.2f}")
        if len(frontier) > 10:
            print(f"  ... and {len(frontier) - 10} more")
        print()


if __name__ == "__main__":
    main()
