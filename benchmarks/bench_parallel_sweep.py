#!/usr/bin/env python3
"""Benchmark: SweepEngine vs the pre-engine serial sweep loop.

Acceptance check for the sweep engine: on a >= (4 workloads x 32
configs) grid with a warm profile cache, the engine must be at least 2x
faster wall-clock than the historical serial ``evaluate_design_space``
loop while producing bitwise-identical design points.

The baseline below is a verbatim transcription of the pre-engine
implementation: a nested per-config loop with no caches, through the
scalar model oracle (``tests/reference/model.py``), since
``model.predict`` now runs the batched kernel the engine uses.  Both
paths start from freshly deserialized profiles so neither benefits from
in-memory state built by the other.

The machine-readable perf-trajectory record lands in
``BENCH_parallel_sweep.json`` at the repository root (all ``bench_*``
scripts put their ``BENCH_*.json`` there).

Run:  PYTHONPATH=src python benchmarks/bench_parallel_sweep.py
      PYTHONPATH=src python benchmarks/bench_parallel_sweep.py --workers 4
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time

from repro.core.model import AnalyticalModel
from repro.core.machine import design_space
from repro.explore.engine import SweepEngine
from repro.profiler import SamplingConfig, profile_application
from repro.profiler.serialization import ProfileStore
from repro.workloads import generate_trace, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from tests.reference.model import predict_scalar
WORKLOADS = ["gcc", "gamess", "mcf", "libquantum"]
INSTRUCTIONS = 20_000
SAMPLING = SamplingConfig(1000, 5000)


def legacy_serial_sweep(profiles, configs):
    """The pre-engine evaluate_design_space, reproduced verbatim."""
    model = AnalyticalModel()
    results = {}
    for profile in profiles:
        points = []
        for config in configs:
            points.append(predict_scalar(model, profile, config))
        results[profile.name] = points
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=None,
                        help="engine workers (default: cpu count)")
    parser.add_argument("--configs", type=int, default=32,
                        help="number of configurations (>= 32)")
    args = parser.parse_args()

    configs = design_space({
        "dispatch_width": (2, 4),
        "rob_size": (64, 128),
        "llc_mb": (2, 4, 8),
        "l1d_kb": (16, 32, 64),
    })[:args.configs]
    print(f"grid: {len(WORKLOADS)} workloads x {len(configs)} configs")

    with tempfile.TemporaryDirectory() as cache_dir:
        store = ProfileStore(cache_dir)

        # One-time profiling cost (the paper's point: paid once, amortized
        # over every sweep) -- not part of either timed region.
        keys = []
        for name in WORKLOADS:
            trace = generate_trace(make_workload(name),
                                   max_instructions=INSTRUCTIONS)
            profile = profile_application(trace, SAMPLING)
            keys.append(store.warm(profile))  # warms the on-disk cache

        # Baseline: fresh profiles, historical serial loop, no caches.
        baseline_profiles = [store.get(key) for key in keys]
        t0 = time.perf_counter()
        baseline = legacy_serial_sweep(baseline_profiles, configs)
        t_baseline = time.perf_counter() - t0

        # Engine: fresh profiles, warm on-disk profile cache, model cache,
        # worker pool.
        engine_profiles = [store.get(key) for key in keys]
        engine = SweepEngine(workers=args.workers, store=store)
        t0 = time.perf_counter()
        results = engine.sweep(engine_profiles, configs)
        t_engine = time.perf_counter() - t0

    mismatches = 0
    for name in baseline:
        for reference, point in zip(baseline[name], results[name]):
            if (reference.cpi != point.cpi
                    or reference.power_watts != point.power_watts
                    or reference.performance.stack
                    != point.result.performance.stack):
                mismatches += 1
    speedup = t_baseline / t_engine if t_engine > 0 else float("inf")

    workers = engine.effective_workers()
    print(f"legacy serial loop : {t_baseline * 1e3:8.1f} ms")
    print(f"sweep engine       : {t_engine * 1e3:8.1f} ms  "
          f"(workers={workers}, warm profile cache)")
    print(f"speedup            : {speedup:8.2f}x")
    print(f"bitwise identical  : {'yes' if mismatches == 0 else 'NO'}")

    record = {
        "experiment": "parallel_sweep",
        "workloads": WORKLOADS,
        "instructions": INSTRUCTIONS,
        "n_configs": len(configs),
        "workers": workers,
        "required_speedup": 2.0,
        "baseline_seconds": round(t_baseline, 6),
        "engine_seconds": round(t_engine, 6),
        "speedup": round(speedup, 3),
        "bitwise_identical": mismatches == 0,
        "host": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    with open(os.path.join(ROOT, "BENCH_parallel_sweep.json"),
              "w") as f:
        json.dump(record, f, indent=2)

    if mismatches:
        print("FAIL: engine results diverge from the serial baseline")
        return 1
    if speedup < 2.0:
        print("FAIL: speedup below the 2x acceptance threshold")
        return 1
    print("PASS: >= 2x speedup with bitwise-identical results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
