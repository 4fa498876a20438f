#!/usr/bin/env python3
"""Benchmark: telemetry overhead -- disabled must be (nearly) free.

Acceptance check for the observability layer (``repro.obs``) on the
sweep hot path:

* with telemetry **disabled** (the default), a full
  :class:`~repro.explore.engine.SweepEngine` sweep must cost at most
  **2% more** than the pre-instrumentation baseline -- the direct
  ``predict_batch`` chunk loop the engine ran before spans/counters
  existed (best of N for both sides);
* the instrumented engine's DesignPoint stream must be **bitwise
  identical** to the baseline loop's;
* the fully **enabled** mode (tracer + metrics active) is measured and
  reported, but not gated -- enabling observation is allowed to cost.

Results land in ``benchmarks/results/E35_obs.txt`` and the
machine-readable perf-trajectory record in ``BENCH_obs.json`` at the
repository root (all ``bench_*`` scripts put their ``BENCH_*.json``
there).

Run:  PYTHONPATH=src python benchmarks/bench_obs.py
      PYTHONPATH=src python benchmarks/bench_obs.py --repeats 7
"""

import argparse
import gc
import json
import os
import platform
import sys
import time

from repro import obs
from repro.core import AnalyticalModel, ModelCache, design_space
from repro.explore.dse import DesignPoint
from repro.explore.engine import SweepEngine
from repro.profiler import SamplingConfig, profile_application
from repro.workloads import generate_trace, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
WORKLOAD = "gcc"
INSTRUCTIONS = 20_000
MICRO_TRACE = 1_000
WINDOW = 4_000
BATCH_SIZE = 64
MAX_DISABLED_OVERHEAD = 0.02

#: Sweep grid: 2*4*3*3*4 = 288 configurations -- large enough that the
#: per-batch span/counter call sites are exercised realistically.
GRID_AXES = {
    "dispatch_width": (2, 4),
    "rob_size": (32, 64, 128, 256),
    "l1d_kb": (16, 32, 64),
    "llc_mb": (1, 2, 4),
    "frequency_ghz": (1.6, 2.0, 2.66, 3.4),
}


def baseline_sweep(model, profile, configs):
    """The pre-instrumentation serial loop: chunked ``predict_batch``.

    Mirrors the engine's in-process batch loop exactly -- same chunking, same
    DesignPoint construction, same per-run ModelCache -- minus every
    telemetry call site.  This is the floor the instrumented engine is
    gated against.
    """
    chunk = BATCH_SIZE
    points = []
    for start in range(0, len(configs), chunk):
        stop = min(start + chunk, len(configs))
        results = model.predict_batch(profile, configs[start:stop])
        for offset, result in enumerate(results):
            points.append(DesignPoint(
                workload=profile.name,
                config=configs[start + offset],
                result=result,
            ))
    return points


def engine_sweep(profile, configs):
    """One full engine sweep with a fresh per-run model + cache."""
    engine = SweepEngine(model=AnalyticalModel(), workers=1,
                        batch_size=BATCH_SIZE)
    return list(engine.iter_sweep([profile], configs))


def points_identical(a, b) -> bool:
    """Bitwise comparison of two DesignPoint streams."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if pa.workload != pb.workload or pa.config != pb.config:
            return False
        if (pa.result.performance != pb.result.performance
                or list(pa.result.performance.stack)
                != list(pb.result.performance.stack)):
            return False
        if (pa.result.power != pb.result.power
                or (pa.result.energy_joules, pa.result.edp,
                    pa.result.ed2p)
                != (pb.result.energy_joules, pb.result.edp,
                    pb.result.ed2p)):
            return False
    return True


def best_of_interleaved(repeats, funcs):
    """Best (minimum) wall time per function over interleaved rounds.

    Each round runs every function once, in order, so cache/allocator
    warm-up and machine noise spread evenly across the contestants
    instead of favouring whichever mode happens to run last.  Returns
    ``(best_times, last_values)``.  One untimed warm-up round runs
    first.
    """
    for func in funcs:
        func()
    best = [float("inf")] * len(funcs)
    values = [None] * len(funcs)
    for _ in range(repeats):
        for index, func in enumerate(funcs):
            gc.collect()
            t0 = time.perf_counter()
            values[index] = func()
            best[index] = min(best[index],
                              time.perf_counter() - t0)
    return best, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per mode (best-of)")
    parser.add_argument("--instructions", type=int,
                        default=INSTRUCTIONS)
    args = parser.parse_args()

    trace = generate_trace(make_workload(WORKLOAD),
                           max_instructions=args.instructions)
    profile = profile_application(
        trace, SamplingConfig(MICRO_TRACE, WINDOW)
    )
    # Warm the StatStack models once: profile preparation is identical
    # work on both sides and not what this benchmark measures.
    profile.statstack()
    profile.instruction_statstack()
    configs = design_space(GRID_AXES)
    n_batches = -(-len(configs) // BATCH_SIZE)

    def run_baseline():
        model = AnalyticalModel()
        model.cache = ModelCache()
        return baseline_sweep(model, profile, configs)

    def run_disabled():
        return engine_sweep(profile, configs)

    def run_enabled():
        telemetry = obs.Telemetry(trace=True, metrics=True)
        with obs.activate(telemetry):
            points = engine_sweep(profile, configs)
        return points

    times, values = best_of_interleaved(
        args.repeats, [run_baseline, run_disabled, run_enabled]
    )
    t_baseline, t_disabled, t_enabled = times
    baseline_points, disabled_points, enabled_points = values

    identical = (points_identical(baseline_points, disabled_points)
                 and points_identical(baseline_points, enabled_points))
    overhead_disabled = t_disabled / t_baseline - 1.0
    overhead_enabled = t_enabled / t_baseline - 1.0

    lines = [
        "E35: telemetry overhead on the sweep hot path",
        f"grid: 1 workload x {len(configs)} configs "
        f"({n_batches} batches of {BATCH_SIZE}), "
        f"best of {args.repeats}",
        f"baseline loop (no obs)   : {t_baseline * 1e3:8.1f} ms",
        f"engine, telemetry off    : {t_disabled * 1e3:8.1f} ms  "
        f"({overhead_disabled * 100:+.2f}%)",
        f"engine, telemetry on     : {t_enabled * 1e3:8.1f} ms  "
        f"({overhead_enabled * 100:+.2f}%, informational)",
        f"disabled-overhead gate   : "
        f"{MAX_DISABLED_OVERHEAD * 100:.0f}%",
        f"bitwise identical points : {'yes' if identical else 'NO'}",
    ]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(RESULTS_DIR, "E35_obs.txt"), "w") as f:
        f.write(text + "\n")

    record = {
        "experiment": "E35_obs",
        "workload": WORKLOAD,
        "instructions": args.instructions,
        "n_configs": len(configs),
        "batch_size": BATCH_SIZE,
        "repeats": args.repeats,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "baseline_seconds": round(t_baseline, 6),
        "disabled_seconds": round(t_disabled, 6),
        "enabled_seconds": round(t_enabled, 6),
        "disabled_overhead": round(overhead_disabled, 6),
        "enabled_overhead": round(overhead_enabled, 6),
        "bitwise_identical": identical,
        "host": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    with open(os.path.join(ROOT, "BENCH_obs.json"), "w") as f:
        json.dump(record, f, indent=2)

    if not identical:
        print("FAIL: instrumented engine diverged from the baseline",
              file=sys.stderr)
        return 1
    if overhead_disabled > MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled-mode overhead "
              f"{overhead_disabled * 100:.2f}% > "
              f"{MAX_DISABLED_OVERHEAD * 100:.0f}%", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
