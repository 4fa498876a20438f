#!/usr/bin/env python3
"""Benchmark: batched model evaluation — vectorized vs scalar oracle.

Acceptance check for the batched (structure-of-arrays) model kernel on
a >= 10k-configuration design grid:

* ``AnalyticalModel.predict_batch`` must be at least **5x faster** than
  the scalar oracle -- a ``model.predict`` loop over the same configs
  (``tests/reference/model.py``) -- over the full grid (fresh model +
  ``ModelCache`` per run, best of three);
* the results must be **bitwise identical**: every CPI stack, window
  breakdown, activity vector, power stack and energy/EDP/ED2P scalar,
  plus the set of :class:`ModelCache` keys both leave behind, and the
  DesignPoint stream a :class:`SweepEngine` produces from each over a
  grid slice.

Results land in ``benchmarks/results/E34_model_batch.txt`` and the
machine-readable perf-trajectory record in ``BENCH_model_batch.json``
at the repository root (all ``bench_*`` scripts put their
``BENCH_*.json`` there).

Run:  PYTHONPATH=src python benchmarks/bench_model_batch.py
      PYTHONPATH=src python benchmarks/bench_model_batch.py --repeats 5
"""

import argparse
import gc
import itertools
import json
import os
import platform
import sys
import time

import numpy as np

from repro.core import AnalyticalModel, ModelCache, design_space
from repro.explore.engine import SweepEngine
from repro.profiler import SamplingConfig, profile_application
from repro.workloads import generate_trace, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from tests.reference.model import ScalarModel, predict_batch_scalar

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
WORKLOAD = "gcc"
INSTRUCTIONS = 20_000
MICRO_TRACE = 1_000
WINDOW = 4_000
REQUIRED_SPEEDUP = 5.0

#: How each timed side evaluates a batch.
EVALUATE = {"scalar": predict_batch_scalar,
            "batch": AnalyticalModel.predict_batch}

#: Benchmark grid (Table 6.3 axes widened with L2/MSHR and the DVFS
#: frequencies of Table 7.2): 3*5*3*4*7*3*3 = 11,340 configurations.
GRID_AXES = {
    "dispatch_width": (2, 4, 6),
    "rob_size": (32, 64, 128, 256, 512),
    "l1d_kb": (16, 32, 64),
    "llc_mb": (1, 2, 4, 8),
    "frequency_ghz": (1.2, 1.6, 2.0, 2.4, 2.66, 3.0, 3.4),
    "l2_kb": (128, 256, 512),
    "mshr_entries": (4, 8, 16),
}


def results_identical(a, b) -> bool:
    """Bitwise comparison of two ModelResult lists, key order included."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        pa, pb = ra.performance, rb.performance
        if pa != pb or list(pa.stack) != list(pb.stack):
            return False
        if ra.activity != rb.activity or ra.power != rb.power:
            return False
        if (list(ra.power.static) != list(rb.power.static)
                or list(ra.power.dynamic) != list(rb.power.dynamic)):
            return False
        if (ra.energy_joules, ra.edp, ra.ed2p) != (
                rb.energy_joules, rb.edp, rb.ed2p):
            return False
    return True


def points_identical(a, b) -> bool:
    """Bitwise comparison of two DesignPoint streams."""
    return (len(a) == len(b)
            and all(pa.workload == pb.workload
                    and pa.config.name == pb.config.name
                    and results_identical([pa.result], [pb.result])
                    for pa, pb in zip(a, b)))


def timed_run(profile, configs, side: str, repeats: int):
    """Best-of-N wall time for one side; returns (seconds, results).

    Each repeat evaluates on a *fresh* model + cache (cold memo, the
    sweep-engine situation) with a collected heap, and drops its
    results before the next so GC pressure from kept objects cannot
    pollute later repeats.
    """
    best = float("inf")
    kept = None
    for repeat in range(repeats):
        model = AnalyticalModel(cache=ModelCache())
        gc.collect()
        t0 = time.perf_counter()
        results = EVALUATE[side](model, profile, configs)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        if kept is None:
            kept = results
        else:
            del results
    return best, kept


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per side (best counts)")
    args = parser.parse_args()

    trace = generate_trace(make_workload(WORKLOAD),
                           max_instructions=INSTRUCTIONS)
    profile = profile_application(
        trace, SamplingConfig(MICRO_TRACE, WINDOW))
    configs = design_space(GRID_AXES)
    assert len(configs) >= 10_000, "grid too small for the gate"

    lines = [
        f"E34: batched vs scalar model, {WORKLOAD} x "
        f"{INSTRUCTIONS} instructions (micro-trace {MICRO_TRACE} / "
        f"window {WINDOW}), {len(configs)} configurations",
        f"{'side':>8s} {'seconds':>9s}  (best of {args.repeats})",
    ]

    t_scalar, scalar_results = timed_run(profile, configs, "scalar",
                                         args.repeats)
    t_batch, batch_results = timed_run(profile, configs, "batch",
                                       args.repeats)
    lines.append(f"{'scalar':>8s} {t_scalar:>9.3f}")
    lines.append(f"{'batch':>8s} {t_batch:>9.3f}")
    speedup = t_scalar / t_batch

    identical = results_identical(scalar_results, batch_results)
    del scalar_results, batch_results

    # Both sides must leave a ModelCache answering the same queries.
    scalar_model = AnalyticalModel(cache=ModelCache())
    batch_model = AnalyticalModel(cache=ModelCache())
    probe = configs[::97]
    predict_batch_scalar(scalar_model, profile, probe)
    batch_model.predict_batch(profile, probe)
    caches_equal = (set(scalar_model.cache._memo)
                    == set(batch_model.cache._memo))

    # And a SweepEngine must stream identical DesignPoints either way.
    slice_configs = configs[::23]
    scalar_points = SweepEngine(model=ScalarModel(), workers=1).sweep(
        [profile], slice_configs)[WORKLOAD]
    batch_points = SweepEngine(workers=1, batch_size=64).sweep(
        [profile], slice_configs)[WORKLOAD]
    sweep_equal = points_identical(scalar_points, batch_points)

    lines.append(
        f"speedup: {speedup:.2f}x (gate >= {REQUIRED_SPEEDUP:.0f}x)")
    lines.append(
        f"bitwise identical results: {'yes' if identical else 'NO'}")
    lines.append(
        f"identical ModelCache key sets ({len(probe)} probe configs): "
        f"{'yes' if caches_equal else 'NO'}")
    lines.append(
        f"identical SweepEngine DesignPoints ({len(slice_configs)} "
        f"configs, chunk 64): {'yes' if sweep_equal else 'NO'}")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(RESULTS_DIR, "E34_model_batch.txt"),
              "w") as f:
        f.write(text + "\n")

    record = {
        "experiment": "E34_model_batch",
        "workload": WORKLOAD,
        "instructions": INSTRUCTIONS,
        "sampling": {"micro_trace_length": MICRO_TRACE,
                     "window_length": WINDOW},
        "configurations": len(configs),
        "required_speedup": REQUIRED_SPEEDUP,
        "speedup": round(speedup, 3),
        "scalar_seconds": round(t_scalar, 6),
        "batch_seconds": round(t_batch, 6),
        "repeats": args.repeats,
        "bitwise_identical": identical,
        "cache_keys_identical": caches_equal,
        "sweep_points_identical": sweep_equal,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    with open(os.path.join(ROOT, "BENCH_model_batch.json"),
              "w") as f:
        json.dump(record, f, indent=2)

    if not (identical and caches_equal and sweep_equal):
        print("FAIL: kernel diverged from the oracle", file=sys.stderr)
        return 1
    if speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < "
              f"{REQUIRED_SPEEDUP:.0f}x", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
