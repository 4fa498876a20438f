#!/usr/bin/env python3
"""Benchmark: columnar profiler — vectorized vs scalar oracle.

Acceptance check for the columnar (structure-of-arrays) profiler on a
>= 200k-instruction trace:

* ``profile_application`` must be at least **5x faster** than the
  frozen scalar oracle (``tests/reference/profile.py``), aggregated over
  sample rates 1.0 and 0.1.  The generator hands the profiler its
  columns directly, and the oracle's ``Instruction`` object view is
  built before its timer starts, so the ratio is profiler against
  profiler with no view construction on either side;
* every statistic must be **bitwise identical** between the two at
  both sample rates: the global and instruction-stream
  ``ReuseProfile``s, the ``ColdMissProfile``, every micro-trace
  ``MicroTraceMemoryProfile``, and the full profile's content
  fingerprint (the ``ProfileStore`` cache key), so a columnar-profiled
  workload hits the same store entry as an oracle-profiled one.

Results land in ``benchmarks/results/E33_profiler.txt`` and the
machine-readable perf-trajectory record in ``BENCH_profiler.json`` at
the repository root (all ``bench_*`` scripts put their
``BENCH_*.json`` there).

Run:  PYTHONPATH=src python benchmarks/bench_profiler.py
      PYTHONPATH=src python benchmarks/bench_profiler.py --instructions 400000
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.profiler import SamplingConfig, profile_application
from repro.profiler.serialization import profile_fingerprint
from repro.workloads import generate_trace, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from tests.reference.profile import _profile_application_scalar

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
WORKLOAD = "gcc"
INSTRUCTIONS = 200_000
MICRO_TRACE = 1_000
WINDOW = 10_000
SAMPLE_RATES = (1.0, 0.1)
REQUIRED_SPEEDUP = 5.0


def fresh_trace(instructions: int):
    """A new trace object (nothing derived cached) of the workload."""
    return generate_trace(make_workload(WORKLOAD),
                          max_instructions=instructions)


def profiles_identical(scalar, columnar) -> bool:
    """Bitwise comparison of the per-component acceptance surface."""
    if scalar.reuse != columnar.reuse:
        return False
    if scalar.instruction_reuse != columnar.instruction_reuse:
        return False
    if scalar.cold != columnar.cold:
        return False
    if len(scalar.micro_traces) != len(columnar.micro_traces):
        return False
    for left, right in zip(scalar.micro_traces, columnar.micro_traces):
        if left.memory != right.memory:
            return False
        if (left.load_reuse, left.store_reuse, left.cold_loads,
                left.cold_stores, left.load_reuse_by_pc, left.cold_by_pc) != (
                right.load_reuse, right.store_reuse, right.cold_loads,
                right.cold_stores, right.load_reuse_by_pc,
                right.cold_by_pc):
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=INSTRUCTIONS,
                        help="trace length (>= 200000 for the gate)")
    args = parser.parse_args()
    assert args.instructions >= 200_000, "trace too short for the gate"

    lines = []
    runs = []
    scalar_total = 0.0
    columnar_total = 0.0
    identical = True

    scalar_trace = fresh_trace(args.instructions)
    scalar_trace.instructions  # the oracle's object view, untimed
    columnar_trace = fresh_trace(args.instructions)
    lines.append(
        f"E33: columnar vs scalar profiler, {WORKLOAD} x "
        f"{args.instructions} instructions "
        f"(micro-trace {MICRO_TRACE} / window {WINDOW})"
    )
    lines.append(
        f"{'rate':>6s} {'scalar_s':>10s} {'columnar_s':>11s} "
        f"{'speedup':>8s} {'bitwise':>8s}"
    )

    for rate in SAMPLE_RATES:
        sampling = SamplingConfig(MICRO_TRACE, WINDOW,
                                  reuse_sample_rate=rate, reuse_seed=0)
        t0 = time.perf_counter()
        scalar = _profile_application_scalar(scalar_trace, sampling)
        t_scalar = time.perf_counter() - t0
        t0 = time.perf_counter()
        columnar = profile_application(columnar_trace, sampling)
        t_columnar = time.perf_counter() - t0

        same = (profiles_identical(scalar, columnar)
                and profile_fingerprint(scalar)
                == profile_fingerprint(columnar))
        identical = identical and same
        scalar_total += t_scalar
        columnar_total += t_columnar
        runs.append({
            "sample_rate": rate,
            "scalar_seconds": round(t_scalar, 6),
            "columnar_seconds": round(t_columnar, 6),
            "speedup": round(t_scalar / t_columnar, 3),
            "bitwise_identical": same,
            "fingerprint": profile_fingerprint(columnar),
            "micro_traces": len(columnar.micro_traces),
        })
        lines.append(
            f"{rate:>6.2f} {t_scalar:>10.3f} {t_columnar:>11.3f} "
            f"{t_scalar / t_columnar:>7.2f}x "
            f"{'yes' if same else 'NO':>8s}"
        )

    speedup = scalar_total / columnar_total
    lines.append(
        f"aggregate: scalar {scalar_total:.3f} s, columnar "
        f"{columnar_total:.3f} s (object view prebuilt) -> "
        f"{speedup:.2f}x (gate >= {REQUIRED_SPEEDUP:.0f}x)"
    )
    lines.append(
        f"bitwise identical profiles + store keys: "
        f"{'yes' if identical else 'NO'}"
    )

    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(RESULTS_DIR, "E33_profiler.txt"), "w") as f:
        f.write(text + "\n")

    record = {
        "experiment": "E33_profiler",
        "workload": WORKLOAD,
        "instructions": args.instructions,
        "sampling": {"micro_trace_length": MICRO_TRACE,
                     "window_length": WINDOW},
        "required_speedup": REQUIRED_SPEEDUP,
        "aggregate_speedup": round(speedup, 3),
        "scalar_seconds": round(scalar_total, 6),
        "columnar_seconds": round(columnar_total, 6),
        "bitwise_identical": identical,
        "runs": runs,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    with open(os.path.join(ROOT, "BENCH_profiler.json"),
              "w") as f:
        json.dump(record, f, indent=2)

    if not identical:
        print("FAIL: profiler diverged from the oracle",
              file=sys.stderr)
        return 1
    if speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < "
              f"{REQUIRED_SPEEDUP:.0f}x", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
