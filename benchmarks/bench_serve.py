#!/usr/bin/env python3
"""Benchmark: the experiment service must make N clients cheaper than N runs.

Acceptance checks for the ``repro serve`` layer (:mod:`repro.serve`):

* **dedup** -- 16 concurrent identical sweep requests against a cold
  server must execute **exactly one** engine computation (the rest
  coalesce in flight or hit the store the one computation warmed);
* **warm latency** -- once the store is warm, the median round-trip for
  a non-streaming request must stay under **50 ms** (the store
  pre-check answers before any computation is queued);
* **store lookups** -- direct :class:`~repro.api.runstore.RunStore`
  lookups must stay flat as the store grows 10x (300 -> 3000 entries):
  the mean per-lookup time may grow by at most **2.5x** (flat-directory
  scans would blow past that).

Results land in ``benchmarks/results/E37_serve.txt`` and the
machine-readable perf-trajectory record in ``BENCH_serve.json`` at the
repository root (all ``bench_*`` scripts put their ``BENCH_*.json``
there).

Run:  PYTHONPATH=src python benchmarks/bench_serve.py
      PYTHONPATH=src python benchmarks/bench_serve.py --warm-requests 100
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time

from repro.api import ExperimentSpec, RunStore, Session
from repro.api.results import RunResult
from repro.serve import ServerThread, get_json, request_run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HOST = "127.0.0.1"
N_CLIENTS = 16
MAX_WARM_MEDIAN_MS = 50.0
SMALL_STORE = 300
LARGE_STORE = 3000
LOOKUPS = 200
MAX_LOOKUP_GROWTH = 2.5

SWEEP = {"kind": "sweep",
         "params": {"workloads": ["gcc"], "limit": 16,
                    "instructions": 10_000}}


def concurrent_identical_sweeps(port):
    """Fire N_CLIENTS identical sweeps at once; return the replies."""
    replies = [None] * N_CLIENTS
    barrier = threading.Barrier(N_CLIENTS)

    def fire(index):
        barrier.wait()
        replies[index] = request_run(HOST, port, SWEEP, timeout=300)

    threads = [threading.Thread(target=fire, args=(i,))
               for i in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


def warm_latencies(port, requests):
    """Round-trip milliseconds for sequential warm requests."""
    samples = []
    for _ in range(requests):
        t0 = time.perf_counter()
        reply = request_run(HOST, port, SWEEP, timeout=60)
        samples.append((time.perf_counter() - t0) * 1e3)
        assert reply["cached"], "warm request missed the store"
    return samples


def synthetic_result(index):
    """A distinct, tiny storable result."""
    spec = ExperimentSpec("predict", workload="gcc",
                          instructions=5000 + index)
    return RunResult(spec=spec, data={"index": index})


def mean_lookup_ms(root, n_entries, start=0):
    """Grow the store to ``n_entries`` and time LOOKUPS mean gets.

    Lookup keys are spread deterministically across the whole store;
    a fresh store instance does the reads so the timed path includes
    the recency-seed scan amortized over the lookups, exactly like a
    restarted server.
    """
    writer = RunStore(root)
    specs = []
    for index in range(start, n_entries):
        result = synthetic_result(index)
        writer.put(result)
    reader = RunStore(root)
    stride = max(1, n_entries // LOOKUPS)
    specs = [synthetic_result(i).spec
             for i in range(0, n_entries, stride)][:LOOKUPS]
    t0 = time.perf_counter()
    for spec in specs:
        if reader.get(spec) is None:
            raise AssertionError("benchmark lookup missed")
    elapsed = time.perf_counter() - t0
    return elapsed * 1e3 / len(specs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--warm-requests", type=int, default=50,
                        help="sequential warm requests to sample")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="bench_serve_")
    try:
        store = RunStore(os.path.join(workdir, "runs"))
        session = Session(workers=1, run_store=store)
        with ServerThread(session, port=0) as thread:
            t0 = time.perf_counter()
            replies = concurrent_identical_sweeps(thread.port)
            t_concurrent = time.perf_counter() - t0
            stats = get_json(HOST, thread.port, "/stats")
            computations = stats["server"]["computations"]
            coalesced = stats["server"]["coalesced"]
            distinct = {json.dumps(r["result"]["data"], sort_keys=True)
                        for r in replies}

            samples = warm_latencies(thread.port, args.warm_requests)
            warm_median = statistics.median(samples)
            warm_p90 = sorted(samples)[int(0.9 * len(samples))]
        session.close()

        shard_root = os.path.join(workdir, "shards")
        small_ms = mean_lookup_ms(shard_root, SMALL_STORE)
        large_ms = mean_lookup_ms(shard_root, LARGE_STORE,
                                  start=SMALL_STORE)
        growth = large_ms / small_ms if small_ms else float("inf")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [
        "E37: multi-tenant experiment service "
        "(dedup / warm latency / sharded store)",
        f"dedup: {N_CLIENTS} concurrent identical sweeps in "
        f"{t_concurrent * 1e3:.1f} ms -> {computations} engine "
        f"computation(s), {coalesced} coalesced, "
        f"{len(distinct)} distinct payload(s)",
        f"warm : median {warm_median:.2f} ms, p90 {warm_p90:.2f} ms "
        f"over {args.warm_requests} requests "
        f"(gate < {MAX_WARM_MEDIAN_MS:.0f} ms)",
        f"shard: mean lookup {small_ms:.3f} ms @{SMALL_STORE} entries, "
        f"{large_ms:.3f} ms @{LARGE_STORE} entries "
        f"({growth:.2f}x, gate < {MAX_LOOKUP_GROWTH}x)",
    ]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(RESULTS_DIR, "E37_serve.txt"), "w") as f:
        f.write(text + "\n")

    record = {
        "experiment": "E37_serve",
        "n_clients": N_CLIENTS,
        "sweep_limit": SWEEP["params"]["limit"],
        "instructions": SWEEP["params"]["instructions"],
        "warm_requests": args.warm_requests,
        "computations": computations,
        "coalesced": coalesced,
        "distinct_payloads": len(distinct),
        "concurrent_seconds": round(t_concurrent, 6),
        "warm_median_ms": round(warm_median, 4),
        "warm_p90_ms": round(warm_p90, 4),
        "max_warm_median_ms": MAX_WARM_MEDIAN_MS,
        "small_store_entries": SMALL_STORE,
        "large_store_entries": LARGE_STORE,
        "lookup_ms_small": round(small_ms, 5),
        "lookup_ms_large": round(large_ms, 5),
        "lookup_growth": round(growth, 4),
        "max_lookup_growth": MAX_LOOKUP_GROWTH,
        "host": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    with open(os.path.join(ROOT, "BENCH_serve.json"), "w") as f:
        json.dump(record, f, indent=2)

    failed = False
    if computations != 1 or len(distinct) != 1:
        print(f"FAIL: {N_CLIENTS} identical sweeps cost "
              f"{computations} computation(s) "
              f"({len(distinct)} distinct payload(s))", file=sys.stderr)
        failed = True
    if warm_median >= MAX_WARM_MEDIAN_MS:
        print(f"FAIL: warm median {warm_median:.2f} ms >= "
              f"{MAX_WARM_MEDIAN_MS:.0f} ms", file=sys.stderr)
        failed = True
    if growth >= MAX_LOOKUP_GROWTH:
        print(f"FAIL: lookup cost grew {growth:.2f}x from "
              f"{SMALL_STORE} to {LARGE_STORE} entries", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
