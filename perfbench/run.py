#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dse --seed 1 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric and writes the run's spans
to ``.perfbench/traces/<workload>-seed<seed>.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every operation succeeded and every
output check passed; a run that cannot start (no ``src/repro`` next to
this directory) exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dse", "validate", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(traced: bool):
    """``[(name, unit)]`` of the metrics ``BENCHMARK.json`` declares for
    this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return [(m["name"], m["unit"])
            for m in declared["per_layer" if traced else "end_to_end"]]


def result_line(campaign, traced: bool) -> dict:
    """The final JSON object of one finished run."""
    values = (campaign.layers.metrics() if traced
              else campaign.end_to_end())
    metrics = {}
    for name, unit in declared_metrics(traced):
        value = values.pop(name)
        if not math.isfinite(value):
            campaign.check.fail(f"{name}: not measured ({value})")
        metrics[name] = {"value": value, "unit": unit}
    if values:
        raise RuntimeError(f"undeclared metrics: {sorted(values)}")
    check = campaign.check
    return {"correct": check.failed == 0, "attempted": check.attempted,
            "failed": check.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.campaign import Campaign

    # SIGTERM unwinds like an exception, so the server child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    traced = bool(args.trace)
    state = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(workdir)
    campaign = Campaign(args.workload, args.seed, args.seconds, traced,
                        ROOT, workdir)
    try:
        campaign.run()
        result = result_line(campaign, traced)
        if traced:
            traces = os.path.join(state, "traces")
            os.makedirs(traces, exist_ok=True)
            campaign.tracer.write(os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json"))
    finally:
        campaign.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in campaign.notes():
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
