"""Zero-dependency observability: spans, metrics, cache accounting.

The paper's pitch is that the analytical model makes design-space
studies *cheap*; this package is how the repository proves where that
cheapness comes from.  Three pieces, all stdlib-only:

* :mod:`repro.obs.trace` -- a :class:`Tracer` of nested wall-time
  spans with an injectable clock and Chrome ``trace_event``-compatible
  JSONL export (``repro ... --trace FILE``, inspected by
  ``repro stats``);
* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters /
  gauges / histograms whose disabled default is a guaranteed-cheap
  no-op, with snapshot/merge/diff for deterministic cross-process
  aggregation (worker deltas piggyback on result messages through
  :mod:`repro.api.pool`);
* :mod:`repro.obs.telemetry` -- the :class:`Telemetry` facade and the
  module-level *active telemetry* (:func:`activate` / :func:`current` /
  :func:`span` / :func:`metrics`) that instrumented code records into.

Instrumentation lives in the request path itself --
``Session.run`` stages, ``SweepEngine`` / ``SimulationSweep`` batches,
``WorkerPool`` dispatch, ``ModelCache`` / ``ProfileStore`` /
``RunStore`` hit-miss-corrupt accounting -- and costs nothing
measurable when disabled (gated <2% by ``benchmarks/bench_obs.py``).
Every counter event is recorded into the active registry on the line
that counts it, so nothing is ever buffered or flushed later.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    activate,
    current,
    metrics,
    span,
)
from repro.obs.trace import (
    METRICS_EVENT,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    read_trace,
    span_stats,
)

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Telemetry",
    "NULL_TELEMETRY",
    "activate",
    "current",
    "metrics",
    "span",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "METRICS_EVENT",
    "read_trace",
    "span_stats",
]
