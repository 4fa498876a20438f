"""The telemetry facade: one object bundling a tracer and a registry.

A :class:`Telemetry` pairs a :class:`~repro.obs.trace.Tracer` with a
:class:`~repro.obs.metrics.MetricsRegistry` (either half can be
disabled independently, collapsing to the shared null singletons).  A
module-level *active telemetry* -- :data:`NULL_TELEMETRY` unless
something is activated -- lets instrumented code anywhere in the tree
record without threading a telemetry object through every constructor::

    from repro import obs

    telemetry = obs.Telemetry()
    with obs.activate(telemetry):
        with obs.span("my.stage", detail=42):
            obs.metrics().inc("my.counter")

:class:`~repro.api.session.Session` captures the active telemetry at
construction and re-activates it around every ``run``, so the CLI only
activates once (``--trace`` / ``--metrics``) and every layer below --
engines, pools, caches, stores -- lights up.  With nothing activated,
``obs.span`` returns timed-but-unrecorded spans and ``obs.metrics()``
returns the no-op registry: the disabled mode is gated below 2%
overhead by ``benchmarks/bench_obs.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.obs.metrics import (
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
)
from repro.obs.trace import (
    NullTracer,
    NULL_TRACER,
    Span,
    Tracer,
    span_stats,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "current",
    "activate",
    "span",
    "metrics",
]


class Telemetry:
    """A tracer plus a metrics registry, enabled independently.

    Parameters
    ----------
    trace:
        Record spans into a real :class:`~repro.obs.trace.Tracer`
        (``False`` substitutes the timing-only null tracer).
    metrics:
        Record counters/gauges/histograms into a real
        :class:`~repro.obs.metrics.MetricsRegistry` (``False``
        substitutes the no-op registry).
    clock:
        Optional injectable clock for the tracer (tests).

    Examples
    --------
    >>> telemetry = Telemetry()
    >>> with telemetry.span("stage"):
    ...     telemetry.metrics.inc("points", 3)
    >>> telemetry.metrics.snapshot()["counters"]
    {'points': 3}
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.tracer: Union[Tracer, NullTracer] = (
            Tracer(clock=clock) if trace else NULL_TRACER
        )
        self.metrics: Union[MetricsRegistry, NullMetrics] = (
            MetricsRegistry() if metrics else NULL_METRICS
        )

    @property
    def enabled(self) -> bool:
        """Whether either half records anything."""
        return self.tracer.enabled or self.metrics.enabled

    def span(self, name: str, **args: Any) -> Span:
        """A span on this telemetry's tracer (context manager)."""
        return self.tracer.span(name, **args)

    def summary(self) -> Dict[str, Any]:
        """Aggregated spans + metrics snapshot (``--metrics`` output)."""
        return {
            "spans": span_stats(list(self.tracer.events)),
            "metrics": self.metrics.snapshot(),
        }


#: The always-disabled telemetry: timing-only spans, no-op metrics.
NULL_TELEMETRY = Telemetry(trace=False, metrics=False)

#: Active-telemetry stack; the top is what instrumented code records
#: into.  A list (not a single slot) so activations nest and unwind.
_ACTIVE: List[Telemetry] = [NULL_TELEMETRY]


def current() -> Telemetry:
    """The active telemetry (:data:`NULL_TELEMETRY` by default)."""
    return _ACTIVE[-1]


@contextmanager
def activate(telemetry: Telemetry) -> "Iterator[Telemetry]":
    """Install ``telemetry`` as active for the duration of the block.

    Activations nest: inner blocks shadow outer ones and the previous
    telemetry is restored on exit (exception-safe).
    """
    _ACTIVE.append(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.pop()


def span(name: str, **args: Any) -> Span:
    """A span on the active telemetry's tracer.

    Always returns a *timed* span -- with telemetry disabled the span
    is simply never recorded -- so call sites can rely on
    ``span.seconds`` as their single timing source.
    """
    return _ACTIVE[-1].tracer.span(name, **args)


def metrics() -> Union[MetricsRegistry, NullMetrics]:
    """The active metrics registry (the no-op registry by default)."""
    return _ACTIVE[-1].metrics
