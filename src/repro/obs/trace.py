"""Nested wall-time spans with Chrome ``trace_event`` JSONL export.

A :class:`Tracer` records *spans* -- named, timed, nestable regions
entered through a context manager::

    tracer = Tracer()
    with tracer.span("session.run", kind="sweep"):
        with tracer.span("engine.sweep"):
            ...

Every span measures with the tracer's injectable ``clock`` (defaults
to ``time.perf_counter``; tests inject a fake counter for exact,
deterministic timestamps).  Completed spans become ``ph: "X"``
(complete) events in the Chrome ``trace_event`` format, and
:meth:`Tracer.export` writes them one event per line inside a JSON
array -- every line is independently parseable *and* the whole file
loads in ``chrome://tracing`` / Perfetto.  :func:`read_trace` reads the
file back (tolerating the spec's unterminated-array form), and
:func:`span_stats` aggregates events into the per-name table behind
``repro stats``.

The disabled twin, :class:`NullTracer`, still *times* spans (callers
like ``SearchTrajectory.wall_seconds`` read ``span.seconds`` whether or
not telemetry is on -- one timing source, so reported timings and
telemetry cannot disagree) but records nothing: its event list is
always empty and nothing is retained.  Spans therefore belong at
stage/batch granularity; per-point accounting uses
:mod:`repro.obs.metrics` counters, whose disabled path is a pure no-op.
"""

from __future__ import annotations

import json
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Optional,
    Union,
)

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER",
           "read_trace", "span_stats", "TRACE_CATEGORY", "METRICS_EVENT"]

#: Category stamped on every exported span event.
TRACE_CATEGORY = "repro"

#: Name of the instant event carrying a metrics snapshot in a trace
#: file (read back by ``repro stats``).
METRICS_EVENT = "repro.metrics"


class Span:
    """One timed region: measures on enter/exit, records on exit.

    Created by :meth:`Tracer.span` / :meth:`NullTracer.span`; use as a
    context manager.  After exit, :attr:`seconds` holds the measured
    wall time -- the single timing source for both telemetry and any
    "seconds" field in result payloads.

    Attributes
    ----------
    name:
        Span name (dotted, e.g. ``"engine.sweep"``).
    args:
        Optional key/value annotations exported with the event.
    seconds:
        Measured duration; ``0.0`` until the span exits.
    """

    __slots__ = ("name", "args", "seconds", "_clock", "_tracer", "_start")

    def __init__(
        self,
        name: str,
        args: Optional[Dict[str, Any]],
        clock: Callable[[], float],
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.args = args
        self.seconds = 0.0
        self._clock = clock
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "Span":
        """Start the clock (and open a nesting level when recording)."""
        tracer = self._tracer
        if tracer is not None:
            tracer._depth += 1
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the clock; append the completed event when recording."""
        self.seconds = self._clock() - self._start
        tracer = self._tracer
        if tracer is not None:
            tracer._depth -= 1
            tracer._record(self)


class Tracer:
    """Collects spans as Chrome ``trace_event``-compatible events.

    Parameters
    ----------
    clock:
        Monotonic time source; defaults to ``time.perf_counter``.
        Injectable so tests get exact, deterministic timestamps.

    Examples
    --------
    >>> ticks = iter(range(100))
    >>> tracer = Tracer(clock=lambda: next(ticks) * 1e-6)
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner", detail=1):
    ...         pass
    >>> [e["name"] for e in tracer.events]
    ['inner', 'outer']
    """

    #: Real tracers record; the :class:`NullTracer` twin does not.
    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        #: Completed events in completion order (children before
        #: parents), each a Chrome ``trace_event`` dict plus a
        #: ``depth`` key (nesting level, root = 0).
        self.events: List[Dict[str, Any]] = []
        self._origin = self.clock()
        self._depth = 0

    def span(self, name: str, **args: Any) -> Span:
        """A new recording span (use as a context manager)."""
        return Span(name, args or None, self.clock, tracer=self)

    def _record(self, span: Span) -> None:
        """Append one completed span as a ``ph: "X"`` event."""
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": TRACE_CATEGORY,
            "ph": "X",
            "ts": (span._start - self._origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": os.getpid(),
            "tid": 0,
            "depth": self._depth,
        }
        if span.args:
            event["args"] = dict(span.args)
        self.events.append(event)

    def export(
        self,
        file: Union[str, IO[str]],
        metrics: Optional[Any] = None,
    ) -> None:
        """Write the trace: one event per line inside a JSON array.

        The file is a valid Chrome ``trace_event`` JSON array (loads in
        ``chrome://tracing`` / Perfetto) whose events each occupy one
        line, so it also greps/streams like JSONL.  Events are sorted
        by timestamp; a ``process_name`` metadata event leads, and when
        a :class:`~repro.obs.metrics.MetricsRegistry` is given its
        snapshot trails as one :data:`METRICS_EVENT` instant event.
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }]
        events.extend(sorted(self.events, key=lambda e: e["ts"]))
        if metrics is not None and metrics.enabled:
            events.append({
                "name": METRICS_EVENT,
                "cat": TRACE_CATEGORY,
                "ph": "i",
                "ts": ((self.clock() - self._origin) * 1e6),
                "pid": pid,
                "tid": 0,
                "s": "g",
                "args": {"metrics": metrics.snapshot()},
            })
        lines = ",\n".join(json.dumps(event, sort_keys=True)
                           for event in events)
        text = "[\n" + lines + "\n]\n"
        if isinstance(file, str):
            with open(file, "w") as handle:
                handle.write(text)
        else:
            file.write(text)


class NullTracer:
    """The non-recording tracer installed while telemetry is disabled.

    Spans are still timed (``span.seconds`` stays meaningful -- see the
    module docstring) but nothing is retained: :attr:`events` is a
    shared empty tuple.  Use the :data:`NULL_TRACER` singleton.
    """

    #: Tells call sites that no events are being retained.
    enabled = False

    #: Always empty: nothing is ever recorded.
    events = ()

    __slots__ = ()

    clock = staticmethod(time.perf_counter)

    def span(self, name: str, **args: Any) -> Span:
        """A timed-but-unrecorded span (use as a context manager)."""
        return Span(name, None, time.perf_counter, tracer=None)

    def export(self, file: Union[str, IO[str]],
               metrics: Optional[Any] = None) -> None:
        """Refuse to export: a disabled tracer has nothing to write."""
        raise RuntimeError(
            "cannot export a disabled tracer (enable tracing first)"
        )


#: The shared no-op tracer (the default everywhere).
NULL_TRACER = NullTracer()


def read_trace(file: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Read a trace file back into a list of event dicts.

    Accepts both the complete JSON array :meth:`Tracer.export` writes
    and the Chrome spec's unterminated-array form (missing ``]`` or a
    trailing comma), which is parsed line by line.
    """
    if isinstance(file, str):
        with open(file) as handle:
            text = handle.read()
    else:
        text = file.read()
    try:
        events = json.loads(text)
    except ValueError:
        events = []
        for line in text.splitlines():
            line = line.strip().rstrip(",")
            if not line or line in ("[", "]"):
                continue
            events.append(json.loads(line))
        return events
    if not isinstance(events, list):
        raise ValueError("trace file does not contain an event array")
    return events


def span_stats(
    events: List[Dict[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """Aggregate span events per name: calls, total/mean/min/max ms.

    Only ``ph: "X"`` (complete span) events participate; metadata and
    instant events are skipped.  Returned in descending total-time
    order -- the table behind ``repro stats``.
    """
    stats: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        duration_ms = event.get("dur", 0.0) / 1000.0
        record = stats.get(event["name"])
        if record is None:
            stats[event["name"]] = {
                "calls": 1,
                "total_ms": duration_ms,
                "min_ms": duration_ms,
                "max_ms": duration_ms,
            }
        else:
            record["calls"] += 1
            record["total_ms"] += duration_ms
            record["min_ms"] = min(record["min_ms"], duration_ms)
            record["max_ms"] = max(record["max_ms"], duration_ms)
    for record in stats.values():
        record["mean_ms"] = record["total_ms"] / record["calls"]
    return dict(sorted(stats.items(),
                       key=lambda item: (-item[1]["total_ms"], item[0])))
