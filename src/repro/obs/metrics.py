"""Counters, gauges and histograms with a guaranteed-cheap no-op default.

The telemetry layer's accounting half.  A :class:`MetricsRegistry`
holds three families of named metrics:

* **counters** -- monotonically increasing integers/floats
  (``model_cache.hits``, ``engine.points``, ``pool.tasks``);
* **gauges** -- last-write-wins point-in-time values
  (``pool.workers``, ``model_cache.entries``);
* **histograms** -- value distributions folded into count / sum /
  min / max plus power-of-two buckets (``pool.task_seconds``), so
  distributions merge exactly across processes without keeping samples.

When telemetry is disabled, instrumented call sites talk to the
:data:`NULL_METRICS` singleton instead: every method is a ``pass``
no-op, so hot paths cost one attribute lookup and an empty call --
nothing is allocated and nothing is recorded.  The disabled-mode cost
of the whole layer is gated below 2% by ``benchmarks/bench_obs.py``.

Cross-process aggregation is snapshot-based: a worker records into its
local registry, ships :meth:`MetricsRegistry.snapshot` deltas back
piggybacked on result messages (see :mod:`repro.api.pool`), and the
parent folds them in with :meth:`MetricsRegistry.merge` in task
submission order -- merging is associative and the order is
deterministic, so the merged registry is reproducible for a given task
assignment.  Snapshots are key-sorted canonical dicts, so two
registries holding the same values snapshot to identical JSON no
matter the insertion order.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional, Union

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Number",
]

Number = Union[int, float]


def _bucket_label(value: float) -> str:
    """The power-of-two histogram bucket label containing ``value``.

    Buckets are upper bounds: ``value`` lands in the smallest power of
    two ``>= value``.  Non-positive values share the ``"0"`` bucket.
    """
    if value <= 0:
        return "0"
    exponent = math.ceil(math.log2(value))
    return f"{2.0 ** exponent:g}"


def _new_histogram() -> Dict[str, Any]:
    """An empty histogram record (count/sum/min/max/buckets)."""
    return {
        "count": 0,
        "sum": 0.0,
        "min": math.inf,
        "max": -math.inf,
        "buckets": {},
    }


class MetricsRegistry:
    """A mutable registry of named counters, gauges and histograms.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.inc("model_cache.hits", 3)
    >>> registry.observe("pool.task_seconds", 0.25)
    >>> registry.snapshot()["counters"]
    {'model_cache.hits': 3}
    """

    #: Real registries record; the :class:`NullMetrics` twin does not.
    enabled = True

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}
        self._histograms: Dict[str, Dict[str, Any]] = {}

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Number) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        """Fold one sample into the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _new_histogram()
        histogram["count"] += 1
        histogram["sum"] += value
        if value < histogram["min"]:
            histogram["min"] = value
        if value > histogram["max"]:
            histogram["max"] = value
        label = _bucket_label(value)
        buckets = histogram["buckets"]
        buckets[label] = buckets.get(label, 0) + 1

    # -- reading / folding ----------------------------------------------

    def __len__(self) -> int:
        """Total number of distinct metric names recorded."""
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def snapshot(self) -> Dict[str, Any]:
        """A key-sorted, JSON-serializable copy of every metric.

        The canonical interchange form: worker deltas, run-result
        telemetry blocks and ``--metrics`` output are all snapshots.
        Histogram ``min``/``max`` become ``None`` while empty so the
        snapshot stays JSON-clean.
        """
        histograms: Dict[str, Any] = {}
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            histograms[name] = {
                "count": histogram["count"],
                "sum": histogram["sum"],
                "min": (None if histogram["count"] == 0
                        else histogram["min"]),
                "max": (None if histogram["count"] == 0
                        else histogram["max"]),
                "buckets": {label: histogram["buckets"][label]
                            for label in sorted(histogram["buckets"])},
            }
        return {
            "counters": {name: self._counters[name]
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name]
                       for name in sorted(self._gauges)},
            "histograms": histograms,
        }

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histogram count/sum/buckets add; gauges take the
        delta's value (last write wins); histogram min/max combine.
        Merging is associative, so folding worker deltas in task
        submission order (the :meth:`~repro.api.pool.WorkerPool.imap`
        stream order) gives a deterministic result for a given task
        assignment.
        """
        for name, value in delta.get("counters", {}).items():
            self.inc(name, value)
        for name, value in delta.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in delta.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _new_histogram()
            histogram["count"] += data["count"]
            histogram["sum"] += data["sum"]
            if data.get("min") is not None:
                histogram["min"] = min(histogram["min"], data["min"])
            if data.get("max") is not None:
                histogram["max"] = max(histogram["max"], data["max"])
            buckets = histogram["buckets"]
            for label, count in data.get("buckets", {}).items():
                buckets[label] = buckets.get(label, 0) + count

    def diff(self, baseline: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """The change since ``baseline`` (an earlier :meth:`snapshot`).

        Counters and histogram count/sum/buckets subtract (zero-delta
        entries are dropped); gauges report their current value.
        Histogram min/max are period-inclusive approximations: the
        registry folds samples as they arrive, so the delta reports the
        min/max over the registry's whole lifetime, not the period.
        ``baseline=None`` means "since empty" and returns a plain
        snapshot.
        """
        current = self.snapshot()
        if not baseline:
            return current
        base_counters = baseline.get("counters", {})
        counters = {
            name: value - base_counters.get(name, 0)
            for name, value in current["counters"].items()
            if value != base_counters.get(name, 0)
        }
        base_histograms = baseline.get("histograms", {})
        histograms: Dict[str, Any] = {}
        for name, data in current["histograms"].items():
            base = base_histograms.get(name)
            if base is None:
                histograms[name] = data
                continue
            count = data["count"] - base["count"]
            if count == 0:
                continue
            buckets = {
                label: total - base.get("buckets", {}).get(label, 0)
                for label, total in data["buckets"].items()
                if total != base.get("buckets", {}).get(label, 0)
            }
            histograms[name] = {
                "count": count,
                "sum": data["sum"] - base["sum"],
                "min": data["min"],
                "max": data["max"],
                "buckets": buckets,
            }
        return {
            "counters": counters,
            "gauges": current["gauges"],
            "histograms": histograms,
        }


class NullMetrics:
    """The do-nothing registry installed while telemetry is disabled.

    Shares the :class:`MetricsRegistry` interface; every recording
    method is an empty function, so instrumented hot paths pay one
    no-op call and allocate nothing.  Use the :data:`NULL_METRICS`
    singleton rather than constructing new instances.
    """

    #: Tells call sites that recording is off (skip snapshot work).
    enabled = False

    __slots__ = ()

    def inc(self, name: str, value: Number = 1) -> None:
        """Discard a counter increment."""

    def set_gauge(self, name: str, value: Number) -> None:
        """Discard a gauge write."""

    def observe(self, name: str, value: Number) -> None:
        """Discard a histogram sample."""

    def __len__(self) -> int:
        """Always 0: nothing is ever recorded."""
        return 0

    def snapshot(self) -> Dict[str, Any]:
        """An empty snapshot (stable shape for uniform consumers)."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Discard a delta."""

    def diff(self, baseline: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """An empty delta."""
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The shared no-op registry (the default everywhere).
NULL_METRICS = NullMetrics()
