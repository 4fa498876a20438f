"""Measurement plumbing shared by every workload.

* :class:`Tracer` times every unit of work.  Each timed unit is a span
  (name, start, end, parent, group id); untraced runs keep only the
  elapsed time, traced runs also keep the span in memory and write all
  of them out once the run ends.
* :class:`OutputCheck` counts operations and failures and compares
  results byte for byte through :func:`digest`.
* :func:`median` and :func:`tail` are the only two summaries any metric
  uses.
* :func:`host_work_unit` times a fixed unit of work that never changes
  with the program; a run's median unit says how fast the host ran
  during that run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


def digest(document: Any) -> str:
    """SHA-256 of ``document`` in canonical JSON (sorted keys, no spaces).

    Floats serialize by ``repr``, so two payloads share a digest only
    when they are equal bit for bit.
    """
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stable_payload(kind: str, data: Dict[str, Any]) -> Dict[str, Any]:
    """``RunResult.data`` without the fields that record host time.

    ``profile`` payloads carry each workload's profiling seconds and
    ``search`` payloads the trajectory's wall-clock seconds; everything
    else in every payload is a deterministic function of the spec.
    """
    data = json.loads(json.dumps(data))
    if kind == "profile":
        for entry in data["profiles"]:
            entry.pop("seconds")
    elif kind == "search":
        data["trajectory"].pop("wall_seconds")
    return data


def median(values: Sequence[float]) -> float:
    """The median (``nan`` for no values)."""
    return statistics.median(values) if values else math.nan


#: Percentiles :func:`tail` may pick, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile in
    :data:`TAIL_PERCENTILES` that has at least ten samples above it
    (nearest rank); the maximum when fewer than 40 samples leave no
    such percentile, and ``nan`` for no samples."""
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * n)
        if n - rank >= 10:
            return percentile, ordered[rank - 1]
    return 100.0, (ordered[-1] if ordered else math.nan)


#: Median seconds of one :func:`host_work_unit` on the 2-CPU Xeon VM the
#: benchmark was tuned on.  Host-time metrics are scaled to a host that
#: runs the unit in this time.
REFERENCE_UNIT_S = 0.017


def host_work_unit() -> float:
    """Seconds taken by one fixed unit of host work (about 17 ms).

    The unit mixes work of the kinds the program does: interpreted
    loops over ints and dicts, a float list built and sorted, and short
    numpy calls.  Its buffers stay small (about 1 MB), so it does not
    set the peak RSS of the process that runs it.
    """
    import numpy as np

    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(40_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    values = [float(i) * 1.5 for i in range(20_000)]
    values.sort(reverse=True)
    array = np.arange(65_536, dtype=np.float64)
    for _ in range(40):
        total += int(np.sum(array * 1.0001))
    return time.perf_counter() - start


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Span:
    """One timed unit of work."""

    __slots__ = ("id", "name", "group", "parent", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, group: Any,
                 parent: Optional[int], attrs: Dict[str, Any]) -> None:
        self.id = span_id
        self.name = name
        self.group = group
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        """Elapsed host seconds."""
        return self.end - self.start


class Tracer:
    """Times spans; keeps them in memory when ``enabled``.

    Parents nest per thread.  A span opened on another thread (a client
    request) names its parent explicitly.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, group: Any = None,
             parent: Optional[int] = None, collect: bool = True,
             **attrs: Any) -> Iterator[Span]:
        """Time the body as one span.

        ``collect=False`` skips the ``gc.collect()`` that otherwise runs
        just before the clock starts, so no earlier garbage is paid for
        inside the span; nested and per-request spans use it.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            self._ids += 1
            span = Span(self._ids, name, group, parent, attrs)
        if collect:
            gc.collect()
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if self.enabled:
                with self._lock:
                    self.spans.append(span)

    def self_seconds(self) -> Dict[int, float]:
        """Self time of every recorded span: its duration minus the part
        of its interval covered by its children."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda c: c.start):
                start = max(child.start, cursor)
                if child.end > start:
                    covered += child.end - start
                    cursor = child.end
            result[span.id] = span.seconds - covered
        return result

    def by_group(self, name: str) -> Dict[Any, List[Span]]:
        """Recorded spans called ``name``, by group id."""
        groups: Dict[Any, List[Span]] = {}
        for span in self.spans:
            if span.name == name:
                groups.setdefault(span.group, []).append(span)
        return groups

    def write(self, path: str) -> None:
        """Write every recorded span, with its self time, as JSON."""
        own = self.self_seconds()
        document = [
            {"id": s.id, "name": s.name, "group": s.group,
             "parent": s.parent, "start": s.start, "end": s.end,
             "self_s": own[s.id], **s.attrs}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as handle:
            json.dump({"spans": document}, handle)


class OutputCheck:
    """Operation and failure accounting plus byte-for-byte comparisons.

    A failure is an exception, a non-200 reply or a failed comparison.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()
        self._reference: Dict[Any, str] = {}

    def attempt(self) -> None:
        """Count one operation."""
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        """Count one failed operation (the first few reasons are kept)."""
        with self._lock:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    def same_as_first(self, key: Any, document: Any) -> bool:
        """The first document seen under ``key`` is the reference; every
        later one must equal it byte for byte."""
        value = digest(document)
        reference = self._reference.setdefault(key, value)
        if value != reference:
            self.fail(f"{key}: result differs from the first round's")
            return False
        return True

    def equal(self, what: str, expected: str, got: str) -> bool:
        """Two digests must match."""
        if expected != got:
            self.fail(f"{what}: reply differs from the in-process run")
            return False
        return True
