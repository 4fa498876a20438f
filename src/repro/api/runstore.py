"""On-disk, content-addressed store of experiment run results.

The run-level twin of the profile-level
:class:`~repro.profiler.serialization.ProfileStore`: results are keyed
by the *spec* fingerprint (what was asked), so a multi-experiment
campaign (:meth:`~repro.api.session.Session.run_many`) can skip every
run whose spec it has already computed -- results are deterministic at
any worker count, which is what makes the spec a sufficient key.

Layout: ``<root>/<fp[:2]>/<fp>.run.json`` holds one serialized
:class:`~repro.api.results.RunResult`.  The two-character prefix
directories keep every directory small (at most 256 of them for hex
fingerprints), so lookups stay fast as a long-lived ``repro serve``
store grows into the millions of entries.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from typing import Optional, Union

from repro.api.results import RunResult
from repro.api.spec import ExperimentSpec, SpecError
from repro.faults import inject
from repro.faults.atomic import atomic_write

__all__ = ["RunStore"]

logger = logging.getLogger(__name__)

_SUFFIX = ".run.json"


class RunStore:
    """Content-addressed on-disk cache of :class:`RunResult` artifacts.

    Parameters
    ----------
    root:
        Directory for the store; created on first write.
    max_entries:
        Optional cap on stored entries.  ``None`` (default) never
        evicts; otherwise every :meth:`put` deletes least-recently-used
        entries down to the cap.

    Examples
    --------
    >>> store = RunStore(".run-store", max_entries=10_000)  # doctest: +SKIP
    >>> store.get(spec) is None                             # doctest: +SKIP
    True
    >>> store.put(session.run(spec))                        # doctest: +SKIP
    >>> store.get(spec).cached                              # doctest: +SKIP
    False

    The store keeps lifetime accounting as plain ints -- ``hits`` /
    ``misses`` / ``corrupt`` / ``quarantined`` / ``puts`` /
    ``evictions`` -- published into a metrics registry via
    :meth:`flush_metrics`.  Counter and recency updates are guarded by
    an internal lock so concurrent readers/writers (the ``repro serve``
    thread-pool path) never lose increments; reading the plain ints
    without the lock stays fine for reporting.  A *corrupt* entry (file
    exists but cannot be loaded) is served as a miss so campaigns heal
    by recomputing, counted and logged as a warning, and *quarantined*:
    renamed to ``<entry>.corrupt`` so it stops shadowing the slot (the
    recomputed result lands cleanly) while the bad bytes stay on disk
    for post-mortem.  Writes go through
    :func:`~repro.faults.atomic.atomic_write`, so a crash mid-``put``
    never leaves a half-written entry behind.

    Recency is tracked per process and seeded from a sorted scan of
    the prefix directories, so eviction order is a pure function of the
    operation sequence -- no mtimes, no clock.  Files outside the
    prefix directories (such as ``<root>/<fp>.run.json``) are neither
    served nor evicted.
    """

    #: Plain-int accounting attributes published by
    #: :meth:`flush_metrics`.
    _COUNTER_ATTRS = ("hits", "misses", "corrupt", "quarantined",
                      "puts", "evictions")

    def __init__(self, root: str,
                 max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.root = root
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0
        self.puts = 0
        self.evictions = 0
        self._flushed = {attr: 0 for attr in self._COUNTER_ATTRS}
        self._lock = threading.Lock()
        #: Recency order, least-recent first: fingerprint -> None.
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self._seed_lru()

    def _count(self, attr: str, value: int = 1) -> int:
        """Increment one accounting counter under the store lock.

        Returns the post-increment value (``put`` folds it into the
        fault-injection site label, which must be race-free too).
        """
        with self._lock:
            total = getattr(self, attr) + value
            setattr(self, attr, total)
        return total

    def _seed_lru(self) -> None:
        """Adopt pre-existing entries in sorted-fingerprint order.

        A fresh process has no usage history, so the deterministic
        sorted scan *is* the recency order until lookups reorder it --
        eviction decisions never depend on filesystem enumeration
        order or timestamps.
        """
        if not os.path.isdir(self.root):
            return
        found = []
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for entry in os.listdir(shard_dir):
                fingerprint = entry[:-len(_SUFFIX)]
                if entry.endswith(_SUFFIX) and fingerprint[:2] == shard:
                    found.append(fingerprint)
        with self._lock:
            for fingerprint in sorted(found):
                self._lru[fingerprint] = None

    @staticmethod
    def _fingerprint(key: Union[str, ExperimentSpec]) -> str:
        """The fingerprint string of a spec-or-fingerprint key."""
        if isinstance(key, ExperimentSpec):
            return key.fingerprint
        return key

    def path(self, key: Union[str, ExperimentSpec]) -> str:
        """Path of the stored run for a spec (or spec fingerprint)."""
        fingerprint = self._fingerprint(key)
        return os.path.join(self.root, fingerprint[:2],
                            fingerprint + _SUFFIX)

    def __contains__(self, key: Union[str, ExperimentSpec]) -> bool:
        """Whether a result for this spec/fingerprint is stored."""
        return os.path.exists(self.path(key))

    def __len__(self) -> int:
        """Number of entries the store currently tracks."""
        with self._lock:
            return len(self._lru)

    def get(
        self,
        spec: ExperimentSpec,
        key: Optional[str] = None,
    ) -> Optional[RunResult]:
        """The stored result for ``spec``, or ``None``.

        ``key`` overrides the lookup fingerprint -- the session passes
        a content-aware key here when the spec references files (see
        :meth:`~repro.api.session.Session.run_key`), so edits to a
        referenced profile or space file miss instead of serving stale
        results.  Unreadable or stale-format entries also count as
        misses (the caller recomputes and overwrites them) and are
        quarantined to a ``.corrupt`` sidecar, so a corrupted store
        heals itself instead of failing campaigns -- and instead of
        re-parsing the same broken bytes on every later lookup.  A hit
        makes the entry the most recently used.
        """
        fingerprint = self._fingerprint(key if key is not None else spec)
        path = self.path(fingerprint)
        result = None
        if not os.path.exists(path):
            self._count("misses")
        else:
            try:
                result = RunResult.load(path)
            except (OSError, ValueError, KeyError, SpecError) as exc:
                self._count("corrupt")
                self._count("misses")
                self._quarantine(path, exc)
            else:
                self._count("hits")
        with self._lock:
            if result is not None:
                self._lru[fingerprint] = None
                self._lru.move_to_end(fingerprint)
            else:
                self._lru.pop(fingerprint, None)
        return result

    def _quarantine(self, path: str, exc: Exception) -> None:
        """Move a corrupt entry aside so the slot reads as a clean miss."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            logger.warning(
                "corrupt run-store entry %s (%s: %s); recomputing "
                "(quarantine rename failed)",
                path, type(exc).__name__, exc,
            )
            return
        self._count("quarantined")
        logger.warning(
            "corrupt run-store entry %s (%s: %s); quarantined to "
            "%s.corrupt, recomputing",
            path, type(exc).__name__, exc, path,
        )

    def put(self, result: RunResult, key: Optional[str] = None) -> str:
        """Store one result (overwrites) and return its store key.

        Telemetry attached to the result is *not* stored: the store is
        content-addressed by what was computed, and stored bytes must
        be identical whether or not telemetry was enabled for the run.
        The write is atomic (temp file + rename), so a crash here
        leaves either the previous entry or the new one, never a
        truncated file.  The entry becomes the most recently used;
        with ``max_entries`` set, least-recently-used entries are then
        deleted down to the cap.
        """
        if key is None:
            key = result.spec_fingerprint
        path = self.path(key)
        serial = self._count("puts")
        with atomic_write(path) as handle:
            result.save(handle, include_telemetry=False)
        inject.store_site(path, f"run_store:{key}:{serial}")
        evict = []
        with self._lock:
            self._lru[key] = None
            self._lru.move_to_end(key)
            if self.max_entries is not None:
                while len(self._lru) > self.max_entries:
                    evict.append(self._lru.popitem(last=False)[0])
        for victim in evict:
            try:
                os.remove(self.path(victim))
            except OSError:
                pass
            self._count("evictions")
        return key

    def flush_metrics(self, metrics) -> None:
        """Publish store counters accumulated since the last flush.

        Increments ``run_store.hits`` / ``run_store.misses`` /
        ``run_store.corrupt`` / ``run_store.quarantined`` /
        ``run_store.puts`` / ``run_store.evictions`` on ``metrics`` by
        the deltas since the previous flush (repeated flushing never
        double-counts).  Flushing into a disabled registry is a no-op
        that keeps the deltas pending.
        """
        if not metrics.enabled:
            return
        for attr in self._COUNTER_ATTRS:
            with self._lock:
                value = getattr(self, attr)
                delta = value - self._flushed[attr]
                self._flushed[attr] = value
            if delta:
                metrics.inc(f"run_store.{attr}", delta)
