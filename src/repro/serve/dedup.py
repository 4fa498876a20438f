"""In-flight request coalescing keyed by spec fingerprint.

Many clients asking one warm server the same question at the same time
is the normal case for a cache-fronted service -- a popular sweep goes
out in a dashboard, every viewer's browser POSTs the identical spec
within a second.  Computing it N times would be pure waste *and* a
worker-pool stampede.

:class:`InflightTable` collapses that: the first arrival for a run key
becomes the **leader** and starts the computation as an independent
task; every later arrival with the same key while that task is still
running becomes a **follower** and simply awaits the same task.  All
waiters get the same result object; the computation ran once.

Two properties matter for the service contract:

* waiters await through :func:`asyncio.shield`, so a client that
  disconnects mid-wait cancels only *its own* wait -- the shared
  computation (and the followers still attached to it) is unaffected;
* the table entry is removed the moment the task finishes, so a key
  becomes coalescible again immediately (later identical requests are
  then served by the run store instead).

Keys are :meth:`Session.run_key` values -- the spec's canonical
fingerprint, content-extended for file-referencing specs -- the same
key the :class:`~repro.api.runstore.RunStore` uses, so "identical
request" means exactly "would hit the same store entry".
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict

__all__ = ["InflightTable"]


class InflightTable:
    """Coalesces concurrent identical computations onto one task.

    Examples
    --------
    >>> table = InflightTable()                        # doctest: +SKIP
    >>> result = await table.run(key, compute)         # doctest: +SKIP

    The plain-int counters ``leaders`` / ``followers`` account every
    admission: ``leaders`` computations actually started,
    ``followers`` were answered by an already-running one.  Admission
    happens when :meth:`run` is called, not when its result is
    awaited, so ``key in table`` just before the call tells which role
    the call takes.
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, asyncio.Task] = {}
        self.leaders = 0
        self.followers = 0

    def __len__(self) -> int:
        """Number of computations currently in flight."""
        return len(self._inflight)

    def __contains__(self, key: str) -> bool:
        """Whether a computation for ``key`` is in flight."""
        return key in self._inflight

    def _finish(self, key: str, task: asyncio.Task) -> None:
        """Drop a finished task from the table and mark it observed.

        Reading the exception here keeps asyncio from logging
        "exception was never retrieved" when a leader fails after its
        own client already disconnected.
        """
        if self._inflight.get(key) is task:
            del self._inflight[key]
        if not task.cancelled():
            task.exception()

    def run(
        self,
        key: str,
        compute: Callable[[], Awaitable[Any]],
    ) -> "asyncio.Future":
        """Join the computation for ``key``, starting it if absent.

        ``compute`` is only called when no computation for ``key`` is
        in flight.  Either way the caller gets the shared task behind a
        shield to await, so cancelling that wait (client disconnect)
        never cancels the shared computation.  Must be called on the
        running event loop.
        """
        task = self._inflight.get(key)
        if task is None:
            self.leaders += 1
            task = asyncio.get_running_loop().create_task(compute())
            task.add_done_callback(
                lambda done, key=key: self._finish(key, done)
            )
            self._inflight[key] = task
        else:
            self.followers += 1
        return asyncio.shield(task)
