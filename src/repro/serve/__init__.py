"""``repro serve`` -- the multi-tenant async experiment service.

One warm :class:`~repro.api.session.Session` -- loaded profiles, model
caches, worker pool, run store -- shared by many clients over a
zero-dependency asyncio HTTP front door.  The layers, front to back:

* :mod:`repro.serve.protocol` -- minimal HTTP/1.1 + chunked NDJSON on
  :func:`asyncio.start_server` streams;
* :mod:`repro.serve.server` -- :class:`ExperimentServer` routing
  (``POST /run``, ``/health``, ``/stats``, ``/metrics``), admission
  control, deadlines and graceful drain;
* :mod:`repro.serve.dedup` -- identical in-flight requests coalesce
  onto one :meth:`~repro.api.session.Session.run`, whose ``on_point``
  callback feeds the leader's NDJSON stream;
* :class:`~repro.api.runstore.RunStore` -- the run store, with the
  ``--max-entries`` LRU cap (``ShardedRunStore`` is the same class
  under its older name);
* :mod:`repro.serve.client` -- blocking stdlib client helpers
  (``repro request`` and the tests use these).

The package invariant, enforced by the ``async-safety`` lint rule: the
event loop never blocks.  Session, engine and store work runs on a
thread-pool executor; coroutines only parse, route and fan out.
"""

from repro.api.runstore import RunStore as ShardedRunStore
from repro.serve.client import ServeError, get_json, request_run
from repro.serve.dedup import InflightTable
from repro.serve.server import ExperimentServer, ServerThread

__all__ = [
    "ExperimentServer",
    "InflightTable",
    "ServeError",
    "ServerThread",
    "ShardedRunStore",
    "get_json",
    "request_run",
]
