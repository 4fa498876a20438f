"""The multi-tenant experiment service front door.

:class:`ExperimentServer` exposes one warm
:class:`~repro.api.session.Session` -- its loaded profiles, model
caches, worker pool and run store -- to many concurrent clients over a
small HTTP/JSON surface:

``POST /run``
    Body: an :class:`~repro.api.spec.ExperimentSpec` JSON document.
    Answers ``{"cached": ..., "result": ...}``; with ``?stream=1`` the
    response is chunked NDJSON -- ``{"event": "point", ...}`` partials
    as a sweep's design points are computed, then one
    ``{"event": "result", ...}`` line.  A failed computation answers
    ``{"error": ...}`` with 400 (:class:`~repro.api.spec.SpecError`) or
    500 (anything else); once a stream's headers are out, it ends with
    one ``{"event": "error", "status": ..., "error": ...}`` line
    instead.
``GET /health``
    Liveness plus drain state.
``GET /stats``
    The server's plain-int counters (dedup, shedding, errors) next to
    the session's store/pool counters.
``GET /metrics``
    The session telemetry's metrics snapshot (when enabled).

Two layers keep N clients cheaper than N sessions: warm requests are
answered straight from the run store (off-loop, before any queueing),
and identical cold requests coalesce onto one in-flight
:meth:`Session.run <repro.api.session.Session.run>`
(:class:`~repro.serve.dedup.InflightTable`).  Every computation is that
one call; a streamed request that leads one passes ``on_point`` to feed
its NDJSON partials, and its followers get the result line only.
Overload is shed with ``503`` at ``max_queue`` in-flight requests,
per-request deadlines answer ``504`` (the shielded computation still
completes and lands in the store), and ``SIGTERM``/``SIGINT`` trigger a
graceful drain: stop accepting, finish in-flight work, then exit.

The event loop never blocks: every session/store/engine call runs on a
small thread-pool executor (the ``async-safety`` lint rule keeps it
that way), and the executor threads serialize on the session lock.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import logging
import signal
import socket
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.api.results import RunResult
from repro.api.session import Session, _point_dict
from repro.api.spec import ExperimentSpec, SpecError
from repro.serve.dedup import InflightTable
from repro.serve.protocol import (HttpRequest, NdjsonStream,
                                  ProtocolError, read_request,
                                  write_json)

__all__ = ["ExperimentServer", "ServerThread"]

logger = logging.getLogger(__name__)

_SERVER_COUNTERS = ("requests", "store_hits", "shed", "timeouts",
                    "errors", "disconnects", "streams")


class ExperimentServer:
    """Async HTTP service over one shared warm session.

    Parameters
    ----------
    session:
        The session every request runs against.  The server serializes
        engine work on ``session.lock``; the caller keeps ownership
        (closing the session after :meth:`drain` is the caller's job).
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_queue:
        In-flight request cap; excess requests are shed with ``503``.
    request_timeout:
        Per-request deadline in seconds for non-streaming requests
        (``504`` on expiry; the underlying computation finishes and
        warms the store).  ``None`` disables the deadline.
    drain_timeout:
        Seconds :meth:`drain` waits for the requests in flight (idle
        keep-alive connections are closed at once).
    executor_workers:
        Thread-pool size for blocking session/store work.
    """

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        max_queue: int = 32,
        request_timeout: Optional[float] = None,
        drain_timeout: float = 10.0,
        executor_workers: int = 4,
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix="repro-serve",
        )
        self.inflight = InflightTable()
        self.requests = 0
        self.store_hits = 0
        self.shed = 0
        self.timeouts = 0
        self.errors = 0
        self.disconnects = 0
        self.streams = 0
        #: ``Session.run`` calls that computed (or failed) -- a leader
        #: whose run found the store already warm is not one.
        self.computations = 0
        self._active = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._handlers: Set["asyncio.Task"] = set()
        self._idle: Dict["asyncio.Task", asyncio.StreamWriter] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client, self.host, self.port)
        for sock in self._server.sockets or ():
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                self.port = sock.getsockname()[1]
                break

    async def serve_forever(self) -> None:
        """Run until ``SIGTERM``/``SIGINT`` (or :meth:`shutdown`), then drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.shutdown)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        try:
            await self._shutdown.wait()
            await self.drain()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    def shutdown(self) -> None:
        """Request a graceful drain (signal-handler safe)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, release workers.

        Idle keep-alive connections are closed at once; a connection
        with a request in flight gets :attr:`drain_timeout` seconds to
        answer it and close (its handler is awaited, so it closes
        before the loop stops).  The executor is then shut down; the
        session itself stays open (the owner closes it).
        """
        self._draining = True
        if self._server is not None:
            # Only stop accepting: Server.wait_closed (Python 3.12+)
            # would wait for every connection, with no timeout.
            self._server.close()
            self._server = None
        for writer in self._idle.values():
            writer.close()
        if self._handlers:
            await asyncio.wait(set(self._handlers),
                               timeout=self.drain_timeout)
        self.executor.shutdown(wait=False)

    # -- accounting ----------------------------------------------------

    @property
    def coalesced(self) -> int:
        """Requests answered without their own computation."""
        return (self.store_hits + self.inflight.leaders
                + self.inflight.followers - self.computations)

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` document (plain ints, JSON-clean)."""
        server: Dict[str, Any] = {
            name: getattr(self, name) for name in _SERVER_COUNTERS
        }
        server["active"] = self._active
        server["draining"] = self._draining
        server["computations"] = self.computations
        server["coalesced"] = self.coalesced
        payload: Dict[str, Any] = {
            "server": server,
            "dedup": {"leaders": self.inflight.leaders,
                      "followers": self.inflight.followers,
                      "inflight": len(self.inflight)},
            # For readers of this section (perfbench/layers.py): every
            # computation is one Session.run, so nothing ever merges.
            "batch": {"computed": self.computations, "merged": 0},
        }
        store = self.session.run_store
        if store is not None:
            payload["store"] = {
                attr: getattr(store, attr)
                for attr in store._COUNTER_ATTRS
            }
        return payload

    def _count(self, name: str) -> None:
        """Count one event on its plain int and as ``serve.<name>``.

        The metric goes to the session telemetry's registry directly:
        the event-loop thread never activates a telemetry.
        """
        setattr(self, name, getattr(self, name) + 1)
        self.session.telemetry.metrics.inc(f"serve.{name}")

    # -- connection handling -------------------------------------------

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection: requests until close or stream end."""
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while not self._draining:
                self._idle[handler] = writer
                try:
                    request = await read_request(reader)
                finally:
                    del self._idle[handler]
                if request is None:
                    break
                self._count("requests")
                with self.session.telemetry.span(
                        "serve.request", method=request.method,
                        path=request.path):
                    keep = await self._dispatch(request, writer)
                if not keep or not request.keep_alive():
                    break
        except ProtocolError as exc:
            try:
                await write_json(writer, exc.status,
                                 {"error": str(exc)})
            except (ConnectionError, OSError):
                self._count("disconnects")
        except (ConnectionError, OSError):
            self._count("disconnects")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                self._handlers.discard(handler)

    async def _dispatch(self, request: HttpRequest,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; True when the connection may persist."""
        if request.path == "/health":
            if request.method != "GET":
                return await self._method_not_allowed(writer)
            status = "draining" if self._draining else "ok"
            await write_json(writer, 200, {"status": status,
                                           "active": self._active})
            return True
        if request.path == "/stats":
            if request.method != "GET":
                return await self._method_not_allowed(writer)
            await write_json(writer, 200, self.stats())
            return True
        if request.path == "/metrics":
            if request.method != "GET":
                return await self._method_not_allowed(writer)
            metrics = self.session.telemetry.metrics
            if metrics.enabled:
                payload: Dict[str, Any] = {"enabled": True,
                                           **metrics.snapshot()}
            else:
                payload = {"enabled": False}
            await write_json(writer, 200, payload)
            return True
        if request.path == "/run":
            if request.method != "POST":
                return await self._method_not_allowed(writer)
            return await self._run_route(request, writer)
        await write_json(writer, 404,
                         {"error": f"no such route: {request.path}"})
        return True

    async def _method_not_allowed(self,
                                  writer: asyncio.StreamWriter) -> bool:
        """Answer 405 (the route exists, the verb is wrong)."""
        await write_json(writer, 405, {"error": "method not allowed"})
        return True

    # -- /run ----------------------------------------------------------

    async def _run_route(self, request: HttpRequest,
                         writer: asyncio.StreamWriter) -> bool:
        """Admission control + error envelope around :meth:`_execute`.

        Failed computations are answered inside :meth:`_execute`; a
        spec the parser rejects is answered 400 and counted in
        ``errors`` like them.  What reaches the socket-error handler
        here is a client that went away while its request was read or
        its reply written.  Any other exception is answered by the last
        clause, and the connection closes.
        """
        if self._draining:
            self._count("shed")
            await write_json(writer, 503, {"error": "server draining"})
            return False
        if self._active >= self.max_queue:
            self._count("shed")
            await write_json(
                writer, 503,
                {"error": f"overloaded ({self._active} in flight)"})
            return True
        self._active += 1
        try:
            return await self._execute(request, writer)
        except ProtocolError as exc:
            await write_json(writer, exc.status, {"error": str(exc)})
            return True
        except SpecError as exc:
            status, message = self._failure(exc)
            await write_json(writer, status, {"error": message})
            return True
        except asyncio.TimeoutError:
            self._count("timeouts")
            await write_json(
                writer, 504,
                {"error": "request deadline exceeded (the computation "
                          "continues and will warm the store)"})
            return True
        except (ConnectionError, OSError):
            self._count("disconnects")
            return False
        except Exception as exc:  # noqa: BLE001 -- service boundary
            logger.warning("request failed", exc_info=exc)
            status, message = self._failure(exc)
            await write_json(writer, status, {"error": message})
            return False
        finally:
            self._active -= 1

    def _failure(self, exc: BaseException) -> Tuple[int, str]:
        """Count one failed request; its HTTP status and message."""
        self._count("errors")
        if isinstance(exc, SpecError):
            return 400, str(exc)
        return 500, f"{type(exc).__name__}: {exc}"

    async def _execute(self, request: HttpRequest,
                       writer: asyncio.StreamWriter) -> bool:
        """Parse, then answer plain or streamed from :meth:`_result`."""
        spec = ExperimentSpec.coerce(request.json())
        if request.flag("stream"):
            return await self._stream(spec, writer)
        try:
            result = await self._result(spec, self.request_timeout)
        except asyncio.TimeoutError:
            raise
        except Exception as exc:  # noqa: BLE001 -- service boundary
            status, message = self._failure(exc)
            await write_json(writer, status, {"error": message})
            return status < 500
        await write_json(writer, 200, {
            "cached": result.cached,
            "result": result.to_dict(include_telemetry=False)})
        return True

    async def _result(
        self,
        spec: ExperimentSpec,
        timeout: Optional[float],
        on_point: Optional[Callable[[Any], None]] = None,
    ) -> RunResult:
        """Warm from the store, else one coalesced :meth:`Session.run`.

        The store answers off-loop before any queueing.  A miss joins
        (or leads) the in-flight computation for the spec's run key;
        ``on_point`` reaches ``Session.run`` only when this request
        leads.  ``timeout`` bounds the wait, never the computation.
        A leader counts in :attr:`computations` unless its
        ``Session.run`` answered from the store.
        """
        loop = asyncio.get_running_loop()
        cached = await loop.run_in_executor(
            self.executor, self.session.lookup, spec)
        if cached is not None:
            self._count("store_hits")
            return cached
        key = await loop.run_in_executor(
            self.executor, Session.run_key, spec)

        async def compute() -> RunResult:
            try:
                result = await loop.run_in_executor(
                    self.executor,
                    functools.partial(self.session.run, spec,
                                      on_point=on_point))
            except Exception as exc:
                self.computations += 1
                if not isinstance(exc, SpecError):
                    # Logged once here, not once per coalesced waiter.
                    logger.warning("computation failed", exc_info=exc)
                raise
            # A cached result means the store filled (an identical
            # leader finished) after this request's pre-check.
            if not result.cached:
                self.computations += 1
            return result

        # Admission: no await between the membership test and the
        # table call, so the metric names the role the table assigns.
        role = "followers" if key in self.inflight else "leaders"
        waiter = self.inflight.run(key, compute)
        self.session.telemetry.metrics.inc(f"serve.dedup_{role}")
        return await asyncio.wait_for(waiter, timeout)

    async def _stream(self, spec: ExperimentSpec,
                      writer: asyncio.StreamWriter) -> bool:
        """Chunked NDJSON: point partials, then a result or error line.

        Points reach this coroutine from the executor thread through
        ``call_soon_threadsafe``, so every one is queued before the
        computation's completion is, and the end marker queued when
        this request's wait finishes comes after them all.
        """
        loop = asyncio.get_running_loop()
        events: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()

        def on_point(point) -> None:
            event = {"event": "point", "workload": point.workload,
                     **_point_dict(point)}
            loop.call_soon_threadsafe(events.put_nowait, event)

        def finished(task: "asyncio.Task") -> None:
            if not task.cancelled():
                task.exception()  # observed here; re-raised below
            events.put_nowait(None)

        self._count("streams")
        waiter = loop.create_task(self._result(spec, None, on_point))
        waiter.add_done_callback(finished)
        try:
            ndjson = NdjsonStream(writer)
            await ndjson.start()
            while True:
                event = await events.get()
                if event is None:
                    break
                await ndjson.send(event)
            try:
                result = waiter.result()
            except Exception as exc:  # noqa: BLE001 -- service boundary
                status, message = self._failure(exc)
                await ndjson.send({"event": "error", "status": status,
                                   "error": message})
            else:
                await ndjson.send({
                    "event": "result", "cached": result.cached,
                    "result": result.to_dict(include_telemetry=False)})
            await ndjson.close()
            return False
        finally:
            waiter.cancel()


class ServerThread:
    """An :class:`ExperimentServer` on a background thread's event loop.

    For tests, benchmarks and notebook use: enter the context manager,
    talk to ``127.0.0.1:<thread.port>``, leave to drain and join.

    Examples
    --------
    >>> with ServerThread(session, port=0) as server:    # doctest: +SKIP
    ...     reply = request_run("127.0.0.1", server.port, spec)
    """

    def __init__(self, session: Session, host: str = "127.0.0.1",
                 port: int = 0, **kwargs: Any) -> None:
        import threading

        self.server = ExperimentServer(session, host, port, **kwargs)
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve-loop",
                                        daemon=True)

    @property
    def port(self) -> int:
        """The bound port (valid once the context manager has entered)."""
        return self.server.port

    def _main(self) -> None:
        """Thread body: run the server's loop until drained."""
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 -- reported to owner
            self._failure = exc
        finally:
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise RuntimeError("server failed to start") \
                from self._failure
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 30s")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Request a drain and join the loop thread.

        The shutdown event lives on the server's loop, so the request
        hops through ``call_soon_threadsafe`` (events are not
        thread-safe to set directly).
        """
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.shutdown)
        self._thread.join(timeout=timeout)

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
