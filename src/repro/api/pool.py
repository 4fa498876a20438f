"""A persistent, supervised worker pool and the grid runner on top of it.

:class:`WorkerPool` is a lazily-created process pool that a
:class:`~repro.api.session.Session` owns for its whole lifetime and
hands to every stage, so a pipeline that profiles, sweeps, searches
and validates in one process pays pool start-up once and keeps warm
per-worker state.  :func:`iter_grid` is the one execution path of both
sweep engines (:class:`~repro.explore.engine.SweepEngine` and
:class:`~repro.explore.validate.SimulationSweep`): it streams
``func(state, task)`` over the :func:`grid_tasks` partition of a
(rows x configs) grid, in-process or through a pool.

Because a long-lived pool cannot use per-sweep ``initializer`` /
``initargs`` (those are fixed at pool creation), the pool broadcasts
each stage's shared state out of band instead: the state is pickled
once in the parent, small states ride along with every task while
large ones (traces, many profiles) are spilled to one temp file that
each worker reads once, and either way the unpickled state is cached
worker-side under a monotonically increasing token -- each worker
materializes a given stage's state at most once.  Results are bitwise
identical to running the tasks in-process; only where the work runs
(and how state reaches it) changes.

On top of the broadcast protocol sits **task supervision**: each task
is submitted individually and awaited with a per-task timeout, failed
attempts are retried under a :class:`~repro.faults.policy.RetryPolicy`
(bounded attempts, exponential backoff, deterministic jitter), and a
wedged or crashed worker triggers an automatic pool restart with every
in-flight task resubmitted.  Tasks are pure functions of
``(state, task)``, so a retry re-computes the same value and the result
stream stays bitwise identical to a fault-free run -- supervision
changes *when* work happens, never *what* comes back.  When a stage
exhausts its restart budget the pool marks itself unavailable and
raises :class:`WorkerPoolError` mid-stream; :func:`iter_grid` catches
it and finishes the remaining tasks in-process (see
``docs/robustness.md``).

When telemetry is active in the parent, worker-side metrics piggyback
on the existing result messages: each task runs under a worker-local
registry and :func:`_dispatch` returns ``(result, delta)``, where
``delta`` is the metrics snapshot that task produced.  The parent
merges deltas in submission order as results stream back, so the
aggregate is deterministic for a given task list regardless of which
worker ran what.  No extra IPC channel -- just a slightly fatter
result tuple, and only when metrics are enabled.
"""

from __future__ import annotations

import itertools
import os
import pickle
import shutil
import tempfile
import time
from typing import (Any, Callable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro import obs
from repro.faults import inject
from repro.faults.policy import RetryPolicy

__all__ = ["WorkerPool", "WorkerPoolError", "grid_tasks", "iter_grid",
           "resolve_workers"]


def resolve_workers(workers: Optional[int]) -> int:
    """The worker count a ``workers`` setting runs with.

    ``None`` means one worker per CPU (``os.cpu_count()``); any other
    value is clamped to at least one, so ``0`` and negative counts run
    in-process.
    """
    if workers is None:
        return os.cpu_count() or 1
    return max(1, workers)


class WorkerPoolError(RuntimeError):
    """The pool cannot run tasks (unavailable or out of restarts).

    Raised by :meth:`WorkerPool.imap` when worker processes cannot be
    created on this platform (missing semaphores, sandboxed
    environments, ...), and from *inside* a supervised result stream
    when a stage exhausts its pool-restart budget.  :func:`iter_grid`
    falls back to in-process execution on it -- completed results keep
    streaming, only the remainder moves in-process.
    """


#: Task failures the supervisor retries in place (without restarting
#: the pool): injected transient errors and the OS-level errors a
#: loaded machine produces (pipe resets, interrupted IO).
_TRANSIENT_TASK_ERRORS = (
    inject.InjectedTaskError,
    EOFError,
    OSError,
)


# ----------------------------------------------------------------------
# Worker-process plumbing (module level so it pickles under spawn too)
# ----------------------------------------------------------------------

#: Per-worker cache of the most recent shared state: the token names
#: one ``imap`` call's state, so re-unpickling is skipped for every
#: task after a worker's first task of a stage.
_SHARED_STATE = {"token": None, "value": None}


def _dispatch(task: Tuple[int, Any, Callable, Any, bool, str]) -> Any:
    """Run one wrapped task inside a worker.

    ``task`` is ``(token, payload, func, args, collect, fault_key)``:
    ``payload`` is the pickled shared state of the stage identified by
    ``token`` -- either the raw bytes (small states) or the path of a
    spill file (large states, read once per worker) -- and
    ``func(state, args)`` performs the actual work.

    ``fault_key`` names this (stage, task, attempt) for the
    fault-injection harness, which may raise or sleep here before the
    task body runs (see :func:`repro.faults.inject.task_site`).  The
    environment-driven fault plan is refreshed first, so workers honor
    ``REPRO_FAULTS`` under both fork and spawn start methods.

    With ``collect`` false the bare result is returned.  With
    ``collect`` true the task runs under a worker-local metrics
    registry (no tracing -- span timestamps from another process have
    no shared origin) and the return value is ``(result, delta)``,
    where ``delta`` is that registry's snapshot: the task's metric
    contribution, merged into the parent registry by :meth:`
    WorkerPool.imap` as results stream back.
    """
    token, payload, func, args, collect, fault_key = task
    inject.refresh()
    if _SHARED_STATE["token"] != token:
        blob = payload
        if isinstance(payload, str):
            with open(payload, "rb") as handle:
                blob = handle.read()
        _SHARED_STATE["value"] = pickle.loads(blob)
        _SHARED_STATE["token"] = token
    if not collect:
        inject.task_site(fault_key)
        return func(_SHARED_STATE["value"], args)
    telemetry = obs.Telemetry(trace=False, metrics=True)
    with obs.activate(telemetry):
        inject.task_site(fault_key)
        with obs.span("pool.task") as span:
            result = func(_SHARED_STATE["value"], args)
        telemetry.metrics.inc("pool.tasks")
        telemetry.metrics.observe("pool.task_seconds", span.seconds)
    return result, telemetry.metrics.snapshot()


class WorkerPool:
    """A lazily-created ``multiprocessing.Pool`` reused across stages.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``None`` uses ``os.cpu_count()``;
        values ``<= 1`` mean the pool is never created (callers should
        consult :attr:`parallel` and stay serial).
    retry:
        The :class:`~repro.faults.policy.RetryPolicy` governing task
        supervision (attempts, per-task timeout, backoff).  A default
        policy is built when omitted.
    max_restarts:
        Pool restarts tolerated *per stage* before the stage gives up
        with :class:`WorkerPoolError` and the pool marks itself
        unavailable (see :meth:`revive`).

    Attributes
    ----------
    pools_created:
        How many OS-level pools this object has created -- test
        instrumentation for the "one pool per session" guarantee; a
        multi-stage pipeline sharing one :class:`WorkerPool` reads 1
        here no matter how many sweeps it ran (0 when every stage ran
        serially or process creation is unavailable).  Supervision
        restarts after crashes/timeouts also increment it.
    retries / timeouts / restarts / worker_crashes / give_ups:
        Lifetime supervision accounting as plain ints (always on);
        each event also counts as ``pool.<name>`` in the active
        metrics registry (a no-op while telemetry is off).

    Examples
    --------
    >>> pool = WorkerPool(workers=4)                   # doctest: +SKIP
    >>> for out in pool.imap(func, state, tasks):      # doctest: +SKIP
    ...     consume(out)
    >>> pool.close()                                   # doctest: +SKIP
    """

    #: Stage states whose pickle exceeds this many bytes are spilled
    #: to one temp file and broadcast by path (one disk read per
    #: worker) instead of being attached to every task.
    inline_state_limit = 65536

    def __init__(
        self,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        max_restarts: int = 5,
    ) -> None:
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_restarts = max_restarts
        self.pools_created = 0
        self.retries = 0
        self.timeouts = 0
        self.restarts = 0
        self.worker_crashes = 0
        self.give_ups = 0
        self._pool = None
        self._tokens = itertools.count(1)
        self._unavailable = False
        self._spill_dir: Optional[str] = None
        self._spills: dict = {}

    def _count(self, name: str) -> None:
        """Count one supervision event on its plain int and metric."""
        setattr(self, name, getattr(self, name) + 1)
        obs.metrics().inc(f"pool.{name}")

    def effective_workers(self) -> int:
        """The worker count after resolving the ``None`` default."""
        return resolve_workers(self.workers)

    @property
    def parallel(self) -> bool:
        """Whether this pool would run tasks on worker processes."""
        return self.effective_workers() > 1 and not self._unavailable

    # ------------------------------------------------------------------

    def _ensure(self):
        """The live pool, created on first use (:class:`WorkerPoolError`
        when worker processes cannot be created on this platform)."""
        if self._unavailable:
            raise WorkerPoolError("worker processes unavailable")
        if self._pool is None:
            try:
                import multiprocessing

                self._pool = multiprocessing.Pool(
                    processes=self.effective_workers()
                )
            except (ImportError, OSError, ValueError) as exc:
                self._unavailable = True
                raise WorkerPoolError(str(exc)) from exc
            self.pools_created += 1
        return self._pool

    def _spill(self, token: int, payload: bytes) -> str:
        """Write one stage's state to a spill file; return its path.

        Stages run in token order and overlap at most pairwise (e.g. a
        streaming consumer of one sweep starting the next), so spill
        files older than the previous stage are dead and deleted here;
        each stage's stream additionally removes its own spill when it
        ends or is abandoned, and :meth:`close` removes the whole
        spill directory.
        """
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-pool-")
        path = os.path.join(self._spill_dir, f"state-{token}.pkl")
        with open(path, "wb") as handle:
            handle.write(payload)
        for old in [t for t in self._spills if t < token - 1]:
            try:
                os.remove(self._spills.pop(old))
            except OSError:
                pass
        self._spills[token] = path
        return path

    def _drop_spill(self, token: int) -> None:
        """Remove one stage's spill file (no-op when it never spilled)."""
        path = self._spills.pop(token, None)
        if path is not None:
            try:
                os.remove(path)
            except OSError:
                pass

    def imap(
        self,
        func: Callable[[Any, Any], Any],
        state: Any,
        tasks: Sequence[Any],
    ) -> Iterator[Any]:
        """Stream ``func(state, task)`` results in task order.

        ``state`` is pickled once here and installed lazily in each
        worker (cached under this call's token).  Pickles larger than
        :attr:`inline_state_limit` are spilled to a temp file and
        shipped by path -- one disk read per worker instead of the
        whole state riding the pipe with every task; the spill file is
        removed when the returned stream ends, raises, or is abandoned
        (generator finalization).  ``func`` must be a module-level
        (picklable) callable.

        Each task attempt is bounded by the pool's
        :class:`~repro.faults.policy.RetryPolicy`: timeouts and injected
        worker crashes restart the pool and resubmit the in-flight
        window, transient task errors back off and retry in place, and
        attempts are bounded -- all counted in the supervision counters.
        Results still arrive in task order and are bitwise identical to
        a fault-free run.

        When the active telemetry records metrics, each worker result
        arrives with that task's metric delta piggybacked (see
        :func:`_dispatch`); the deltas are merged into the parent
        registry here, in submission order, before the bare result is
        yielded -- callers never see the wrapping.

        Raises
        ------
        WorkerPoolError
            When the pool cannot be created (raised here, eagerly), or
            out of the stream when a stage exhausts its restart budget;
            :func:`iter_grid` finishes in-process either way.
        """
        pool = self._ensure()
        token = next(self._tokens)
        registry = obs.metrics()
        collect = registry.enabled
        payload: Any = pickle.dumps(
            state, protocol=pickle.HIGHEST_PROTOCOL
        )
        registry.inc("pool.stages")
        registry.inc("pool.tasks_submitted", len(tasks))
        registry.inc("pool.state_bytes", len(payload))
        registry.set_gauge("pool.workers", self.effective_workers())
        if len(payload) > self.inline_state_limit:
            payload = self._spill(token, payload)
            registry.inc("pool.spills")
        return self._stream(
            func, payload, token, list(tasks), collect, registry
        )

    def _stream(self, func: Callable, payload: Any, token: int,
                tasks: list, collect: bool, registry) -> Iterator[Any]:
        """Supervised result stream: timeouts, retries, pool restarts.

        Tasks are submitted individually (``apply_async``) over a
        bounded in-flight window and consumed strictly in task order.
        Per task attempt:

        * ``multiprocessing.TimeoutError`` after ``retry.timeout``
          seconds -- the worker is presumed wedged (or genuinely dead:
          a task lost to a killed worker never completes), so the pool
          is restarted and every in-flight task resubmitted.
        * :class:`~repro.faults.inject.InjectedWorkerCrash` -- treated
          exactly like a real worker death: restart + resubmit, after
          the policy's backoff delay.
        * transient errors (:data:`_TRANSIENT_TASK_ERRORS`) -- retried
          in place after backoff, without restarting the pool.

        Attempts are bounded by ``retry.max_attempts`` and restarts by
        ``max_restarts`` per stage; exhausting either gives the stage
        up with :class:`WorkerPoolError` (transient errors re-raise
        their original exception instead -- a task that fails the same
        way repeatedly is broken, not unlucky, and would fail serially
        too).  The ``finally`` runs on normal exhaustion, on a raising
        task, and on generator finalization when the consumer abandons
        the stream -- the spill file never outlives its stage.
        """
        from multiprocessing import TimeoutError as MPTimeoutError

        policy = self.retry
        n = len(tasks)
        try:
            pending: dict = {}
            attempts = [0] * n

            def submit(index: int) -> None:
                key = f"{token}:{index}:{attempts[index]}"
                wrapped = (token, payload, func, tasks[index], collect,
                           key)
                pending[index] = self._pool.apply_async(
                    _dispatch, (wrapped,)
                )

            def resubmit_pending() -> None:
                for index in sorted(pending):
                    submit(index)

            window = max(2 * self.effective_workers(), 2)
            next_submit = min(window, n)
            for index in range(next_submit):
                submit(index)

            stage_restarts = 0
            for index in range(n):
                while True:
                    handle = pending[index]
                    try:
                        value = handle.get(policy.timeout)
                    except MPTimeoutError:
                        self._count("timeouts")
                        attempts[index] += 1
                        if attempts[index] >= policy.max_attempts:
                            self._fail_stage(
                                f"task {index} timed out "
                                f"{attempts[index]} time(s)"
                            )
                        self._count("retries")
                        stage_restarts = self._recycle(stage_restarts)
                        resubmit_pending()
                        continue
                    except inject.InjectedWorkerCrash:
                        self._count("worker_crashes")
                        attempts[index] += 1
                        if attempts[index] >= policy.max_attempts:
                            self._fail_stage(
                                f"task {index} crashed its worker "
                                f"{attempts[index]} time(s)"
                            )
                        self._count("retries")
                        stage_restarts = self._recycle(stage_restarts)
                        time.sleep(policy.delay(
                            f"{token}:{index}", attempts[index] - 1
                        ))
                        resubmit_pending()
                        continue
                    except _TRANSIENT_TASK_ERRORS:
                        attempts[index] += 1
                        if attempts[index] >= policy.max_attempts:
                            raise
                        self._count("retries")
                        time.sleep(policy.delay(
                            f"{token}:{index}", attempts[index] - 1
                        ))
                        submit(index)
                        continue
                    break
                del pending[index]
                if next_submit < n:
                    submit(next_submit)
                    next_submit += 1
                if collect:
                    result, delta = value
                    registry.merge(delta)
                    yield result
                else:
                    yield value
        finally:
            self._drop_spill(token)

    def _recycle(self, stage_restarts: int) -> int:
        """Restart the pool after a crash/timeout; bound per stage.

        Terminates the (possibly wedged) worker processes and creates
        a fresh pool.  When the stage has already used its
        ``max_restarts`` budget, gives the stage up instead (see
        :meth:`_fail_stage`).
        """
        stage_restarts += 1
        if stage_restarts > self.max_restarts:
            self._fail_stage(
                f"stage exceeded {self.max_restarts} pool restart(s)"
            )
        self._count("restarts")
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._ensure()
        return stage_restarts

    def _fail_stage(self, reason: str) -> None:
        """Give up: mark the pool unavailable and raise mid-stream.

        Later stages then fail eagerly in :meth:`_ensure` and
        :func:`iter_grid` runs them in-process for the rest of the
        campaign (until :meth:`revive`).  Completed results already
        yielded by the stream are unaffected -- nothing is lost, the
        remainder just moves in-process.
        """
        self._count("give_ups")
        self._unavailable = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        raise WorkerPoolError(reason)

    def revive(self) -> None:
        """Clear the unavailable flag set by an exhausted stage.

        The next :meth:`imap` then tries to create a fresh pool again
        -- the opt-back-in after a campaign degraded to in-process.
        """
        self._unavailable = False

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Terminate the worker processes (idempotent).

        The pool object stays usable: the next :meth:`imap` creates a
        fresh OS pool (and increments :attr:`pools_created`).
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._spills = {}

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the pool."""
        self.close()


# ----------------------------------------------------------------------
# The grid runner both sweep engines share
# ----------------------------------------------------------------------


def grid_tasks(
    rows: int,
    columns: int,
    workers: int,
    batch_size: Optional[int] = None,
) -> List[Tuple[int, int, int]]:
    """Partition a ``rows x columns`` grid into ``(row, start, stop)`` tasks.

    Tasks are row-major; each covers ``batch_size`` consecutive columns
    of one row (the last of a row may be shorter).  The default chunk
    is about a quarter of the per-worker share of a row, so a pool
    stays busy without oversized task payloads.
    """
    chunk = batch_size
    if chunk is None:
        chunk = max(1, -(-columns // max(1, workers * 4)))
    return [(row, start, min(start + chunk, columns))
            for row in range(rows)
            for start in range(0, columns, chunk)]


def iter_grid(
    func: Callable[[Any, Any], Any],
    state: Any,
    tasks: Sequence[Any],
    workers: int,
    pool=None,
) -> Iterator[Any]:
    """Stream ``func(state, task)`` for every task, in task order.

    With ``workers <= 1`` every task runs in-process on ``state``
    itself.  Otherwise the tasks go through ``pool.imap`` -- only that
    method is used, so any object with a :meth:`WorkerPool.imap`-shaped
    ``imap`` serves -- or, without ``pool``, through a transient
    :class:`WorkerPool` closed when the stream ends.  A
    :class:`WorkerPoolError` raised before or during the stream moves
    the remaining tasks in-process: results already yielded stay
    yielded and the rest follow in the same order, so the stream is
    bitwise identical however it was produced.  ``func`` must be a
    module-level (picklable) callable.
    """
    done = 0
    if workers > 1 and tasks:
        owned = pool is None
        if owned:
            pool = WorkerPool(min(workers, len(tasks)))
        try:
            for result in pool.imap(func, state, tasks):
                yield result
                done += 1
        except WorkerPoolError:
            pass  # the pool gave up: the rest runs in-process below
        finally:
            if owned:
                pool.close()
    for task in tasks[done:]:
        yield func(state, task)
