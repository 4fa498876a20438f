"""Batched, parallel design-space sweep engine.

The paper's headline economics -- one micro-architecture independent
profile, re-evaluated across thousands of machine configurations in
seconds -- only materialize if the (profiles x configs) cross product is
evaluated efficiently.  :class:`SweepEngine` provides that evaluation
layer on top of :class:`~repro.core.model.AnalyticalModel`:

* **Batching + parallelism**: the grid is partitioned into
  ``(profile, config-chunk)`` batches run by the shared grid runner
  (:func:`~repro.api.pool.iter_grid`): in-process when ``workers <= 1``,
  otherwise on a :class:`~repro.api.pool.WorkerPool`, finishing
  in-process if the pool gives up or cannot start.
* **Caching**: each profile builds its StatStack models once and keeps
  them, and a per-run :class:`~repro.core.interval.ModelCache` memoizes
  branch-resolution, virtual-stream, dispatch-limit and miss-ratio
  intermediates across configurations that share the relevant fields.
* **Streaming**: :meth:`SweepEngine.iter_sweep` yields
  :class:`~repro.explore.dse.DesignPoint` results incrementally in
  deterministic grid order, so Pareto / DVFS consumers can run on
  partial results while the sweep is still in flight.
* **Columnar worker payloads**: everything shipped to worker processes
  is array- or statistics-shaped, never per-instruction object lists.
  Profiles are pure aggregated statistics, and
  :class:`~repro.workloads.trace.Trace` pickles as its columnar
  (structure-of-arrays) view -- see
  :class:`~repro.workloads.columns.TraceColumns` -- so the simulation
  sweeps that mirror this engine (``explore.validate``) serialize
  traces two orders of magnitude faster than object lists.

Results are bitwise identical at any worker count and with a plain
``predict`` loop: the caches memoize pure computations on exhaustive
dependency keys, and batches are streamed back in submission order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.interval import ModelCache
from repro.core.machine import MachineConfig
from repro.core.model import AnalyticalModel, ModelResult
from repro.profiler.profile import ApplicationProfile

__all__ = ["SweepEngine"]


def _sweep_batch(state, task: Tuple[int, int, int]) -> List[ModelResult]:
    """Evaluate one ``(profile, config-chunk)`` task of a sweep grid.

    ``state`` is ``(model, profiles, configs)``.  In-process the model
    carries the sweep's cache; a model shipped to a worker arrives with
    an empty cache of its own (a :class:`~repro.core.interval.ModelCache`
    pickles empty), which the worker keeps warm for the rest of the
    sweep.  The cache counts its hits and misses into the active
    metrics registry as they happen -- in a worker, the task's
    registry, which rides back to the parent piggybacked on the
    batch's result.
    """
    model, profiles, configs = state
    profile_index, start, stop = task
    return model.predict_batch(profiles[profile_index],
                               configs[start:stop])


class SweepEngine:
    """Evaluates (profiles x configs) grids in batches, optionally parallel.

    Parameters
    ----------
    model:
        The analytical model to evaluate; a default-configured
        :class:`~repro.core.model.AnalyticalModel` when omitted.  If the
        model has no :class:`~repro.core.interval.ModelCache` attached,
        the engine attaches a fresh one for the duration of each sweep
        and detaches it afterwards (results are unchanged; only
        faster).  Attach your own cache to the model to keep memoized
        state across sweeps instead.
    workers:
        Number of worker processes (default 1).  ``None`` uses
        ``os.cpu_count()``; values ``<= 1`` evaluate in-process.
        Results are bitwise identical, in the same order, at any worker
        count.
    batch_size:
        Configurations per worker task.  Defaults to roughly a quarter
        of the per-worker share, so the pool stays busy without
        oversized pickling.
    pool:
        Optional externally-owned :class:`~repro.api.pool.WorkerPool`.
        When given, parallel sweeps run on that persistent pool
        (shared with other stages of a
        :class:`~repro.api.session.Session`) instead of a transient
        one per sweep; results are bitwise identical.  The pool is
        never closed by the engine.

    Examples
    --------
    >>> engine = SweepEngine(workers=4)                  # doctest: +SKIP
    >>> results = engine.sweep(profiles, design_space()) # doctest: +SKIP
    >>> for point in engine.iter_sweep(profiles, configs):  # streaming
    ...     update_pareto(point)                         # doctest: +SKIP
    """

    def __init__(
        self,
        model: Optional[AnalyticalModel] = None,
        workers: Optional[int] = 1,
        batch_size: Optional[int] = None,
        pool=None,
    ) -> None:
        self.model = model if model is not None else AnalyticalModel()
        self.workers = workers
        self.batch_size = batch_size
        self.pool = pool

    # ------------------------------------------------------------------

    def prepare(self, profiles: Sequence[ApplicationProfile]) -> None:
        """Build each profile's StatStack models before the sweep.

        Each profile caches its own models, so a profile already
        prepared (by this engine or any other caller) costs nothing,
        and workers inherit the models pre-built.
        """
        with obs.span("engine.prepare", profiles=len(profiles)):
            for profile in profiles:
                profile.statstack()
                profile.instruction_statstack()

    # ------------------------------------------------------------------

    def iter_sweep(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
    ) -> Iterator["DesignPoint"]:
        """Stream design points in deterministic grid order.

        Points are yielded profile-major (all configs of the first
        profile, then the second, ...), identically at any worker
        count, so downstream consumers can fold partial results while
        later batches are still being evaluated.

        Yields
        ------
        DesignPoint
            One evaluated (workload, configuration) pair at a time.
        """
        from repro.api.pool import grid_tasks, iter_grid, resolve_workers
        from repro.explore.dse import DesignPoint

        profiles = list(profiles)
        configs = list(configs)
        workers = resolve_workers(self.workers)
        with obs.span(
            "engine.sweep",
            profiles=len(profiles),
            configs=len(configs),
            workers=workers,
        ):
            self.prepare(profiles)
            # Per-run cache unless the caller attached their own: the
            # caller's model is left exactly as it was handed to us.
            attached = self.model.cache is None
            if attached:
                self.model.cache = ModelCache()
            tasks = grid_tasks(len(profiles), len(configs), workers,
                               self.batch_size)
            batches = iter_grid(_sweep_batch,
                                (self.model, profiles, configs),
                                tasks, workers, self.pool)
            metrics = obs.metrics()
            try:
                for (profile_index, start, _), results in zip(tasks,
                                                              batches):
                    metrics.inc("engine.batches")
                    metrics.inc("engine.points", len(results))
                    name = profiles[profile_index].name
                    for offset, result in enumerate(results):
                        yield DesignPoint(
                            workload=name,
                            config=configs[start + offset],
                            result=result,
                        )
            finally:
                batches.close()
                if attached:
                    self.model.cache = None

    def sweep(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
    ) -> Dict[str, List["DesignPoint"]]:
        """Evaluate the full grid and group points per workload.

        Returns
        -------
        dict of str to list of DesignPoint
            ``{workload name: [point per config, in config order]}``.
        """
        results: Dict[str, List["DesignPoint"]] = {}
        for point in self.iter_sweep(profiles, configs):
            results.setdefault(point.workload, []).append(point)
        return results
