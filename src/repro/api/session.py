"""The long-lived programmatic front door: ``Session.run(spec)``.

The paper's value is a *pipeline* -- profile once, then drive model
prediction, design-space filtering and simulator validation off the
same profile.  :class:`Session` owns the resources every stage of that
pipeline shares:

* one persistent :class:`~repro.api.pool.WorkerPool` reused by the
  model-side :class:`~repro.explore.engine.SweepEngine` and the
  simulator-side :class:`~repro.explore.validate.SimulationSweep`
  (instead of a transient pool per sweep);
* one :class:`~repro.core.interval.ModelCache` per analytical-model
  variant, kept warm across experiments;
* an optional :class:`~repro.profiler.serialization.ProfileStore`
  (on-disk profile archive that ``profile`` experiments write into)
  and :class:`~repro.api.runstore.RunStore` (on-disk run results,
  keyed by spec fingerprint);
* a lazily-profiled workload registry: experiments that name suite
  workloads instead of profile files trigger trace generation and
  profiling at most once per distinct profiling-parameter set.

Experiments are described declaratively by
:class:`~repro.api.spec.ExperimentSpec` and executed by
:meth:`Session.run`, which returns a unified, JSON-round-trippable
:class:`~repro.api.results.RunResult`.  Every result is bitwise
identical to the corresponding CLI subcommand's output -- the CLI is a
thin adapter over this class.

Examples
--------
>>> from repro.api import ExperimentSpec, Session     # doctest: +SKIP
>>> with Session(workers=4, run_store=".runs") as session:
...     sweep = session.run(ExperimentSpec(
...         "sweep", workloads=["gcc"], limit=32))    # doctest: +SKIP
...     report = session.run(ExperimentSpec(
...         "validate", workloads=["gcc"], limit=8))  # doctest: +SKIP
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import threading
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Union)

from repro import obs
from repro.api.pool import WorkerPool
from repro.api.results import RunResult
from repro.api.runstore import RunStore
from repro.api.spec import ExperimentSpec, SpecError
from repro.core.interval import ModelCache
from repro.core.model import AnalyticalModel
from repro.core.machine import MachineConfig, nehalem
from repro.explore.engine import SweepEngine
from repro.faults import inject
from repro.faults.policy import RetryPolicy
from repro.profiler.serialization import ProfileStore

__all__ = ["Session", "config_from_overrides"]

logger = logging.getLogger(__name__)

#: Kinds whose results the :class:`RunStore` may serve from disk.
#: ``profile`` runs always execute: their product is the profile file /
#: :class:`ProfileStore` entry itself (already content-addressed), not
#: the summary payload.
_CACHEABLE_KINDS = frozenset(
    {"predict", "sweep", "search", "validate", "dvfs"}
)


def config_from_overrides(
    width: Optional[int] = None,
    rob: Optional[int] = None,
    llc_mb: Optional[int] = None,
    frequency: Optional[float] = None,
    prefetch: bool = False,
) -> MachineConfig:
    """The Nehalem-like reference core with spec/CLI-style overrides.

    Mirrors the CLI's ``--width/--rob/--llc-mb/--frequency/--prefetch``
    flags bit-for-bit (same replacement order, hence same derived
    config names).

    Returns
    -------
    MachineConfig
        The overridden configuration.
    """
    from dataclasses import replace

    from repro.caches.cache import CacheConfig

    config = nehalem()
    if width is not None:
        config = replace(config, dispatch_width=width)
    if rob is not None:
        config = replace(config, rob_size=rob)
    if llc_mb is not None:
        config = replace(
            config, llc=CacheConfig(llc_mb << 20, 16, 64, latency=30)
        )
    if frequency is not None:
        config = config.with_frequency(frequency)
    if prefetch:
        config = replace(config, prefetch=True)
    return config


def _point_dict(point) -> Dict[str, float]:
    """JSON-friendly metrics of one :class:`DesignPoint`."""
    return {
        "config": point.config.name,
        "cpi": point.cpi,
        "seconds": point.seconds,
        "power_watts": point.power_watts,
        "energy_joules": point.energy_joules,
        "edp": point.edp,
        "ed2p": point.ed2p,
    }


class Session:
    """Shared-resource owner and executor for declarative experiments.

    Parameters
    ----------
    workers:
        Worker processes shared by every parallel stage (model sweeps
        and simulation sweeps).  ``1`` (the default) runs everything
        serially and never creates a pool; ``None`` uses
        ``os.cpu_count()``.  Results are bitwise identical at any
        worker count.
    profile_store:
        Optional :class:`ProfileStore` (or its directory path): the
        archive that ``profile`` experiments without a ``store`` of
        their own write their profiles into, content-hashed.
    run_store:
        Optional :class:`RunStore` (or its directory path): results of
        deterministic experiment kinds are cached by spec fingerprint
        and served from disk on re-run (:attr:`RunResult.cached` is
        then ``True``).
    model:
        Optional base :class:`AnalyticalModel`; a default-configured
        one is built when omitted.  A :class:`ModelCache` is attached
        (if absent) and kept warm for the session's lifetime.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` to record
        into.  Defaults to whatever is active (:func:`repro.obs.current`)
        when the session is constructed -- the CLI activates one for
        ``--trace`` / ``--metrics`` and every session built underneath
        inherits it.  The session re-activates its telemetry around
        every :meth:`run`, wraps each run in spans, and attaches a
        ``telemetry`` block to the result.  Telemetry never changes
        results, fingerprints, or run-store bytes.
    retry:
        Optional :class:`~repro.faults.policy.RetryPolicy` for the
        shared :class:`WorkerPool`'s task supervision (per-task
        timeout, bounded retries, backoff).  The default policy
        retries transient failures but never times tasks out; the CLI
        maps ``--task-timeout`` / ``--task-retries`` here.  Because
        every task is a pure function, supervision never changes
        results -- a degraded campaign (pool gave up, the remaining
        batches ran in-process) still streams bitwise-identical points.

    Construction also refreshes the fault-injection plan from the
    ``REPRO_FAULTS`` environment (:func:`repro.faults.inject.refresh`),
    so chaos-mode processes pick their plan up at the same boundary
    that creates the pool the plan will exercise.

    Examples
    --------
    >>> with Session(workers=2) as session:            # doctest: +SKIP
    ...     result = session.run({"kind": "predict",
    ...                           "params": {"workload": "gcc"}})
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        profile_store: Union[ProfileStore, str, None] = None,
        run_store: Union[RunStore, str, None] = None,
        model: Optional[AnalyticalModel] = None,
        telemetry: "obs.Telemetry | None" = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if isinstance(profile_store, str):
            profile_store = ProfileStore(profile_store)
        if isinstance(run_store, str):
            run_store = RunStore(run_store)
        inject.refresh()
        self.workers = workers
        self.profile_store = profile_store
        self.run_store = run_store
        self.telemetry = (telemetry if telemetry is not None
                          else obs.current())
        #: Serializes every run on this session.  The shared
        #: :class:`WorkerPool` streams one supervised dispatch at a
        #: time, so "thread-safe" for a session means "one experiment
        #: at a time": ``repro serve`` calls :meth:`run` from a
        #: thread-pool executor and this reentrant lock makes those
        #: calls queue instead of corrupting pool/telemetry state.
        self.lock = threading.RLock()
        #: ``(spec, exception)`` pairs collected by
        #: :meth:`run_many` when ``keep_going`` is set.
        self.failures: List[tuple] = []

        base = model if model is not None else AnalyticalModel()
        if base.cache is None:
            base.cache = ModelCache()
        #: Analytical-model variants by MLP estimator; each keeps its
        #: own :class:`ModelCache` (caches must not be shared across
        #: variants -- their predictions differ).
        self._models: Dict[str, AnalyticalModel] = {
            base.interval.mlp_model: base
        }
        self.model = base
        self.pool = WorkerPool(workers, retry=retry)
        self.engine = SweepEngine(
            model=base,
            workers=workers,
            pool=self.pool,
        )
        # Lazily-profiled workload registry: traces by
        # (name, instructions, trace_seed); profiles by the full
        # profiling-parameter key; profile files by content hash.
        self._traces: Dict[tuple, Any] = {}
        self._profiles: Dict[tuple, Any] = {}
        self._file_profiles: Dict[str, Any] = {}

    # -- shared resources ----------------------------------------------

    def _model_for(self, mlp_model: str) -> AnalyticalModel:
        """The session's model variant for one MLP estimator."""
        if mlp_model not in self._models:
            self._models[mlp_model] = AnalyticalModel(
                mlp_model=mlp_model, cache=ModelCache()
            )
        return self._models[mlp_model]

    def trace(self, name: str, instructions: int, trace_seed: int):
        """The (cached) synthetic trace of one suite workload."""
        from repro.workloads import generate_trace, make_workload

        key = (name, instructions, trace_seed)
        if key not in self._traces:
            with obs.span("workloads.trace", workload=name):
                self._traces[key] = generate_trace(
                    make_workload(name, seed=trace_seed),
                    max_instructions=instructions,
                )
        return self._traces[key]

    def profile_workload(
        self,
        name: str,
        instructions: int = 50_000,
        micro_trace: int = 1000,
        window: int = 5000,
        trace_seed: int = 42,
        reuse_sample_rate: float = 1.0,
        reuse_seed: int = 0,
    ):
        """Profile one suite workload through the session registry.

        The trace is generated and profiled at most once per distinct
        parameter set for the session's lifetime; later experiments
        naming the same workload with the same parameters reuse the
        in-memory profile (and its StatStack models, once built).

        Returns
        -------
        ApplicationProfile
            The (possibly cached) profile.
        """
        from repro.profiler import SamplingConfig, profile_application

        key = (name, instructions, micro_trace, window, trace_seed,
               reuse_sample_rate, reuse_seed)
        if key not in self._profiles:
            obs.metrics().inc("workload_registry.misses")
            trace = self.trace(name, instructions, trace_seed)
            sampling = SamplingConfig(
                micro_trace,
                window,
                reuse_sample_rate=reuse_sample_rate,
                reuse_seed=reuse_seed,
            )
            with obs.span("workloads.profile", workload=name):
                self._profiles[key] = profile_application(trace, sampling)
        else:
            obs.metrics().inc("workload_registry.hits")
        return self._profiles[key]

    def load_profile(self, path: str):
        """Load a profile file (cached by content for the session).

        The cache key is the SHA-256 of the file's bytes and the
        profile is parsed from those same bytes, so an overwritten
        file is read afresh while an unchanged one keeps its object --
        and with it its StatStack models and warm model-cache entries.
        """
        from repro.profiler.serialization import profile_from_dict

        with open(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._file_profiles:
            self._file_profiles[digest] = profile_from_dict(
                json.loads(data))
        return self._file_profiles[digest]

    def _registry_profiles(self, params: Mapping[str, Any],
                           names: Sequence[str]) -> List[Any]:
        """Profiles for suite workload names, via the registry."""
        return [
            self.profile_workload(
                name,
                instructions=params["instructions"],
                micro_trace=params["micro_trace"],
                window=params["window"],
                trace_seed=params["trace_seed"],
                reuse_sample_rate=params["reuse_sample_rate"],
                reuse_seed=params["reuse_seed"],
            )
            for name in names
        ]

    def _gather_profiles(self, params: Mapping[str, Any]) -> List[Any]:
        """Profiles for a sweep/search spec: files first, then names."""
        profiles = [
            self.load_profile(path)
            for path in (params["profiles"] or [])
        ]
        profiles.extend(
            self._registry_profiles(params, params["workloads"] or [])
        )
        return profiles

    def _single_profile(self, params: Mapping[str, Any]):
        """The one profile of a predict/dvfs spec (file or registry)."""
        if params["profile"] is not None:
            return self.load_profile(params["profile"])
        return self._registry_profiles(params, [params["workload"]])[0]

    @staticmethod
    def _space(params: Mapping[str, Any]):
        """The declarative space of a spec (file or Table 6.3 grid)."""
        from repro.explore.space import DesignSpace

        if params["space"]:
            return DesignSpace.load(params["space"])
        return DesignSpace.default()

    # -- execution ------------------------------------------------------

    @staticmethod
    def run_key(spec: ExperimentSpec) -> str:
        """The run-store key of a spec: its fingerprint, made
        content-aware for specs that reference files.

        Specs naming on-disk inputs (``profile``/``profiles`` files, a
        ``space`` JSON) fold a content hash of each referenced file
        into the key, so editing a referenced file invalidates cached
        runs instead of serving results computed from the old bytes.
        Specs that only name suite workloads key on the spec
        fingerprint alone.
        """
        from repro.profiler.serialization import canonical_fingerprint

        params = spec.params
        paths = [params[name] for name in ("profile", "space")
                 if params.get(name)]
        paths.extend(params.get("profiles") or [])
        if not paths:
            return spec.fingerprint
        files: Dict[str, Optional[str]] = {}
        for path in sorted(set(paths)):
            try:
                with open(path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
            except OSError:
                # Missing file: execution will raise naturally; the
                # key stays stable so nothing stale is served.
                digest = None
            files[path] = digest
        return canonical_fingerprint(
            {"spec": spec.fingerprint, "files": files}
        )

    def run(
        self,
        spec: Union[ExperimentSpec, Mapping[str, Any]],
        on_point: Optional[Callable[[Any], None]] = None,
    ) -> RunResult:
        """Execute one experiment (or serve it from the run store).

        Parameters
        ----------
        spec:
            An :class:`ExperimentSpec` or a plain ``{"kind": ...,
            "params": {...}}`` mapping.
        on_point:
            Optional callback for a ``sweep`` that computes: called once
            per :class:`~repro.explore.dse.DesignPoint`, in engine order,
            as the engine yields it (on the calling thread, under
            :attr:`lock`).  Never called on a store hit or for other
            kinds.  ``repro serve`` streams NDJSON partials through it.

        Returns
        -------
        RunResult
            The unified artifact; :attr:`RunResult.cached` is ``True``
            when it came from the :class:`RunStore`.

        Safe to call from multiple threads: runs serialize on
        :attr:`lock` (the shared pool handles one dispatch at a time).
        """
        spec = ExperimentSpec.coerce(spec)
        telemetry = self.telemetry
        with self.lock, obs.activate(telemetry):
            start_events = len(telemetry.tracer.events)
            baseline = (telemetry.metrics.snapshot()
                        if telemetry.metrics.enabled else None)
            with telemetry.span("session.run", kind=spec.kind):
                result = self._execute(spec, on_point)
            self._attach_telemetry(result, start_events, baseline)
        return result

    def lookup(
        self, spec: Union[ExperimentSpec, Mapping[str, Any]]
    ) -> Optional[RunResult]:
        """The run store's result for ``spec`` without computing.

        ``None`` when no store is attached, the kind is not cacheable,
        or the store misses.  A hit is marked ``cached`` exactly like
        the :meth:`run` warm path -- the service layer answers warm
        requests through here before it queues a computation.
        """
        spec = ExperimentSpec.coerce(spec)
        if self.run_store is None or spec.kind not in _CACHEABLE_KINDS:
            return None
        key = self.run_key(spec)
        with self.lock, obs.activate(self.telemetry):
            with obs.span("run_store.lookup", kind=spec.kind):
                cached = self.run_store.get(spec, key=key)
        if cached is not None:
            cached.cached = True
        return cached

    def _execute(
        self,
        spec: ExperimentSpec,
        on_point: Optional[Callable[[Any], None]] = None,
    ) -> RunResult:
        """Serve one coerced spec from the run store or compute it."""
        cacheable = (self.run_store is not None
                     and spec.kind in _CACHEABLE_KINDS)
        if cacheable:
            key = self.run_key(spec)
            with obs.span("run_store.lookup", kind=spec.kind):
                cached = self.run_store.get(spec, key=key)
            if cached is not None:
                cached.cached = True
                return cached
        runner = getattr(self, f"_run_{spec.kind}")
        if spec.kind == "sweep":
            runner = functools.partial(runner, on_point=on_point)
        with obs.span(f"run.{spec.kind}"):
            result = RunResult(spec=spec, data=runner(spec.params))
        if cacheable:
            with obs.span("run_store.put", kind=spec.kind):
                self.run_store.put(result, key=key)
        return result

    def _attach_telemetry(
        self,
        result: RunResult,
        start_events: int,
        baseline: Optional[Dict[str, Any]],
    ) -> None:
        """Attach this run's telemetry block to its result.

        The block covers *this* run only: spans recorded since
        ``start_events`` and the metrics delta against ``baseline``
        (the registry snapshot taken as the run began).  Nothing is
        attached while telemetry is disabled.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        block: Dict[str, Any] = {}
        if telemetry.tracer.enabled:
            events = list(telemetry.tracer.events)[start_events:]
            block["spans"] = obs.span_stats(events)
        if telemetry.metrics.enabled:
            block["metrics"] = telemetry.metrics.diff(baseline)
        result.telemetry = block

    def run_many(
        self,
        specs: Sequence[Union[ExperimentSpec, Mapping[str, Any]]],
        keep_going: bool = False,
    ) -> List[Optional[RunResult]]:
        """Execute a campaign of specs on this session's warm resources.

        Runs sequentially in order (stages often feed each other's
        caches); with a :class:`RunStore` attached, already-computed
        specs are skipped and served from disk.  That store is also the
        campaign checkpoint: a campaign that died mid-way re-runs with
        the same specs and resumes where it stopped, because every
        completed cacheable run was persisted (atomically) as it
        finished.

        Parameters
        ----------
        specs:
            The experiment specs, run in order.
        keep_going:
            With the default ``False``, the first failing spec raises
            and aborts the campaign (completed runs stay in the run
            store).  With ``True``, a failing spec is recorded in
            :attr:`failures` as ``(spec, exception)``, counted as
            ``session.spec_failures``, its slot in the returned list is
            ``None``, and the campaign continues.

        Returns
        -------
        list of RunResult or None
            One entry per spec, in order (``None`` only for specs that
            failed under ``keep_going``).
        """
        results: List[Optional[RunResult]] = []
        for spec in specs:
            if not keep_going:
                results.append(self.run(spec))
                continue
            try:
                results.append(self.run(spec))
            except Exception as exc:  # noqa: BLE001 -- campaign boundary
                self.failures.append((spec, exc))
                with obs.activate(self.telemetry):
                    obs.metrics().inc("session.spec_failures")
                logger.warning(
                    "spec failed (%s: %s); continuing campaign",
                    type(exc).__name__, exc,
                )
                results.append(None)
        return results

    # -- per-kind executors ---------------------------------------------

    def _run_profile(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Profile workloads into files / the store / the registry."""
        from repro.profiler.serialization import save_profile

        store = self.profile_store
        if params["store"]:
            store = ProfileStore(params["store"])
        entries = []
        for name in params["workloads"]:
            # The span is both the telemetry record and the payload's
            # "seconds" field -- one measurement, no way to disagree.
            with obs.span("profile.workload", workload=name) as span:
                profile = self.profile_workload(
                    name,
                    instructions=params["instructions"],
                    micro_trace=params["micro_trace"],
                    window=params["window"],
                    trace_seed=params["seed"],
                    reuse_sample_rate=params["reuse_sample_rate"],
                    reuse_seed=params["reuse_seed"],
                )
                key = store.put(profile) if store is not None else None
                if params["output"]:
                    save_profile(profile, params["output"])
            entries.append({
                "workload": name,
                "instructions": profile.num_instructions,
                "micro_traces": len(profile.micro_traces),
                "fingerprint": key,
                "output": params["output"],
                "seconds": round(span.seconds, 6),
            })
        return {
            "store": params["store"],
            "sampling": {
                "micro_trace_length": params["micro_trace"],
                "window_length": params["window"],
                "reuse_sample_rate": params["reuse_sample_rate"],
                "reuse_seed": params["reuse_seed"],
            },
            "trace_seed": params["seed"],
            "profiles": entries,
        }

    def _run_predict(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Evaluate the analytical model for one (profile, config)."""
        profile = self._single_profile(params)
        config = config_from_overrides(
            width=params["width"],
            rob=params["rob"],
            llc_mb=params["llc_mb"],
            frequency=params["frequency"],
            prefetch=params["prefetch"],
        )
        model = self._model_for(params["mlp_model"])
        result = model.predict(profile, config)
        return {
            "workload": profile.name,
            "config": config.name,
            "cpi": result.cpi,
            "seconds": result.seconds,
            "power_watts": result.power_watts,
            "power_static_watts": result.power.static_total,
            "energy_joules": result.energy_joules,
            "edp": result.edp,
            "ed2p": result.ed2p,
            "cpi_stack": result.cpi_stack(),
        }

    def _run_sweep(
        self,
        params: Mapping[str, Any],
        on_point: Optional[Callable[[Any], None]] = None,
    ) -> Dict[str, Any]:
        """Sweep a design space; per-workload points + Pareto fronts."""
        from repro.explore.dse import best_average_config
        from repro.explore.pareto import StreamingParetoFront
        from repro.explore.search import get_objective

        profiles = self._gather_profiles(params)
        names = [p.name for p in profiles]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise SpecError(
                "duplicate profile name(s): " + ", ".join(duplicates)
                + " (results are keyed by workload name; profiles "
                "would silently merge)"
            )
        space = self._space(params)
        configs = space.configs()
        if params["limit"] is not None:
            configs = configs[:params["limit"]]

        frontiers = {name: StreamingParetoFront() for name in names}
        results: Dict[str, list] = {name: [] for name in names}
        for point in self.engine.iter_sweep(profiles, configs):
            results[point.workload].append(point)
            frontiers[point.workload].add_point(point)
            if on_point is not None:
                on_point(point)

        workloads = [
            {
                "workload": name,
                "points": [_point_dict(p) for p in results[name]],
                "frontier": [
                    _point_dict(point) for _, _, point
                    in frontiers[name].frontier()
                ],
            }
            for name in names
        ]
        best_average = None
        objective = params["objective"]
        if configs:
            if objective:
                ranked = get_objective(objective)
                best_average = {
                    "objective": ranked.name,
                    "config": best_average_config(
                        results, metric=ranked.metric
                    ),
                }
            elif len(names) > 1:
                # Historical default: rank by average CPI.
                best_average = {
                    "objective": None,
                    "config": best_average_config(results),
                }
        return {
            "space": space.name,
            "n_configs": len(configs),
            "workloads": workloads,
            "best_average": best_average,
        }

    def _run_search(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Guided search over a space under an evaluation budget."""
        from repro.explore.search import (
            SearchProblem,
            get_objective,
            make_optimizer,
        )

        kwargs = {}
        if params["population"] is not None:
            kwargs["population"] = params["population"]
        if params["batch_size"] is not None:
            kwargs["batch_size"] = params["batch_size"]
        optimizer = make_optimizer(
            params["optimizer"], seed=params["seed"], **kwargs
        )
        profiles = self._gather_profiles(params)
        space = self._space(params)
        objective = get_objective(
            params["objective"], power_cap_watts=params["power_cap"]
        )
        problem = SearchProblem(
            profiles, space, objective, engine=self.engine
        )
        trajectory = optimizer.search(problem, params["budget"])
        # The canonical best (SearchTrajectory.best owns the tie-break
        # rule) is exported once here; renderers must not re-derive it.
        best = trajectory.best
        return {
            "space": space.name,
            "space_size": space.size(),
            "workloads": [p.name for p in profiles],
            "optimizer": optimizer.name,
            "seed": params["seed"],
            "objective": objective.name,
            "budget": params["budget"],
            "best": {
                "index": best.index,
                "point": dict(best.point),
                "fitness": best.fitness,
                "config": space.config(best.point).name,
            },
            "trajectory": trajectory.as_dict(),
        }

    def _run_validate(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Model-vs-simulator validation campaign (thesis S7.4/S7.5)."""
        from repro.explore.validate import (
            ValidationCampaign,
            ValidationCase,
        )

        space = self._space(params)
        configs = space.configs()
        if params["limit"] is not None:
            configs = configs[:params["limit"]]
        if not configs:
            raise SpecError("empty configuration grid")
        cases = []
        for name in params["workloads"]:
            profile = self.profile_workload(
                name,
                instructions=params["instructions"],
                micro_trace=params["micro_trace"],
                window=params["window"],
                trace_seed=params["trace_seed"],
            )
            trace = self.trace(
                name, params["instructions"], params["trace_seed"]
            )
            cases.append(ValidationCase(profile=profile, trace=trace))
        campaign = ValidationCampaign(
            cases,
            configs,
            engine=self.engine,
            sim_workers=self.workers,
            pool=self.pool,
            train_fraction=params["train_fraction"],
            seed=params["seed"],
            space_name=space.name,
        )
        return campaign.run().as_dict()

    def _run_dvfs(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """DVFS operating-point exploration and the ED2P optimum."""
        from repro.core.machine import DVFSPoint, dvfs_vdd
        from repro.explore.dvfs import (
            best_under_power_cap,
            config_at,
            explore_dvfs,
            optimal_ed2p,
        )

        profile = self._single_profile(params)
        base = config_from_overrides(
            width=params["width"],
            rob=params["rob"],
            llc_mb=params["llc_mb"],
            frequency=params["frequency"],
            prefetch=params["prefetch"],
        )
        points = None
        if params["frequencies"] is not None:
            points = [DVFSPoint(f, dvfs_vdd(f))
                      for f in params["frequencies"]]
        results = explore_dvfs(
            profile, base, points=points, engine=self.engine
        )
        best = optimal_ed2p(results)
        optimum_index = next(
            i for i, r in enumerate(results) if r is best
        )
        power_cap = None
        if params["power_cap"] is not None:
            candidates = [(config_at(base, r.point), r.result)
                          for r in results]
            capped = best_under_power_cap(
                candidates, params["power_cap"]
            )
            power_cap = {"watts": params["power_cap"]}
            if capped is None:
                power_cap["config"] = None
            else:
                config, result = capped
                power_cap.update({
                    "config": config.name,
                    "seconds": result.seconds,
                    "power_watts": result.power_watts,
                })
        return {
            "workload": profile.name,
            "base_config": base.name,
            "points": [
                {
                    "frequency_ghz": r.point.frequency_ghz,
                    "vdd": r.point.vdd,
                    "seconds": r.seconds,
                    "power_watts": r.power_watts,
                    "energy_joules": r.energy_joules,
                    "ed2p": r.ed2p,
                }
                for r in results
            ],
            "optimum_index": optimum_index,
            "power_cap": power_cap,
        }

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (idempotent; caches stay warm)."""
        self.pool.close()

    def __enter__(self) -> "Session":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the worker pool."""
        self.close()
