"""Model-vs-simulator validation campaigns (thesis §7.4-§7.5).

The paper's headline claim is not that the analytical model is fast --
it is that the fast model *filters the design space as well as detailed
simulation*.  This module closes that accuracy loop: a
:class:`ValidationCampaign` evaluates the analytical model (through the
:class:`~repro.explore.engine.SweepEngine`) and the cycle-level
reference simulator over the *same* (workloads x configurations) grid,
then folds both result streams into a per-workload report:

* per-design seconds / power / CPI error
  (:func:`~repro.explore.dse.error_statistics`);
* per-component CPI-stack error (model stack vs the simulator's
  ``STACK_KEYS``, with the model's ``llc_chain`` component compared
  against the simulator's ``llc`` attribution);
* the four Pareto filtering metrics of §7.4 (sensitivity, specificity,
  accuracy, HVR) scoring the predicted (seconds, power) frontier
  against the simulated one;
* the §7.5 mechanistic-vs-empirical comparison: a ridge-regression
  :class:`~repro.explore.empirical.EmpiricalModel` is trained on a
  seeded subsample of the *simulated* results and both models are
  scored on the held-out remainder.

Simulation is the slow side, so :class:`SimulationSweep` parallelizes
it through the same grid runner as the model-side engine: (workload,
config-chunk) batches on a worker pool, deterministic trace-major yield
order, and in-process execution when the pool is absent or gives up.
Reports are bitwise identical at any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.core.machine import MachineConfig
from repro.core.model import AnalyticalModel
from repro.core.power import PowerBreakdown, power_batch
from repro.explore.dse import DesignPoint, ErrorStats, error_statistics
from repro.explore.empirical import EmpiricalModel
from repro.explore.engine import SweepEngine
from repro.explore.pareto import ParetoMetrics, pareto_metrics
from repro.profiler.profile import ApplicationProfile
from repro.simulator.simulator import (
    STACK_KEYS,
    SimulationResult,
    simulate,
)
from repro.workloads.trace import Trace

__all__ = [
    "SimulatedPoint",
    "SimulationSweep",
    "ValidationCase",
    "BaselineComparison",
    "WorkloadValidation",
    "ValidationReport",
    "ValidationCampaign",
    "report_lines",
    "STACK_COMPONENT_MAP",
]

#: Model CPI-stack component -> simulator ``STACK_KEYS`` component.  The
#: model attributes LLC-hit chaining to ``llc_chain``; the simulator
#: attributes the same stalls to ``llc``.
STACK_COMPONENT_MAP: Dict[str, str] = {"llc_chain": "llc"}


def _simulate_batch(
    state, task: Tuple[int, int, int]
) -> List[SimulationResult]:
    """Simulate one ``(trace, config-chunk)`` task of a simulation grid
    (``state`` is ``(traces, configs)``)."""
    traces, configs = state
    trace_index, start, stop = task
    trace = traces[trace_index]
    return [simulate(trace, config) for config in configs[start:stop]]


@dataclass
class SimulatedPoint:
    """One simulated (workload, configuration) evaluation.

    The cycle-level twin of :class:`~repro.explore.dse.DesignPoint`:
    measured activity is priced by the same power kernel the model
    uses (:func:`~repro.core.power.power_batch`), exactly as the paper
    feeds both through McPAT.

    Attributes
    ----------
    workload:
        Name of the simulated workload.
    config:
        The machine configuration simulated.
    result:
        The full :class:`~repro.simulator.simulator.SimulationResult`.
    power:
        Power evaluated at the *measured* activity factors.
    energy_joules:
        Total energy at the measured activity, in joules.
    """

    workload: str
    config: MachineConfig
    result: SimulationResult
    power: PowerBreakdown
    energy_joules: float

    @property
    def cpi(self) -> float:
        """Measured cycles per instruction."""
        return self.result.cpi

    @property
    def seconds(self) -> float:
        """Measured wall-clock execution time in seconds."""
        return self.result.seconds

    @property
    def power_watts(self) -> float:
        """Average power at the measured activity, in watts."""
        return self.power.total


class SimulationSweep:
    """Evaluates (traces x configs) grids on the cycle-level simulator.

    The simulator is the slow side of a validation campaign, so this
    class runs its grid through the same grid runner as the
    :class:`~repro.explore.engine.SweepEngine`
    (:func:`~repro.api.pool.iter_grid`): the grid is partitioned into
    (trace, config-chunk) batches, results stream back in deterministic
    trace-major order, and the batches run in-process when
    ``workers <= 1`` or when the pool gives up or cannot start, with
    identical results.

    Traces reach the pool in columnar form: ``Trace`` pickles as its
    :class:`~repro.workloads.columns.TraceColumns` arrays (never a
    per-``Instruction`` object list), which serializes orders of
    magnitude faster, and the simulator reads those columns directly.
    The timing-independent outcome columns a simulation memoizes on a
    trace are not pickled: each worker computes its own, once per
    trace and cache geometry or predictor, and shares them across the
    configurations of its tasks.

    Parameters
    ----------
    workers:
        Worker processes (default 1).  ``None`` uses
        ``os.cpu_count()``; values ``<= 1`` simulate in-process.
        Points are bitwise identical, in the same order, at any worker
        count.
    batch_size:
        Configurations per worker task; defaults to roughly a quarter
        of the per-worker share.
    pool:
        Optional externally-owned :class:`~repro.api.pool.WorkerPool`.
        When given, parallel sweeps run on that persistent pool
        (shared with the model-side engine and any other stage of a
        :class:`~repro.api.session.Session`) instead of a transient
        one per sweep; results are bitwise identical and the pool is
        never closed by the sweep.

    Examples
    --------
    >>> sweep = SimulationSweep(workers=4)                # doctest: +SKIP
    >>> for point in sweep.iter_sweep(traces, configs):   # doctest: +SKIP
    ...     print(point.workload, point.cpi)
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        batch_size: Optional[int] = None,
        pool=None,
    ) -> None:
        self.workers = workers
        self.batch_size = batch_size
        self.pool = pool

    def iter_sweep(
        self,
        traces: Sequence[Trace],
        configs: Sequence[MachineConfig],
    ) -> Iterator[SimulatedPoint]:
        """Stream simulated points in deterministic grid order.

        Points are yielded trace-major (all configs of the first trace,
        then the second, ...), identically at any worker count.

        Yields
        ------
        SimulatedPoint
            One simulated (workload, configuration) pair at a time.
        """
        from repro.api.pool import grid_tasks, iter_grid, resolve_workers

        traces = list(traces)
        configs = list(configs)
        workers = resolve_workers(self.workers)
        with obs.span(
            "sim.sweep",
            traces=len(traces),
            configs=len(configs),
            workers=workers,
        ):
            tasks = grid_tasks(len(traces), len(configs), workers,
                               self.batch_size)
            batches = iter_grid(_simulate_batch, (traces, configs),
                                tasks, workers, self.pool)
            metrics = obs.metrics()
            try:
                for (trace_index, start, stop), results in zip(tasks,
                                                               batches):
                    metrics.inc("sim.batches")
                    metrics.inc("sim.points", len(results))
                    name = traces[trace_index].name
                    # One power-kernel call per task: a task's results
                    # share one trace, so their activities name the
                    # same uop kinds in the same order.
                    chunk = configs[start:stop]
                    breakdowns, energy, _, _ = power_batch(
                        chunk, [result.activity for result in results]
                    )
                    for config, result, power, joules in zip(
                            chunk, results, breakdowns, energy):
                        yield SimulatedPoint(
                            workload=name, config=config, result=result,
                            power=power, energy_joules=joules,
                        )
            finally:
                batches.close()


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------


@dataclass
class ValidationCase:
    """One workload under validation: its profile and its trace.

    The model side consumes the micro-architecture independent
    ``profile``; the simulator side replays the ``trace`` the profile
    was collected from, so both sides describe the same program.
    """

    profile: ApplicationProfile
    trace: Trace

    def __post_init__(self) -> None:
        """Reject profile/trace pairs describing different workloads."""
        if self.profile.name != self.trace.name:
            raise ValueError(
                f"profile {self.profile.name!r} does not match "
                f"trace {self.trace.name!r}"
            )


def _stats_dict(stats: ErrorStats) -> Dict[str, float]:
    """JSON-friendly summary of one :class:`ErrorStats`."""
    return {
        "mean": stats.mean,
        "max": stats.maximum,
        "count": stats.count,
    }


def _metrics_dict(metrics: ParetoMetrics) -> Dict[str, float]:
    """JSON-friendly summary of one :class:`ParetoMetrics`."""
    return {
        "sensitivity": metrics.sensitivity,
        "specificity": metrics.specificity,
        "accuracy": metrics.accuracy,
        "hvr": metrics.hvr,
        "true_front_size": metrics.true_front_size,
        "predicted_front_size": metrics.predicted_front_size,
    }


def report_lines(report: Dict[str, Any]) -> List[str]:
    """The human-readable report of a :meth:`ValidationReport.as_dict`
    payload, one line per list entry.

    Works on the payload so a :class:`~repro.api.session.Session`
    result renders without rebuilding the report objects.
    """
    lines = [
        f"validation campaign: {len(report['workloads'])} workload(s) x "
        f"{report['n_configs']} configs ({report['space']})",
    ]
    for w in report["workloads"]:
        cpi, seconds, power = (w["cpi_error"], w["seconds_error"],
                               w["power_error"])
        m = w["pareto"]
        lines.append(f"{w['workload']}:")
        lines.append(
            f"  error (mean/max): CPI "
            f"{cpi['mean']:6.1%}/{cpi['max']:6.1%}  "
            f"time {seconds['mean']:6.1%}/{seconds['max']:6.1%}  "
            f"power {power['mean']:6.1%}/{power['max']:6.1%}"
        )
        stack = "  ".join(
            f"{key}={value:.3f}"
            for key, value in w["cpi_stack_error"].items()
        )
        lines.append(f"  CPI-stack |error| (CPI): {stack}")
        lines.append(
            f"  Pareto (S7.4): sensitivity {m['sensitivity']:.2f}  "
            f"specificity {m['specificity']:.2f}  "
            f"accuracy {m['accuracy']:.2f}  HVR {m['hvr']:.3f}  "
            f"(true front {m['true_front_size']}, "
            f"predicted {m['predicted_front_size']})"
        )
        b = w.get("baseline")
        if b is not None:
            mechanistic, empirical = b["mechanistic"], b["empirical"]
            lines.append(
                f"  S7.5 baseline ({b['train_size']} train / "
                f"{b['holdout_size']} held out): "
                f"mechanistic CPI {mechanistic['cpi_error']['mean']:.1%} "
                f"HVR {mechanistic['pareto']['hvr']:.3f}  vs  "
                f"empirical CPI {empirical['cpi_error']['mean']:.1%} "
                f"HVR {empirical['pareto']['hvr']:.3f}"
            )
    return lines


@dataclass
class BaselineComparison:
    """Mechanistic vs empirical model on held-out designs (§7.5).

    The empirical ridge regression is trained on ``train_size``
    seeded-random simulated samples; both models are then scored on the
    ``holdout_size`` remaining designs -- CPI error and the §7.4 Pareto
    metrics against the simulated frontier of the held-out subspace.
    """

    train_size: int
    holdout_size: int
    mechanistic_cpi_error: ErrorStats
    empirical_cpi_error: ErrorStats
    mechanistic_metrics: ParetoMetrics
    empirical_metrics: ParetoMetrics

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {
            "train_size": self.train_size,
            "holdout_size": self.holdout_size,
            "mechanistic": {
                "cpi_error": _stats_dict(self.mechanistic_cpi_error),
                "pareto": _metrics_dict(self.mechanistic_metrics),
            },
            "empirical": {
                "cpi_error": _stats_dict(self.empirical_cpi_error),
                "pareto": _metrics_dict(self.empirical_metrics),
            },
        }


@dataclass
class WorkloadValidation:
    """The full §7.4-style validation record of one workload."""

    workload: str
    n_configs: int
    instructions: int
    cpi_error: ErrorStats
    seconds_error: ErrorStats
    power_error: ErrorStats
    #: Mean absolute CPI-stack component error, keyed by the simulator's
    #: ``STACK_KEYS`` component names (CPI units).
    stack_error: Dict[str, float]
    metrics: ParetoMetrics
    baseline: Optional[BaselineComparison] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        data: Dict[str, object] = {
            "workload": self.workload,
            "n_configs": self.n_configs,
            "instructions": self.instructions,
            "cpi_error": _stats_dict(self.cpi_error),
            "seconds_error": _stats_dict(self.seconds_error),
            "power_error": _stats_dict(self.power_error),
            "cpi_stack_error": dict(self.stack_error),
            "pareto": _metrics_dict(self.metrics),
        }
        if self.baseline is not None:
            data["baseline"] = self.baseline.as_dict()
        return data


@dataclass
class ValidationReport:
    """A whole campaign: per-workload records plus grid metadata."""

    space_name: str
    n_configs: int
    model_workers: int
    sim_workers: int
    train_fraction: float
    seed: int
    workloads: List[WorkloadValidation] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable report (the E32 benchmark artifact shape)."""
        return {
            "space": self.space_name,
            "n_configs": self.n_configs,
            "model_workers": self.model_workers,
            "sim_workers": self.sim_workers,
            "train_fraction": self.train_fraction,
            "seed": self.seed,
            "workloads": [w.as_dict() for w in self.workloads],
        }

    def summary_lines(self) -> List[str]:
        """The human-readable report (see :func:`report_lines`)."""
        return report_lines(self.as_dict())


def _stack_error(
    model_points: Sequence[DesignPoint],
    sim_points: Sequence[SimulatedPoint],
) -> Dict[str, float]:
    """Mean absolute per-component CPI-stack error across designs.

    Model components are renamed through :data:`STACK_COMPONENT_MAP`
    before comparison, so the result is keyed by the simulator's
    ``STACK_KEYS``.
    """
    totals = {key: 0.0 for key in STACK_KEYS}
    for model_point, sim_point in zip(model_points, sim_points):
        model_stack = {
            STACK_COMPONENT_MAP.get(key, key): value
            for key, value in model_point.result.cpi_stack().items()
        }
        sim_stack = sim_point.result.cpi_stack()
        for key in totals:
            totals[key] += abs(
                model_stack.get(key, 0.0) - sim_stack.get(key, 0.0)
            )
    n = max(1, len(model_points))
    return {key: total / n for key, total in totals.items()}


class ValidationCampaign:
    """Drives model and simulator over one grid and scores the model.

    Parameters
    ----------
    cases:
        The workloads to validate, as :class:`ValidationCase`
        profile/trace pairs (see :meth:`from_workloads` for the
        name-based convenience constructor).
    configs:
        The design-space grid, as concrete configurations or anything
        with a ``configs()`` method (e.g. a declarative
        :class:`~repro.explore.space.DesignSpace`).
    engine:
        Optional :class:`~repro.explore.engine.SweepEngine` for the
        model side; a fresh one with ``model_workers`` workers is built
        when omitted.
    model:
        Analytical model for the default engine; ignored when
        ``engine`` is given.
    model_workers / sim_workers:
        Worker processes for the model and simulator sides.
        ``sim_workers`` defaults to ``model_workers`` -- simulation is
        the slow side, so that is where parallelism pays.  An explicit
        ``engine`` runs at its own worker count instead of
        ``model_workers``; the report records the counts that ran.
    pool:
        Optional externally-owned :class:`~repro.api.pool.WorkerPool`
        shared by both sides: the default engine and the simulation
        sweep then reuse one persistent pool instead of a transient
        pool each.  An explicitly passed ``engine`` keeps whatever pool
        configuration it already has.
    train_fraction:
        Fraction of the grid used to train the §7.5 empirical baseline
        (seeded subsample of *simulated* results); the comparison is
        scored on the held-out remainder.  Set to 0 to skip the
        baseline entirely.
    seed:
        Seed of the subsample RNG (per-workload streams are derived
        deterministically from it).
    space_name:
        Override for the reported space name (useful when passing a
        truncated config list derived from a named space).

    Examples
    --------
    >>> campaign = ValidationCampaign.from_workloads(  # doctest: +SKIP
    ...     ["gcc", "mcf"], configs=DesignSpace.default(),
    ...     instructions=20_000, sim_workers=4)
    >>> report = campaign.run()                        # doctest: +SKIP
    >>> print("\\n".join(report.summary_lines()))      # doctest: +SKIP
    """

    def __init__(
        self,
        cases: Sequence[ValidationCase],
        configs,
        engine: Optional[SweepEngine] = None,
        model: Optional[AnalyticalModel] = None,
        model_workers: int = 1,
        sim_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        pool=None,
        train_fraction: float = 0.25,
        seed: int = 0,
        space_name: Optional[str] = None,
    ) -> None:
        self.cases = list(cases)
        names = [case.profile.name for case in self.cases]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                "duplicate workload name(s) in campaign: "
                + ", ".join(duplicates)
            )
        if hasattr(configs, "configs"):
            self.space_name = getattr(configs, "name", "space")
            configs = configs.configs()
        else:
            self.space_name = "configs"
        if space_name is not None:
            self.space_name = space_name
        self.configs: List[MachineConfig] = list(configs)
        if not self.configs:
            raise ValueError("validation campaign needs >= 1 config")
        if not 0.0 <= train_fraction < 1.0:
            raise ValueError("train_fraction must be in [0, 1)")
        self.train_fraction = train_fraction
        self.seed = seed
        self.engine = engine if engine is not None else SweepEngine(
            model=model, workers=model_workers,
            batch_size=batch_size, pool=pool,
        )
        self.simulation = SimulationSweep(
            workers=sim_workers if sim_workers is not None
            else model_workers,
            batch_size=batch_size,
            pool=pool,
        )

    @classmethod
    def from_workloads(
        cls,
        names: Sequence[str],
        configs,
        instructions: int = 20_000,
        sampling=None,
        trace_seed: int = 42,
        **kwargs,
    ) -> "ValidationCampaign":
        """Build a campaign from workload-suite names.

        Generates each workload's trace, profiles it once (the paper's
        single profiling run), and pairs both into
        :class:`ValidationCase` records.

        Parameters
        ----------
        names:
            Workload names from :func:`repro.workloads.workload_names`.
        configs:
            Passed through to the constructor.
        instructions:
            Trace length per workload.
        sampling:
            Optional :class:`~repro.profiler.sampling.SamplingConfig`.
        trace_seed:
            Seed of the trace generators.
        **kwargs:
            Forwarded to the constructor.

        Returns
        -------
        ValidationCampaign
            The ready-to-run campaign.
        """
        from repro.profiler import profile_application
        from repro.workloads import generate_trace, make_workload

        cases = []
        for name in names:
            trace = generate_trace(
                make_workload(name, seed=trace_seed),
                max_instructions=instructions,
            )
            profile = profile_application(trace, sampling)
            cases.append(ValidationCase(profile=profile, trace=trace))
        return cls(cases, configs, **kwargs)

    # ------------------------------------------------------------------

    def _baseline(
        self,
        case: ValidationCase,
        model_points: Sequence[DesignPoint],
        sim_points: Sequence[SimulatedPoint],
    ) -> Optional[BaselineComparison]:
        """Train the §7.5 empirical baseline and score both models."""
        n = len(self.configs)
        train_size = int(round(self.train_fraction * n))
        if self.train_fraction <= 0.0 or train_size < 3:
            return None
        if n - train_size < 2:
            return None
        # String seeds hash deterministically (PYTHONHASHSEED-proof),
        # so per-workload subsamples are stable across runs and worker
        # counts.
        rng = random.Random(f"{self.seed}:{case.profile.name}")
        train_indices = set(rng.sample(range(n), train_size))
        holdout = [i for i in range(n) if i not in train_indices]

        cpi_model = EmpiricalModel().fit([
            (case.profile, self.configs[i], sim_points[i].cpi)
            for i in sorted(train_indices)
        ])
        power_model = EmpiricalModel().fit([
            (case.profile, self.configs[i], sim_points[i].power_watts)
            for i in sorted(train_indices)
        ])

        instructions = case.profile.num_instructions
        empirical_cpi = [
            cpi_model.predict(case.profile, self.configs[i])
            for i in holdout
        ]
        empirical_seconds = [
            cpi * instructions
            / (self.configs[i].frequency_ghz * 1e9)
            for cpi, i in zip(empirical_cpi, holdout)
        ]
        empirical_power = [
            power_model.predict(case.profile, self.configs[i])
            for i in holdout
        ]

        sim_cpi = [sim_points[i].cpi for i in holdout]
        labels = [self.configs[i].name for i in holdout]
        sim_coords = [
            (sim_points[i].seconds, sim_points[i].power_watts)
            for i in holdout
        ]
        model_coords = [
            (model_points[i].seconds, model_points[i].power_watts)
            for i in holdout
        ]
        empirical_coords = list(
            zip(empirical_seconds, empirical_power)
        )
        return BaselineComparison(
            train_size=train_size,
            holdout_size=len(holdout),
            mechanistic_cpi_error=error_statistics(
                [model_points[i].cpi for i in holdout], sim_cpi,
                labels=labels,
            ),
            empirical_cpi_error=error_statistics(
                empirical_cpi, sim_cpi, labels=labels,
            ),
            mechanistic_metrics=pareto_metrics(
                sim_coords, model_coords
            ),
            empirical_metrics=pareto_metrics(
                sim_coords, empirical_coords
            ),
        )

    def _validate_workload(
        self,
        case: ValidationCase,
        model_points: Sequence[DesignPoint],
        sim_points: Sequence[SimulatedPoint],
    ) -> WorkloadValidation:
        """Fold one workload's model and simulator streams."""
        labels = [config.name for config in self.configs]
        cpi_error = error_statistics(
            [p.cpi for p in model_points],
            [p.cpi for p in sim_points], labels=labels,
        )
        seconds_error = error_statistics(
            [p.seconds for p in model_points],
            [p.seconds for p in sim_points], labels=labels,
        )
        power_error = error_statistics(
            [p.power_watts for p in model_points],
            [p.power_watts for p in sim_points], labels=labels,
        )
        metrics = pareto_metrics(
            [(p.seconds, p.power_watts) for p in sim_points],
            [(p.seconds, p.power_watts) for p in model_points],
        )
        return WorkloadValidation(
            workload=case.profile.name,
            n_configs=len(self.configs),
            instructions=case.profile.num_instructions,
            cpi_error=cpi_error,
            seconds_error=seconds_error,
            power_error=power_error,
            stack_error=_stack_error(model_points, sim_points),
            metrics=metrics,
            baseline=self._baseline(case, model_points, sim_points),
        )

    def run(self) -> ValidationReport:
        """Execute the campaign: both sweeps, then the folded report.

        The model side streams through the engine first (it is orders
        of magnitude faster), then the simulator side streams through
        the simulation sweep; per-workload records are folded as soon as both
        sides of a workload are complete.

        Returns
        -------
        ValidationReport
            Per-workload errors, stack errors, Pareto metrics and the
            empirical-baseline comparison.
        """
        from repro.api.pool import resolve_workers

        profiles = [case.profile for case in self.cases]
        traces = [case.trace for case in self.cases]
        n = len(self.configs)

        model_results: Dict[str, List[DesignPoint]] = {
            p.name: [] for p in profiles
        }
        with obs.span("validate.model_sweep", workloads=len(profiles),
                      configs=n):
            for point in self.engine.iter_sweep(profiles, self.configs):
                model_results[point.workload].append(point)

        report = ValidationReport(
            space_name=self.space_name,
            n_configs=n,
            model_workers=resolve_workers(self.engine.workers),
            sim_workers=resolve_workers(self.simulation.workers),
            train_fraction=self.train_fraction,
            seed=self.seed,
        )
        # The simulator stream is trace-major, so one workload's block
        # completes every n points; fold it immediately.
        pending: List[SimulatedPoint] = []
        case_index = 0
        with obs.span("validate.sim_sweep", workloads=len(traces),
                      configs=n):
            for point in self.simulation.iter_sweep(traces, self.configs):
                pending.append(point)
                if len(pending) == n:
                    case = self.cases[case_index]
                    report.workloads.append(self._validate_workload(
                        case, model_results[case.profile.name], pending
                    ))
                    pending = []
                    case_index += 1
        if pending:
            raise RuntimeError(
                f"simulation stream ended mid-workload: "
                f"{len(pending)} of {n} points"
            )
        return report
