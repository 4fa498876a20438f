"""repro: micro-architecture independent analytical processor performance
and power modeling (reproduction of Van den Steen et al., ISPASS 2015).

Quick start::

    from repro import (
        make_workload, generate_trace, profile_application,
        AnalyticalModel, nehalem, simulate,
    )

    trace = generate_trace(make_workload("gcc"), max_instructions=50_000)
    profile = profile_application(trace)            # one-time profiling
    result = AnalyticalModel().predict(profile, nehalem())
    print(result.cpi, result.power_watts)

    reference = simulate(trace, nehalem())          # cycle-level ground truth
    print(reference.cpi)

Or declaratively, through the session API (shared worker pool, warm
caches, on-disk run store)::

    from repro import ExperimentSpec, Session

    with Session(workers=4) as session:
        sweep = session.run(ExperimentSpec(
            "sweep", workloads=["gcc"], objective="edp"))
"""

from repro.workloads import (
    Trace,
    WorkloadSpec,
    generate_trace,
    make_suite,
    make_workload,
    workload_names,
)
from repro.profiler import (
    ApplicationProfile,
    SamplingConfig,
    profile_application,
)
from repro.core import (
    AnalyticalModel,
    MachineConfig,
    Prediction,
    design_space,
    dvfs_points,
    low_power_core,
    nehalem,
)
from repro.core.model import ModelResult
from repro.simulator import SimulationResult, simulate
from repro.explore import (
    DesignSpace,
    EmpiricalModel,
    Parameter,
    SearchProblem,
    SearchTrajectory,
    StreamingParetoFront,
    SweepEngine,
    get_objective,
    make_optimizer,
    pareto_front,
    pareto_metrics,
    speedups,
)
from repro.api import (
    ExperimentSpec,
    RunResult,
    RunStore,
    Session,
    SpecError,
    WorkerPool,
)

__version__ = "1.1.0"

__all__ = [
    "Trace",
    "WorkloadSpec",
    "generate_trace",
    "make_suite",
    "make_workload",
    "workload_names",
    "ApplicationProfile",
    "SamplingConfig",
    "profile_application",
    "AnalyticalModel",
    "MachineConfig",
    "Prediction",
    "ModelResult",
    "design_space",
    "dvfs_points",
    "low_power_core",
    "nehalem",
    "SimulationResult",
    "simulate",
    "DesignSpace",
    "EmpiricalModel",
    "Parameter",
    "SearchProblem",
    "SearchTrajectory",
    "StreamingParetoFront",
    "SweepEngine",
    "get_objective",
    "make_optimizer",
    "pareto_front",
    "pareto_metrics",
    "speedups",
    "ExperimentSpec",
    "RunResult",
    "RunStore",
    "Session",
    "SpecError",
    "WorkerPool",
    "__version__",
]
