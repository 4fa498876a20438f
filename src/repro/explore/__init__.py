"""Design-space exploration tooling (thesis Chapters 6--7).

Sweeps the analytical model over configuration spaces (serially or on a
:class:`~repro.explore.engine.SweepEngine` worker pool with profile
caching), extracts Pareto frontiers (batch or streaming), scores them
against simulation with the thesis' four metrics (sensitivity /
specificity / accuracy / HVR), explores DVFS operating points, and
provides the empirical-regression baseline of §7.5 and the
evaluation-cost model behind the 315x / 18x speedup claims.

On top of the sweep layer sits guided search: declarative
:class:`~repro.explore.space.DesignSpace` descriptions (typed
parameters, constraints, JSON round-trip) and the seeded, pluggable
optimizers of :mod:`repro.explore.search` (random / hill-climbing /
simulated annealing / genetic), which drive batched evaluations through
the engine under an :class:`~repro.explore.search.EvaluationBudget` and
record full :class:`~repro.explore.search.SearchTrajectory` objects.

The accuracy loop is closed by :mod:`repro.explore.validate`:
:class:`~repro.explore.validate.ValidationCampaign` runs the analytical
model and the cycle-level simulator over the same grid (the simulator
on its own parallel :class:`~repro.explore.validate.SimulationSweep`)
and reports per-design errors, CPI-stack component errors, the §7.4
Pareto filtering metrics and the §7.5 empirical-baseline comparison.
"""

from repro.explore.dse import (
    DesignPoint,
    best_average_config,
    best_config_per_workload,
    error_statistics,
)
from repro.explore.engine import SweepEngine
from repro.explore.pareto import (
    ParetoMetrics,
    StreamingParetoFront,
    hypervolume,
    hvr,
    pareto_front,
    pareto_metrics,
)
from repro.explore.dvfs import (
    best_under_power_cap,
    explore_dvfs,
    optimal_ed2p,
)
from repro.explore.empirical import EmpiricalModel
from repro.explore.validate import (
    BaselineComparison,
    SimulatedPoint,
    SimulationSweep,
    ValidationCampaign,
    ValidationCase,
    ValidationReport,
    WorkloadValidation,
)
from repro.explore.cost import (
    EvaluationCost,
    interval_model_cost,
    micro_arch_independent_cost,
    simulation_cost,
    speedups,
)
from repro.explore.space import DesignSpace, Parameter
from repro.explore.search import (
    OBJECTIVES,
    OPTIMIZERS,
    Evaluation,
    EvaluationBudget,
    GeneticAlgorithm,
    HillClimber,
    Objective,
    Optimizer,
    RandomSearch,
    SearchProblem,
    SearchTrajectory,
    SimulatedAnnealing,
    get_objective,
    make_optimizer,
    power_capped,
)

__all__ = [
    "DesignPoint",
    "SweepEngine",
    "DesignSpace",
    "Parameter",
    "OBJECTIVES",
    "OPTIMIZERS",
    "Evaluation",
    "EvaluationBudget",
    "GeneticAlgorithm",
    "HillClimber",
    "Objective",
    "Optimizer",
    "RandomSearch",
    "SearchProblem",
    "SearchTrajectory",
    "SimulatedAnnealing",
    "get_objective",
    "make_optimizer",
    "power_capped",
    "best_average_config",
    "best_config_per_workload",
    "error_statistics",
    "ParetoMetrics",
    "StreamingParetoFront",
    "hypervolume",
    "hvr",
    "pareto_front",
    "pareto_metrics",
    "best_under_power_cap",
    "explore_dvfs",
    "optimal_ed2p",
    "EmpiricalModel",
    "BaselineComparison",
    "SimulatedPoint",
    "SimulationSweep",
    "ValidationCampaign",
    "ValidationCase",
    "ValidationReport",
    "WorkloadValidation",
    "EvaluationCost",
    "interval_model_cost",
    "micro_arch_independent_cost",
    "simulation_cost",
    "speedups",
]
