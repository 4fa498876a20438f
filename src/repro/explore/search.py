"""Guided design-space search: objectives, budgets, pluggable optimizers.

Exhaustive sweeps stop scaling long before the model does: the paper's
one-profile/many-evaluations economics make *search* the natural
consumer of the analytical model once spaces grow past a few hundred
points.  This module provides the archgym-style split between an
evaluation environment and interchangeable search agents:

* :class:`SearchProblem` -- profiles + a :class:`DesignSpace` + an
  :class:`Objective` -- turns batches of abstract points into fitness
  values by driving the batched
  :class:`~repro.explore.engine.SweepEngine` (so worker processes
  and the :class:`~repro.core.interval.ModelCache` apply to search
  for free), memoizing fitnesses so revisited points are free;
* :class:`EvaluationBudget` bounds the number of *distinct*
  configurations evaluated;
* :class:`SearchTrajectory` records every evaluation in order plus the
  best-so-far curve and wall-clock, for archgym-style comparisons of
  optimizers;
* the optimizers -- :class:`RandomSearch`, :class:`HillClimber`,
  :class:`SimulatedAnnealing`, :class:`GeneticAlgorithm` -- all follow
  the same propose/observe protocol and draw every random decision from
  one seeded ``random.Random``, so a fixed seed reproduces the
  trajectory bitwise at any engine worker count (the engine streams
  results in deterministic grid order regardless of parallelism).

Objectives are scalar and minimized.  The built-ins (``seconds``,
``energy``, ``edp``, ``ed2p``) mirror the DVFS metrics of
:mod:`repro.explore.dvfs`; :func:`power_capped` composes any of them
with the Table 7.1 style power-feasibility constraint.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.interval import ModelCache
from repro.explore.dse import DesignPoint
from repro.explore.engine import SweepEngine
from repro.explore.space import DesignSpace
from repro.profiler.profile import ApplicationProfile

__all__ = [
    "Objective",
    "OBJECTIVES",
    "get_objective",
    "power_capped",
    "EvaluationBudget",
    "Evaluation",
    "SearchTrajectory",
    "SearchProblem",
    "Optimizer",
    "RandomSearch",
    "HillClimber",
    "SimulatedAnnealing",
    "GeneticAlgorithm",
    "OPTIMIZERS",
    "make_optimizer",
]


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Objective:
    """A scalar figure of merit over one design point (minimized).

    Attributes
    ----------
    name:
        Human-readable identifier (also used by the CLI registry).
    metric:
        ``metric(point) -> float`` where ``point`` is a
        :class:`~repro.explore.dse.DesignPoint`; lower is better.
    """

    name: str
    metric: Callable[[DesignPoint], float]

    def __call__(self, point: DesignPoint) -> float:
        """Evaluate the metric on one design point."""
        return self.metric(point)


#: Built-in objectives, by CLI name (all minimized).
OBJECTIVES: Dict[str, Objective] = {
    "seconds": Objective("seconds", lambda p: p.seconds),
    "energy": Objective("energy", lambda p: p.energy_joules),
    "edp": Objective("edp", lambda p: p.edp),
    "ed2p": Objective("ed2p", lambda p: p.ed2p),
}


def get_objective(name: str,
                  power_cap_watts: Optional[float] = None) -> Objective:
    """Look up a built-in objective, optionally power-capped.

    Parameters
    ----------
    name:
        One of ``seconds``, ``energy``, ``edp``, ``ed2p``.
    power_cap_watts:
        When given, wraps the objective with :func:`power_capped`.

    Returns
    -------
    Objective
        The (possibly capped) objective.
    """
    try:
        objective = OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; known: {sorted(OBJECTIVES)}"
        ) from None
    if power_cap_watts is not None:
        objective = power_capped(objective, power_cap_watts)
    return objective


def power_capped(base: Objective, cap_watts: float) -> Objective:
    """Compose an objective with a power cap (Table 7.1 semantics).

    Points whose predicted average power exceeds ``cap_watts`` score
    ``inf`` -- the same feasibility rule as
    :func:`~repro.explore.dvfs.best_under_power_cap` -- so the search
    minimizes ``base`` over the feasible region.
    """

    def metric(point: DesignPoint) -> float:
        if point.power_watts > cap_watts:
            return math.inf
        return base.metric(point)

    return Objective(name=f"{base.name}|P<={cap_watts:g}W", metric=metric)


# ----------------------------------------------------------------------
# Budget / trajectory
# ----------------------------------------------------------------------

class EvaluationBudget:
    """A hard cap on the number of distinct configurations evaluated.

    Revisited points are served from the :class:`SearchProblem` fitness
    cache and do not consume budget -- the budget counts real model
    evaluations, which is the quantity the exhaustive-vs-guided
    comparisons ration.
    """

    def __init__(self, max_evaluations: int) -> None:
        if max_evaluations <= 0:
            raise ValueError("budget must be positive")
        self.max_evaluations = int(max_evaluations)
        self.spent = 0

    @classmethod
    def of(cls, budget: Union[int, "EvaluationBudget"],
           ) -> "EvaluationBudget":
        """Coerce an int (or pass through a budget) to a budget."""
        if isinstance(budget, EvaluationBudget):
            return budget
        return cls(budget)

    @property
    def remaining(self) -> int:
        """Evaluations left before exhaustion."""
        return max(0, self.max_evaluations - self.spent)

    @property
    def exhausted(self) -> bool:
        """Whether no evaluations remain."""
        return self.spent >= self.max_evaluations

    def try_consume(self, count: int = 1) -> bool:
        """Consume ``count`` evaluations if available; else ``False``."""
        if self.spent + count > self.max_evaluations:
            return False
        self.spent += count
        return True


@dataclass(frozen=True)
class Evaluation:
    """One model evaluation performed during a search.

    Attributes
    ----------
    index:
        0-based position in the trajectory (evaluation order).
    point:
        The abstract design-space point evaluated.
    fitness:
        The objective value (lower is better).
    """

    index: int
    point: Dict[str, object]
    fitness: float


@dataclass
class SearchTrajectory:
    """The full record of one optimizer run (archgym-style).

    Attributes
    ----------
    optimizer / seed / objective:
        Provenance: which agent produced this trajectory, from which
        seed, minimizing what.
    evaluations:
        Every *distinct* configuration evaluated, in order.
    wall_seconds:
        Wall-clock time of the whole search (excluded from equality
        comparisons in tests; everything else is deterministic).
    """

    optimizer: str
    seed: int
    objective: str = ""
    evaluations: List[Evaluation] = field(default_factory=list)
    wall_seconds: float = 0.0

    def __len__(self) -> int:
        """Number of distinct evaluations performed."""
        return len(self.evaluations)

    @property
    def best(self) -> Evaluation:
        """The best evaluation seen (``ValueError`` when empty)."""
        if not self.evaluations:
            raise ValueError("empty trajectory")
        return min(self.evaluations, key=lambda e: (e.fitness, e.index))

    @property
    def best_point(self) -> Dict[str, object]:
        """The best point's parameter dict."""
        return self.best.point

    @property
    def best_fitness(self) -> float:
        """The best objective value seen."""
        return self.best.fitness

    def best_curve(self) -> List[float]:
        """Best-so-far objective value after each evaluation."""
        curve: List[float] = []
        best = math.inf
        for evaluation in self.evaluations:
            best = min(best, evaluation.fitness)
            curve.append(best)
        return curve

    def record(self, point: Dict[str, object], fitness: float) -> None:
        """Append one evaluation (used by :class:`SearchProblem`)."""
        self.evaluations.append(
            Evaluation(index=len(self.evaluations), point=dict(point),
                       fitness=fitness)
        )

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable dump of the whole trajectory."""
        return {
            "optimizer": self.optimizer,
            "seed": self.seed,
            "objective": self.objective,
            "wall_seconds": self.wall_seconds,
            "best_fitness": (self.best_fitness if self.evaluations
                             else None),
            "best_point": (self.best_point if self.evaluations
                           else None),
            "evaluations": [
                {"index": e.index, "point": e.point,
                 "fitness": e.fitness}
                for e in self.evaluations
            ],
        }


# ----------------------------------------------------------------------
# The evaluation environment
# ----------------------------------------------------------------------

class SearchProblem:
    """Profiles + space + objective: the search's evaluation environment.

    Fitness of a point is the objective averaged over all profiles
    (equal weights), evaluated by streaming the (profiles x configs)
    batch through a :class:`~repro.explore.engine.SweepEngine` -- one
    engine call per proposal batch, so engine workers parallelize the
    search's inner loop without affecting results.

    Parameters
    ----------
    profiles:
        Application profiles the candidate cores are scored on.
    space:
        The declarative design space points are drawn from.
    objective:
        The scalar to minimize (see :data:`OBJECTIVES`).
    engine:
        Optional pre-configured engine (workers, pool, model);
        defaults to a serial :class:`SweepEngine`.  If the engine's
        model has no :class:`~repro.core.interval.ModelCache`, one is
        attached for the lifetime of the problem, so the cross-config
        memoized intermediates persist across proposal batches instead
        of being rebuilt every round (results are unchanged -- the
        cache is a bitwise-identical memo).
    """

    def __init__(
        self,
        profiles: Sequence[ApplicationProfile],
        space: DesignSpace,
        objective: Objective,
        engine: Optional[SweepEngine] = None,
    ) -> None:
        if not profiles:
            raise ValueError("need at least one profile")
        self.profiles = list(profiles)
        self.space = space
        self.objective = objective
        self.engine = (engine if engine is not None
                       else SweepEngine(workers=1))
        # Keep memoized model intermediates alive across the many
        # small engine sweeps a search performs (iter_sweep only
        # attaches a per-call cache when none is present).
        if self.engine.model.cache is None:
            self.engine.model.cache = ModelCache()
        self._cache: Dict[Tuple, float] = {}

    @property
    def cache_size(self) -> int:
        """Number of distinct points evaluated so far."""
        return len(self._cache)

    def evaluate(
        self,
        points: Sequence[Dict[str, object]],
        budget: Optional[EvaluationBudget] = None,
        trajectory: Optional[SearchTrajectory] = None,
    ) -> List[Optional[float]]:
        """Score a batch of points, spending budget only on new ones.

        Points already in the fitness cache are returned for free;
        distinct new points are evaluated in one batched engine sweep
        (in proposal order) and recorded on ``trajectory``.  Entries
        the budget cannot cover come back as ``None``.

        Parameters
        ----------
        points:
            Proposal batch (duplicates allowed; deduplicated here).
        budget:
            Optional budget charged one unit per distinct new point.
        trajectory:
            Optional trajectory that records each new evaluation.

        Returns
        -------
        list of float or None
            Fitness per input point (``None`` = not evaluated).
        """
        metrics = obs.metrics()
        results: List[Optional[float]] = [None] * len(points)
        order: Dict[Tuple, int] = {}  # new key -> index into batch
        batch: List[Dict[str, object]] = []
        for position, point in enumerate(points):
            key = self.space.key(point)
            if key in self._cache:
                metrics.inc("search.fitness_cache_hits")
                results[position] = self._cache[key]
            elif key not in order:
                if budget is None or budget.try_consume(1):
                    order[key] = len(batch)
                    batch.append(point)
                else:
                    order[key] = -1  # over budget: stays None
        if batch:
            metrics.inc("search.evaluations", len(batch))
            for point, fitness in zip(batch, self._evaluate_batch(batch)):
                self._cache[self.space.key(point)] = fitness
                if trajectory is not None:
                    trajectory.record(point, fitness)
        for position, point in enumerate(points):
            if results[position] is None:
                index = order.get(self.space.key(point), -1)
                if index >= 0:
                    results[position] = self._cache[
                        self.space.key(point)]
        return results

    def _evaluate_batch(
        self, points: Sequence[Dict[str, object]]
    ) -> List[float]:
        """Model-evaluate distinct points via one engine sweep."""
        configs = [self.space.config(point) for point in points]
        totals = [0.0] * len(configs)
        count = 0
        for design_point in self.engine.iter_sweep(self.profiles,
                                                   configs):
            totals[count % len(configs)] += self.objective.metric(
                design_point)
            count += 1
        return [total / len(self.profiles) for total in totals]

    def exhaustive_best(self) -> Tuple[Dict[str, object], float]:
        """Ground truth: the space optimum by full enumeration.

        Evaluates every valid point (budget-free, cache-shared) and
        returns ``(point, fitness)`` -- the baseline the guided
        optimizers are compared against.
        """
        points = self.space.points()
        fitness = self.evaluate(points)
        best = min(range(len(points)),
                   key=lambda i: (fitness[i], i))
        return points[best], fitness[best]  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Optimizers
# ----------------------------------------------------------------------

class Optimizer:
    """Base class: the seeded propose/observe search loop.

    Subclasses implement :meth:`_propose` (the next batch of candidate
    points) and :meth:`_observe` (digest the batch's fitnesses); the
    base loop owns the RNG, the budget, stagnation detection and the
    trajectory.  All stochastic decisions must draw from the ``rng``
    handed in, which is the sole source of randomness -- that is what
    makes a fixed seed bitwise-reproducible at any worker count.

    Parameters
    ----------
    seed:
        Seed for the private ``random.Random``.
    batch_size:
        Candidate evaluations proposed per round (batched into a
        single engine sweep).
    max_stagnant_rounds:
        Stop after this many consecutive rounds that added no new
        evaluation (e.g. a small space fully explored).
    """

    name = "base"

    def __init__(self, seed: int = 0, batch_size: int = 8,
                 max_stagnant_rounds: int = 50) -> None:
        self.seed = seed
        self.batch_size = max(1, batch_size)
        self.max_stagnant_rounds = max_stagnant_rounds

    # -- subclass protocol ---------------------------------------------

    def _start(self, problem: SearchProblem,
               rng: random.Random) -> Dict[str, object]:
        """Create the optimizer's mutable state for one run."""
        return {}

    def _propose(self, problem: SearchProblem, rng: random.Random,
                 state: Dict[str, object]) -> List[Dict[str, object]]:
        """The next batch of candidate points."""
        raise NotImplementedError

    def _observe(self, problem: SearchProblem, rng: random.Random,
                 state: Dict[str, object],
                 points: List[Dict[str, object]],
                 fitness: List[Optional[float]]) -> None:
        """Digest the evaluated batch (``None`` = over budget)."""

    # -- the driver ----------------------------------------------------

    def search(
        self,
        problem: SearchProblem,
        budget: Union[int, EvaluationBudget],
    ) -> SearchTrajectory:
        """Run the search until the budget (or the space) is exhausted.

        Parameters
        ----------
        problem:
            The evaluation environment.
        budget:
            Maximum distinct configurations to evaluate (int or
            :class:`EvaluationBudget`).

        Returns
        -------
        SearchTrajectory
            Every evaluation in order, plus best-so-far accessors.
        """
        budget = EvaluationBudget.of(budget)
        rng = random.Random(self.seed)
        trajectory = SearchTrajectory(
            optimizer=self.name, seed=self.seed,
            objective=problem.objective.name,
        )
        # The span is the single timing source: wall_seconds and any
        # exported telemetry are the same measurement by construction.
        with obs.span("search.run", optimizer=self.name,
                      seed=self.seed) as span:
            state = self._start(problem, rng)
            stagnant = 0
            while not budget.exhausted:
                before = len(trajectory)
                points = self._propose(problem, rng, state)
                fitness = problem.evaluate(points, budget, trajectory)
                self._observe(problem, rng, state, points, fitness)
                if len(trajectory) == before:
                    stagnant += 1
                    if stagnant >= self.max_stagnant_rounds:
                        break
                else:
                    stagnant = 0
        trajectory.wall_seconds = span.seconds
        return trajectory


class RandomSearch(Optimizer):
    """Uniform random sampling of the space -- the honest baseline."""

    name = "random"

    def _propose(self, problem, rng, state):
        """A batch of independent uniform samples."""
        return [problem.space.sample(rng)
                for _ in range(self.batch_size)]


class HillClimber(Optimizer):
    """Steepest-ascent hill climbing with random restarts.

    Each round proposes ``batch_size`` mutations of the incumbent and
    moves to the best strict improvement; a round with no improvement
    triggers a random restart (the incumbent-so-far is still tracked by
    the trajectory, so restarts can only help).
    """

    name = "hill"

    def _start(self, problem, rng):
        """State: the incumbent point and its fitness."""
        return {"current": None, "fitness": math.inf}

    def _propose(self, problem, rng, state):
        """Mutations of the incumbent (or a fresh start point)."""
        if state["current"] is None:
            return [problem.space.sample(rng)]
        return [problem.space.mutate(state["current"], rng)
                for _ in range(self.batch_size)]

    def _observe(self, problem, rng, state, points, fitness):
        """Move to the best improving neighbor, else restart."""
        scored = [(f, i) for i, f in enumerate(fitness)
                  if f is not None]
        if not scored:
            return
        best_fitness, best_index = min(scored)
        if state["current"] is None:
            state["current"] = points[best_index]
            state["fitness"] = best_fitness
        elif best_fitness < state["fitness"]:
            state["current"] = points[best_index]
            state["fitness"] = best_fitness
        else:
            state["current"] = None  # local optimum: restart
            state["fitness"] = math.inf


class SimulatedAnnealing(Optimizer):
    """Metropolis annealing over the mutation neighborhood.

    Proposals are mutations of the current point, accepted when better
    or -- with probability ``exp(-relative_worsening / t)`` -- when
    worse; the *relative* temperature starts at ``t0`` (a fraction of
    the current fitness) and cools geometrically per proposal, so the
    schedule is scale-free across objectives of wildly different
    magnitudes (seconds vs ED2P).

    Parameters
    ----------
    seed / batch_size / max_stagnant_rounds:
        See :class:`Optimizer`.
    t0:
        Initial relative temperature (0.2 accepts ~20%-worse moves
        with probability ``1/e`` at step 0).
    cooling:
        Geometric cooling factor applied per proposal.
    """

    name = "sa"

    def __init__(self, seed: int = 0, batch_size: int = 8,
                 max_stagnant_rounds: int = 50, t0: float = 0.2,
                 cooling: float = 0.99) -> None:
        super().__init__(seed, batch_size, max_stagnant_rounds)
        if not 0 < cooling <= 1:
            raise ValueError("cooling must be in (0, 1]")
        self.t0 = t0
        self.cooling = cooling

    def _start(self, problem, rng):
        """State: current point/fitness and the proposal counter."""
        return {"current": None, "fitness": math.inf, "step": 0}

    def _propose(self, problem, rng, state):
        """Neighbors of the current point (or the start point)."""
        if state["current"] is None:
            return [problem.space.sample(rng)]
        return [problem.space.mutate(state["current"], rng)
                for _ in range(self.batch_size)]

    def _observe(self, problem, rng, state, points, fitness):
        """Metropolis-accept the batch sequentially."""
        for point, value in zip(points, fitness):
            if value is None:
                continue
            if state["current"] is None:
                state["current"], state["fitness"] = point, value
                continue
            temperature = (
                self.t0 * (self.cooling ** state["step"])
                * max(abs(state["fitness"]), 1e-300)
            )
            state["step"] += 1
            delta = value - state["fitness"]
            if delta <= 0 or (
                temperature > 0
                and rng.random() < math.exp(-delta / temperature)
            ):
                state["current"], state["fitness"] = point, value


class GeneticAlgorithm(Optimizer):
    """Generational GA: tournament selection, crossover, mutation.

    Every generation is evaluated as one engine batch.  Selection uses
    size-``tournament`` tournaments over the evaluated members;
    children are produced by parameter-wise uniform crossover (with
    probability ``crossover_rate``, else a clone of the first parent)
    followed by per-parameter mutation with probability
    ``mutation_rate``; the ``elitism`` best members carry over
    unchanged (their fitness is cached, so elites cost no budget).

    Parameters
    ----------
    seed / max_stagnant_rounds:
        See :class:`Optimizer`.
    population:
        Members per generation (also the proposal batch size).
    tournament:
        Tournament size for parent selection.
    crossover_rate / mutation_rate:
        Child-level crossover and per-parameter mutation probability.
    elitism:
        Members copied unchanged into the next generation.
    """

    name = "ga"

    def __init__(self, seed: int = 0, population: int = 24,
                 tournament: int = 3, crossover_rate: float = 0.9,
                 mutation_rate: float = 0.2, elitism: int = 2,
                 max_stagnant_rounds: int = 50) -> None:
        super().__init__(seed, batch_size=population,
                         max_stagnant_rounds=max_stagnant_rounds)
        if population < 2:
            raise ValueError("population must be >= 2")
        self.population = population
        self.tournament = max(1, tournament)
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.elitism = max(0, min(elitism, population - 1))

    def _start(self, problem, rng):
        """State: the current generation and its fitnesses."""
        return {"members": None, "fitness": None}

    def _propose(self, problem, rng, state):
        """The next generation (initial one is random samples)."""
        if state["members"] is None:
            return [problem.space.sample(rng)
                    for _ in range(self.population)]
        return self._next_generation(problem, rng, state)

    def _observe(self, problem, rng, state, points, fitness):
        """Install the evaluated generation."""
        state["members"] = points
        state["fitness"] = fitness

    def _select(self, rng, scored):
        """Tournament-select one parent from (fitness, point) pairs."""
        best = None
        for _ in range(self.tournament):
            candidate = scored[rng.randrange(len(scored))]
            if best is None or candidate[0] < best[0]:
                best = candidate
        return best[1]

    def _next_generation(self, problem, rng, state):
        """Elites + crossover/mutation children of the current one."""
        scored = [
            (f, i) for i, f in enumerate(state["fitness"])
            if f is not None
        ]
        if not scored:  # budget died mid-generation: keep sampling
            return [problem.space.sample(rng)
                    for _ in range(self.population)]
        pairs = [(f, state["members"][i]) for f, i in scored]
        ranked = sorted(pairs, key=lambda item: item[0])
        children = [dict(point)
                    for _, point in ranked[:self.elitism]]
        while len(children) < self.population:
            parent_a = self._select(rng, pairs)
            parent_b = self._select(rng, pairs)
            if rng.random() < self.crossover_rate:
                child = problem.space.crossover(parent_a, parent_b, rng)
            else:
                child = dict(parent_a)
            children.append(self._mutate(problem.space, child, rng))
        return children

    def _mutate(self, space, point, rng):
        """Per-parameter mutation, constraint-repaired."""
        mutated = dict(point)
        for parameter in space.parameters:
            if rng.random() < self.mutation_rate:
                mutated[parameter.name] = parameter.mutate(
                    mutated[parameter.name], rng)
        if not space.satisfies(mutated):
            return space.mutate(point, rng)
        return mutated


#: Optimizer classes by CLI name.
OPTIMIZERS: Dict[str, type] = {
    "random": RandomSearch,
    "hill": HillClimber,
    "sa": SimulatedAnnealing,
    "ga": GeneticAlgorithm,
}


def make_optimizer(name: str, seed: int = 0, **kwargs) -> Optimizer:
    """Instantiate an optimizer from its registry name.

    Parameters
    ----------
    name:
        One of ``random``, ``hill``, ``sa``, ``ga``.
    seed:
        RNG seed forwarded to the optimizer.
    kwargs:
        Optimizer-specific options (e.g. ``population`` for the GA).

    Returns
    -------
    Optimizer
        The configured optimizer instance.
    """
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; known: {sorted(OPTIMIZERS)}"
        ) from None
    return cls(seed=seed, **kwargs)
