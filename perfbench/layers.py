"""The traced run's per-layer split.

Every layer is measured from outside: each span wraps one call into a
layer's public function, made by this file.  Splits the ``Session``
path hides (profiler passes, StatStack build, ``predict_batch``,
``simulate`` per configuration, ``lookup`` and ``put``) are measured by
calling the same public functions directly on the round's own inputs:
the dse part's applications, trace length and seeds for the
workloads/profiler/statstack/core/explore layers, and the validate
part's traces and corners for the simulator.

Traced runs alternate: even rounds record spans and make these direct
calls after the round's normal work, odd rounds run untraced.  Every
per-layer time is the median over the traced rounds of that round's
total; ``obs.trace_overhead_pct`` compares the ``Session``-path time of
traced rounds with that of untraced ones.
"""

from __future__ import annotations

import gc
import os
import random
from typing import Any, Dict, List

import numpy as np

from perfbench.campaign import (APPS, GA_SEED, SAMPLING, Campaign,
                                search_space)
from perfbench.harness import OutputCheck, Tracer, digest, median, tail

#: Model CPI-stack components named by the per-layer stack metrics; the
#: validate report keys the model's ``llc_chain`` by the simulator's
#: ``llc``.
STACK_COMPONENTS = {"base": "base", "branch": "branch", "icache": "icache",
                    "llc_chain": "llc", "dram": "dram"}

#: ``Session`` phases of a round and the direct spans that redo their
#: work outside the session (``api.session_s`` is the difference).
SESSION_PHASES = ("dse.profile", "dse.sweep", "dse.search")
DIRECT_PHASES = ("workloads.generate", "workloads.columns",
                 "profiler.profile", "statstack.build", "explore.sweep",
                 "explore.pareto", "explore.search")


def _timed_problem(tracer: Tracer, index: int):
    """A ``SearchProblem`` whose ``evaluate`` calls are spans."""
    from repro.explore import SearchProblem

    class TimedSearchProblem(SearchProblem):
        def evaluate(self, points, budget=None, trajectory=None):
            with tracer.span("explore.search_batch", group=index,
                             collect=False, points=len(points)):
                return super().evaluate(points, budget, trajectory)

    return TimedSearchProblem


class Layers:
    """Direct per-layer calls for one traced :class:`Campaign`."""

    def __init__(self, campaign: Campaign) -> None:
        from repro.api import Session
        from repro.serve import ShardedRunStore

        self.campaign = campaign
        self.tracer: Tracer = campaign.tracer
        self.check: OutputCheck = campaign.check
        #: Simulator statistic sums of each traced round.
        self.sim_counts: List[Dict[str, float]] = []
        # An in-process session over a populated sharded store, for the
        # api layer's lookup / put / cold-run calls.
        self.api_session = Session(
            workers=1,
            run_store=ShardedRunStore(os.path.join(campaign.workdir,
                                                   "api-runs")))
        self.api_digests: Dict[str, str] = {}
        for spec in campaign.inputs.warm_specs:
            result = self.api_session.run(spec)
            self.api_digests[digest(spec)] = digest(
                result.to_dict(include_telemetry=False))

    def span(self, name: str, index: int, **attrs: Any):
        """A span of this round's direct calls (one ``gc.collect()`` ran
        before all of them, none runs per span)."""
        return self.tracer.span(name, group=index, collect=False, **attrs)

    def direct_calls(self, index: int, traces) -> None:
        """Every direct per-layer call of one traced round; ``traces``
        are the round's validate traces."""
        gc.collect()
        self.model_side(index)
        self.simulator(index, traces)
        self.api(index)

    # -- workloads / profiler / statstack / core / explore -------------

    def model_side(self, index: int) -> None:
        """Redo the dse part's work through the public functions."""
        from repro.core import AnalyticalModel
        from repro.core.interval import ModelCache
        from repro.explore import (DesignSpace, StreamingParetoFront,
                                   SweepEngine, get_objective,
                                   make_optimizer)
        from repro.profiler import SamplingConfig, profile_application
        from repro.workloads import generate_trace, make_workload
        from repro.workloads.columns import TraceColumns

        campaign = self.campaign
        size = campaign.sizes.dse
        n = size.instructions
        sampling = SamplingConfig(SAMPLING["micro_trace"],
                                  SAMPLING["window"])
        profiles = []
        for app in APPS:
            with self.span("workloads.generate", index, instr=n):
                trace = generate_trace(
                    make_workload(app, seed=campaign.inputs.dse_trace_seed),
                    max_instructions=n)
            with self.span("workloads.columns", index):
                columns = TraceColumns.ensure(trace)
            with self.span("profiler.profile", index, instr=n):
                profile = profile_application(trace, sampling)
            self.profiler_passes(columns, sampling, index)
            with self.span("statstack.build", index):
                profile.statstack()
                profile.instruction_statstack()
            profiles.append(profile)

        configs = DesignSpace.default().configs()
        for profile in profiles:
            with self.span("core.predict_batch", index):
                AnalyticalModel(cache=ModelCache()).predict_batch(
                    profile, configs)

        engine = SweepEngine(model=AnalyticalModel(cache=ModelCache()),
                             workers=1)
        with self.span("explore.sweep", index):
            points = list(engine.iter_sweep(profiles, configs))
        with self.span("explore.pareto", index):
            fronts = {p.name: StreamingParetoFront() for p in profiles}
            for point in points:
                fronts[point.workload].add_point(point)
        problem = _timed_problem(self.tracer, index)(
            profiles, search_space(), get_objective("edp"), engine=engine)
        with self.span("explore.search", index):
            make_optimizer("ga", seed=GA_SEED).search(
                problem, size.budget)

    def profiler_passes(self, columns, sampling, index: int) -> None:
        """Each profiler pass, on the columns ``profile_application``
        just used."""
        from repro.frontend.entropy import profile_branch_entropy
        from repro.profiler import (profile_cold_misses,
                                    profile_dependence_chains, profile_mix,
                                    profile_micro_trace_memory)
        from repro.profiler.sampling import iter_micro_spans
        from repro.statstack.reuse import ReuseProfile, reuse_sweep_into

        with self.span("profiler.reuse", index):
            positions = np.nonzero(columns.is_mem)[0]
            reuse_sweep_into(ReuseProfile(line_size=64),
                             columns.addr[positions],
                             columns.is_store[positions],
                             sampling.reuse_sample_rate,
                             random.Random(sampling.reuse_seed))
            reuse_sweep_into(ReuseProfile(line_size=64), columns.pc,
                             np.zeros(len(columns), dtype=bool), 1.0, None)
        with self.span("profiler.cold", index):
            profile_cold_misses((), columns=columns)
        with self.span("profiler.entropy", index):
            profile_branch_entropy((), (4, 8, 12), columns=columns)
        with self.span("profiler.micro", index):
            for start, end in iter_micro_spans(len(columns), sampling):
                micro = columns[start:end]
                profile_mix((), columns=micro)
                profile_dependence_chains((), columns=micro)
                profile_micro_trace_memory((), line_size=64, columns=micro)

    # -- simulator -----------------------------------------------------

    def simulator(self, index: int, traces) -> None:
        """``simulate`` per validate trace x corner."""
        from repro.explore import DesignSpace
        from repro.simulator import simulate

        configs = DesignSpace.load(self.campaign.corners_path).configs()
        counts = {"cycles": 0.0, "mispredictions": 0,
                  "llc_load_misses": 0, "dram_accesses": 0}
        for trace in traces:
            for config in configs:
                with self.span("simulator.simulate", index,
                               instr=len(trace)):
                    result = simulate(trace, config)
                counts["cycles"] += result.cycles
                counts["mispredictions"] += result.branch_mispredictions
                counts["llc_load_misses"] += result.llc_load_misses
                counts["dram_accesses"] += result.dram_accesses
        self.check.same_as_first("simulator.counts", counts)
        self.sim_counts.append(counts)

    # -- api -----------------------------------------------------------

    def api(self, index: int) -> None:
        """Store lookups, one cold in-process sweep and its store put."""
        from repro.api import ExperimentSpec, Session

        session = self.api_session
        for spec in self.campaign.inputs.warm_specs:
            with self.span("api.lookup", index):
                cached = session.lookup(spec)
            if cached is None or digest(cached.to_dict(
                    include_telemetry=False)) != self.api_digests[
                        digest(spec)]:
                self.check.fail("api.lookup: store miss or wrong result")
        spec = ExperimentSpec.coerce(
            self.campaign.inputs.api_cold_specs[index])
        with self.span("api.run_sweep", index):
            result = session.run(spec)
        with self.span("api.store_put", index):
            session.run_store.put(result, key=Session.run_key(spec))

    # -- metrics -------------------------------------------------------

    def per_round(self, name: str, attr: str = "") -> List[float]:
        """Per traced round: total seconds of ``name`` spans, or (with
        ``attr``) total ``attr`` over total seconds."""
        values = []
        for spans in self.tracer.by_group(name).values():
            seconds = sum(s.seconds for s in spans)
            if attr:
                values.append(sum(s.attrs[attr] for s in spans) / seconds)
            else:
                values.append(seconds)
        return values

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of this traced run."""
        campaign = self.campaign
        tracer = self.tracer
        metrics: Dict[str, float] = {
            "workloads.generate_instr_per_s": median(
                self.per_round("workloads.generate", "instr")),
            "workloads.columns_s": median(
                self.per_round("workloads.columns")),
            "profiler.profile_instr_per_s": median(
                self.per_round("profiler.profile", "instr")),
            "profiler.reuse_s": median(self.per_round("profiler.reuse")),
            "profiler.cold_s": median(self.per_round("profiler.cold")),
            "profiler.entropy_s": median(
                self.per_round("profiler.entropy")),
            "profiler.micro_s": median(self.per_round("profiler.micro")),
            "statstack.build_s": median(self.per_round("statstack.build")),
            "core.predict_batch_s": median(
                self.per_round("core.predict_batch")),
            "explore.sweep_s": median(self.per_round("explore.sweep")),
            "explore.pareto_s": median(self.per_round("explore.pareto")),
            "simulator.instr_per_s": median(
                self.per_round("simulator.simulate", "instr")),
            "api.lookup_ms": 1000.0 * median(
                [s.seconds for spans in tracer.by_group("api.lookup")
                 .values() for s in spans]),
            "api.store_put_ms": 1000.0 * median(
                self.per_round("api.store_put")),
            "api.run_sweep_ms": 1000.0 * median(
                self.per_round("api.run_sweep")),
        }
        batches = tracer.by_group("explore.search_batch")
        metrics["explore.search_batch_ms"] = 1000.0 * median(
            [s.seconds for spans in batches.values() for s in spans])
        metrics["explore.search_batches"] = median(
            [len(spans) for spans in batches.values()])

        sweep = campaign.cache_counts["sweep"][0]
        search = campaign.cache_counts["search"][0]
        metrics["core.sweep_cache_misses"] = sweep[1]
        metrics["core.sweep_cache_hit_ratio"] = sweep[0] / sum(sweep)
        metrics["core.search_cache_hit_ratio"] = search[0] / sum(search)

        counts = self.sim_counts[0]
        for key in ("cycles", "mispredictions", "llc_load_misses",
                    "dram_accesses"):
            metrics[f"simulator.{key}"] = counts[key]

        report = {w["workload"]: w
                  for w in campaign.validate_report["workloads"]}
        for app in APPS:
            metrics[f"core.cpi_err.{app}"] = (
                100.0 * report[app]["cpi_error"]["mean"])
            metrics[f"core.power_err.{app}"] = (
                100.0 * report[app]["power_error"]["mean"])
        for component, key in STACK_COMPONENTS.items():
            metrics[f"core.stack_err.{component}"] = sum(
                report[app]["cpi_stack_error"][key] for app in APPS
            ) / len(APPS)

        session_s = [
            sum(self._group_seconds(name, group) for name in SESSION_PHASES)
            - sum(self._group_seconds(name, group) for name in DIRECT_PHASES)
            for group in tracer.by_group("explore.search")]
        metrics["api.session_s"] = median(session_s)

        metrics.update(self.serve_metrics())

        traced, plain = [], []
        for index in range(campaign.rounds_run):
            total = sum(campaign.samples[name][index]
                        for name in SESSION_PHASES + ("validate.run",))
            (traced if index % 2 == 0 else plain).append(total)
        metrics["obs.trace_overhead_pct"] = 100.0 * (
            median(traced) / median(plain) - 1.0)
        return metrics

    def _group_seconds(self, name: str, group: Any) -> float:
        return sum(s.seconds for s in self.tracer.by_group(name)
                   .get(group, ()))

    def serve_metrics(self) -> Dict[str, float]:
        """Client-side latency by request class and the server's own
        counters over the rounds (``GET /stats`` deltas)."""
        campaign = self.campaign
        metrics = {}
        for cls in ("read", "write"):
            values = campaign.latencies(cls)
            metrics[f"serve.{cls}_p50_ms"] = 1000.0 * median(values)
            metrics[f"serve.{cls}_tail_ms"] = 1000.0 * tail(values)[1]
        before, after = campaign.stats_before, campaign.stats_after

        def delta(section: str, key: str) -> int:
            return after[section][key] - before[section][key]

        metrics["serve.store_hit_ratio"] = (
            delta("server", "store_hits") / campaign.sent)
        computed = delta("batch", "computed")
        metrics["serve.batch_merged_ratio"] = (
            delta("batch", "merged") / computed if computed else 0.0)
        metrics["serve.dedup_followers"] = delta("dedup", "followers")
        return metrics

    def close(self) -> None:
        """Release the in-process api session."""
        self.api_session.close()
