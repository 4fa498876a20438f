"""DSE, DVFS, empirical baseline and cost model tests (Chapters 6-7)."""

import pytest

from repro.core import AnalyticalModel, design_space, nehalem
from repro.core.machine import DVFSPoint, dvfs_points
from repro.explore.cost import (
    interval_model_cost,
    micro_arch_independent_cost,
    simulation_cost,
    speedups,
)
from repro.explore.dse import error_statistics
from repro.explore.engine import SweepEngine
from repro.explore.dvfs import (
    best_under_power_cap,
    config_at,
    explore_dvfs,
    optimal_ed2p,
)
from repro.explore.empirical import EmpiricalModel


class TestDesignSpace:
    def test_243_configurations(self):
        assert len(design_space()) == 243

    def test_unique_names(self):
        names = [c.name for c in design_space()]
        assert len(set(names)) == 243

    def test_custom_axes(self):
        space = design_space({"dispatch_width": (2, 4),
                              "rob_size": (64, 128)})
        assert len(space) == 4

    def test_evaluate_design_space(self, gcc_profile):
        space = design_space({"dispatch_width": (2, 4),
                              "llc_mb": (2, 8)})
        results = SweepEngine(workers=1).sweep([gcc_profile], space)
        points = results["gcc"]
        assert len(points) == 4
        assert all(p.cpi > 0 and p.power_watts > 0 for p in points)

    def test_error_statistics(self):
        stats = error_statistics([1.1, 2.0], [1.0, 2.0], labels=["a", "b"])
        assert stats.mean == pytest.approx(0.05)
        assert stats.maximum == pytest.approx(0.1)
        assert stats.count == 2

    def test_error_statistics_length_mismatch(self):
        with pytest.raises(ValueError):
            error_statistics([1.0], [1.0, 2.0])


class TestDVFS:
    def test_dvfs_grid(self):
        points = dvfs_points()
        assert len(points) >= 5
        frequencies = [p.frequency_ghz for p in points]
        assert frequencies == sorted(frequencies)

    def test_config_at_scales_dram_cycles(self):
        base = nehalem()
        fast = config_at(base, DVFSPoint(frequency_ghz=5.32, vdd=1.3))
        assert fast.dram_latency == pytest.approx(2 * base.dram_latency,
                                                  rel=0.01)

    def test_higher_frequency_fewer_seconds_compute_bound(
        self, gamess_profile
    ):
        results = explore_dvfs(gamess_profile, nehalem())
        by_freq = sorted(results, key=lambda r: r.point.frequency_ghz)
        assert by_freq[0].seconds > by_freq[-1].seconds

    def test_higher_frequency_more_power(self, gamess_profile):
        results = explore_dvfs(gamess_profile, nehalem())
        by_freq = sorted(results, key=lambda r: r.point.frequency_ghz)
        assert by_freq[0].power_watts < by_freq[-1].power_watts

    def test_optimal_ed2p_selection(self, gamess_profile):
        results = explore_dvfs(gamess_profile, nehalem())
        best = optimal_ed2p(results)
        assert best.ed2p == min(r.ed2p for r in results)

    def test_optimal_ed2p_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_ed2p([])

    def test_engine_path_matches_local_loop(self, gamess_profile):
        local = explore_dvfs(gamess_profile, nehalem())
        engine = explore_dvfs(gamess_profile, nehalem(),
                              engine=SweepEngine(workers=1))
        assert [r.point for r in local] == [r.point for r in engine]
        assert [r.seconds for r in local] == [r.seconds for r in engine]
        assert [r.power_watts for r in local] == \
            [r.power_watts for r in engine]

    def test_short_engine_stream_rejected(self, gamess_profile):
        # Regression: a stream shorter than the operating-point grid
        # used to be zip-truncated into silently mispaired results.
        class ShortEngine:
            def iter_sweep(self, profiles, configs):
                real = SweepEngine(workers=1)
                yield from list(real.iter_sweep(profiles, configs))[:-1]

        with pytest.raises(ValueError, match="operating points"):
            explore_dvfs(gamess_profile, nehalem(),
                         engine=ShortEngine())

    def test_power_cap_respected(self, gcc_profile):
        model = AnalyticalModel()
        space = design_space({"dispatch_width": (2, 4, 6)})
        candidates = [(c, model.predict(gcc_profile, c)) for c in space]
        cap = sorted(r.power_watts for _, r in candidates)[1]
        chosen = best_under_power_cap(candidates, cap)
        assert chosen is not None
        assert chosen[1].power_watts <= cap

    def test_power_cap_infeasible(self, gcc_profile):
        model = AnalyticalModel()
        candidates = [(nehalem(), model.predict(gcc_profile, nehalem()))]
        assert best_under_power_cap(candidates, 0.001) is None


class TestEmpiricalModel:
    def test_fits_and_predicts_training_points(self, gcc_profile,
                                               gamess_profile):
        model = AnalyticalModel()
        space = design_space({"dispatch_width": (2, 4, 6),
                              "rob_size": (64, 256)})
        samples = []
        for profile in (gcc_profile, gamess_profile):
            for config in space:
                samples.append(
                    (profile, config,
                     model.predict(profile, config).cpi)
                )
        empirical = EmpiricalModel().fit(samples)
        for profile, config, target in samples[::3]:
            predicted = empirical.predict(profile, config)
            assert predicted == pytest.approx(target, rel=0.35, abs=0.3)

    def test_unfitted_prediction_rejected(self, gcc_profile):
        with pytest.raises(RuntimeError):
            EmpiricalModel().predict(gcc_profile, nehalem())

    def test_too_few_samples_rejected(self, gcc_profile):
        with pytest.raises(ValueError):
            EmpiricalModel().fit([(gcc_profile, nehalem(), 1.0)])


class TestCostModel:
    def test_simulation_cost_formula(self):
        cost = simulation_cost(29, 243, 1e9, mips=0.5)
        assert cost.days == pytest.approx(
            29 * 243 * 1e9 / 0.5e6 / 86400, rel=1e-6
        )

    def test_profile_amortization(self):
        ours = micro_arch_independent_cost(29, 243, 1e9)
        more_configs = micro_arch_independent_cost(29, 486, 1e9)
        # Doubling the config count must NOT double the cost (profiling
        # is a one-time expense) -- the paper's core claim.
        assert more_configs.seconds < 2 * ours.seconds

    def test_headline_speedups(self):
        # Thesis: ~315x over detailed simulation, ~18x over the interval
        # model.  Our defaults reproduce the orders of magnitude.
        result = speedups()
        assert result["speedup_vs_simulation"] > 100
        assert result["speedup_vs_interval"] > 5

    def test_interval_model_amortized_memory_configs(self):
        dense = interval_model_cost(29, 243, 1e9)
        amortized = interval_model_cost(29, 243, 1e9,
                                        distinct_memory_configs=27)
        assert amortized.seconds < dense.seconds


class TestCoreSelection:
    def _results(self, gcc_profile, gamess_profile):
        space = design_space({"dispatch_width": (2, 4),
                              "rob_size": (64, 256)})
        return SweepEngine(workers=1).sweep(
            [gcc_profile, gamess_profile], space)

    def test_per_workload_optimum_minimizes_metric(self, gcc_profile,
                                                   gamess_profile):
        from repro.explore.dse import best_config_per_workload
        results = self._results(gcc_profile, gamess_profile)
        best = best_config_per_workload(results)
        for workload, point in best.items():
            assert point.cpi == min(p.cpi for p in results[workload])

    def test_general_core_is_from_space(self, gcc_profile, gamess_profile):
        from repro.explore.dse import best_average_config
        results = self._results(gcc_profile, gamess_profile)
        name = best_average_config(results)
        assert name in {p.config.name for p in results["gcc"]}

    def test_specialist_never_worse_than_generalist(self, gcc_profile,
                                                    gamess_profile):
        from repro.explore.dse import (
            best_average_config,
            best_config_per_workload,
        )
        results = self._results(gcc_profile, gamess_profile)
        general = best_average_config(results)
        best = best_config_per_workload(results)
        for workload, point in best.items():
            general_point = next(
                p for p in results[workload] if p.config.name == general
            )
            assert point.cpi <= general_point.cpi + 1e-9

    def test_empty_results_rejected(self):
        from repro.explore.dse import best_average_config
        with pytest.raises(ValueError):
            best_average_config({})


class TestPublicAPI:
    def test_star_import_is_well_defined(self):
        """`from repro.explore import *` exposes exactly __all__."""
        import repro.explore as explore
        namespace = {}
        exec("from repro.explore import *", namespace)
        exported = {k for k in namespace if not k.startswith("__")}
        assert exported == set(explore.__all__)

    def test_all_names_resolve(self):
        import repro.explore as explore
        for name in explore.__all__:
            assert getattr(explore, name) is not None

    def test_search_api_exported(self):
        from repro.explore import (
            DesignSpace,
            EvaluationBudget,
            GeneticAlgorithm,
            HillClimber,
            Parameter,
            RandomSearch,
            SearchTrajectory,
            SimulatedAnnealing,
        )
        assert DesignSpace.default().size() == 243
        for cls in (RandomSearch, HillClimber, SimulatedAnnealing,
                    GeneticAlgorithm):
            assert cls(seed=0).seed == 0
        assert EvaluationBudget(1).remaining == 1
        assert Parameter.integer("rob_size", 64, 128, 64).values() == \
            (64, 128)
        assert SearchTrajectory(optimizer="x", seed=0).evaluations == []
