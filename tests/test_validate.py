"""Validation-campaign tests (thesis §7.4-§7.5): sweep + report."""

import json

import pytest

from equivalence import assert_power_bitwise, assert_simulations_bitwise
from repro.core.machine import config_from_params, design_space
from repro.explore.engine import SweepEngine
from repro.explore.validate import (
    SimulationSweep,
    ValidationCampaign,
    ValidationCase,
)
from repro.profiler import SamplingConfig, profile_application
from repro.simulator.simulator import STACK_KEYS
from repro.workloads import generate_trace, make_workload

SMALL_AXES = {"dispatch_width": (2, 4), "llc_mb": (2, 8)}


def _small_cases(names, instructions=3000):
    cases = []
    for name in names:
        trace = generate_trace(make_workload(name),
                               max_instructions=instructions)
        profile = profile_application(trace, SamplingConfig(500, 1500))
        cases.append(ValidationCase(profile=profile, trace=trace))
    return cases


@pytest.fixture(scope="module")
def small_campaign_report():
    configs = design_space(SMALL_AXES)
    campaign = ValidationCampaign(
        _small_cases(["gcc", "mcf"]), configs, train_fraction=0.0
    )
    return campaign.run()


class TestSimulationSweep:
    def test_parallel_matches_serial_order_and_values(self):
        configs = design_space(SMALL_AXES)
        traces = [
            generate_trace(make_workload(name), max_instructions=2000)
            for name in ("gcc", "libquantum")
        ]
        serial = list(SimulationSweep(workers=1).iter_sweep(
            traces, configs))
        # Workers receive the traces without the outcome columns the
        # serial sweep memoized on them, and build their own.
        parallel = list(SimulationSweep(workers=3).iter_sweep(
            traces, configs))
        assert len(serial) == len(parallel) == 2 * len(configs)
        for a, b in zip(serial, parallel):
            assert a.workload == b.workload
            assert a.config.name == b.config.name
            assert_simulations_bitwise(a.result, b.result)
            assert a.power_watts == b.power_watts

    def test_trace_major_order(self):
        configs = design_space({"dispatch_width": (2, 4)})
        traces = [
            generate_trace(make_workload(name), max_instructions=1000)
            for name in ("gcc", "mcf")
        ]
        points = list(SimulationSweep(workers=1).iter_sweep(
            traces, configs))
        assert [p.workload for p in points] == ["gcc"] * 2 + ["mcf"] * 2
        assert [p.config.name for p in points[:2]] == [
            c.name for c in configs
        ]

    def test_power_is_measured_activity(self):
        configs = design_space({"dispatch_width": (4,)})
        trace = generate_trace(make_workload("gcc"),
                               max_instructions=1000)
        (point,) = SimulationSweep(workers=1).iter_sweep(
            [trace], configs)
        assert point.power_watts > 0.0
        assert point.energy_joules == pytest.approx(
            point.power_watts * point.seconds
        )
        assert point.cpi == point.result.cpi

    def test_points_match_power_oracle(self):
        # The five perfbench apps on the four Table 6.3 corners of the
        # validate benchmark (width 2 / ROB 64 and width 6 / ROB 256,
        # each with a 2 MB and an 8 MB LLC), two configs per task.
        configs = [
            config_from_params({"dispatch_width": width, "rob_size": rob,
                                "llc_mb": llc})
            for width, rob in ((2, 64), (6, 256)) for llc in (2, 8)
        ]
        traces = [
            generate_trace(make_workload(name), max_instructions=6000)
            for name in ("libquantum", "mcf", "gamess", "gcc", "astar")
        ]
        points = list(SimulationSweep(workers=1, batch_size=2).iter_sweep(
            traces, configs))
        grid = [(trace, config) for trace in traces for config in configs]
        assert len(points) == len(grid)
        for point, (trace, config) in zip(points, grid):
            assert point.workload == point.result.workload == trace.name
            assert point.config is config
            assert point.result.config_name == config.name
            assert_power_bitwise(config, point.result.activity,
                                 point.power, point.energy_joules)

    def test_default_is_serial(self, pool_starts):
        # The default sweep must not start worker processes, even on a
        # multi-core host.
        configs = design_space({"dispatch_width": (2, 4, 6),
                                "rob_size": (64, 256)})
        trace = generate_trace(make_workload("gcc"),
                               max_instructions=1000)
        points = list(SimulationSweep().iter_sweep([trace], configs))
        assert len(points) == len(configs)
        assert pool_starts == []


class TestValidationCase:
    def test_name_mismatch_rejected(self):
        gcc = generate_trace(make_workload("gcc"),
                             max_instructions=1000)
        mcf = generate_trace(make_workload("mcf"),
                             max_instructions=1000)
        profile = profile_application(gcc, SamplingConfig(500, 1500))
        with pytest.raises(ValueError, match="does not match"):
            ValidationCase(profile=profile, trace=mcf)


class TestValidationCampaign:
    def test_report_shape(self, small_campaign_report):
        report = small_campaign_report
        assert report.n_configs == 4
        assert [w.workload for w in report.workloads] == ["gcc", "mcf"]
        for w in report.workloads:
            assert w.cpi_error.count == 4
            assert set(w.stack_error) == set(STACK_KEYS)
            m = w.metrics
            for value in (m.sensitivity, m.specificity,
                          m.accuracy, m.hvr):
                assert 0.0 <= value <= 1.0 + 1e-9
            assert w.baseline is None  # train_fraction=0

    def test_report_is_json_serializable(self, small_campaign_report):
        payload = json.dumps(small_campaign_report.as_dict())
        data = json.loads(payload)
        assert data["n_configs"] == 4
        assert {w["workload"] for w in data["workloads"]} == \
            {"gcc", "mcf"}
        assert "pareto" in data["workloads"][0]
        assert "cpi_stack_error" in data["workloads"][0]

    def test_summary_lines_mention_metrics(self, small_campaign_report):
        text = "\n".join(small_campaign_report.summary_lines())
        assert "gcc" in text and "mcf" in text
        assert "sensitivity" in text and "HVR" in text

    def test_baseline_trained_on_held_out_subsample(self):
        configs = design_space({"dispatch_width": (2, 4),
                                "llc_mb": (2, 8),
                                "rob_size": (64, 128),
                                "l1d_kb": (16, 32)})
        campaign = ValidationCampaign(
            _small_cases(["gcc"]), configs, train_fraction=0.25
        )
        report = campaign.run()
        baseline = report.workloads[0].baseline
        assert baseline is not None
        assert baseline.train_size == 4
        assert baseline.train_size + baseline.holdout_size == 16
        assert baseline.mechanistic_cpi_error.count == \
            baseline.holdout_size
        assert baseline.empirical_cpi_error.count == \
            baseline.holdout_size

    def test_deterministic_across_worker_counts(self):
        configs = design_space(SMALL_AXES)
        cases = _small_cases(["libquantum"], instructions=2000)
        reports = []
        for workers in (1, 2):
            campaign = ValidationCampaign(
                cases, configs, model_workers=workers,
                sim_workers=workers, train_fraction=0.0,
            )
            data = campaign.run().as_dict()
            data.pop("model_workers")
            data.pop("sim_workers")
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]

    def test_report_records_worker_counts_that_ran(self, monkeypatch):
        # On a one-CPU host None and 0 both run one in-process worker,
        # and an explicit engine runs at its own count.
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        configs = design_space(SMALL_AXES)[:2]
        for workers in (None, 0):
            data = ValidationCampaign.from_workloads(
                ["gcc"], configs, instructions=1000,
                model_workers=workers, train_fraction=0.0,
            ).run().as_dict()
            assert (data["model_workers"], data["sim_workers"]) == (1, 1)
        data = ValidationCampaign.from_workloads(
            ["gcc"], configs, instructions=1000,
            engine=SweepEngine(workers=1), model_workers=3,
            sim_workers=1, train_fraction=0.0,
        ).run().as_dict()
        assert (data["model_workers"], data["sim_workers"]) == (1, 1)

    def test_duplicate_workloads_rejected(self):
        cases = _small_cases(["gcc"], instructions=1000) * 2
        with pytest.raises(ValueError, match="duplicate"):
            ValidationCampaign(cases, design_space(SMALL_AXES))

    def test_empty_grid_rejected(self):
        cases = _small_cases(["gcc"], instructions=1000)
        with pytest.raises(ValueError, match="config"):
            ValidationCampaign(cases, [])

    def test_bad_train_fraction_rejected(self):
        cases = _small_cases(["gcc"], instructions=1000)
        with pytest.raises(ValueError, match="train_fraction"):
            ValidationCampaign(cases, design_space(SMALL_AXES),
                               train_fraction=1.0)

    def test_from_workloads_builds_matching_cases(self):
        campaign = ValidationCampaign.from_workloads(
            ["gcc"], design_space(SMALL_AXES), instructions=1000,
            sampling=SamplingConfig(500, 1500),
        )
        (case,) = campaign.cases
        assert case.profile.name == case.trace.name == "gcc"
        assert case.profile.num_instructions == 1000
        assert campaign.space_name == "configs"

    def test_design_space_object_accepted(self):
        from repro.explore.space import DesignSpace, Parameter

        space = DesignSpace(
            parameters=(
                Parameter.categorical("dispatch_width", (2, 4)),
            ),
            name="tiny-validate",
        )
        campaign = ValidationCampaign(
            _small_cases(["gcc"], instructions=1000), space,
            train_fraction=0.0,
        )
        assert campaign.space_name == "tiny-validate"
        assert len(campaign.configs) == 2
