"""Golden tests: the Session-routed CLI is bitwise-identical to the
historical hand-wired subcommand implementations.

Each ``legacy_*`` function below reproduces the pre-API ``cmd_*`` logic
verbatim (direct model / engine / campaign calls and the exact print
statements).  The tests run both paths and compare the full text --
and, where a subcommand writes JSON artifacts, compare those against
``Session.run``'s payload byte for byte.
"""

import json

import pytest

from repro.api import ExperimentSpec, Session
from repro.cli import main


@pytest.fixture(scope="module")
def gcc_profile_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("profiles") / "gcc.profile")
    assert main(["profile", "gcc", "-o", path,
                 "--instructions", "4000"]) == 0
    return path


@pytest.fixture(scope="module")
def mcf_profile_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("profiles") / "mcf.profile")
    assert main(["profile", "mcf", "-o", path,
                 "--instructions", "4000"]) == 0
    return path


# ----------------------------------------------------------------------
# Legacy reference implementations (the pre-API cmd_* bodies)
# ----------------------------------------------------------------------


def legacy_predict(path, mlp_model="stride"):
    from repro.core import AnalyticalModel, nehalem
    from repro.profiler.serialization import load_profile

    profile = load_profile(path)
    config = nehalem()
    model = AnalyticalModel(mlp_model=mlp_model)
    result = model.predict(profile, config)
    print(f"workload:  {profile.name}")
    print(f"config:    {config.name}")
    print(f"CPI:       {result.cpi:.3f}   (IPC {1 / result.cpi:.3f})")
    print(f"time:      {result.seconds * 1e3:.3f} ms")
    print(f"power:     {result.power_watts:.2f} W "
          f"(static {result.power.static_total:.2f} W)")
    print(f"energy:    {result.energy_joules * 1e3:.3f} mJ   "
          f"EDP {result.edp:.3e}   ED2P {result.ed2p:.3e}")
    print("CPI stack: " + "  ".join(
        f"{key}={value:.3f}" for key, value in result.cpi_stack().items()
    ))


def legacy_sweep(paths, limit=None, objective=None):
    from repro.explore.dse import best_average_config
    from repro.explore.engine import SweepEngine
    from repro.explore.pareto import StreamingParetoFront
    from repro.explore.search import get_objective
    from repro.explore.space import DesignSpace
    from repro.profiler.serialization import load_profile

    profiles = [load_profile(path) for path in paths]
    configs = DesignSpace.default().configs()
    if limit is not None:
        configs = configs[:limit]
    engine = SweepEngine(workers=1)
    frontiers = {p.name: StreamingParetoFront() for p in profiles}
    results = {p.name: [] for p in profiles}
    for point in engine.iter_sweep(profiles, configs):
        results[point.workload].append(point)
        frontiers[point.workload].add_point(point)
    for profile in profiles:
        points = results[profile.name]
        frontier = frontiers[profile.name].frontier()
        print(f"{profile.name}: {len(points)} designs evaluated; "
              f"{len(frontier)} Pareto-optimal:")
        for _, _, point in frontier:
            print(f"  {point.config.name:<32s} "
                  f"{point.seconds * 1e6:9.1f} us "
                  f"{point.power_watts:7.2f} W  CPI {point.cpi:5.2f}")
    if not configs:
        return
    if objective:
        objective = get_objective(objective)
        best = best_average_config(results, metric=objective.metric)
        print(f"best average config ({objective.name}): {best}")
    elif len(profiles) > 1:
        print(f"best average config: {best_average_config(results)}")


def legacy_search(path, optimizer, budget, seed, objective="edp"):
    from repro.explore.engine import SweepEngine
    from repro.explore.search import (
        SearchProblem,
        get_objective,
        make_optimizer,
    )
    from repro.explore.space import DesignSpace
    from repro.profiler.serialization import load_profile

    agent = make_optimizer(optimizer, seed=seed)
    profiles = [load_profile(path)]
    space = DesignSpace.default()
    objective = get_objective(objective, power_cap_watts=None)
    engine = SweepEngine(workers=1)
    problem = SearchProblem(profiles, space, objective, engine=engine)
    trajectory = agent.search(problem, budget)
    size = space.size()
    evaluated = len(trajectory)
    workloads = ", ".join(p.name for p in profiles)
    print(f"space:       {space.name} ({size} valid configurations)")
    print(f"workloads:   {workloads}")
    print(f"optimizer:   {agent.name} (seed {seed})")
    print(f"objective:   {objective.name} (minimized, averaged over "
          f"{len(profiles)} workload(s))")
    print(f"evaluated:   {evaluated} configs "
          f"({100.0 * evaluated / size:.1f}% of the space, budget "
          f"{budget}) in {trajectory.wall_seconds:.2f} s")
    best = trajectory.best
    point_text = " ".join(f"{k}={v}" for k, v in best.point.items())
    print(f"best {objective.name}: {best.fitness:.6e} "
          f"(found at evaluation {best.index + 1})")
    print(f"best point:  {point_text}")
    print(f"best config: {space.config(best.point).name}")
    improvements = []
    best_so_far = None
    for evaluation in trajectory.evaluations:
        if best_so_far is None or evaluation.fitness < best_so_far:
            best_so_far = evaluation.fitness
            improvements.append(evaluation)
    shown = improvements[-8:]
    print(f"best-so-far curve ({len(improvements)} improvements, "
          f"last {len(shown)} shown):")
    for evaluation in shown:
        print(f"  eval {evaluation.index + 1:>5d}: "
              f"{evaluation.fitness:.6e}")
    return trajectory


def legacy_validate(workloads, limit, instructions, train_fraction):
    from repro.explore.space import DesignSpace
    from repro.explore.validate import ValidationCampaign
    from repro.profiler import SamplingConfig

    space = DesignSpace.default()
    configs = space.configs()[:limit]
    campaign = ValidationCampaign.from_workloads(
        workloads,
        configs,
        instructions=instructions,
        sampling=SamplingConfig(1000, 5000),
        trace_seed=42,
        model_workers=1,
        sim_workers=1,
        train_fraction=train_fraction,
        seed=0,
        space_name=space.name,
    )
    report = campaign.run()
    print("\n".join(report.summary_lines()))
    return report


def legacy_dvfs(path, frequencies=None, power_cap=None):
    from repro.core import nehalem
    from repro.core.machine import DVFSPoint, dvfs_vdd
    from repro.explore.dvfs import (
        best_under_power_cap,
        config_at,
        explore_dvfs,
        optimal_ed2p,
    )
    from repro.profiler.serialization import load_profile

    profile = load_profile(path)
    base = nehalem()
    points = None
    if frequencies:
        points = [DVFSPoint(f, dvfs_vdd(f)) for f in frequencies]
    results = explore_dvfs(profile, base, points=points, engine=None)
    best = optimal_ed2p(results)
    print(f"workload: {profile.name}   base: {base.name}")
    for result in results:
        marker = "   <- ED2P optimum" if result is best else ""
        print(f"  {result.point.frequency_ghz:5.2f} GHz "
              f"@{result.point.vdd:.2f} V  "
              f"{result.seconds * 1e3:8.3f} ms  "
              f"{result.power_watts:6.2f} W  "
              f"{result.energy_joules * 1e3:8.3f} mJ  "
              f"ED2P {result.ed2p:.3e}{marker}")
    if power_cap is not None:
        candidates = [(config_at(base, result.point), result.result)
                      for result in results]
        capped = best_under_power_cap(candidates, power_cap)
        if capped is None:
            print(f"no operating point fits {power_cap:.1f} W")
        else:
            config, result = capped
            print(f"fastest under {power_cap:.1f} W: {config.name} "
                  f"({result.seconds * 1e3:.3f} ms, "
                  f"{result.power_watts:.2f} W)")


# ----------------------------------------------------------------------
# Golden: new CLI text == legacy text
# ----------------------------------------------------------------------


class TestGoldenText:
    def test_predict(self, gcc_profile_path, capsys):
        legacy_predict(gcc_profile_path)
        expected = capsys.readouterr().out
        assert main(["predict", gcc_profile_path]) == 0
        assert capsys.readouterr().out == expected

    def test_predict_mlp_variant(self, gcc_profile_path, capsys):
        legacy_predict(gcc_profile_path, mlp_model="cold")
        expected = capsys.readouterr().out
        assert main(["predict", gcc_profile_path,
                     "--mlp-model", "cold"]) == 0
        assert capsys.readouterr().out == expected

    def test_sweep(self, gcc_profile_path, mcf_profile_path, capsys):
        legacy_sweep([gcc_profile_path, mcf_profile_path], limit=9)
        expected = capsys.readouterr().out
        assert main(["sweep", gcc_profile_path, mcf_profile_path,
                     "--limit", "9"]) == 0
        assert capsys.readouterr().out == expected

    def test_sweep_objective(self, gcc_profile_path, capsys):
        legacy_sweep([gcc_profile_path], limit=9, objective="energy")
        expected = capsys.readouterr().out
        assert main(["sweep", gcc_profile_path, "--limit", "9",
                     "--objective", "energy"]) == 0
        assert capsys.readouterr().out == expected

    def test_search(self, gcc_profile_path, capsys):
        legacy_search(gcc_profile_path, "random", budget=10, seed=3)
        expected = capsys.readouterr().out
        assert main(["search", gcc_profile_path, "--optimizer",
                     "random", "--budget", "10", "--seed", "3"]) == 0
        actual = capsys.readouterr().out

        def stable(text):
            # The "evaluated: ... in N.NN s" line carries wall-clock.
            return [line for line in text.splitlines()
                    if not line.startswith("evaluated:")]

        assert stable(actual) == stable(expected)

    def test_validate(self, capsys):
        legacy_validate(["gcc"], limit=4, instructions=3000,
                        train_fraction=0.25)
        expected = capsys.readouterr().out
        assert main(["validate", "gcc", "--limit", "4",
                     "--instructions", "3000",
                     "--train-fraction", "0.25"]) == 0
        assert capsys.readouterr().out == expected

    def test_dvfs(self, gcc_profile_path, capsys):
        legacy_dvfs(gcc_profile_path, power_cap=1000.0)
        expected = capsys.readouterr().out
        assert main(["dvfs", gcc_profile_path,
                     "--power-cap", "1000"]) == 0
        assert capsys.readouterr().out == expected

    def test_dvfs_custom_frequencies(self, gcc_profile_path, capsys):
        legacy_dvfs(gcc_profile_path, frequencies=[1.2, 2.66])
        expected = capsys.readouterr().out
        assert main(["dvfs", gcc_profile_path,
                     "--frequencies", "1.2,2.66"]) == 0
        assert capsys.readouterr().out == expected


# ----------------------------------------------------------------------
# Golden: CLI JSON artifacts == Session.run payloads
# ----------------------------------------------------------------------


def _canon(data):
    return json.dumps(data, sort_keys=True)


class TestGoldenJson:
    def test_validate_json_is_the_session_payload(self, tmp_path,
                                                  capsys):
        out = str(tmp_path / "report.json")
        args = ["validate", "gcc", "--limit", "4",
                "--instructions", "3000", "--train-fraction", "0"]
        assert main(args + ["--json", out]) == 0
        capsys.readouterr()
        cli_data = json.load(open(out))

        with Session() as session:
            payload = session.run(ExperimentSpec(
                "validate", workloads=["gcc"], limit=4,
                instructions=3000, train_fraction=0.0)).data
        assert _canon(cli_data) == _canon(payload)

    def test_search_trajectory_is_the_session_payload(
        self, tmp_path, gcc_profile_path, capsys
    ):
        out = str(tmp_path / "trajectory.json")
        assert main(["search", gcc_profile_path, "--optimizer",
                     "random", "--budget", "8", "--seed", "5",
                     "--trajectory", out]) == 0
        capsys.readouterr()
        cli_data = json.load(open(out))

        with Session() as session:
            payload = session.run(ExperimentSpec(
                "search", profiles=[gcc_profile_path],
                optimizer="random", budget=8, seed=5)).data
        trajectory = payload["trajectory"]
        cli_data.pop("wall_seconds")
        trajectory.pop("wall_seconds")
        assert _canon(cli_data) == _canon(trajectory)

    def test_profile_json_is_the_session_payload(self, tmp_path,
                                                 capsys):
        out = str(tmp_path / "profiles.json")
        store = str(tmp_path / "store")
        assert main(["profile", "gcc", "--store", store,
                     "--instructions", "3000", "--json", out]) == 0
        capsys.readouterr()
        cli_data = json.load(open(out))

        with Session() as session:
            payload = session.run(ExperimentSpec(
                "profile", workloads=["gcc"], instructions=3000,
                store=str(tmp_path / "store2"))).data
        for data in (cli_data, payload):
            data["store"] = None
            for entry in data["profiles"]:
                entry["seconds"] = 0.0
        assert _canon(cli_data) == _canon(payload)

    def test_parallel_cli_matches_serial_cli(self, gcc_profile_path,
                                             capsys):
        """--workers routes through the shared pool; output identical."""
        assert main(["sweep", gcc_profile_path, "--limit", "12"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", gcc_profile_path, "--limit", "12",
                     "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


# ----------------------------------------------------------------------
# The `repro run` subcommand
# ----------------------------------------------------------------------


class TestRunCommand:
    def _write_spec(self, tmp_path, name, spec):
        path = str(tmp_path / name)
        spec.save(path)
        return path

    def test_run_executes_specs_and_caches(self, tmp_path, capsys):
        sweep = self._write_spec(tmp_path, "sweep.json", ExperimentSpec(
            "sweep", workloads=["gcc"], instructions=3000, limit=4))
        predict = self._write_spec(
            tmp_path, "predict.json",
            ExperimentSpec("predict", workload="gcc",
                           instructions=3000))
        runs = str(tmp_path / "runs")
        out = str(tmp_path / "results.json")
        assert main(["run", sweep, predict, "--runs", runs,
                     "--json", out]) == 0
        text = capsys.readouterr().out
        assert "ran    sweep" in text and "ran    predict" in text
        assert "2 computed, 0 from run store" in text
        results = json.load(open(out))
        assert [r["kind"] for r in results] == ["sweep", "predict"]

        # Second campaign over the same store: everything is skipped.
        assert main(["run", sweep, predict, "--runs", runs]) == 0
        text = capsys.readouterr().out
        assert "cached sweep" in text and "cached predict" in text
        assert "0 computed, 2 from run store" in text

    def test_run_without_store_recomputes(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, "dvfs.json", ExperimentSpec(
            "dvfs", workload="gcc", instructions=3000))
        assert main(["run", spec]) == 0
        assert "1 computed, 0 from run store" in \
            capsys.readouterr().out

    def test_run_rejects_bad_spec(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"kind": "teleport", "params": {}}, handle)
        assert main(["run", path]) == 2
        assert "unknown experiment kind" in capsys.readouterr().err

    def test_run_rejects_duplicate_workloads(self, tmp_path, capsys):
        path = str(tmp_path / "profile.json")
        with open(path, "w") as handle:
            json.dump({"kind": "profile",
                       "params": {"workloads": ["gcc", "gcc"],
                                  "instructions": 2000}}, handle)
        assert main(["run", path]) == 2
        assert "duplicate workload name(s): gcc" in \
            capsys.readouterr().err

    def test_run_rejects_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_spec_equals_subcommand_output(self, tmp_path, capsys):
        """A spec file run through `repro run --json` carries the same
        payload the equivalent subcommand computes."""
        spec = ExperimentSpec("validate", workloads=["gcc"], limit=2,
                              instructions=3000, train_fraction=0.0)
        path = self._write_spec(tmp_path, "validate.json", spec)
        out = str(tmp_path / "results.json")
        assert main(["run", path, "--json", out]) == 0
        capsys.readouterr()
        run_payload = json.load(open(out))[0]["data"]

        report = str(tmp_path / "report.json")
        assert main(["validate", "gcc", "--limit", "2",
                     "--instructions", "3000", "--train-fraction", "0",
                     "--json", report]) == 0
        capsys.readouterr()
        assert _canon(json.load(open(report))) == _canon(run_payload)
