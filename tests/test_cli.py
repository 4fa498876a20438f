"""CLI tests: every subcommand end-to-end."""

import pytest

from repro.cli import build_parser, main


class TestWorkloadsCommand:
    def test_lists_suite(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "mcf" in out
        assert len(out.strip().splitlines()) == 29


class TestProfilePredictFlow:
    def test_profile_then_predict(self, tmp_path, capsys):
        path = str(tmp_path / "gamess.profile")
        assert main(["profile", "gamess", "-o", path,
                     "--instructions", "5000"]) == 0
        assert main(["predict", path]) == 0
        out = capsys.readouterr().out
        assert "CPI:" in out and "power:" in out

    def test_predict_with_overrides(self, tmp_path, capsys):
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "5000"])
        assert main(["predict", path, "--width", "2", "--rob", "64",
                     "--llc-mb", "2", "--frequency", "1.6"]) == 0
        out = capsys.readouterr().out
        assert "1.60GHz" in out

    def test_profile_into_store_warms_cache(self, tmp_path, capsys):
        import json
        import os

        store = str(tmp_path / "store")
        report = str(tmp_path / "profiles.json")
        assert main(["profile", "gcc", "mcf", "--store", store,
                     "--instructions", "4000", "--json", report]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "mcf" in out and "store:" in out
        data = json.load(open(report))
        assert [p["workload"] for p in data["profiles"]] == ["gcc",
                                                             "mcf"]
        for entry in data["profiles"]:
            key = entry["fingerprint"]
            assert len(key) == 64
            # Both the profile and its warmed StatStack tables exist.
            assert os.path.exists(
                os.path.join(store, f"{key}.profile.json"))
            assert os.path.exists(
                os.path.join(store, f"{key}.tables.json"))

    def test_profile_store_matches_file_output(self, tmp_path):
        from repro.profiler.serialization import (
            load_profile,
            profile_fingerprint,
        )

        store = str(tmp_path / "store")
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--store", store,
              "--instructions", "4000"])
        profile = load_profile(path)
        key = profile_fingerprint(profile)
        assert main(["profile", "gcc", "--store", store,
                     "--instructions", "4000"]) == 0
        loaded = load_profile(
            str(tmp_path / "store" / f"{key}.profile.json"))
        assert profile_fingerprint(loaded) == key

    def test_profile_duplicate_workloads_rejected(self, tmp_path,
                                                  capsys):
        assert main(["profile", "gcc", "gcc",
                     "--store", str(tmp_path / "store")]) == 2
        err = capsys.readouterr().err
        assert "duplicate workload name" in err and "gcc" in err

    def test_profile_requires_destination(self, capsys):
        assert main(["profile", "gcc"]) == 2
        assert "-o/--output and/or --store" in capsys.readouterr().err

    def test_profile_output_single_workload_only(self, tmp_path,
                                                 capsys):
        assert main(["profile", "gcc", "mcf",
                     "-o", str(tmp_path / "x.profile")]) == 2
        assert "exactly one workload" in capsys.readouterr().err

    def test_profile_sample_rate_alias(self, tmp_path):
        from repro.profiler.serialization import load_profile

        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "4000",
              "--sample-rate", "0.5", "--reuse-seed", "3"])
        profile = load_profile(path)
        assert profile.sampling.reuse_sample_rate == 0.5
        assert profile.sampling.reuse_seed == 3

    def test_predict_mlp_model_choice(self, tmp_path, capsys):
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "5000"])
        assert main(["predict", path, "--mlp-model", "cold"]) == 0


class TestSimulateCommand:
    def test_simulate(self, capsys):
        assert main(["simulate", "gamess",
                     "--instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out and "MPKI:" in out

    def test_simulate_with_prefetch(self, capsys):
        assert main(["simulate", "libquantum", "--instructions", "3000",
                     "--prefetch"]) == 0


def _write_tiny_space(tmp_path):
    from repro.explore.space import DesignSpace, Parameter

    path = str(tmp_path / "space.json")
    DesignSpace(
        parameters=(Parameter.categorical("dispatch_width", (2, 4)),
                    Parameter.integer("rob_size", 64, 128, 64)),
        name="tiny",
    ).save(path)
    return path


class TestSweepCommand:
    def test_sweep_limited(self, tmp_path, capsys):
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "5000"])
        assert main(["sweep", path, "--limit", "9"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal" in out

    def test_sweep_with_space_file(self, tmp_path, capsys):
        profile = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", profile,
              "--instructions", "5000"])
        space = _write_tiny_space(tmp_path)
        assert main(["sweep", profile, "--space", space]) == 0
        out = capsys.readouterr().out
        assert "4 designs evaluated" in out

    def test_sweep_objective_ranking(self, tmp_path, capsys):
        profile = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", profile,
              "--instructions", "5000"])
        space = _write_tiny_space(tmp_path)
        assert main(["sweep", profile, "--space", space,
                     "--objective", "energy"]) == 0
        out = capsys.readouterr().out
        assert "best average config (energy):" in out

    def test_sweep_objective_choices_are_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", str(tmp_path / "x.profile"),
                  "--objective", "ipc"])

    def test_sweep_duplicate_profile_names_rejected(self, tmp_path,
                                                    capsys):
        # Regression: two profiles of the same workload used to merge
        # silently into one results bucket.
        first = str(tmp_path / "gcc-a.profile")
        second = str(tmp_path / "gcc-b.profile")
        main(["profile", "gcc", "-o", first, "--instructions", "5000"])
        main(["profile", "gcc", "-o", second, "--instructions", "3000"])
        assert main(["sweep", first, second, "--limit", "2"]) == 2
        err = capsys.readouterr().err
        assert "duplicate profile name" in err and "gcc" in err

    def test_sweep_limit_zero_evaluates_nothing(self, tmp_path,
                                                capsys):
        # Regression: --limit 0 used to be treated as "no limit".
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "5000"])
        assert main(["sweep", path, "--limit", "0"]) == 0
        assert "0 designs evaluated" in capsys.readouterr().out

    def test_sweep_negative_limit_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "5000"])
        assert main(["sweep", path, "--limit", "-3"]) == 2
        assert "--limit" in capsys.readouterr().err


class TestSearchCommand:
    @pytest.fixture
    def profile_path(self, tmp_path):
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "5000"])
        return path

    def test_search_default_space(self, profile_path, capsys):
        assert main(["search", profile_path, "--budget", "20",
                     "--optimizer", "random", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "table-6.3 (243 valid configurations)" in out
        assert "evaluated:   20 configs" in out
        assert "best edp:" in out
        assert "best config: w" in out

    def test_search_space_file_and_trajectory(self, tmp_path,
                                              profile_path, capsys):
        import json

        space = _write_tiny_space(tmp_path)
        out_path = str(tmp_path / "trajectory.json")
        assert main(["search", profile_path, "--space", space,
                     "--optimizer", "hill", "--budget", "10",
                     "--objective", "seconds",
                     "--trajectory", out_path]) == 0
        data = json.load(open(out_path))
        assert data["optimizer"] == "hill"
        assert data["objective"] == "seconds"
        assert 1 <= len(data["evaluations"]) <= 4
        assert capsys.readouterr().out.count("eval") >= 1

    def test_search_power_cap(self, profile_path, capsys):
        assert main(["search", profile_path, "--budget", "15",
                     "--optimizer", "sa", "--power-cap", "1000"]) == 0
        assert "edp|P<=1000W" in capsys.readouterr().out

    def test_search_is_seed_reproducible(self, profile_path, capsys):
        args = ["search", profile_path, "--budget", "15",
                "--optimizer", "ga", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        def stable(text):
            return [line for line in text.splitlines()
                    if not line.startswith("evaluated:")]  # wall-clock

        assert stable(first) == stable(second)

    def test_population_rejected_for_non_ga(self, profile_path,
                                            capsys):
        assert main(["search", profile_path, "--optimizer", "sa",
                     "--population", "8"]) == 2
        assert "--population" in capsys.readouterr().err

    def test_batch_size_rejected_for_ga(self, profile_path, capsys):
        assert main(["search", profile_path, "--optimizer", "ga",
                     "--batch-size", "4"]) == 2
        assert "--population" in capsys.readouterr().err


class TestValidateCommand:
    def test_validate_end_to_end(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "report.json")
        assert main(["validate", "gcc", "mcf", "--limit", "4",
                     "--instructions", "3000",
                     "--train-fraction", "0", "--json", out]) == 0
        text = capsys.readouterr().out
        assert "2 workload(s) x 4 configs" in text
        assert "sensitivity" in text and "HVR" in text
        data = json.load(open(out))
        assert [w["workload"] for w in data["workloads"]] == \
            ["gcc", "mcf"]
        assert data["space"] == "table-6.3"

    def test_validate_duplicate_workloads_rejected(self, capsys):
        assert main(["validate", "gcc", "gcc", "--limit", "2"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_validate_empty_grid_rejected(self, capsys):
        assert main(["validate", "gcc", "--limit", "0"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_validate_negative_limit_rejected(self, capsys):
        assert main(["validate", "gcc", "--limit", "-1"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_validate_bad_train_fraction_rejected(self, capsys):
        assert main(["validate", "gcc", "--limit", "2",
                     "--train-fraction", "1.0"]) == 2
        assert "--train-fraction" in capsys.readouterr().err


class TestDVFSCommand:
    @pytest.fixture
    def profile_path(self, tmp_path):
        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "5000"])
        return path

    def test_dvfs_default_grid(self, profile_path, capsys):
        assert main(["dvfs", profile_path]) == 0
        out = capsys.readouterr().out
        assert "ED2P optimum" in out
        assert out.count("GHz") >= 5  # the Table 7.2 grid

    def test_dvfs_custom_frequencies(self, profile_path, capsys):
        assert main(["dvfs", profile_path,
                     "--frequencies", "1.2,2.66"]) == 0
        out = capsys.readouterr().out
        assert "1.20 GHz" in out and "2.66 GHz" in out
        assert out.count("ED2P") >= 2

    def test_dvfs_power_cap(self, profile_path, capsys):
        assert main(["dvfs", profile_path, "--power-cap", "1000"]) == 0
        assert "fastest under 1000.0 W" in capsys.readouterr().out

    def test_dvfs_malformed_frequencies_rejected(self, profile_path,
                                                 capsys):
        assert main(["dvfs", profile_path,
                     "--frequencies", "1.2,"]) == 2
        assert "--frequencies" in capsys.readouterr().err

    def test_dvfs_power_cap_infeasible(self, profile_path, capsys):
        assert main(["dvfs", profile_path, "--power-cap", "0.001"]) == 0
        assert "no operating point fits" in capsys.readouterr().out

    def test_dvfs_engine_path_matches_local(self, profile_path,
                                            capsys):
        assert main(["dvfs", profile_path]) == 0
        local = capsys.readouterr().out
        assert main(["dvfs", profile_path, "--workers", "2"]) == 0
        engine = capsys.readouterr().out
        assert local == engine


class TestServeCommand:
    def test_bad_store_cap_is_a_config_error(self, tmp_path, capsys):
        assert main(["serve", "--runs", str(tmp_path / "runs"),
                     "--max-entries", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "max_entries" in err

    @pytest.mark.parametrize("argv", [["--batch-window", "0.05"],
                                      ["--max-batch", "4"]])
    def test_batching_flags_are_gone(self, argv, capsys):
        # Sweeps are never micro-batched, so argparse rejects the
        # batching knobs before a server starts.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--port", "0"] + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParser:
    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_workload_raises(self, tmp_path):
        with pytest.raises(KeyError):
            main(["profile", "doom", "-o",
                  str(tmp_path / "x.profile")])
