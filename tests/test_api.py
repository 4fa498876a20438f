"""The programmatic API: ExperimentSpec, RunResult, RunStore, Session."""

import json
import os
import re

import pytest

from repro.api import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    RunResult,
    RunStore,
    Session,
    SpecError,
    WorkerPool,
)


def _mp_available() -> bool:
    """Whether this platform can create worker processes."""
    try:
        import multiprocessing

        with multiprocessing.Pool(1):
            pass
        return True
    except (ImportError, OSError, ValueError):
        return False


# ----------------------------------------------------------------------
# ExperimentSpec
# ----------------------------------------------------------------------


class TestExperimentSpec:
    def test_kinds(self):
        assert EXPERIMENT_KINDS == ("dvfs", "predict", "profile",
                                    "search", "sweep", "validate")

    def test_defaults_filled(self):
        spec = ExperimentSpec("sweep", workloads=["gcc"])
        assert spec.params["limit"] is None
        assert spec.params["objective"] is None
        assert spec.params["instructions"] == 50_000

    def test_json_round_trip(self, tmp_path):
        spec = ExperimentSpec("validate", workloads=["gcc", "mcf"],
                              limit=8, train_fraction=0.5)
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.fingerprint == spec.fingerprint

        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.load(path) == spec
        # The file is plain JSON anyone can write by hand.
        data = json.load(open(path))
        assert data["kind"] == "validate"
        assert data["params"]["limit"] == 8

    def test_sparse_and_full_specs_fingerprint_identically(self):
        sparse = ExperimentSpec("predict", workload="gcc")
        full = ExperimentSpec("predict", dict(sparse.params))
        assert sparse.fingerprint == full.fingerprint
        assert len(sparse.fingerprint) == 64

    def test_fingerprint_changes_with_params(self):
        a = ExperimentSpec("sweep", workloads=["gcc"], limit=4)
        b = ExperimentSpec("sweep", workloads=["gcc"], limit=5)
        assert a.fingerprint != b.fingerprint

    def test_workers_are_not_part_of_the_spec(self):
        with pytest.raises(SpecError, match="unknown sweep spec"):
            ExperimentSpec("sweep", workloads=["gcc"], workers=4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            ExperimentSpec("simulate", workload="gcc")

    def test_required_params_enforced(self):
        with pytest.raises(SpecError, match="requires 'workloads'"):
            ExperimentSpec("profile")
        with pytest.raises(SpecError, match="exactly one of"):
            ExperimentSpec("predict")
        with pytest.raises(SpecError, match="exactly one of"):
            ExperimentSpec("dvfs", profile="a.profile", workload="gcc")
        with pytest.raises(SpecError, match="profiles.*workloads"):
            ExperimentSpec("search")

    @pytest.mark.parametrize("kind", ["profile", "validate"])
    def test_duplicate_workloads_rejected(self, kind):
        # Results are keyed by workload name: a repeat is a client
        # error before anything runs.
        with pytest.raises(SpecError,
                           match=r"duplicate workload name\(s\): gcc$"):
            ExperimentSpec(kind, workloads=["gcc", "mcf", "gcc"])

    def test_ranges_validated(self):
        with pytest.raises(SpecError, match="--limit"):
            ExperimentSpec("sweep", workloads=["gcc"], limit=-1)
        with pytest.raises(SpecError, match="--train-fraction"):
            ExperimentSpec("validate", workloads=["gcc"],
                           train_fraction=1.0)
        with pytest.raises(SpecError, match="budget"):
            ExperimentSpec("search", workloads=["gcc"], budget=0)
        with pytest.raises(SpecError, match="optimizer"):
            ExperimentSpec("search", workloads=["gcc"],
                           optimizer="gradient")
        with pytest.raises(SpecError, match="objective"):
            ExperimentSpec("sweep", workloads=["gcc"], objective="ipc")

    def test_kind_must_be_a_string(self):
        with pytest.raises(SpecError, match="'kind' must be a string"):
            ExperimentSpec.from_dict({"kind": ["sweep"]})

    @pytest.mark.parametrize("kind, params", [
        ("sweep", {"workloads": ["gcc"], "limit": "4"}),
        ("search", {"workloads": ["gcc"], "budget": "10"}),
        ("validate", {"workloads": ["gcc"], "train_fraction": "0.5"}),
        ("sweep", {"workloads": ["gcc"], "instructions": "4000"}),
        ("predict", {"workload": "gcc", "width": True}),
        ("profile", {"workloads": ["gcc"], "seed": None}),
    ])
    def test_numeric_parameters_must_be_numbers(self, kind, params):
        (name,) = [key for key in params if key not in
                   ("workloads", "workload")]
        with pytest.raises(SpecError, match=f"'{name}' must be a number"):
            ExperimentSpec.from_dict({"kind": kind, "params": params})

    @pytest.mark.parametrize("kind, params, message", [
        ("sweep", {"workloads": ["gcc"], "limit": 2.5},
         "'limit' must be a number (an integer)"),
        ("predict", {"workload": "gcc", "frequency": "2"},
         "'frequency' must be a number"),
        ("predict", {"profile": 3}, "'profile' must be a string"),
        ("sweep", {"workloads": ["gcc"], "space": 7},
         "'space' must be a string"),
        ("predict", {"workload": "gcc", "prefetch": "yes"},
         "'prefetch' must be true or false"),
        ("sweep", {"workloads": ["gcc", 4]},
         "'workloads' must be a list of strings"),
        ("dvfs", {"workload": "gcc", "frequencies": [2.0, "3"]},
         "'frequencies' must be a list of numbers"),
        ("predict", {"workload": "gcc", "mlp_model": 3},
         "'mlp_model' must be a string"),
        ("predict", {"workload": "gcc", "mlp_model": "burst"},
         "unknown mlp_model 'burst'"),
        ("validate", {"workloads": None}, "requires 'workloads'"),
        ("profile", {"workloads": None}, "requires 'workloads'"),
    ])
    def test_every_parameter_type_is_checked(self, kind, params,
                                             message):
        with pytest.raises(SpecError, match=re.escape(message)):
            ExperimentSpec.from_dict({"kind": kind, "params": params})

    def test_lists_normalize_and_keep_fingerprints(self):
        spec = ExperimentSpec("dvfs", workload="gcc",
                              frequencies=(2, 2.66))
        assert spec.params["frequencies"] == [2.0, 2.66]
        assert spec.fingerprint == ExperimentSpec(
            "dvfs", workload="gcc", frequencies=[2.0, 2.66]).fingerprint
        assert ExperimentSpec("sweep", workloads=("gcc",)).params[
            "workloads"] == ["gcc"]

    def test_example_specs_keep_their_fingerprints(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "specs")
        fingerprints = {
            name: ExperimentSpec.load(os.path.join(root, name)).fingerprint
            for name in sorted(os.listdir(root))
        }
        assert fingerprints == {
            "smoke_sweep.json": "c0f73b0ce7252b8730761a2bb239ee84"
                                "94dc15422ad8269b21c89360ecdf3c31",
            "smoke_validate.json": "3816030899ccdf7acd681f96f0302bd3"
                                   "c1e8e33c7eda695a7cf2915a96dcd0aa",
        }

    def test_valid_numbers_are_not_coerced(self):
        spec = ExperimentSpec("validate", workloads=["gcc"], limit=None,
                              instructions=4000, train_fraction=0)
        assert spec.params["limit"] is None
        assert type(spec.params["train_fraction"]) is int
        assert spec.fingerprint == ExperimentSpec(
            "validate", workloads=["gcc"], instructions=4000,
            train_fraction=0).fingerprint

    def test_string_coerced_to_list(self):
        spec = ExperimentSpec("profile", workloads="gcc")
        assert spec.params["workloads"] == ["gcc"]

    def test_coerce_accepts_plain_mappings(self):
        spec = ExperimentSpec.coerce(
            {"kind": "predict", "params": {"workload": "gcc"}}
        )
        assert spec.kind == "predict"


# ----------------------------------------------------------------------
# RunResult + RunStore
# ----------------------------------------------------------------------


@pytest.fixture()
def sweep_spec():
    return ExperimentSpec("sweep", workloads=["gcc"], limit=4,
                          instructions=3000)


class TestRunResult:
    def test_round_trip(self, tmp_path, sweep_spec):
        result = RunResult(spec=sweep_spec, data={"x": [1, 2], "y": None})
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.data == result.data
        assert rebuilt.spec == result.spec
        assert rebuilt.fingerprint == result.fingerprint
        assert rebuilt.spec_fingerprint == sweep_spec.fingerprint

        path = str(tmp_path / "run.json")
        result.save(path)
        assert RunResult.load(path).fingerprint == result.fingerprint

    def test_cached_flag_not_serialized(self, sweep_spec):
        result = RunResult(spec=sweep_spec, data={}, cached=True)
        assert "cached" not in result.to_dict()
        assert RunResult.from_dict(result.to_dict()).cached is False

    def test_version_checked(self, sweep_spec):
        data = RunResult(spec=sweep_spec, data={}).to_dict()
        data["format_version"] = 99
        with pytest.raises(SpecError, match="format version"):
            RunResult.from_dict(data)


class TestRunStore:
    def test_miss_then_hit(self, tmp_path, sweep_spec):
        store = RunStore(str(tmp_path / "runs"))
        assert store.get(sweep_spec) is None
        assert sweep_spec not in store

        result = RunResult(spec=sweep_spec, data={"answer": 42})
        key = store.put(result)
        assert key == sweep_spec.fingerprint
        assert sweep_spec in store
        loaded = store.get(sweep_spec)
        assert loaded.data == {"answer": 42}
        assert loaded.fingerprint == result.fingerprint

    def test_different_spec_misses(self, tmp_path, sweep_spec):
        store = RunStore(str(tmp_path / "runs"))
        store.put(RunResult(spec=sweep_spec, data={}))
        other = ExperimentSpec("sweep", workloads=["gcc"], limit=5,
                               instructions=3000)
        assert store.get(other) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, sweep_spec):
        store = RunStore(str(tmp_path / "runs"))
        store.put(RunResult(spec=sweep_spec, data={}))
        with open(store.path(sweep_spec), "w") as handle:
            handle.write("{not json")
        assert store.get(sweep_spec) is None

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path,
                                                      sweep_spec):
        store = RunStore(str(tmp_path / "runs"))
        store.put(RunResult(spec=sweep_spec, data={}))
        path = store.path(sweep_spec)
        with open(path, "w") as handle:
            handle.write("{not json")
        assert store.get(sweep_spec) is None
        assert store.corrupt == 1
        assert store.quarantined == 1
        # The broken payload is preserved beside the store for
        # post-mortem inspection; the slot itself is free again.
        assert not os.path.exists(path)
        with open(path + ".corrupt") as handle:
            assert handle.read() == "{not json"
        # A second lookup is a plain miss: nothing left to quarantine.
        assert store.get(sweep_spec) is None
        assert store.quarantined == 1

    def test_put_is_atomic_and_leaves_no_temp_files(self, tmp_path,
                                                    sweep_spec):
        store = RunStore(str(tmp_path / "runs"))
        store.put(RunResult(spec=sweep_spec, data={"answer": 42}))
        path = store.path(sweep_spec)
        shard = os.path.dirname(path)
        assert os.listdir(tmp_path / "runs") == [os.path.basename(shard)]
        assert os.listdir(shard) == [os.path.basename(path)]

    def test_session_and_cli_store_under_prefix_directories(
            self, tmp_path, sweep_spec):
        from repro.cli import main

        fingerprint = sweep_spec.fingerprint
        entry = os.path.join(fingerprint[:2], f"{fingerprint}.run.json")
        with Session(run_store=str(tmp_path / "session")) as session:
            session.run(sweep_spec)
        assert os.path.isfile(tmp_path / "session" / entry)

        spec_path = str(tmp_path / "sweep.json")
        sweep_spec.save(spec_path)
        assert main(["run", spec_path,
                     "--runs", str(tmp_path / "cli")]) == 0
        assert os.path.isfile(tmp_path / "cli" / entry)

    def test_session_over_capped_store_evicts_least_recent(self,
                                                           tmp_path):
        first, second, third = (
            ExperimentSpec("predict", workload="gcc", instructions=3000,
                           rob=rob)
            for rob in (64, 96, 128))
        store = RunStore(str(tmp_path / "runs"), max_entries=2)
        with Session(run_store=store) as session:
            session.run(first)
            session.run(second)
            assert session.run(first).cached    # first is most recent
            session.run(third)                  # evicts second
            assert store.evictions == 1
            assert len(store) == 2
            assert not os.path.exists(store.path(second))
            assert session.run(third).cached
            assert session.run(first).cached
            assert not session.run(second).cached

    def test_session_skips_already_computed_runs(self, tmp_path,
                                                 sweep_spec):
        with Session(run_store=str(tmp_path / "runs")) as session:
            first = session.run(sweep_spec)
            second = session.run(sweep_spec)
        assert first.cached is False
        assert second.cached is True
        assert second.data == first.data

        # A fresh session over the same store also skips the work.
        with Session(run_store=str(tmp_path / "runs")) as session:
            third, fourth = session.run_many([
                sweep_spec,
                ExperimentSpec("sweep", workloads=["gcc"], limit=2,
                               instructions=3000),
            ])
        assert third.cached is True
        assert fourth.cached is False

    def test_edited_input_file_invalidates_cache(self, tmp_path):
        """Specs referencing files key on file *content*, not paths:
        re-profiling a referenced file must miss, not serve stale
        results computed from the old bytes."""
        from repro.cli import main

        path = str(tmp_path / "gcc.profile")
        main(["profile", "gcc", "-o", path, "--instructions", "3000"])
        spec = ExperimentSpec("sweep", profiles=[path], limit=4)
        runs = str(tmp_path / "runs")
        with Session(run_store=runs) as session:
            first = session.run(spec)
            assert session.run(spec).cached is True
        # Same path, different contents.
        main(["profile", "gcc", "-o", path, "--instructions", "4000"])
        with Session(run_store=runs) as session:
            rerun = session.run(spec)
        assert rerun.cached is False
        assert rerun.data != first.data

    def test_overwritten_profile_file_is_read_afresh(self, tmp_path,
                                                     gcc_profile,
                                                     mcf_profile):
        """The session caches profile files by content: a file
        overwritten mid-session is parsed again, so the result stored
        under the new content's key is computed from that content."""
        from repro.profiler.serialization import save_profile

        path = str(tmp_path / "app.profile")
        spec = ExperimentSpec("predict", profile=path)
        runs = str(tmp_path / "runs")
        save_profile(gcc_profile, path)
        with Session(run_store=runs) as session:
            gcc = session.run(spec)
            save_profile(mcf_profile, path)
            mcf = session.run(spec)
        assert (gcc.data["workload"], mcf.data["workload"]) == (
            "gcc", "mcf")
        assert mcf.cached is False
        with Session() as fresh:
            expected = fresh.run(spec).data
        assert mcf.data == expected
        with Session(run_store=runs) as later:
            served = later.run(spec)
        assert served.cached is True
        assert served.data == expected

    def test_profile_runs_always_execute(self, tmp_path):
        spec = ExperimentSpec("profile", workloads=["gcc"],
                              instructions=3000,
                              output=str(tmp_path / "gcc.profile"))
        with Session(run_store=str(tmp_path / "runs")) as session:
            session.run(spec)
            (tmp_path / "gcc.profile").unlink()
            again = session.run(spec)
        assert again.cached is False
        # The side effect happened again: the file was re-written.
        assert (tmp_path / "gcc.profile").exists()


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------


class TestSession:
    def test_registry_profiles_once(self, tmp_path):
        with Session() as session:
            first = session.profile_workload("gcc", instructions=3000)
            second = session.profile_workload("gcc", instructions=3000)
            other = session.profile_workload("gcc", instructions=4000)
        assert first is second
        assert other is not first

    def test_predict_by_workload_matches_profile_file(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "gcc.profile")
        assert main(["profile", "gcc", "-o", path,
                     "--instructions", "3000"]) == 0
        with Session() as session:
            by_file = session.run(ExperimentSpec(
                "predict", profile=path)).data
            by_name = session.run(ExperimentSpec(
                "predict", workload="gcc", instructions=3000)).data
        assert by_file == by_name

    def test_unknown_workload_raises_keyerror(self):
        with Session() as session:
            with pytest.raises(KeyError):
                session.run(ExperimentSpec("predict", workload="doom"))

    def test_sweep_duplicate_names_rejected(self, tmp_path):
        from repro.cli import main

        a = str(tmp_path / "a.profile")
        main(["profile", "gcc", "-o", a, "--instructions", "3000"])
        with Session() as session:
            with pytest.raises(SpecError, match="duplicate profile"):
                session.run(ExperimentSpec(
                    "sweep", profiles=[a], workloads=["gcc"],
                    instructions=3000, limit=2))

    def test_validate_empty_grid_rejected(self):
        with Session() as session:
            with pytest.raises(SpecError, match="empty configuration"):
                session.run(ExperimentSpec(
                    "validate", workloads=["gcc"], limit=0,
                    instructions=3000))

    def test_chain_shares_one_pool_and_matches_per_call_results(
        self, tmp_path
    ):
        """The acceptance pipeline: profile -> sweep -> validate on one
        session creates exactly one worker pool (instrumented) while
        every stage's payload matches a fresh serial per-call run."""
        specs = [
            ExperimentSpec("profile", workloads=["gcc"],
                           instructions=3000),
            ExperimentSpec("sweep", workloads=["gcc"],
                           instructions=3000, limit=6),
            ExperimentSpec("validate", workloads=["gcc"],
                           instructions=3000, limit=4,
                           train_fraction=0.0),
            ExperimentSpec("dvfs", workload="gcc", instructions=3000),
        ]
        with Session(workers=2) as session:
            chained = [session.run(spec) for spec in specs]
            if _mp_available():
                assert session.pool.pools_created == 1
            else:
                assert session.pool.pools_created == 0

        fresh = []
        for spec in specs:
            with Session(workers=1) as session:
                fresh.append(session.run(spec))

        def _stable(result):
            data = json.loads(json.dumps(result.data))
            if result.kind == "profile":
                for entry in data["profiles"]:
                    entry["seconds"] = 0.0
            if result.kind == "validate":
                # Worker counts are execution metadata, not results.
                data.pop("model_workers")
                data.pop("sim_workers")
            return data

        for chained_result, fresh_result in zip(chained, fresh):
            assert _stable(chained_result) == _stable(fresh_result)

    def test_search_reuses_session_engine(self, tmp_path):
        spec = ExperimentSpec("search", workloads=["gcc"],
                              instructions=3000, optimizer="random",
                              budget=6, seed=1)
        with Session() as session:
            first = session.run(spec).data
            second = session.run(spec).data
        first["trajectory"].pop("wall_seconds")
        second["trajectory"].pop("wall_seconds")
        assert first == second


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------


def _echo(state, task):
    """Module-level worker function (must pickle)."""
    return (state, task)


class TestWorkerPool:
    def test_serial_pool_is_never_created(self):
        pool = WorkerPool(1)
        assert not pool.parallel
        assert pool.pools_created == 0

    @pytest.mark.skipif(not _mp_available(),
                        reason="platform cannot create processes")
    def test_state_shipped_once_and_reused(self):
        with WorkerPool(2) as pool:
            out = list(pool.imap(_echo, {"k": 1}, [1, 2, 3]))
            assert out == [({"k": 1}, 1), ({"k": 1}, 2), ({"k": 1}, 3)]
            # Second stage on the same OS pool.
            out = list(pool.imap(_echo, "s2", ["a"]))
            assert out == [("s2", "a")]
            assert pool.pools_created == 1

    @pytest.mark.skipif(not _mp_available(),
                        reason="platform cannot create processes")
    def test_close_then_reuse_creates_a_new_pool(self):
        pool = WorkerPool(2)
        list(pool.imap(_echo, None, [1]))
        pool.close()
        list(pool.imap(_echo, None, [2]))
        assert pool.pools_created == 2
        pool.close()

    @pytest.mark.skipif(not _mp_available(),
                        reason="platform cannot create processes")
    def test_large_state_spills_to_file_and_is_cleaned_up(self):
        import os

        pool = WorkerPool(2)
        pool.inline_state_limit = 64  # force the spill path
        state = {"blob": "x" * 4096}
        with pool:
            stream = pool.imap(_echo, state, [1, 2])
            spill_dir = pool._spill_dir
            assert spill_dir is not None and os.listdir(spill_dir)
            out = list(stream)
            assert out == [(state, 1), (state, 2)]
            # Fully-consumed stream reclaims its own spill file.
            assert os.listdir(spill_dir) == []
        assert not os.path.exists(spill_dir)  # close() removed it

    @pytest.mark.skipif(not _mp_available(),
                        reason="platform cannot create processes")
    def test_abandoned_stream_reclaims_spill(self):
        import os

        pool = WorkerPool(2)
        pool.inline_state_limit = 64
        state = {"blob": "y" * 4096}
        with pool:
            stream = pool.imap(_echo, state, [1, 2, 3])
            next(stream)
            spill_dir = pool._spill_dir
            assert os.listdir(spill_dir)
            stream.close()  # consumer walks away mid-stream
            assert os.listdir(spill_dir) == []


# ----------------------------------------------------------------------
# Grid runner
# ----------------------------------------------------------------------


class _ScriptedPool:
    """In-process duck-typed pool: answers ``-task`` for the first
    ``good`` tasks, then gives the stage up (``good=None`` never does)."""

    def __init__(self, good=None):
        self.good = good
        self.calls = 0

    def imap(self, func, state, tasks):
        from repro.api.pool import WorkerPoolError

        self.calls += 1

        def stream():
            for index, task in enumerate(tasks):
                if self.good is not None and index >= self.good:
                    raise WorkerPoolError("gave up")
                yield -task
        return stream()


class TestGridRunner:
    def test_single_worker_runs_in_process_without_the_pool(self):
        from repro.api.pool import iter_grid

        pool = _ScriptedPool()
        assert list(iter_grid(_echo, "s", [1, 2], 1, pool)) == [
            ("s", 1), ("s", 2)]
        assert pool.calls == 0

    @pytest.mark.parametrize("good,expected", [
        (None, [-1, -2, -3, -4]),
        (2, [-1, -2, ("s", 3), ("s", 4)]),
        (0, [("s", 1), ("s", 2), ("s", 3), ("s", 4)]),
    ])
    def test_give_up_finishes_in_process_in_order(self, good, expected):
        # Pool answers stay (nothing is recomputed); only the remainder
        # runs in-process, in task order.
        from repro.api.pool import iter_grid

        pool = _ScriptedPool(good)
        assert list(iter_grid(_echo, "s", [1, 2, 3, 4], 2,
                              pool)) == expected

    @pytest.mark.skipif(not _mp_available(),
                        reason="platform cannot create processes")
    def test_transient_pool_streams_and_leaves_no_workers(self):
        import multiprocessing

        from repro.api.pool import iter_grid

        out = list(iter_grid(_echo, {"k": 1}, [1, 2, 3], 2))
        assert out == [({"k": 1}, 1), ({"k": 1}, 2), ({"k": 1}, 3)]
        assert multiprocessing.active_children() == []
