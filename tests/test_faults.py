"""Fault-tolerance tests: injection determinism, retry policy, atomic
writes, supervised pool recovery, engine/session degradation, and the
seeded chaos campaign that must match a fault-free run bitwise.

The chaos campaign test honors an externally supplied ``REPRO_FAULTS``
spec (captured at import time, before the per-test fixture clears the
environment), so the CI chaos leg parametrizes it by just exporting the
variable.
"""

import json
import os

import pytest

from repro import obs
from repro.api import Session
from repro.api.pool import WorkerPool, WorkerPoolError
from repro.core import design_space
from repro.explore.engine import SweepEngine
from repro.explore.validate import SimulationSweep
from repro.faults import (
    FaultPlan,
    FaultSpecError,
    InjectedTaskError,
    InjectedWorkerCrash,
    RetryPolicy,
    atomic_write,
    decision_fraction,
    inject,
)
from tests.equivalence import assert_points_identical
from tests.test_api import _mp_available

#: The chaos leg's spec/seed, captured before the env-clearing fixture
#: runs (empty locally -- the default below is then used).
CI_CHAOS_SPEC = os.environ.get(inject.ENV_SPEC)
CI_CHAOS_SEED = os.environ.get(inject.ENV_SEED) or "1337"

DEFAULT_CHAOS_SPEC = ("crash:0.15,hang:0.08:0.05,task_error:0.15,"
                      "corrupt_store:0.3")

SWEEP_SPEC = {"kind": "sweep",
              "params": {"workloads": ["gcc"], "limit": 6,
                         "instructions": 6000}}
VALIDATE_SPEC = {"kind": "validate",
                 "params": {"workloads": ["gcc"], "limit": 4,
                            "instructions": 6000}}

#: Wall-clock-derived (or run-dependent) result fields ignored by the
#: bitwise campaign comparisons. Worker counts are configuration echoes,
#: not results, and legitimately differ between degraded and reference
#: sessions.
_WALL_KEYS = ("seconds", "wall_seconds", "telemetry", "cached",
              "model_workers", "sim_workers", "workers")


def _strip(obj):
    """Result payload minus wall-clock fields, for bitwise comparison."""
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items()
                if k not in _WALL_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    """Each test starts (and the file ends) with no active fault plan."""
    monkeypatch.delenv(inject.ENV_SPEC, raising=False)
    monkeypatch.delenv(inject.ENV_SEED, raising=False)
    inject.refresh()
    yield
    # Drop anything the test exported before re-reading: monkeypatch
    # restores the original environment only after this teardown runs.
    os.environ.pop(inject.ENV_SPEC, None)
    os.environ.pop(inject.ENV_SEED, None)
    inject.refresh()


def _activate_env(monkeypatch, spec, seed="0"):
    """Install a fault plan the way production code does: via env."""
    monkeypatch.setenv(inject.ENV_SPEC, spec)
    monkeypatch.setenv(inject.ENV_SEED, seed)
    return inject.refresh()


# ----------------------------------------------------------------------
# Worker functions (module level so they pickle)
# ----------------------------------------------------------------------


def _scale(state, task):
    return state * task


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("crash:0.05,hang:0.01:0.25", seed=9)
        assert plan.seed == 9
        assert plan.rule("crash").rate == 0.05
        assert plan.rule("hang").param == 0.25
        assert plan.rule("task_error") is None
        assert FaultPlan.parse(plan.spec(), seed=9) == plan

    def test_decisions_are_deterministic_and_seeded(self):
        plan = FaultPlan.parse("crash:0.5")
        decisions = [plan.decide("crash", f"k{i}") for i in range(64)]
        assert decisions == [plan.decide("crash", f"k{i}")
                             for i in range(64)]
        assert any(decisions) and not all(decisions)
        other = FaultPlan.parse("crash:0.5", seed=1)
        assert decisions != [other.decide("crash", f"k{i}")
                             for i in range(64)]

    def test_rate_bounds_are_exact(self):
        always = FaultPlan.parse("crash:1.0")
        never = FaultPlan.parse("crash:0.0")
        for i in range(32):
            assert always.decide("crash", f"k{i}")
            assert not never.decide("crash", f"k{i}")

    @pytest.mark.parametrize("spec", [
        "explode:0.5",            # unknown kind
        "crash:0.5,crash:0.1",    # duplicate
        "crash:1.5",              # rate outside [0, 1]
        "crash:lots",             # non-numeric rate
        "crash",                  # missing rate
        "hang:0.1:-2",            # negative param
        "",                       # empty
        " , ",                    # only separators
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_decision_fraction_range(self):
        fractions = [decision_fraction(0, "crash", f"k{i}")
                     for i in range(256)]
        assert all(0.0 <= f < 1.0 for f in fractions)
        assert len(set(fractions)) > 200  # spreads, not clustered


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_delays_deterministic_growing_bounded(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0,
                             backoff_max=0.05, jitter=0.5)
        delays = [policy.delay("t0", a) for a in range(8)]
        assert delays == [policy.delay("t0", a) for a in range(8)]
        assert all(d <= 0.05 * 1.5 for d in delays)
        assert delays[0] >= 0.01
        # Un-jittered base doubles until the cap.
        assert policy.delay("t0", 1) > policy.delay("t0", 0) * 1.0

    def test_jitter_varies_by_key(self):
        policy = RetryPolicy(jitter=1.0)
        assert policy.delay("a", 0) != policy.delay("b", 0)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
    ])
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# atomic_write
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_success_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "store" / "entry.json"
        with atomic_write(str(path)) as handle:
            json.dump({"v": 1}, handle)
        assert json.loads(path.read_text()) == {"v": 1}
        assert sorted(os.listdir(path.parent)) == ["entry.json"]

    def test_failure_preserves_previous_content(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as handle:
                handle.write("half-written")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "old"
        assert sorted(os.listdir(tmp_path)) == ["entry.json"]

    def test_failure_with_no_previous_file_leaves_nothing(self, tmp_path):
        path = tmp_path / "entry.json"
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as handle:
                handle.write("x")
                raise RuntimeError("crash")
        assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# Activation and injection sites
# ----------------------------------------------------------------------


class TestActivation:
    def test_refresh_reads_environment(self, monkeypatch):
        assert inject.current() is None
        plan = _activate_env(monkeypatch, "crash:0.5", seed="3")
        assert plan is inject.current()
        assert plan.seed == 3

    def test_refresh_caches_until_env_changes(self, monkeypatch):
        first = _activate_env(monkeypatch, "crash:0.5")
        assert inject.refresh() is first
        monkeypatch.setenv(inject.ENV_SPEC, "crash:0.25")
        second = inject.refresh()
        assert second is not first
        assert second.rule("crash").rate == 0.25

    def test_malformed_env_spec_raises(self, monkeypatch):
        monkeypatch.setenv(inject.ENV_SPEC, "bogus:0.5")
        with pytest.raises(FaultSpecError):
            inject.refresh()

    def test_activate_overrides_until_next_refresh(self):
        plan = FaultPlan.parse("task_error:1.0")
        previous = inject.activate(plan)
        try:
            assert inject.current() is plan
            with pytest.raises(InjectedTaskError):
                inject.task_site("k")
        finally:
            inject.activate(previous)
        inject.refresh()  # env is clean -> plan drops
        assert inject.current() is None

    def test_sites_are_noops_without_a_plan(self, tmp_path):
        inject.task_site("k")
        path = tmp_path / "f.json"
        path.write_text("{}")
        assert inject.store_site(str(path), "k") is False
        assert path.read_text() == "{}"

    def test_store_site_corrupts_file(self, monkeypatch, tmp_path):
        _activate_env(monkeypatch, "corrupt_store:1.0")
        path = tmp_path / "f.json"
        path.write_text("{\"good\": true}")
        assert inject.store_site(str(path), "k") is True
        with pytest.raises(ValueError):
            json.loads(path.read_text())

    def test_task_site_raises_injected_kinds(self, monkeypatch):
        _activate_env(monkeypatch, "crash:1.0")
        with pytest.raises(InjectedWorkerCrash):
            inject.task_site("k")
        _activate_env(monkeypatch, "task_error:1.0")
        with pytest.raises(InjectedTaskError):
            inject.task_site("k")


# ----------------------------------------------------------------------
# Supervised WorkerPool
# ----------------------------------------------------------------------


needs_mp = pytest.mark.skipif(not _mp_available(),
                              reason="platform cannot create processes")


class TestSupervisedPool:
    @needs_mp
    def test_supervised_matches_unsupervised(self):
        tasks = list(range(12))
        with WorkerPool(2) as supervised:
            got = list(supervised.imap(_scale, 5, tasks))
        assert got == [5 * t for t in tasks]
        assert supervised.retries == 0
        assert supervised.restarts == 0

    def test_supervision_cannot_be_switched_off(self):
        with pytest.raises(TypeError):
            WorkerPool(2, supervised=False)

    @needs_mp
    def test_recovers_from_injected_chaos(self, monkeypatch):
        _activate_env(monkeypatch, "crash:0.3,task_error:0.3", seed="7")
        retry = RetryPolicy(max_attempts=8, timeout=30,
                            backoff_base=0.001, backoff_max=0.005)
        with WorkerPool(2, retry=retry, max_restarts=64) as pool:
            out = list(pool.imap(_scale, 3, list(range(20))))
        assert out == [3 * t for t in range(20)]
        assert pool.retries > 0
        assert pool.worker_crashes > 0
        assert pool.restarts > 0
        assert pool.give_ups == 0

    @needs_mp
    def test_hang_timeout_restarts_then_gives_up(self, monkeypatch):
        _activate_env(monkeypatch, "hang:1.0:10")
        retry = RetryPolicy(max_attempts=2, timeout=0.25,
                            backoff_base=0.0, backoff_max=0.0)
        pool = WorkerPool(2, retry=retry)
        with pool:
            with pytest.raises(WorkerPoolError):
                list(pool.imap(_scale, 2, [1, 2]))
            assert pool.timeouts >= 2
            assert pool.give_ups == 1
            assert not pool.parallel
            # Later stages fail eagerly while unavailable...
            with pytest.raises(WorkerPoolError):
                pool.imap(_scale, 2, [1])
            # ...until explicitly revived.
            pool.revive()
            assert pool.parallel

    @needs_mp
    def test_persistent_task_error_reraises_original(self, monkeypatch):
        _activate_env(monkeypatch, "task_error:1.0")
        retry = RetryPolicy(max_attempts=3, timeout=30,
                            backoff_base=0.0, backoff_max=0.0)
        with WorkerPool(2, retry=retry) as pool:
            with pytest.raises(InjectedTaskError):
                list(pool.imap(_scale, 2, [1]))
        assert pool.retries == 2
        assert pool.give_ups == 0  # broken task, not a broken pool

    @needs_mp
    def test_crash_exhaustion_gives_the_stage_up(self, monkeypatch):
        _activate_env(monkeypatch, "crash:1.0")
        retry = RetryPolicy(max_attempts=3, timeout=30,
                            backoff_base=0.0, backoff_max=0.0)
        pool = WorkerPool(2, retry=retry, max_restarts=10)
        with pool:
            with pytest.raises(WorkerPoolError):
                list(pool.imap(_scale, 2, [1]))
        assert pool.worker_crashes == 3
        assert pool.give_ups == 1

    def test_flush_metrics_publishes_deltas_once(self):
        pool = WorkerPool(1)
        pool.retries = 3
        pool.restarts = 1
        registry = obs.Telemetry(trace=False, metrics=True).metrics
        pool.flush_metrics(registry)
        pool.flush_metrics(registry)  # no double counting
        counters = registry.snapshot()["counters"]
        assert counters["pool.retries"] == 3
        assert counters["pool.restarts"] == 1
        pool.retries = 5
        pool.flush_metrics(registry)
        assert registry.snapshot()["counters"]["pool.retries"] == 5


# ----------------------------------------------------------------------
# Engine / simulation degradation
# ----------------------------------------------------------------------


class _GiveUpPool:
    """Duck-typed WorkerPool: in-process, gives up after N batches."""

    def __init__(self, good_batches):
        self.good_batches = good_batches

    def imap(self, func, state, tasks):
        def stream():
            for index, task in enumerate(tasks):
                if index >= self.good_batches:
                    raise WorkerPoolError("injected give-up")
                yield func(state, task)
        return stream()


class TestEngineDegradation:
    @pytest.mark.parametrize("good_batches", [0, 1, 2])
    def test_midstream_give_up_finishes_serially(self, gcc_profile,
                                                 good_batches):
        configs = design_space({"dispatch_width": (2, 4),
                                "rob_size": (32, 64)})
        serial = list(SweepEngine(workers=1).iter_sweep(
            [gcc_profile], configs))
        degraded = list(SweepEngine(
            workers=2, pool=_GiveUpPool(good_batches),
        ).iter_sweep([gcc_profile], configs))
        assert_points_identical(serial, degraded)

    def test_kernel_error_reaches_the_caller(self, gcc_profile,
                                             monkeypatch):
        # No fallback may swallow a real kernel bug: a raising batch
        # kernel fails the sweep, in-process or out of a pool stream,
        # and the session run around it.
        import repro.core.batch as batch

        def broken(model, profile, configs):
            raise IndexError("broken kernel")

        monkeypatch.setattr(batch, "predict_model_batch", broken)
        configs = design_space({"dispatch_width": (2, 4)})
        with pytest.raises(IndexError, match="broken kernel"):
            list(SweepEngine(workers=1).iter_sweep([gcc_profile],
                                                  configs))
        with pytest.raises(IndexError, match="broken kernel"):
            list(SweepEngine(workers=2, pool=_GiveUpPool(2)).iter_sweep(
                [gcc_profile], configs))
        with Session(workers=1) as session:
            with pytest.raises(IndexError, match="broken kernel"):
                session.run(SWEEP_SPEC)

    def test_sim_sweep_midstream_give_up(self, gcc_trace):
        configs = design_space({"dispatch_width": (2, 4)})
        serial = list(SimulationSweep(workers=1).iter_sweep(
            [gcc_trace], configs))
        degraded = list(SimulationSweep(
            workers=2, pool=_GiveUpPool(1),
        ).iter_sweep([gcc_trace], configs))
        assert len(serial) == len(degraded) == len(configs)
        for a, b in zip(serial, degraded):
            assert a.workload == b.workload
            assert a.config.name == b.config.name
            assert a.result == b.result
            assert a.power == b.power


# ----------------------------------------------------------------------
# Session-level degradation, keep-going and checkpoint/resume
# ----------------------------------------------------------------------


class TestSessionRobustness:
    def test_unavailable_pool_falls_back_serially(self):
        with Session(workers=1) as reference:
            ref = [reference.run(SWEEP_SPEC).data,
                   reference.run(VALIDATE_SPEC).data]
        with Session(workers=2) as degraded:
            degraded.pool._unavailable = True
            got = [degraded.run(SWEEP_SPEC).data,
                   degraded.run(VALIDATE_SPEC).data]
        assert _strip(ref) == _strip(got)

    def test_run_many_keep_going_records_and_continues(self, tmp_path):
        bad = {"kind": "predict",
               "params": {"workload": "definitely-not-a-workload"}}
        store = str(tmp_path / "runs")
        with Session(run_store=store) as session:
            results = session.run_many([SWEEP_SPEC, bad, VALIDATE_SPEC],
                                       keep_going=True)
            assert results[0] is not None and results[2] is not None
            assert results[1] is None
            assert len(session.failures) == 1
            spec, exc = session.failures[0]
            assert spec["kind"] == "predict"
            assert isinstance(exc, KeyError)
        # The campaign checkpointed: a fresh session re-running the
        # same specs resumes from the run store.
        with Session(run_store=store) as resumed:
            again = resumed.run_many([SWEEP_SPEC, VALIDATE_SPEC])
        assert all(r.cached for r in again)

    def test_run_many_default_still_raises(self):
        bad = {"kind": "predict",
               "params": {"workload": "definitely-not-a-workload"}}
        with Session() as session:
            with pytest.raises(KeyError):
                session.run_many([bad])
        assert session.failures == []


# ----------------------------------------------------------------------
# Store quarantine under injection
# ----------------------------------------------------------------------


class TestStoreInjection:
    def test_injected_corruption_quarantines_and_heals(self, tmp_path,
                                                       monkeypatch):
        store = str(tmp_path / "runs")
        _activate_env(monkeypatch, "corrupt_store:1.0")
        with Session(run_store=store) as chaotic:
            first = chaotic.run(SWEEP_SPEC)
            assert not first.cached
            # The stored entry was corrupted after the write; the next
            # lookup quarantines it and recomputes.
            second = chaotic.run(SWEEP_SPEC)
            assert not second.cached
            assert chaotic.run_store.corrupt >= 1
            assert chaotic.run_store.quarantined >= 1
        assert any(name.endswith(".corrupt")
                   for _, _, names in os.walk(store) for name in names)
        assert _strip(first.to_dict()) == _strip(second.to_dict())


# ----------------------------------------------------------------------
# The seeded chaos campaign (CI leg entry point)
# ----------------------------------------------------------------------


class TestChaosCampaign:
    @needs_mp
    def test_campaign_matches_fault_free_bitwise(self, tmp_path,
                                                 monkeypatch):
        specs = [SWEEP_SPEC, VALIDATE_SPEC]
        with Session(workers=1,
                     run_store=str(tmp_path / "clean")) as reference:
            clean = [_strip(r.to_dict())
                     for r in reference.run_many(specs)]
        _activate_env(monkeypatch,
                      CI_CHAOS_SPEC or DEFAULT_CHAOS_SPEC,
                      seed=CI_CHAOS_SEED)
        retry = RetryPolicy(max_attempts=6, timeout=30,
                            backoff_base=0.001, backoff_max=0.01)
        with Session(workers=2, run_store=str(tmp_path / "chaos"),
                     retry=retry) as chaotic:
            results = chaotic.run_many(specs)
            recovered = (chaotic.pool.retries
                         + chaotic.pool.restarts
                         + chaotic.pool.timeouts
                         + chaotic.run_store.quarantined)
            assert chaotic.failures == []
        chaos = [_strip(r.to_dict()) for r in results]
        assert chaos == clean
        assert recovered >= 0  # counters exist; rates decide activity
