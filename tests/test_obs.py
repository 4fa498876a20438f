"""Observability layer: tracer, metrics, piggyback merge, CLI flags.

Pins the telemetry contract from three directions:

* unit -- Tracer/Span determinism under a fake clock, Chrome-format
  export/read round-trip, MetricsRegistry snapshot/merge/diff and the
  null twins' no-op guarantees;
* accounting -- RunStore/ProfileStore corrupt-entry counters with
  their logged warnings, and counting at the event: each event adds
  one to its plain int and to the registry active at that moment
  (none when telemetry is off -- nothing is published later);
* integration -- telemetry on vs off must leave results, DesignPoint
  streams, cache states, fingerprints and stored bytes bitwise
  identical at every worker count, while the attached telemetry block
  and the CLI ``--trace`` / ``--metrics`` / ``stats`` surface stay
  well-formed.
"""

import json
import logging

import pytest

from repro import obs
from repro.api import ExperimentSpec, RunResult, RunStore, Session
from repro.core import AnalyticalModel, ModelCache, design_space
from repro.explore.engine import SweepEngine
from repro.obs import (
    METRICS_EVENT,
    MetricsRegistry,
    NULL_METRICS,
    NULL_TELEMETRY,
    NullTracer,
    Telemetry,
    Tracer,
    read_trace,
    span_stats,
)

from equivalence import (
    assert_cache_states_equal,
    assert_points_identical,
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


def fake_clock(step_us: int = 10):
    """A deterministic clock advancing ``step_us`` µs per call."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step_us * 1e-6
        return state["now"]

    return clock


# ----------------------------------------------------------------------
# Tracer / Span
# ----------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_deterministic_under_fake_clock(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("outer", kind="sweep"):
            with tracer.span("inner", batch=1):
                pass
        # Completion order: children before parents.
        assert [e["name"] for e in tracer.events] == ["inner", "outer"]
        inner, outer = tracer.events
        assert inner["ph"] == outer["ph"] == "X"
        # 10 µs per tick: origin=10, outer 20..50, inner 30..40.
        assert inner["ts"] == pytest.approx(20.0)
        assert inner["dur"] == pytest.approx(10.0)
        assert outer["ts"] == pytest.approx(10.0)
        assert outer["dur"] == pytest.approx(30.0)
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert inner["args"] == {"batch": 1}
        assert outer["args"] == {"kind": "sweep"}

    def test_span_seconds_is_the_measured_duration(self):
        tracer = Tracer(clock=fake_clock(1000))
        with tracer.span("timed") as span:
            pass
        assert span.seconds == pytest.approx(1e-3)

    def test_export_round_trips_and_is_line_parseable(self, tmp_path):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("a"):
            pass
        registry = MetricsRegistry()
        registry.inc("model_cache.hits", 3)
        path = str(tmp_path / "trace.json")
        tracer.export(path, metrics=registry)

        # Whole-file form: a valid JSON array, Chrome-loadable.
        events = json.load(open(path))
        assert events[0]["ph"] == "M"
        assert events[0]["args"] == {"name": "repro"}
        assert events[-1]["name"] == METRICS_EVENT
        assert (events[-1]["args"]["metrics"]["counters"]
                == {"model_cache.hits": 3})
        assert any(e.get("ph") == "X" and e["name"] == "a"
                   for e in events)

        # Line form: every event line parses on its own (JSONL-like).
        assert read_trace(path) == events
        lines = open(path).read().splitlines()
        assert lines[0] == "[" and lines[-1] == "]"
        for line in lines[1:-1]:
            json.loads(line.rstrip(","))

    def test_read_trace_tolerates_unterminated_array(self, tmp_path):
        path = str(tmp_path / "partial.json")
        with open(path, "w") as handle:
            handle.write('[\n{"name": "x", "ph": "X", "ts": 1, '
                         '"dur": 2},\n')
        events = read_trace(path)
        assert events == [{"name": "x", "ph": "X", "ts": 1, "dur": 2}]

    def test_span_stats_aggregates_complete_events_only(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 2000.0},
            {"name": "a", "ph": "X", "ts": 5, "dur": 4000.0},
            {"name": "b", "ph": "X", "ts": 9, "dur": 9000.0},
            {"name": "meta", "ph": "M"},
            {"name": "i", "ph": "i", "ts": 1},
        ]
        stats = span_stats(events)
        assert list(stats) == ["b", "a"]  # descending total time
        assert stats["a"] == {"calls": 2, "total_ms": 6.0,
                              "min_ms": 2.0, "max_ms": 4.0,
                              "mean_ms": 3.0}

    def test_null_tracer_times_but_records_nothing(self, tmp_path):
        tracer = NullTracer()
        with tracer.span("unrecorded") as span:
            sum(range(100))
        assert span.seconds >= 0.0  # still a usable timing source
        assert tracer.events == ()
        assert tracer.enabled is False
        with pytest.raises(RuntimeError, match="disabled tracer"):
            tracer.export(str(tmp_path / "never.json"))


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("b.counter")
        registry.inc("a.counter", 5)
        registry.set_gauge("pool.workers", 2)
        registry.observe("task_seconds", 0.3)
        registry.observe("task_seconds", 0.7)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.counter", "b.counter"]
        assert snapshot["counters"]["a.counter"] == 5
        assert snapshot["gauges"] == {"pool.workers": 2}
        histogram = snapshot["histograms"]["task_seconds"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(1.0)
        assert histogram["min"] == 0.3 and histogram["max"] == 0.7
        assert sum(histogram["buckets"].values()) == 2
        assert len(registry) == 4  # 2 counters + 1 gauge + 1 histogram

    def test_merge_is_deterministic_and_additive(self):
        deltas = []
        for value in (1, 10):
            source = MetricsRegistry()
            source.inc("tasks", value)
            source.set_gauge("workers", value)
            source.observe("seconds", value * 0.1)
            deltas.append(source.snapshot())

        merged_ab = MetricsRegistry()
        for delta in deltas:
            merged_ab.merge(delta)
        snapshot = merged_ab.snapshot()
        assert snapshot["counters"]["tasks"] == 11
        assert snapshot["gauges"]["workers"] == 10  # last write wins
        histogram = snapshot["histograms"]["seconds"]
        assert histogram["count"] == 2
        assert histogram["min"] == pytest.approx(0.1)
        assert histogram["max"] == pytest.approx(1.0)

        # Same deltas, same order, fresh registry: identical result.
        replay = MetricsRegistry()
        for delta in deltas:
            replay.merge(delta)
        assert replay.snapshot() == snapshot

    def test_diff_drops_zero_deltas(self):
        registry = MetricsRegistry()
        registry.inc("warm", 4)
        baseline = registry.snapshot()
        registry.inc("hot", 2)
        delta = registry.diff(baseline)
        assert delta["counters"] == {"hot": 2}  # unchanged 'warm' gone
        assert registry.diff(None)["counters"] == {"hot": 2, "warm": 4}

    def test_null_metrics_is_a_no_op(self):
        NULL_METRICS.inc("anything")
        NULL_METRICS.set_gauge("g", 1)
        NULL_METRICS.observe("h", 0.5)
        assert NULL_METRICS.enabled is False
        assert len(NULL_METRICS) == 0
        snapshot = NULL_METRICS.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}


# ----------------------------------------------------------------------
# Telemetry activation
# ----------------------------------------------------------------------


class TestTelemetryActivation:
    def test_default_is_the_null_telemetry(self):
        assert obs.current() is NULL_TELEMETRY
        assert NULL_TELEMETRY.enabled is False
        assert obs.metrics() is NULL_METRICS

    def test_activate_nests_and_restores(self):
        outer = Telemetry(trace=True, metrics=True)
        inner = Telemetry(trace=False, metrics=True)
        with obs.activate(outer):
            assert obs.current() is outer
            with obs.activate(inner):
                assert obs.current() is inner
                assert obs.metrics() is inner.metrics
            assert obs.current() is outer
        assert obs.current() is NULL_TELEMETRY

    def test_module_span_records_into_the_active_tracer(self):
        telemetry = Telemetry(trace=True, metrics=True,
                              clock=fake_clock())
        with obs.activate(telemetry):
            with obs.span("stage", n=1):
                pass
        assert [e["name"] for e in telemetry.tracer.events] == ["stage"]

    def test_summary_shape(self):
        telemetry = Telemetry(trace=True, metrics=True,
                              clock=fake_clock())
        with telemetry.span("s"):
            pass
        telemetry.metrics.inc("c")
        summary = telemetry.summary()
        assert set(summary) == {"spans", "metrics"}
        assert summary["spans"]["s"]["calls"] == 1
        assert summary["metrics"]["counters"] == {"c": 1}


# ----------------------------------------------------------------------
# Store accounting: corrupt entries, counting at the event
# ----------------------------------------------------------------------


@pytest.fixture()
def sweep_spec():
    return ExperimentSpec("sweep", workloads=["gcc"], limit=4,
                          instructions=3000)


class TestStoreAccounting:
    def test_run_store_counts_and_warns_on_corrupt_entry(
            self, tmp_path, sweep_spec, caplog):
        store = RunStore(str(tmp_path / "runs"))
        store.put(RunResult(spec=sweep_spec, data={}))
        with open(store.path(sweep_spec), "w") as handle:
            handle.write("{not json")
        with caplog.at_level(logging.WARNING, logger="repro.api.runstore"):
            assert store.get(sweep_spec) is None
        assert store.corrupt == 1 and store.misses == 1
        assert store.puts == 1 and store.hits == 0
        assert any("corrupt run-store entry" in record.message
                   for record in caplog.records)

    def test_run_store_flush_publishes_deltas_once(self, tmp_path,
                                                   sweep_spec):
        # Nothing to flush: each event is counted once, as it happens.
        store = RunStore(str(tmp_path / "runs"))
        telemetry = Telemetry(trace=False, metrics=True)
        with obs.activate(telemetry):
            store.get(sweep_spec)  # miss
            store.put(RunResult(spec=sweep_spec, data={}))
            assert telemetry.metrics.snapshot()["counters"] == {
                "run_store.misses": 1, "run_store.puts": 1}
            store.get(sweep_spec)  # hit
        assert telemetry.metrics.snapshot()["counters"] == {
            "run_store.hits": 1, "run_store.misses": 1,
            "run_store.puts": 1}
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_profile_store_counts_only_new_puts(self, tmp_path,
                                                gcc_profile,
                                                gamess_profile):
        from repro.profiler.serialization import ProfileStore

        store = ProfileStore(str(tmp_path / "profiles"))
        telemetry = Telemetry(trace=False, metrics=True)
        with obs.activate(telemetry):
            key = store.put(gcc_profile)
            assert store.put(gcc_profile) == key  # already stored
            assert telemetry.metrics.snapshot()["counters"] == {
                "profile_store.profiles_stored": 1}
            store.put(gamess_profile)
            store.put(gcc_profile)
        assert telemetry.metrics.snapshot()["counters"] == {
            "profile_store.profiles_stored": 2}
        assert store.profiles_stored == 2

    def test_model_cache_flush(self, gcc_profile, reference_config):
        model = AnalyticalModel(cache=ModelCache())
        telemetry = Telemetry(trace=False, metrics=True)
        with obs.activate(telemetry):
            model.predict(gcc_profile, reference_config)
            model.predict(gcc_profile, reference_config)
        assert model.cache.misses > 0 and model.cache.hits > 0
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["model_cache.misses"] == model.cache.misses
        assert counters["model_cache.hits"] == model.cache.hits

    def test_event_without_telemetry_reaches_no_later_registry(
            self, tmp_path, sweep_spec, gcc_profile, reference_config):
        # An event counted while no telemetry is active stays on the
        # plain ints only: a registry activated afterwards never sees
        # it, because nothing is buffered for a later publish.
        store = RunStore(str(tmp_path / "runs"))
        model = AnalyticalModel(cache=ModelCache())
        store.get(sweep_spec)  # miss, telemetry off
        model.predict(gcc_profile, reference_config)
        misses_off, hits_off = model.cache.misses, model.cache.hits
        telemetry = Telemetry(trace=False, metrics=True)
        with obs.activate(telemetry):
            store.get(sweep_spec)  # miss, telemetry on
            model.predict(gcc_profile, reference_config)
        assert store.misses == 2
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["run_store.misses"] == 1
        assert "model_cache.misses" not in counters  # all were warm
        assert model.cache.misses == misses_off > 0
        assert counters["model_cache.hits"] == model.cache.hits - hits_off


# ----------------------------------------------------------------------
# Session integration: telemetry block, equivalence on/off
# ----------------------------------------------------------------------


class TestSessionTelemetry:
    def test_telemetry_block_attached_and_excluded_from_identity(
            self, tmp_path, sweep_spec):
        telemetry = Telemetry(trace=True, metrics=True)
        runs = str(tmp_path / "runs")
        with Session(run_store=runs, telemetry=telemetry) as session:
            result = session.run(sweep_spec)

        block = result.telemetry
        assert block is not None
        spans = block["spans"]
        assert "session.run" in spans and "run.sweep" in spans
        assert "engine.sweep" in spans
        counters = block["metrics"]["counters"]
        assert counters["engine.points"] == 4
        assert counters["model_cache.misses"] > 0
        assert counters["run_store.misses"] == 1
        assert counters["run_store.puts"] == 1

        # The block is reporting-only: not part of the identity.
        full = result.to_dict()
        bare = result.to_dict(include_telemetry=False)
        assert "telemetry" in full and "telemetry" not in bare
        assert result.fingerprint == RunResult.from_dict(bare).fingerprint
        # And never part of the stored bytes.
        stored = json.load(open(RunStore(runs).path(sweep_spec)))
        assert "telemetry" not in stored

    def test_warm_run_reports_a_run_store_hit(self, tmp_path,
                                              sweep_spec):
        runs = str(tmp_path / "runs")
        with Session(run_store=runs) as session:
            session.run(sweep_spec)
        telemetry = Telemetry(trace=True, metrics=True)
        with Session(run_store=runs, telemetry=telemetry) as session:
            result = session.run(sweep_spec)
        assert result.cached is True
        counters = result.telemetry["metrics"]["counters"]
        assert counters["run_store.hits"] == 1
        assert "run_store.lookup" in result.telemetry["spans"]

    def test_no_block_when_telemetry_disabled(self, tmp_path,
                                              sweep_spec):
        with Session(run_store=str(tmp_path / "runs")) as session:
            result = session.run(sweep_spec)
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_bitwise_identical_on_vs_off(self, tmp_path,
                                                 sweep_spec, workers):
        if workers > 1 and not _mp_available():
            pytest.skip("multiprocessing unavailable")

        def run(enabled: bool):
            telemetry = (Telemetry(trace=True, metrics=True)
                         if enabled else None)
            store = str(tmp_path / f"runs-{workers}-{enabled}")
            with Session(run_store=store, workers=workers,
                         telemetry=telemetry) as session:
                return session.run(sweep_spec)

        off = run(False)
        on = run(True)
        assert (json.dumps(on.to_dict(include_telemetry=False),
                           sort_keys=True)
                == json.dumps(off.to_dict(include_telemetry=False),
                              sort_keys=True))
        assert on.fingerprint == off.fingerprint


class TestEngineTelemetryEquivalence:
    def test_design_points_and_caches_identical_on_vs_off(
            self, gcc_profile):
        configs = design_space()[:8]

        def sweep(enabled: bool):
            # Attach an explicit cache so the engine leaves it on the
            # model after the sweep (per-run caches are detached).
            model = AnalyticalModel(cache=ModelCache())
            engine = SweepEngine(model=model, workers=1, batch_size=4)
            if enabled:
                with obs.activate(Telemetry(trace=True, metrics=True)):
                    points = engine.sweep([gcc_profile],
                                          configs)["gcc"]
            else:
                points = engine.sweep([gcc_profile], configs)["gcc"]
            return points, model.cache

        points_off, cache_off = sweep(False)
        points_on, cache_on = sweep(True)
        assert_points_identical(points_off, points_on)
        assert_cache_states_equal(cache_off, cache_on)

    @pytest.mark.skipif(not _mp_available(),
                        reason="multiprocessing unavailable")
    def test_pool_piggyback_merges_worker_deltas(self, gcc_profile):
        from repro.api import WorkerPool

        telemetry = Telemetry(trace=True, metrics=True)
        pool = WorkerPool(2)
        try:
            with obs.activate(telemetry):
                engine = SweepEngine(workers=2, batch_size=4,
                                     pool=pool)
                points = engine.sweep([gcc_profile],
                                      design_space()[:16])["gcc"]
        finally:
            pool.close()
        assert len(points) == 16
        snapshot = telemetry.metrics.snapshot()
        counters = snapshot["counters"]
        # Every submitted task came back with its delta merged.
        assert counters["pool.tasks"] == counters["pool.tasks_submitted"]
        assert counters["pool.tasks"] == counters["engine.batches"] == 4
        assert counters["engine.points"] == 16
        assert counters["model_cache.misses"] > 0  # from the workers
        assert snapshot["gauges"]["pool.workers"] == 2
        histogram = snapshot["histograms"]["pool.task_seconds"]
        assert histogram["count"] == 4


class TestCounterParity:
    """Both engines count the same batches, points and cache work at
    any worker count, with or without a passed pool."""

    @pytest.mark.skipif(not _mp_available(),
                        reason="multiprocessing unavailable")
    def test_counters_equal_across_execution_paths(self, gcc_profile):
        from repro.api import WorkerPool
        from repro.explore.validate import SimulationSweep
        from repro.workloads import generate_trace, make_workload

        trace = generate_trace(make_workload("gcc"),
                               max_instructions=2000)
        configs = design_space({"dispatch_width": (2, 4),
                                "rob_size": (64, 128)})

        def counters(workers, pooled):
            telemetry = Telemetry(trace=False, metrics=True)
            pool = WorkerPool(workers) if pooled else None
            try:
                with obs.activate(telemetry):
                    SweepEngine(workers=workers, batch_size=2,
                                pool=pool).sweep([gcc_profile], configs)
                    list(SimulationSweep(workers=workers, batch_size=2,
                                         pool=pool).iter_sweep(
                        [trace], configs))
            finally:
                if pool is not None:
                    pool.close()
            return telemetry.metrics.snapshot()["counters"]

        runs = {(workers, pooled): counters(workers, pooled)
                for workers in (1, 2) for pooled in (False, True)}
        expected = {"engine.batches": 2, "engine.points": 4,
                    "sim.batches": 2, "sim.points": 4}
        for run in runs.values():
            assert {key: run.get(key) for key in expected} == expected
        # Worker caches flush their counts back on both parallel paths.
        assert runs[(2, False)]["model_cache.misses"] > 0
        assert runs[(2, True)]["model_cache.misses"] > 0


# ----------------------------------------------------------------------
# CLI: --trace / --metrics / repro stats
# ----------------------------------------------------------------------


class TestCliTelemetry:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = str(tmp_path / "spec.json")
        ExperimentSpec("sweep", workloads=["gcc"], limit=4,
                       instructions=3000).save(spec_path)
        trace_path = str(tmp_path / "trace.json")
        runs = str(tmp_path / "runs")

        assert main(["run", spec_path, "--runs", runs,
                     "--trace", trace_path, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert f"trace -> {trace_path}" in out
        assert "-- telemetry" in out
        assert "session.run" in out
        assert "run_store.misses" in out

        events = read_trace(trace_path)
        names = [e["name"] for e in events]
        assert "session.run" in names and "engine.sweep" in names
        metrics_events = [e for e in events
                          if e["name"] == METRICS_EVENT]
        assert len(metrics_events) == 1
        counters = metrics_events[0]["args"]["metrics"]["counters"]
        assert counters["run_store.puts"] == 1

        # Warm pass: the hit shows up in the rendered metrics.
        assert main(["run", spec_path, "--runs", runs,
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "run_store.hits" in out

    def test_flags_accepted_before_the_subcommand(self, capsys):
        from repro.cli import main

        assert main(["--metrics", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "-- telemetry" in out

    def test_stats_reads_a_trace_back(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "trace.json")
        tracer = Tracer(clock=fake_clock())
        with tracer.span("session.run", kind="sweep"):
            pass
        registry = MetricsRegistry()
        registry.inc("model_cache.hits", 7)
        tracer.export(trace_path, metrics=registry)

        assert main(["stats", trace_path]) == 0
        out = capsys.readouterr().out
        assert "session.run" in out
        assert "model_cache.hits" in out

        json_path = str(tmp_path / "stats.json")
        assert main(["stats", trace_path, "--json", json_path]) == 0
        data = json.load(open(json_path))
        assert data["spans"]["session.run"]["calls"] == 1
        assert data["metrics"]["counters"]["model_cache.hits"] == 7

    def test_no_flags_means_no_telemetry_output(self, capsys):
        from repro.cli import main

        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "-- telemetry" not in out
