"""Sweep engine: parallel/serial identity, caching, streaming, store."""

import json
import os

import pytest

from equivalence import assert_points_identical as _assert_points_identical
from reference.model import predict_scalar
from repro.api.pool import grid_tasks
from repro.core import AnalyticalModel, design_space, nehalem
from repro.core.interval import ModelCache
from repro.explore.dvfs import explore_dvfs
from repro.explore.empirical import EmpiricalModel
from repro.explore.engine import SweepEngine
from repro.explore.pareto import StreamingParetoFront, pareto_front
from repro.profiler import SamplingConfig, profile_application
from repro.profiler.serialization import (
    ProfileStore,
    profile_fingerprint,
)
from repro.statstack.model import StatStack
from repro.workloads import generate_trace, make_workload

SPACE = {"dispatch_width": (2, 4), "llc_mb": (2, 8), "rob_size": (64, 128)}


class TestSweepEngine:
    def test_serial_matches_legacy_loop(self, gcc_profile):
        """Engine results are bitwise identical to the oracle's
        per-config loop."""
        configs = design_space(SPACE)
        model = AnalyticalModel()
        legacy = [predict_scalar(model, gcc_profile, c) for c in configs]
        results = SweepEngine(workers=1).sweep([gcc_profile], configs)
        points = results["gcc"]
        assert len(points) == len(configs)
        for point, reference in zip(points, legacy):
            assert point.cpi == reference.cpi
            assert point.power_watts == reference.power_watts
            assert point.result.performance.stack == \
                reference.performance.stack

    def test_parallel_matches_serial(self, gcc_profile, gamess_profile):
        configs = design_space(SPACE)
        profiles = [gcc_profile, gamess_profile]
        serial = SweepEngine(workers=1).sweep(profiles, configs)
        parallel = SweepEngine(workers=2).sweep(profiles, configs)
        assert set(serial) == set(parallel)
        for name in serial:
            _assert_points_identical(serial[name], parallel[name])

    def test_streaming_order_is_grid_order(self, gcc_profile,
                                           gamess_profile):
        configs = design_space(SPACE)
        profiles = [gcc_profile, gamess_profile]
        stream = list(SweepEngine(workers=2).iter_sweep(profiles, configs))
        expected = [
            (p.name, c.name) for p in profiles for c in configs
        ]
        assert [(pt.workload, pt.config.name) for pt in stream] == expected

    def test_streaming_supports_partial_consumption(self, gcc_profile):
        configs = design_space(SPACE)
        stream = SweepEngine(workers=2).iter_sweep([gcc_profile], configs)
        first = next(stream)
        assert first.workload == "gcc"
        assert first.cpi > 0
        stream.close()  # abandoning mid-sweep must not hang or leak

    def test_progress_callback(self, gcc_profile):
        configs = design_space({"dispatch_width": (2, 4)})
        seen = []
        engine = SweepEngine(
            workers=1, progress=lambda done, total: seen.append(
                (done, total))
        )
        engine.sweep([gcc_profile], configs)
        assert seen == [(1, 2), (2, 2)]

    def test_batch_partitioning_covers_grid(self):
        # batch_size=None takes the default chunk, a quarter of the
        # per-worker share: ceil(10 / (3 * 4)) = 1 config per task.
        for batch_size, chunk in ((4, 4), (None, 1)):
            tasks = grid_tasks(2, 10, workers=3, batch_size=batch_size)
            assert all(stop - start <= chunk for _, start, stop in tasks)
            covered = [(profile_index, c)
                       for profile_index, start, stop in tasks
                       for c in range(start, stop)]
            assert covered == [(p, c) for p in range(2)
                               for c in range(10)]

    def test_caller_model_left_untouched(self, gcc_profile):
        """The engine must not permanently mutate a caller-owned model."""
        model = AnalyticalModel()
        assert model.cache is None
        SweepEngine(model=model, workers=1).sweep(
            [gcc_profile], design_space({"dispatch_width": (2, 4)})
        )
        assert model.cache is None

    def test_caller_attached_cache_is_kept(self, gcc_profile):
        cache = ModelCache()
        model = AnalyticalModel(cache=cache)
        SweepEngine(model=model, workers=1).sweep(
            [gcc_profile], design_space({"dispatch_width": (2, 4)})
        )
        assert model.cache is cache
        assert len(cache) > 0

    def test_prepare_memoized_across_sweeps(self, tmp_path, gcc_profile):
        store = ProfileStore(str(tmp_path))
        engine = SweepEngine(workers=1, store=store)
        keys_first = engine.prepare([gcc_profile])
        statstack = gcc_profile._statstack
        keys_second = engine.prepare([gcc_profile])
        assert keys_first == keys_second
        assert gcc_profile._statstack is statstack  # no rebuild/reload


class TestModelCache:
    def test_cached_predictions_identical(self, gcc_profile):
        configs = design_space(SPACE)
        plain = AnalyticalModel()
        cached = AnalyticalModel(cache=ModelCache())
        for config in configs:
            a = plain.predict(gcc_profile, config)
            b = cached.predict(gcc_profile, config)
            assert a.cpi == b.cpi
            assert a.power_watts == b.power_watts
            assert a.performance.stack == b.performance.stack
        assert len(cached.cache) > 0

    def test_cache_hits_across_configs(self, gcc_profile):
        cached = AnalyticalModel(cache=ModelCache())
        for config in design_space(SPACE):
            cached.predict(gcc_profile, config)
        size_after_first = len(cached.cache)
        # Re-evaluating the same grid adds no new entries.
        for config in design_space(SPACE):
            cached.predict(gcc_profile, config)
        assert len(cached.cache) == size_after_first

    def test_pickles_empty(self, gcc_profile):
        # Keys hold process-local profile identities, so a shipped
        # model must arrive with a fresh cache of its own.
        import pickle

        model = AnalyticalModel(cache=ModelCache())
        model.predict(gcc_profile, nehalem())
        assert len(model.cache) > 0
        clone = pickle.loads(pickle.dumps(model))
        assert isinstance(clone.cache, ModelCache)
        assert len(clone.cache) == 0
        assert (clone.cache.hits, clone.cache.misses) == (0, 0)
        assert len(model.cache) > 0  # the original is untouched

    def test_clear(self, gcc_profile):
        cached = AnalyticalModel(cache=ModelCache())
        cached.predict(gcc_profile, nehalem())
        assert len(cached.cache) > 0
        cached.cache.clear()
        assert len(cached.cache) == 0


class TestProfileStore:
    def test_fingerprint_stable_and_content_addressed(self, gcc_profile,
                                                      gamess_profile):
        assert profile_fingerprint(gcc_profile) == \
            profile_fingerprint(gcc_profile)
        assert profile_fingerprint(gcc_profile) != \
            profile_fingerprint(gamess_profile)

    def test_put_get_roundtrip(self, tmp_path, gcc_profile):
        store = ProfileStore(str(tmp_path))
        key = store.put(gcc_profile)
        assert key in store
        loaded = store.get(key)
        assert loaded.name == gcc_profile.name
        assert profile_fingerprint(loaded) == key

    def test_warm_cache_identical_queries(self, tmp_path, gcc_profile):
        store = ProfileStore(str(tmp_path))
        reference = StatStack(gcc_profile.reuse)
        store.warm(gcc_profile)  # cold: computes + persists tables

        reloaded = store.get(store.put(gcc_profile))
        store.warm(reloaded)  # warm: tables come from disk
        for size in (32 * 1024, 256 * 1024, 8 * 1024 * 1024):
            assert reloaded.statstack().miss_ratio(size, kind="load") == \
                reference.miss_ratio(size, kind="load")

    def test_stale_tables_fall_back_to_rebuild(self, gcc_profile):
        tables = {"distances": [1, 2, 3], "expected_sd": [0.0, 1.0, 2.0]}
        model = StatStack.from_tables(gcc_profile.reuse, tables)
        reference = StatStack(gcc_profile.reuse)
        assert model.miss_ratio(32 * 1024) == reference.miss_ratio(32 * 1024)

    def test_wrong_version_or_counts_fall_back(self, gcc_profile):
        reference = StatStack(gcc_profile.reuse)
        good = reference.export_tables()

        outdated = dict(good, version=good["version"] - 1)
        corrupted = dict(good, counts=[c + 1 for c in good["counts"]])
        for tables in (outdated, corrupted):
            rebuilt = StatStack.from_tables(gcc_profile.reuse, tables)
            assert rebuilt.miss_ratio(32 * 1024) == \
                reference.miss_ratio(32 * 1024)

    def test_matching_tables_are_used(self, gcc_profile):
        reference = StatStack(gcc_profile.reuse)
        assert reference._tables_match(reference.export_tables())

    def test_engine_with_store(self, tmp_path, gcc_profile):
        configs = design_space({"dispatch_width": (2, 4)})
        store = ProfileStore(str(tmp_path))
        cold = SweepEngine(workers=1, store=store).sweep(
            [gcc_profile], configs
        )
        assert gcc_profile._statstack is not None
        warm = SweepEngine(workers=1, store=store).sweep(
            [gcc_profile], configs
        )
        _assert_points_identical(cold["gcc"], warm["gcc"])


class TestStreamingPareto:
    def test_matches_batch_front(self, gcc_profile):
        configs = design_space(SPACE)
        points = SweepEngine(workers=1).sweep([gcc_profile], configs)["gcc"]
        coordinates = [(p.seconds, p.power_watts) for p in points]
        batch = {coordinates[i] for i in pareto_front(coordinates)}
        streaming = StreamingParetoFront()
        for point in points:
            streaming.add_point(point)
        assert {(x, y) for x, y, _ in streaming.frontier()} == batch

    def test_duplicates_all_kept(self):
        front = StreamingParetoFront()
        assert front.add(1.0, 1.0, "a")
        assert front.add(1.0, 1.0, "b")
        assert len(front) == 2

    def test_dominated_point_rejected(self):
        front = StreamingParetoFront()
        assert front.add(1.0, 1.0)
        assert not front.add(2.0, 2.0)
        assert len(front) == 1

    def test_new_point_evicts_dominated(self):
        front = StreamingParetoFront()
        front.add(2.0, 2.0)
        assert front.add(1.0, 1.0)
        assert [(x, y) for x, y, _ in front.frontier()] == [(1.0, 1.0)]


class TestEngineConsumers:
    def test_dvfs_through_engine(self, gamess_profile):
        direct = explore_dvfs(gamess_profile, nehalem())
        engine = SweepEngine(workers=1)
        via_engine = explore_dvfs(gamess_profile, nehalem(), engine=engine)
        assert len(direct) == len(via_engine)
        for a, b in zip(direct, via_engine):
            assert a.point == b.point
            assert a.seconds == b.seconds
            assert a.power_watts == b.power_watts

    def test_empirical_fit_sweep(self, gcc_profile, gamess_profile):
        configs = design_space({"dispatch_width": (2, 4, 6),
                                "rob_size": (64, 256)})
        model = EmpiricalModel().fit_sweep(
            [gcc_profile, gamess_profile], configs
        )
        prediction = model.predict(gcc_profile, configs[0])
        assert prediction == pytest.approx(
            AnalyticalModel().predict(gcc_profile, configs[0]).cpi,
            rel=0.5, abs=0.5,
        )

    def test_empirical_fit_sweep_default_is_serial(self, gcc_profile,
                                                   gamess_profile,
                                                   monkeypatch):
        # The default engine must not start worker processes, even on
        # a multi-core host.
        import multiprocessing

        started = []

        def no_pool(*args, **kwargs):
            started.append(kwargs)
            raise OSError("worker processes are off limits here")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        configs = design_space({"dispatch_width": (2, 4, 6),
                                "rob_size": (64, 256)})
        EmpiricalModel().fit_sweep([gcc_profile, gamess_profile],
                                   configs)
        assert started == []


class TestSeededReuseSampling:
    def _profile(self, trace, rate, seed):
        return profile_application(
            trace,
            SamplingConfig(1000, 5000, reuse_sample_rate=rate,
                           reuse_seed=seed),
        )

    def test_same_seed_bitwise_identical(self, gcc_trace):
        a = self._profile(gcc_trace, 0.5, seed=7)
        b = self._profile(gcc_trace, 0.5, seed=7)
        assert a.reuse.histogram == b.reuse.histogram
        assert a.reuse.load_histogram == b.reuse.load_histogram
        assert a.reuse.cold_loads == b.reuse.cold_loads
        assert a.reuse.sampled_accesses == b.reuse.sampled_accesses
        assert profile_fingerprint(a) == profile_fingerprint(b)

    def test_different_seed_samples_different_subset(self, gcc_trace):
        a = self._profile(gcc_trace, 0.5, seed=7)
        b = self._profile(gcc_trace, 0.5, seed=8)
        assert a.reuse.histogram != b.reuse.histogram

    def test_full_rate_matches_default(self, gcc_trace):
        sampled = self._profile(gcc_trace, 1.0, seed=123)
        default = profile_application(gcc_trace, SamplingConfig(1000, 5000))
        assert sampled.reuse.histogram == default.reuse.histogram
        assert sampled.reuse.sampled_accesses == \
            default.reuse.sampled_accesses

    def test_sampling_config_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SamplingConfig(1000, 5000, reuse_sample_rate=0.0)

    def test_sampling_roundtrips_serialization(self, tmp_path, gcc_trace):
        from repro.profiler.serialization import (
            load_profile,
            save_profile,
        )
        profile = self._profile(gcc_trace, 0.5, seed=7)
        path = str(tmp_path / "p.json")
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.sampling.reuse_sample_rate == 0.5
        assert loaded.sampling.reuse_seed == 7
        assert profile_fingerprint(loaded) == profile_fingerprint(profile)
