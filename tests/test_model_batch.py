"""Batched model kernel: bitwise equivalence vs the scalar oracle.

``IntervalModel.predict_batch`` / ``PowerModel.evaluate_batch`` must
reproduce the per-config ``predict`` loop (``tests/reference/model.py``)
*bitwise* -- same CPI and power stacks (values and key order), same
window breakdowns, same :class:`ModelCache` contents, same DesignPoint
streams at any chunk size and worker count.  Hypothesis drives random
(profile, config batch) pairs through both via the shared harness in
``equivalence.py``; unit tests pin cache hit/miss behaviour, engine
chunking corners, and that the old backend knob stays gone.
"""

import pytest
from hypothesis import given, settings

from equivalence import (
    EXTREME_AXES,
    any_config_batch,
    assert_cache_states_equal,
    assert_points_identical,
    assert_result_lists_bitwise,
    assert_results_bitwise,
    config_batches,
    micro_profiles,
    predict_both as _both,
    profiles,
    table_slices,
)
from reference.model import ScalarModel, predict_batch_scalar
from repro.api import Session
from repro.cli import build_parser
from repro.core import AnalyticalModel, BatchConfigs, ModelCache, nehalem
from repro.core.machine import config_from_params
from repro.explore.engine import SweepEngine
from repro.explore.search import SearchProblem, get_objective, make_optimizer
from repro.explore.space import DesignSpace, Parameter
from repro.profiler import profile_application

#: A small mixed batch hitting the model's branchy corners: narrow and
#: wide pipelines, tiny and huge ROBs, prefetch on, saturated MSHRs.
CORNER_CONFIGS = [
    config_from_params({"dispatch_width": 1, "rob_size": 16,
                        "mshr_entries": 1}),
    config_from_params({"dispatch_width": 8, "rob_size": 512,
                        "llc_mb": 1, "frequency_ghz": 3.4}),
    config_from_params({"prefetch": True, "l1d_kb": 16, "l2_kb": 128}),
    nehalem(),
    nehalem(),  # duplicate on purpose: stresses the gather indices
]


#: How each side of a cache-warming comparison evaluates a batch.
_EVALUATE = {"scalar": predict_batch_scalar,
             "batch": AnalyticalModel.predict_batch}


class TestBatchDifferential:
    @given(profile=profiles(), configs=any_config_batch)
    @settings(max_examples=12, deadline=None)
    def test_random_profile_random_batch_bitwise(self, profile,
                                                 configs):
        scalar, batch, scalar_cache, batch_cache = _both(profile,
                                                         configs)
        assert_result_lists_bitwise(scalar, batch)
        assert_cache_states_equal(scalar_cache, batch_cache)

    @given(profile=micro_profiles(), configs=config_batches(max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_degenerate_micro_traces_bitwise(self, profile, configs):
        scalar, batch, scalar_cache, batch_cache = _both(profile,
                                                         configs)
        assert_result_lists_bitwise(scalar, batch)
        assert_cache_states_equal(scalar_cache, batch_cache)

    def test_empty_batch(self, gcc_profile):
        scalar, batch, scalar_cache, batch_cache = _both(gcc_profile,
                                                         [])
        assert scalar == [] and batch == []
        assert_cache_states_equal(scalar_cache, batch_cache)

    def test_single_config_matches_scalar_predict(self, gcc_profile):
        model = AnalyticalModel()
        reference = model.predict(gcc_profile, nehalem())
        (result,) = AnalyticalModel().predict_batch(gcc_profile,
                                                    [nehalem()])
        assert_results_bitwise(result, reference)

    def test_prebuilt_batchconfigs_accepted(self, gcc_profile):
        prebuilt = BatchConfigs(CORNER_CONFIGS)
        scalar, batch, _, _ = _both(gcc_profile, prebuilt)
        assert_result_lists_bitwise(scalar, batch)
        from_list = AnalyticalModel().predict_batch(
            gcc_profile, CORNER_CONFIGS)
        assert_result_lists_bitwise(batch, from_list)

    @pytest.mark.parametrize("mlp_model", ["stride", "cold", "none"])
    def test_mlp_model_variants_bitwise(self, gcc_profile, mlp_model):
        scalar, batch, scalar_cache, batch_cache = _both(
            gcc_profile, CORNER_CONFIGS, mlp_model=mlp_model)
        assert_result_lists_bitwise(scalar, batch)
        assert_cache_states_equal(scalar_cache, batch_cache)

    def test_feature_toggles_bitwise(self, mcf_profile):
        scalar, batch, scalar_cache, batch_cache = _both(
            mcf_profile, CORNER_CONFIGS, enable_llc_chaining=False,
            enable_mshr=False, enable_bus=False)
        assert_result_lists_bitwise(scalar, batch)
        assert_cache_states_equal(scalar_cache, batch_cache)


class TestModelCacheBehaviour:
    """Pin what hits, what misses, and that oracle and kernel warm
    identically."""

    def test_second_evaluation_is_all_hits(self, gcc_profile):
        model = AnalyticalModel(cache=ModelCache())
        first = model.predict_batch(gcc_profile, CORNER_CONFIGS)
        warmed = set(model.cache._memo)
        assert warmed  # the batch populated the memo
        second = model.predict_batch(gcc_profile, CORNER_CONFIGS)
        assert set(model.cache._memo) == warmed  # no new keys: all hits
        assert_result_lists_bitwise(first, second)

    def test_frequency_axis_never_misses(self, gcc_profile):
        # No dependency key reads the clock: configs differing only in
        # frequency (and Vdd) must be pure cache hits after the first.
        model = AnalyticalModel(cache=ModelCache())
        base = {"dispatch_width": 4, "llc_mb": 2}
        model.predict_batch(gcc_profile, [config_from_params(base)])
        warmed = set(model.cache._memo)
        retuned = [config_from_params({**base, "frequency_ghz": f})
                   for f in EXTREME_AXES["frequency_ghz"]]
        model.predict_batch(gcc_profile, retuned)
        assert set(model.cache._memo) == warmed

    def test_llc_axis_misses(self, gcc_profile):
        # Miss-ratio queries key on cache geometry: a new LLC size must
        # add memo entries.
        model = AnalyticalModel(cache=ModelCache())
        model.predict_batch(gcc_profile,
                            [config_from_params({"llc_mb": 2})])
        warmed = set(model.cache._memo)
        model.predict_batch(gcc_profile,
                            [config_from_params({"llc_mb": 8})])
        assert set(model.cache._memo) > warmed

    def test_key_families_are_exhaustive(self, gcc_profile):
        # Every memo key names its dependency family first; the set of
        # families is part of the cache contract oracle and kernel share.
        model = AnalyticalModel(cache=ModelCache())
        model.predict_batch(gcc_profile, CORNER_CONFIGS)
        families = {key[0] for key in model.cache._memo}
        assert families == {"limits", "branch", "iratios", "dratio",
                            "fl", "stream", "smlp", "activity"}

    @pytest.mark.parametrize("first,second",
                             [("scalar", "batch"), ("batch", "scalar")])
    def test_cross_backend_cache_warming(self, gcc_profile, first,
                                         second):
        # A cache warmed by the oracle loop must serve the kernel and
        # vice versa: same results, zero new keys in either direction.
        cache = ModelCache()
        model = AnalyticalModel(cache=cache)
        warm = _EVALUATE[first](model, gcc_profile, CORNER_CONFIGS)
        warmed = set(cache._memo)
        reuse = _EVALUATE[second](model, gcc_profile, CORNER_CONFIGS)
        assert set(cache._memo) == warmed
        assert_result_lists_bitwise(warm, reuse)


class TestEngineChunking:
    """The sweep stream is chunk- and worker-count invariant."""

    SPACE = {"dispatch_width": (2, 4), "llc_mb": (2, 8),
             "rob_size": (64, 128)}

    def _configs(self):
        from repro.core import design_space

        return design_space(self.SPACE)

    def _reference(self, profiles_):
        return SweepEngine(model=ScalarModel(), workers=1).sweep(
            profiles_, self._configs())

    @pytest.mark.parametrize("batch_size", [1, 3, 10_000])
    def test_any_chunk_size_matches_scalar(self, gcc_profile,
                                           batch_size):
        reference = self._reference([gcc_profile])
        engine = SweepEngine(workers=1, batch_size=batch_size)
        chunked = engine.sweep([gcc_profile], self._configs())
        assert set(chunked) == set(reference)
        for name in reference:
            assert_points_identical(chunked[name], reference[name])

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_any_worker_count_matches_scalar(self, gcc_profile,
                                             gamess_profile, workers):
        # workers=0 is clamped to 1: evaluated in-process.
        profiles_ = [gcc_profile, gamess_profile]
        reference = self._reference(profiles_)
        swept = SweepEngine(workers=workers).sweep(
            profiles_, self._configs())
        assert set(swept) == set(reference)
        for name in reference:
            assert_points_identical(swept[name], reference[name])

    def test_streaming_order_is_grid_order(self, gcc_profile,
                                           gamess_profile):
        configs = self._configs()
        profiles_ = [gcc_profile, gamess_profile]
        stream = list(SweepEngine(workers=2, batch_size=1)
                      .iter_sweep(profiles_, configs))
        expected = [(p.name, c.name) for p in profiles_
                    for c in configs]
        assert ([(pt.workload, pt.config.name) for pt in stream]
                == expected)

    def test_constrained_space_filtered_to_empty(self, gcc_profile):
        space = DesignSpace(
            parameters=(Parameter.integer("dispatch_width", 2, 6, 2),),
            constraints=("dispatch_width > 100",),
            name="infeasible",
        )
        assert space.configs() == []
        results = SweepEngine(workers=1).sweep(
            [gcc_profile], space.configs())
        assert results == {}

    def test_constrained_space_smaller_than_chunk(self, gcc_profile):
        space = DesignSpace(
            parameters=(Parameter.integer("dispatch_width", 2, 6, 2),
                        Parameter.categorical("llc_mb", (2, 8))),
            constraints=("dispatch_width == 4", "llc_mb == 8"),
            name="singleton",
        )
        configs = space.configs()
        assert len(configs) == 1
        engine = SweepEngine(workers=1, batch_size=64)
        points = engine.sweep([gcc_profile], configs)["gcc"]
        reference = SweepEngine(model=ScalarModel(), workers=1).sweep(
            [gcc_profile], configs)["gcc"]
        assert_points_identical(points, reference)

    def test_search_trajectory_backend_invariant(self, gcc_profile):
        space = DesignSpace(
            parameters=(Parameter.integer("dispatch_width", 2, 6, 2),
                        Parameter.integer("rob_size", 64, 256, 64),
                        Parameter.categorical("llc_mb", (2, 8))),
            name="search-backends",
        )
        trajectories = [
            make_optimizer("ga", seed=7).search(
                SearchProblem([gcc_profile], space, get_objective("edp"),
                              engine=SweepEngine(model=model, workers=1)),
                20)
            for model in (ScalarModel(), AnalyticalModel())
        ]
        signatures = [
            [(e.index, tuple(sorted(e.point.items())), e.fitness)
             for e in t.evaluations]
            for t in trajectories
        ]
        assert signatures[0] == signatures[1]


class TestBackendValidation:
    """The backend knob is gone: every API that used to take a
    ``backend=`` argument rejects it before doing any work, and the
    batch kernel is the only path, whatever the environment says."""

    def test_unknown_model_backend_rejected(self, gcc_profile):
        with pytest.raises(TypeError):
            AnalyticalModel().predict_batch(gcc_profile, [nehalem()],
                                            backend="scalar")

    def test_model_backend_validated_before_work(self):
        # Rejected when the call binds, so the profile is never touched
        # (None would crash with AttributeError otherwise).
        with pytest.raises(TypeError):
            AnalyticalModel().predict_batch(None, [nehalem()],
                                            backend="scalar")

    def test_engine_rejects_unknown_backend_fast(self, gcc_profile):
        space = DesignSpace(
            parameters=(Parameter.integer("dispatch_width", 2, 4, 2),),
            name="knob")
        with pytest.raises(TypeError):
            SweepEngine(workers=1, backend="scalar")
        with pytest.raises(TypeError):
            SearchProblem([gcc_profile], space, get_objective("edp"),
                          backend="scalar")
        with pytest.raises(TypeError):
            Session(model_backend="scalar")

    def test_profile_backend_validated_before_work(self):
        with pytest.raises(TypeError):
            profile_application(None, backend="scalar")

    def test_env_default_is_batch(self, monkeypatch, gcc_profile):
        # REPRO_MODEL_BACKEND selects nothing any more: predict_batch
        # always runs the kernel.
        import repro.core.batch as batch

        monkeypatch.setenv("REPRO_MODEL_BACKEND", "scalar")
        calls = []
        kernel = batch.predict_model_batch

        def spy(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(batch, "predict_model_batch", spy)
        AnalyticalModel().predict_batch(gcc_profile, [nehalem()])
        assert calls == [1]

    def test_env_sets_default_backend(self, monkeypatch, gcc_profile):
        # REPRO_MODEL_BACKEND sets no default any more: the module that
        # read it is gone, and an engine sweep still runs the kernel.
        import importlib

        import repro.core.batch as batch

        monkeypatch.setenv("REPRO_MODEL_BACKEND", "scalar")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.backends")
        calls = []
        kernel = batch.predict_model_batch

        def spy(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(batch, "predict_model_batch", spy)
        configs = CORNER_CONFIGS[:3]
        SweepEngine(workers=1).sweep([gcc_profile], configs)
        assert calls and sum(calls) == len(configs)

    def test_invalid_env_backend_rejected(self, monkeypatch,
                                          gcc_profile):
        # A value the old knob rejected is not read at all now: with
        # REPRO_MODEL_BACKEND=simd the kernel runs and its results are
        # bitwise those of an unset environment.
        monkeypatch.delenv("REPRO_MODEL_BACKEND", raising=False)
        unset = AnalyticalModel().predict_batch(gcc_profile,
                                                CORNER_CONFIGS)
        monkeypatch.setenv("REPRO_MODEL_BACKEND", "simd")
        from_env = AnalyticalModel().predict_batch(gcc_profile,
                                                   CORNER_CONFIGS)
        assert_result_lists_bitwise(from_env, unset)

    def test_env_backend_drives_predict_batch(self, monkeypatch,
                                              gcc_profile):
        # REPRO_MODEL_BACKEND=scalar no longer routes predict_batch onto
        # the per-config predict loop; the kernel still matches that
        # loop bitwise.
        monkeypatch.setenv("REPRO_MODEL_BACKEND", "scalar")
        reference = predict_batch_scalar(AnalyticalModel(), gcc_profile,
                                         CORNER_CONFIGS)
        scalar_calls = []
        predict = AnalyticalModel.predict

        def spy(self, *args, **kwargs):
            scalar_calls.append(args)
            return predict(self, *args, **kwargs)

        monkeypatch.setattr(AnalyticalModel, "predict", spy)
        from_env = AnalyticalModel().predict_batch(gcc_profile,
                                                   CORNER_CONFIGS)
        assert scalar_calls == []
        assert_result_lists_bitwise(from_env, reference)


class TestCLIFlag:
    """``--model-backend`` is gone from every subcommand that had it."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "p.json"],
        ["search", "p.json"],
        ["validate", "gcc"],
        ["dvfs", "p.json"],
        ["serve"],
    ])
    def test_model_backend_flag_on_subcommands(self, argv, capsys):
        parser = build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--model-backend", "batch"])
        capsys.readouterr()  # swallow argparse's usage message

    def test_invalid_choice_rejected(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "p.json",
                               "--model-backend", "simd"])
        capsys.readouterr()  # swallow argparse's usage message
