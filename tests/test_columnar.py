"""Columnar trace backend: bitwise equivalence vs the scalar oracles.

The vectorized profiling passes must reproduce the frozen scalar
oracles in ``tests/reference/`` *bitwise* -- same histograms, same
Counter insertion order (it breaks ``most_common`` tie-breaking
otherwise), same floats, same ProfileStore content hashes -- across
random traces, line sizes, sample rates and seeds.  Hypothesis drives
the comparison; a few unit tests pin the columnar container behaviour
itself.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivalence import (
    accesses as _accesses,
    assert_memory_profiles_bitwise,
    assert_profiles_bitwise,
    instructions as _instructions,
    line_sizes as _line_sizes,
    sample_rates as _rates,
    seeds as _seeds,
    traces as _traces,
)
from reference.dependences import _profile_dependence_chains_scalar
from reference.entropy import _profile_branch_entropy_scalar
from reference.memory import (
    _profile_cold_misses_scalar,
    _profile_micro_trace_memory_scalar,
)
from reference.mix import _profile_mix_scalar
from reference.profile import (
    _global_reuse_pass_scalar,
    _instruction_reuse_pass_scalar,
    _profile_application_scalar,
)
from reference.reuse import _collect_reuse_profile_scalar
from repro.isa import Instruction, MacroOp
from repro.frontend.entropy import profile_branch_entropy
from repro.profiler import SamplingConfig, profile_application
from repro.profiler.dependences import profile_dependence_chains
from repro.profiler.memory import (
    profile_cold_misses,
    profile_micro_trace_memory,
)
from repro.profiler.mix import profile_mix
from repro.profiler.profile import (
    _global_reuse_pass,
    _instruction_reuse_pass,
)
from repro.profiler.serialization import (
    profile_fingerprint,
)
from repro.statstack.reuse import collect_reuse_profile
from repro.workloads import Trace, TraceColumns
from repro.workloads.columns import (
    bernoulli_draws,
    count_histogram,
    previous_occurrence,
)

# Strategies live in equivalence.py (shared with the model-kernel
# differential tests); see there for why the value pools are small.


class TestReuseEquivalence:
    @given(accesses=_accesses, line_size=_line_sizes, rate=_rates,
           seed=_seeds)
    @settings(max_examples=40, deadline=None)
    def test_collect_reuse_bitwise(self, accesses, line_size, rate,
                                   seed):
        scalar = _collect_reuse_profile_scalar(
            accesses, line_size=line_size, sample_rate=rate, seed=seed)
        vectorized = collect_reuse_profile(
            accesses, line_size=line_size, sample_rate=rate, seed=seed)
        assert scalar == vectorized

    @given(accesses=_accesses, rate=_rates)
    @settings(max_examples=15, deadline=None)
    def test_shared_rng_ends_in_same_state(self, accesses, rate):
        scalar_rng = random.Random(3)
        vector_rng = random.Random(3)
        _collect_reuse_profile_scalar(accesses, sample_rate=rate,
                                      rng=scalar_rng)
        collect_reuse_profile(accesses, sample_rate=rate, rng=vector_rng)
        assert scalar_rng.getstate() == vector_rng.getstate()

    @given(instrs=_traces, line_size=_line_sizes)
    @settings(max_examples=25, deadline=None)
    def test_instruction_reuse_bitwise(self, instrs, line_size):
        columns = TraceColumns.from_instructions(instrs)
        assert (_instruction_reuse_pass_scalar(instrs, line_size)
                == _instruction_reuse_pass(columns, line_size))

    @given(instrs=_traces, rate=_rates, seed=_seeds,
           micro=st.integers(1, 40), stretch=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_global_reuse_pass_bitwise(self, instrs, rate, seed, micro,
                                       stretch):
        sampling = SamplingConfig(micro, micro * stretch,
                                  reuse_sample_rate=rate,
                                  reuse_seed=seed)
        scalar, scalar_micro = _global_reuse_pass_scalar(
            instrs, sampling, 64)
        columns = TraceColumns.from_instructions(instrs)
        vector, vector_micro = _global_reuse_pass(columns, sampling, 64)
        assert scalar == vector
        assert scalar_micro == vector_micro


class TestMemoryEquivalence:
    @given(instrs=_traces)
    @settings(max_examples=30, deadline=None)
    def test_cold_misses_bitwise(self, instrs):
        assert (_profile_cold_misses_scalar(instrs)
                == profile_cold_misses(instrs))

    @given(instrs=_traces, line_size=_line_sizes)
    @settings(max_examples=40, deadline=None)
    def test_micro_trace_memory_bitwise(self, instrs, line_size):
        scalar = _profile_micro_trace_memory_scalar(
            instrs, line_size=line_size)
        vectorized = profile_micro_trace_memory(
            instrs, line_size=line_size)
        assert_memory_profiles_bitwise(scalar, vectorized)


class TestAuxiliaryEquivalence:
    @given(instrs=_traces)
    @settings(max_examples=25, deadline=None)
    def test_entropy_mix_chains_bitwise(self, instrs):
        # Each pass is checked with pre-built columns and with the
        # columns it builds itself from the instructions.
        columns = TraceColumns.from_instructions(instrs)
        scalar_entropy = _profile_branch_entropy_scalar(instrs)
        assert profile_branch_entropy((), columns=columns) == scalar_entropy
        assert profile_branch_entropy(instrs) == scalar_entropy
        scalar_mix = _profile_mix_scalar(instrs)
        for columnar_mix in (profile_mix((), columns=columns),
                             profile_mix(instrs)):
            assert columnar_mix == scalar_mix
            # Key order is part of the contract: the power model and
            # average_latency() sum floats over counts.items(), so a
            # different insertion order changes predictions in the
            # last ulp.
            assert list(columnar_mix.counts) == list(scalar_mix.counts)
        scalar = _profile_dependence_chains_scalar(instrs)
        for vectorized in (profile_dependence_chains((), columns=columns),
                           profile_dependence_chains(instrs)):
            assert vectorized.ap.values == scalar.ap.values
            assert vectorized.abp.values == scalar.abp.values
            assert vectorized.cp.values == scalar.cp.values


class TestProfileApplicationEquivalence:
    @given(instrs=_traces, rate=_rates, seed=st.integers(0, 10),
           micro=st.integers(1, 30), stretch=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_backends_bitwise_and_same_store_key(self, instrs, rate,
                                                 seed, micro, stretch):
        sampling = SamplingConfig(micro, micro * stretch,
                                  reuse_sample_rate=rate,
                                  reuse_seed=seed)
        trace = Trace(instrs, name="prop")
        scalar = _profile_application_scalar(trace, sampling)
        columnar = profile_application(trace, sampling)
        assert_profiles_bitwise(scalar, columnar)

    def test_unknown_backend_rejected(self):
        # profile_application has no backend knob: every name, the
        # once-valid "columns" and "scalar" included, fails as an
        # unexpected keyword before any profiling.
        for backend in ("simd", "columns", "scalar"):
            with pytest.raises(TypeError):
                profile_application(Trace([], name="x"), backend=backend)

    @pytest.mark.parametrize("workload", ["bwaves", "lbm", "gcc"])
    def test_model_predictions_bitwise_across_backends(self, workload):
        # End-to-end: the analytical model's float reductions iterate
        # profile dicts, so matching the oracle requires equal
        # iteration order, not just equal dict contents.  FP workloads
        # regress the mix-insertion-order bug specifically.
        from repro.core import AnalyticalModel, nehalem
        from repro.workloads import generate_trace, make_workload

        trace = generate_trace(make_workload(workload),
                               max_instructions=6000)
        sampling = SamplingConfig(500, 1500)
        scalar = _profile_application_scalar(trace, sampling)
        columnar = profile_application(trace, sampling)
        model = AnalyticalModel()
        config = nehalem()
        left = model.predict(scalar, config)
        right = model.predict(columnar, config)
        assert left.cpi == right.cpi
        assert left.seconds == right.seconds
        assert left.power_watts == right.power_watts
        assert left.cpi_stack() == right.cpi_stack()


class TestTraceColumns:
    @given(instrs=_traces)
    @settings(max_examples=25, deadline=None)
    def test_instruction_round_trip(self, instrs):
        columns = TraceColumns.from_instructions(instrs)
        assert columns.instructions() == list(instrs)

    def test_masks_match_predicates(self):
        instrs = [Instruction(pc=4 * i, op=op)
                  for i, op in enumerate(MacroOp)]
        columns = TraceColumns.from_instructions(instrs)
        for index, instr in enumerate(instrs):
            assert bool(columns.is_load[index]) == instr.is_load
            assert bool(columns.is_store[index]) == instr.is_store
            assert bool(columns.is_mem[index]) == instr.is_mem
            assert bool(columns.is_branch[index]) == instr.is_branch

    def test_slicing_shares_data_and_preserves_fields(self):
        instrs = [Instruction(pc=4 * i, op=MacroOp.LOAD, addr=64 * i)
                  for i in range(10)]
        columns = TraceColumns.from_instructions(instrs)
        view = columns[2:7]
        assert len(view) == 5
        assert view.pc.base is not None  # a view, not a copy
        assert view.instructions() == instrs[2:7]

    def test_ensure_accepts_trace_columns_and_sequences(self):
        instrs = [Instruction(pc=0, op=MacroOp.LOAD, addr=0)]
        trace = Trace(instrs)
        columns = trace.columns()
        assert TraceColumns.ensure(trace) is columns
        assert TraceColumns.ensure(columns) is columns
        built = TraceColumns.ensure(instrs)
        assert built.instructions() == instrs

    def test_previous_occurrence(self):
        ids = np.array([5, 7, 5, 5, 7, 9], dtype=np.int64)
        assert previous_occurrence(ids).tolist() == [-1, -1, 0, 2, 1, -1]
        assert previous_occurrence(np.array([], dtype=np.int64)).size == 0

    def test_count_histogram_returns_python_ints(self):
        histogram = count_histogram(np.array([3, 1, 3], dtype=np.int64))
        assert histogram == {1: 1, 3: 2}
        assert all(type(k) is int and type(v) is int
                   for k, v in histogram.items())
        # First-encounter key order, matching the scalar loop's dict.
        assert list(histogram) == [3, 1]

    def test_bernoulli_draws_match_rng_sequence(self):
        draws = bernoulli_draws(random.Random(11), 5)
        reference = random.Random(11)
        assert draws.tolist() == [reference.random() for _ in range(5)]


class TestTraceColumnarBehaviour:
    def test_stats_annotation_and_columnar_pass(self):
        instrs = [
            Instruction(pc=0, op=MacroOp.INT_ALU_LOAD, dst=1, addr=0),
            Instruction(pc=4, op=MacroOp.STORE, addr=64),
            Instruction(pc=8, op=MacroOp.BRANCH, taken=True),
        ]
        trace = Trace(instrs)
        assert trace._stats is None
        stats = trace.stats()
        assert trace.stats() is stats  # cached
        assert stats.num_instructions == 3
        assert stats.num_uops == 4  # load-op cracks into two
        assert stats.num_branches == 1
        assert stats.num_loads == 1
        assert stats.num_stores == 1
        assert stats.macro_mix[MacroOp.STORE] == 1

    @given(instrs=st.lists(_instructions, min_size=1, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_stats_match_object_view(self, instrs):
        from collections import Counter

        from repro.isa import crack

        trace = Trace(instrs)
        stats = trace.stats()
        assert stats.macro_mix == dict(Counter(i.op for i in instrs))
        uop_mix = Counter()
        for instr in instrs:
            uop_mix.update(crack(instr.op))
        assert stats.uop_mix == dict(uop_mix)
        assert stats.num_uops == sum(uop_mix.values())
        assert stats.num_loads == sum(i.is_load for i in instrs)
        assert stats.num_stores == sum(i.is_store for i in instrs)
        assert stats.num_branches == sum(i.is_branch for i in instrs)

    def test_pickle_ships_columns_not_objects(self):
        instrs = [Instruction(pc=4 * i, op=MacroOp.LOAD, dst=1,
                              addr=64 * i) for i in range(50)]
        trace = Trace(instrs, name="ship", seed=9)
        payload = pickle.dumps(trace)
        assert b"Instruction" not in payload  # no per-object pickling
        clone = pickle.loads(payload)
        assert clone.name == "ship" and clone.seed == 9
        assert clone._instructions is None  # lazy object view
        assert list(clone.instructions) == instrs

    def test_pickle_round_trip_preserves_profile(self):
        from repro.workloads import generate_trace, make_workload

        trace = generate_trace(make_workload("gcc"),
                               max_instructions=4000)
        clone = pickle.loads(pickle.dumps(trace))
        sampling = SamplingConfig(500, 1000)
        assert (profile_fingerprint(profile_application(trace, sampling))
                == profile_fingerprint(
                    profile_application(clone, sampling)))

    def test_slice_of_columnar_trace(self):
        instrs = [Instruction(pc=4 * i, op=MacroOp.LOAD, addr=64 * i)
                  for i in range(20)]
        trace = Trace(instrs)
        trace.columns()
        window = trace[5:15]
        assert len(window) == 10
        assert list(window) == instrs[5:15]
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone[5:15]) == instrs[5:15]


class TestColdMissWindowFraction:
    def test_occupied_window_fraction_nearest_key(self):
        from repro.profiler.memory import ColdMissProfile

        profile = ColdMissProfile()
        profile.per_window[(64, 128)] = 2.0
        profile.per_window[(32, 128)] = 3.0
        profile.window_fraction[(64, 128)] = 0.25
        profile.window_fraction[(32, 128)] = 0.5
        # Exact and nearest lookups follow the per_window rule.
        assert profile.occupied_window_fraction(128, 64) == 0.25
        assert profile.occupied_window_fraction(100, 64) == 0.25
        assert profile.occupied_window_fraction(128, 40) == 0.5
        # Line size dominates the distance, as for cold misses.
        assert (profile.occupied_window_fraction(1024, 33)
                == profile.window_fraction[(32, 128)])

    def test_empty_profile_returns_zero(self):
        from repro.profiler.memory import ColdMissProfile

        profile = ColdMissProfile()
        assert profile.occupied_window_fraction(128) == 0.0

    def test_profiled_fraction_consistent_with_lookup(self):
        instrs = [Instruction(pc=0, op=MacroOp.LOAD, addr=64 * i)
                  for i in range(64)]
        profile = profile_cold_misses(instrs, rob_grid=(32,),
                                      line_sizes=(64,))
        assert (profile.occupied_window_fraction(32, 64)
                == profile.window_fraction[(64, 32)])
