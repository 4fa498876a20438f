"""Cross-cutting property-based tests (hypothesis) on model invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference.dependences import chain_lengths_exact, chain_lengths_stepped
from repro.core import AnalyticalModel, nehalem
from repro.core.dispatch import effective_dispatch_rate
from repro.isa import Instruction, MacroOp, UopKind, crack
from repro.profiler.mix import profile_mix
from repro.workloads.generator import (
    AluSpec,
    BranchSpec,
    KernelSpec,
    LoadSpec,
    WorkloadSpec,
    generate_trace,
)

# Strategy: random small kernel bodies.
_alu = st.builds(
    AluSpec,
    op=st.sampled_from([MacroOp.INT_ALU, MacroOp.FP_ALU, MacroOp.FP_MUL]),
    dst=st.integers(1, 12),
    srcs=st.tuples(st.integers(1, 12)),
)
_load = st.builds(
    LoadSpec,
    dst=st.integers(1, 12),
    pattern=st.sampled_from(["stride", "random", "unique"]),
    strides=st.tuples(st.sampled_from([8, 64, 128])),
    region=st.sampled_from([4096, 65536, 1 << 20]),
    base=st.sampled_from([0, 1 << 20]),
)
_body = st.lists(st.one_of(_alu, _load), min_size=1, max_size=8)


@st.composite
def workloads(draw):
    body = draw(_body)
    body.append(BranchSpec(pattern="loop"))
    iterations = draw(st.integers(5, 40))
    seed = draw(st.integers(0, 1000))
    return WorkloadSpec(
        "prop", [KernelSpec("k", body, iterations=iterations)], seed=seed
    )


class TestGeneratorProperties:
    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_trace_length_is_body_times_iterations(self, spec):
        trace = generate_trace(spec)
        kernel = spec.kernels[0]
        assert len(trace) == len(kernel.body) * kernel.iterations

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_loads_have_addresses_and_alus_do_not(self, spec):
        trace = generate_trace(spec)
        for instr in trace:
            if instr.is_mem:
                assert instr.addr >= 0
            else:
                assert instr.addr == 0

    @given(workloads(), st.integers(10, 200))
    @settings(max_examples=20, deadline=None)
    def test_truncation_is_prefix(self, spec, limit):
        full = generate_trace(spec)
        cut = generate_trace(spec, max_instructions=limit)
        prefix = min(limit, len(cut), len(full))
        assert list(cut)[:prefix] == list(full)[:prefix]


class TestChainProperties:
    @given(workloads(), st.sampled_from([8, 16, 32]))
    @settings(max_examples=15, deadline=None)
    def test_chain_bounds(self, spec, window):
        trace = generate_trace(spec, max_instructions=200)
        stats = chain_lengths_exact(trace.instructions, window)
        size = min(window, len(trace))
        assert 1.0 <= stats.ap <= size
        assert stats.ap <= stats.cp <= size

    @given(workloads())
    @settings(max_examples=15, deadline=None)
    def test_stepped_within_factor_of_exact(self, spec):
        trace = generate_trace(spec, max_instructions=256)
        exact = chain_lengths_exact(trace.instructions, 16)
        stepped = chain_lengths_stepped(trace.instructions, 16)
        if exact.cp > 0:
            assert stepped.cp <= exact.cp * 1.5 + 1.0
            assert stepped.cp >= exact.cp * 0.4 - 1.0


class TestDispatchProperties:
    @given(st.dictionaries(
        st.sampled_from(list(UopKind)),
        st.integers(1, 200),
        min_size=1,
    ))
    @settings(max_examples=40, deadline=None)
    def test_deff_bounded(self, counts):
        from repro.profiler.dependences import ChainProfile, \
            DependenceChains
        mix = profile_mix([])
        mix.counts = counts
        mix.num_uops = sum(counts.values())
        mix.num_instructions = mix.num_uops
        chains = DependenceChains()
        chains.cp = ChainProfile(values={128: 4.0})
        chains.ap = ChainProfile(values={128: 2.0})
        chains.abp = ChainProfile(values={128: 2.0})
        limits = effective_dispatch_rate(mix, chains, nehalem())
        deff = limits.effective()
        assert 0.0 < deff <= nehalem().dispatch_width


class TestModelInvariants:
    def test_cycles_scale_roughly_with_trace_length(self):
        from repro.profiler import SamplingConfig, profile_application
        from repro.workloads import make_workload
        model = AnalyticalModel()
        spec = make_workload("gamess")
        short = profile_application(
            generate_trace(spec, max_instructions=10_000),
            SamplingConfig(1000, 2000),
        )
        spec2 = make_workload("gamess")
        long = profile_application(
            generate_trace(spec2, max_instructions=20_000),
            SamplingConfig(1000, 2000),
        )
        short_cycles = model.predict_performance(short, nehalem()).cycles
        long_cycles = model.predict_performance(long, nehalem()).cycles
        ratio = long_cycles / short_cycles
        assert 1.3 < ratio < 3.0

    def test_component_toggles_only_reduce_cycles(self, gcc_profile):
        full = AnalyticalModel().predict_performance(
            gcc_profile, nehalem()
        )
        no_chain = AnalyticalModel(
            enable_llc_chaining=False
        ).predict_performance(gcc_profile, nehalem())
        assert no_chain.cycles <= full.cycles + 1e-9

    def test_mshr_toggle_never_speeds_up(self, libquantum_profile):
        with_mshr = AnalyticalModel(
            enable_mshr=True
        ).predict_performance(libquantum_profile, nehalem())
        without = AnalyticalModel(
            enable_mshr=False
        ).predict_performance(libquantum_profile, nehalem())
        # The MSHR cap can only lower MLP, i.e. raise cycles.
        assert with_mshr.cycles >= without.cycles - 1e-9

    @given(st.sampled_from([1.2, 1.6, 2.0, 2.66, 3.4]))
    @settings(max_examples=5, deadline=None)
    def test_power_increases_with_frequency(self, freq):
        from repro.core.power import ActivityVector, power_batch
        activity = ActivityVector(cycles=10_000, uops=15_000,
                                  l1_accesses=5000)
        (slower, scaled), _, _, _ = power_batch(
            [nehalem().with_frequency(freq),
             nehalem().with_frequency(freq + 0.4)],
            [activity, activity],
        )
        assert scaled.total > slower.total
