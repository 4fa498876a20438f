"""MLP model tests: cold-miss model, stride model, MSHR cap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.mlp import stride_mlp_scalar
from reference.model import mshr_soft_cap_scalar
from repro.core.machine import MachineConfig
from repro.core.memory_model import mshr_soft_cap
from repro.core.mlp import (
    MLPResult,
    VirtualLoad,
    VirtualStream,
    _independence_factor,
    build_virtual_stream,
    cold_miss_mlp,
    stride_mlp,
)
from repro.profiler.memory import ColdMissProfile, profile_micro_trace_memory
from repro.statstack.model import StatStack
from repro.statstack.reuse import ReuseProfile, collect_reuse_profile


def make_cold_profile(per_window):
    profile = ColdMissProfile()
    profile.per_window[(64, 128)] = per_window
    profile.window_fraction[(64, 128)] = 0.5
    return profile


class TestIndependenceFactor:
    def test_all_independent(self):
        assert _independence_factor({1: 1.0}, 0.5) == pytest.approx(1.0)

    def test_deep_chains_with_high_missrate(self):
        factor = _independence_factor({10: 1.0}, 0.9)
        assert factor < 1e-8

    def test_mixture(self):
        factor = _independence_factor({1: 0.5, 2: 0.5}, 0.5)
        assert factor == pytest.approx(0.5 + 0.5 * 0.5)

    def test_empty_distribution(self):
        assert _independence_factor({}, 0.5) == 1.0


class TestColdMissMLP:
    def test_hand_computed_case(self):
        # Eq 4.1 with f(1)=1, no conflict misses: MLP = m_cold(ROB).
        result = cold_miss_mlp(
            cold=make_cold_profile(4.0),
            load_dependence={1: 1.0},
            llc_load_miss_rate=0.1,
            cold_fraction=1.0,
            load_fraction=0.3,
            config=MachineConfig(),
        )
        assert result.mlp == pytest.approx(4.0)

    def test_dependent_loads_reduce_mlp(self):
        independent = cold_miss_mlp(
            make_cold_profile(6.0), {1: 1.0}, 0.5, 1.0, 0.3, MachineConfig()
        )
        chained = cold_miss_mlp(
            make_cold_profile(6.0), {4: 1.0}, 0.5, 1.0, 0.3, MachineConfig()
        )
        assert chained.mlp < independent.mlp

    def test_conflict_only_uses_uniform_spread(self):
        # Eq 4.2: conflict MLP = M_cf * loads-per-ROB * independence.
        config = MachineConfig(rob_size=128)
        result = cold_miss_mlp(
            make_cold_profile(0.0),
            {1: 1.0},
            llc_load_miss_rate=0.25,
            cold_fraction=0.0,
            load_fraction=0.25,
            config=config,
        )
        assert result.mlp == pytest.approx(0.25 * 0.25 * 128)

    def test_mlp_floor_is_one(self):
        result = cold_miss_mlp(
            make_cold_profile(0.0), {1: 1.0}, 0.0, 0.0, 0.3, MachineConfig()
        )
        assert result.mlp == 1.0


class TestMSHRSoftCap:
    def test_below_capacity_unchanged(self):
        config = MachineConfig(mshr_entries=10)
        assert mshr_soft_cap(5.0, config.mshr_entries,
                             config.dram_latency) == 5.0

    def test_above_capacity_soft_capped(self):
        config = MachineConfig(mshr_entries=10, dram_latency=200)
        capped = mshr_soft_cap(20.0, config.mshr_entries,
                               config.dram_latency)
        assert 10.0 < capped < 20.0

    def test_eq_4_4_value(self):
        # MLP = M + W * (T - T_free)/T with M=10, T=200, raw=20 (W=10):
        # T_free = (10+1)/2 * 200/10 = 110 -> 10 + 10 * 90/200 = 14.5.
        config = MachineConfig(mshr_entries=10, dram_latency=200)
        assert mshr_soft_cap(20.0, config.mshr_entries,
                             config.dram_latency) == pytest.approx(14.5)

    def test_deep_overflow_approaches_hard_cap(self):
        config = MachineConfig(mshr_entries=6, dram_latency=200)
        assert mshr_soft_cap(60.0, config.mshr_entries,
                             config.dram_latency) == pytest.approx(6.0)

    @given(st.floats(min_value=1.0, max_value=64.0))
    @settings(max_examples=50, deadline=None)
    def test_cap_never_increases(self, mlp):
        config = MachineConfig(mshr_entries=8)
        assert mshr_soft_cap(mlp, config.mshr_entries,
                             config.dram_latency) <= mlp + 1e-9

    @given(
        mlps=st.lists(st.floats(1.0, 128.0), min_size=1, max_size=8),
        entries=st.sampled_from([0, 1, 4, 10, 64]),
        dram=st.sampled_from([1, 100, 200, 400]),
    )
    @settings(max_examples=100, deadline=None)
    def test_elementwise_matches_scalar_oracle(self, mlps, entries, dram):
        # One batch axis through the elementwise cap equals the scalar
        # oracle per element, bit for bit.
        config = MachineConfig(mshr_entries=entries, dram_latency=dram)
        n = len(mlps)
        batch = mshr_soft_cap(
            np.array(mlps), np.full(n, entries, dtype=np.int64),
            np.full(n, dram, dtype=np.int64),
        ).tolist()
        oracle = [mshr_soft_cap_scalar(m, config) for m in mlps]
        assert [v.hex() for v in batch] == [v.hex() for v in oracle]


def make_statstack_always_miss():
    """A StatStack whose every reuse is far beyond any cache."""
    profile = ReuseProfile()
    profile.histogram = {10_000_000: 100}
    profile.load_histogram = {10_000_000: 100}
    profile.load_accesses = 100
    profile.sampled_accesses = 100
    return StatStack(profile)


def independent_load_stream(n_loads, spacing=10):
    """n independent static loads, strided, all missing."""
    from repro.isa import Instruction, MacroOp
    stream = []
    for i in range(n_loads * spacing):
        if i % spacing == 0:
            slot = i % (4 * spacing)
            stream.append(Instruction(
                pc=0x100 + slot, op=MacroOp.LOAD,
                dst=1 + (slot // spacing),
                addr=0x10000 * (slot // spacing) + (i // (4 * spacing)) * 64,
            ))
        else:
            stream.append(Instruction(pc=0x500 + (i % 64) * 4,
                                      op=MacroOp.INT_ALU, dst=9))
    return stream


class TestStrideMLP:
    def test_all_missing_independent_loads_high_mlp(self):
        stream_instrs = independent_load_stream(64, spacing=8)
        memory = profile_micro_trace_memory(stream_instrs)
        statstack = make_statstack_always_miss()
        config = MachineConfig(mshr_entries=16)
        stream = build_virtual_stream(memory, statstack, config)
        result = stride_mlp(stream, memory.load_dependence_distribution(),
                            config)
        assert result.mlp > 4.0

    def test_chase_serializes(self):
        from repro.isa import Instruction, MacroOp
        stream_instrs = []
        for i in range(400):
            if i % 5 == 0:
                stream_instrs.append(Instruction(
                    pc=0x100, op=MacroOp.LOAD, dst=1, src1=1,
                    addr=(i * 7919) % (1 << 26),
                ))
            else:
                stream_instrs.append(Instruction(pc=0x200 + (i % 16) * 4,
                                                 op=MacroOp.INT_ALU, dst=9))
        memory = profile_micro_trace_memory(stream_instrs)
        statstack = make_statstack_always_miss()
        config = MachineConfig()
        stream = build_virtual_stream(memory, statstack, config)
        result = stride_mlp(stream, memory.load_dependence_distribution(),
                            config)
        assert result.mlp < 2.5

    def test_empty_stream(self):
        stream = VirtualStream(loads=[], length=0)
        result = stride_mlp(stream, {}, MachineConfig())
        assert result.mlp == 1.0

    def test_no_misses(self):
        stream = VirtualStream(
            loads=[VirtualLoad(position=i, pc=0x10, miss_weight=0.0)
                   for i in range(100)],
            length=1000,
        )
        result = stride_mlp(stream, {1: 1.0}, MachineConfig())
        assert result.mlp == 1.0
        assert result.llc_misses == 0.0

    def test_mlp_at_least_one(self):
        stream = VirtualStream(
            loads=[VirtualLoad(position=0, pc=0x10, miss_weight=1.0,
                               independence=0.0)],
            length=256,
        )
        result = stride_mlp(stream, {1: 1.0}, MachineConfig())
        assert result.mlp >= 1.0

    def test_prefetch_reduces_miss_weight(self):
        from repro.isa import Instruction, MacroOp
        # One strided load with large gaps: prefetchable and timely.
        stream_instrs = []
        for i in range(2000):
            if i % 200 == 0:
                stream_instrs.append(Instruction(
                    pc=0x100, op=MacroOp.LOAD, dst=1, addr=(i // 200) * 64,
                ))
            else:
                stream_instrs.append(Instruction(pc=0x300 + (i % 32) * 4,
                                                 op=MacroOp.INT_ALU, dst=9))
        memory = profile_micro_trace_memory(stream_instrs)
        statstack = make_statstack_always_miss()
        base = MachineConfig(prefetch=False)
        pf = MachineConfig(prefetch=True)
        without = build_virtual_stream(memory, statstack, base)
        with_pf = build_virtual_stream(memory, statstack, pf)
        assert with_pf.total_miss_weight < without.total_miss_weight


virtual_loads = st.builds(
    VirtualLoad,
    position=st.integers(min_value=-8, max_value=3000),
    pc=st.integers(min_value=0, max_value=7),
    miss_weight=st.one_of(st.just(0.0), st.just(1.0),
                          st.floats(min_value=0.0, max_value=1.0)),
    independence=st.floats(min_value=0.0, max_value=1.0),
)


class TestStrideMLPOracle:
    """The one-pass window scan equals the per-window rescan bitwise."""

    @given(
        loads=st.lists(virtual_loads, max_size=200),
        length=st.integers(min_value=0, max_value=2500),
        rob=st.integers(min_value=8, max_value=512),
        mshrs=st.integers(min_value=1, max_value=32),
        deff=st.floats(min_value=0.5, max_value=8.0),
        ordered=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_streams(self, loads, length, rob, mshrs, deff, ordered):
        if ordered:
            loads = sorted(loads, key=lambda load: load.position)
        stream = VirtualStream(loads=loads, length=length)
        config = MachineConfig(rob_size=rob, mshr_entries=mshrs)
        assert repr(stride_mlp(stream, {}, config, deff=deff)) == repr(
            stride_mlp_scalar(stream, {}, config, deff=deff)
        )

    @pytest.mark.parametrize("name", ["gcc", "mcf", "libquantum", "gamess"])
    def test_fixture_profiles(self, name, request):
        profile = request.getfixturevalue(f"{name}_profile")
        statstack = profile.statstack()
        for rob in (64, 128, 256):
            for prefetch in (False, True):
                config = MachineConfig(rob_size=rob, prefetch=prefetch)
                for micro in profile.micro_traces:
                    stream = build_virtual_stream(
                        micro.memory, statstack, config,
                        load_reuse_by_pc=micro.load_reuse_by_pc,
                        cold_by_pc=micro.cold_by_pc,
                    )
                    f_l = micro.memory.load_dependence_distribution()
                    assert repr(stride_mlp(stream, f_l, config)) == repr(
                        stride_mlp_scalar(stream, f_l, config)
                    )
