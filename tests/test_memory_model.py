"""LLC chaining and I-cache penalty tests (thesis §4.8, Eq 3.1 term 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.model import llc_chain_penalty_scalar
from repro.caches.cache import CacheConfig
from repro.core.machine import MachineConfig
from repro.core.memory_model import icache_penalty, llc_chain_penalty


class TestLLCChainPenalty:
    def test_no_hits_no_penalty(self):
        penalty = llc_chain_penalty(
            llc_hits_per_rob=0.0,
            independent_load_fraction=1.0,
            loads_per_rob=32.0,
            deff=4.0,
            num_uops=10_000,
            rob_size=MachineConfig().rob_size,
            llc_latency=MachineConfig().llc.latency,
        )
        assert penalty == 0.0

    def test_short_chains_hidden_by_rob(self):
        # Few hits spread over many paths: serialized latency below the
        # ROB fill time is hidden (Eq 4.11).
        penalty = llc_chain_penalty(
            llc_hits_per_rob=2.0,
            independent_load_fraction=1.0,
            loads_per_rob=32.0,
            deff=4.0,
            num_uops=10_000,
            rob_size=128,
            llc_latency=MachineConfig(rob_size=128).llc.latency,
        )
        assert penalty == 0.0

    def test_long_chains_exposed(self):
        # One dependence path carrying many LLC hits serializes beyond
        # the ROB fill time.
        config = MachineConfig(rob_size=128)
        penalty = llc_chain_penalty(
            llc_hits_per_rob=8.0,
            independent_load_fraction=1.0 / 32.0,  # one path
            loads_per_rob=32.0,
            deff=4.0,
            num_uops=10_000,
            rob_size=config.rob_size,
            llc_latency=config.llc.latency,
        )
        assert penalty > 0.0

    def test_more_paths_less_penalty(self):
        config = MachineConfig(rob_size=128)
        few_paths = llc_chain_penalty(8.0, 1 / 32, 32.0, 4.0, 10_000,
                                      config.rob_size, config.llc.latency)
        many_paths = llc_chain_penalty(8.0, 0.5, 32.0, 4.0, 10_000,
                                       config.rob_size, config.llc.latency)
        assert many_paths <= few_paths

    def test_eq_4_7_to_4_9_hand_case(self):
        # hits=6, paths=2, lop=4: LHC_avg=3, LHC_max=min(6,4)=4,
        # LHC_exp=3+(4-3)/2=3.5 -> serialized=30*3.5=105;
        # rob fill=128/4=32 -> per-window 73; windows=1280/128=10 -> 730.
        config = MachineConfig(rob_size=128)
        penalty = llc_chain_penalty(
            llc_hits_per_rob=6.0,
            independent_load_fraction=2.0 / 8.0,
            loads_per_rob=8.0,
            deff=4.0,
            num_uops=1280.0,
            rob_size=config.rob_size,
            llc_latency=config.llc.latency,
        )
        assert penalty == pytest.approx(730.0)

    @given(
        hits=st.lists(st.floats(-1.0, 64.0), min_size=1, max_size=8),
        f1=st.floats(0.0, 1.0),
        loads=st.floats(0.0, 256.0),
        deff=st.floats(0.0, 8.0),
        rob=st.sampled_from([16, 64, 128, 512]),
        llc_latency=st.sampled_from([10, 30, 45]),
    )
    @settings(max_examples=100, deadline=None)
    def test_elementwise_matches_scalar_oracle(self, hits, f1, loads,
                                               deff, rob, llc_latency):
        # One batch axis through the elementwise helper equals the
        # scalar oracle per element, bit for bit.
        config = MachineConfig(
            rob_size=rob,
            llc=CacheConfig(8 << 20, 16, 64, latency=llc_latency),
        )
        n = len(hits)
        batch = llc_chain_penalty(
            np.array(hits), f1, np.full(n, loads), np.full(n, deff),
            1000.0, np.full(n, rob, dtype=np.int64),
            np.full(n, llc_latency, dtype=np.int64),
        ).tolist()
        oracle = [
            llc_chain_penalty_scalar(h, f1, loads, deff, 1000.0, config)
            for h in hits
        ]
        assert [v.hex() for v in batch] == [v.hex() for v in oracle]


class TestICachePenalty:
    def test_no_misses_no_penalty(self):
        assert icache_penalty(1000, [0.0, 0.0, 0.0], MachineConfig()) == 0.0

    def test_l1i_misses_pay_l2_latency(self):
        config = MachineConfig()
        penalty = icache_penalty(1000, [0.01, 0.0, 0.0], config)
        assert penalty == pytest.approx(1000 * 0.01 * config.l2.latency)

    def test_all_levels_summed(self):
        config = MachineConfig()
        penalty = icache_penalty(1000, [0.1, 0.05, 0.01], config)
        expected = 1000 * (
            0.1 * config.l2.latency
            + 0.05 * config.llc.latency
            + 0.01 * config.dram_latency
        )
        assert penalty == pytest.approx(expected)
