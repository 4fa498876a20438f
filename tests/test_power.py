"""Power model tests (thesis §2.4, §3.6, §6.3)."""

import pytest
from dataclasses import replace

from repro.core.machine import MachineConfig, nehalem, dvfs_vdd
from repro.core.power import (
    ActivityVector,
    PowerBreakdown,
    PowerModel,
)
from repro.isa import UopKind


def sample_activity(cycles=100_000.0):
    return ActivityVector(
        cycles=cycles,
        uops=150_000.0,
        uop_kind_counts={
            UopKind.INT_ALU: 60_000.0,
            UopKind.LOAD: 45_000.0,
            UopKind.STORE: 20_000.0,
            UopKind.BRANCH: 15_000.0,
            UopKind.FP_MUL: 10_000.0,
        },
        l1_accesses=165_000.0,
        l2_accesses=9_000.0,
        llc_accesses=2_500.0,
        dram_accesses=600.0,
        branch_lookups=15_000.0,
    )


class TestStaticPower:
    def test_positive_for_all_structures(self):
        model = PowerModel(nehalem())
        for name, watts in model.static_power().items():
            assert watts > 0, name

    def test_scales_with_llc_size(self):
        from repro.caches.cache import CacheConfig
        small = PowerModel(replace(
            nehalem(), llc=CacheConfig(2 << 20, 16, 64, latency=30)
        ))
        large = PowerModel(replace(
            nehalem(), llc=CacheConfig(8 << 20, 16, 64, latency=30)
        ))
        assert large.static_power()["llc"] > small.static_power()["llc"]

    def test_scales_with_rob(self):
        small = PowerModel(replace(nehalem(), rob_size=64))
        large = PowerModel(replace(nehalem(), rob_size=256))
        assert large.static_power()["rob_rf"] > (
            small.static_power()["rob_rf"]
        )

    def test_scales_with_voltage(self):
        low = PowerModel(replace(nehalem(), vdd=0.9))
        high = PowerModel(replace(nehalem(), vdd=1.2))
        assert sum(high.static_power().values()) > (
            sum(low.static_power().values())
        )


class TestDynamicPower:
    def test_zero_activity_zero_power(self):
        model = PowerModel(nehalem())
        assert model.dynamic_power(ActivityVector()) == {}

    def test_positive_with_activity(self):
        model = PowerModel(nehalem())
        power = model.dynamic_power(sample_activity())
        assert sum(power.values()) > 0

    def test_scales_with_frequency(self):
        activity = sample_activity()
        slow = PowerModel(replace(nehalem(), frequency_ghz=1.33))
        fast = PowerModel(replace(nehalem(), frequency_ghz=2.66))
        # Same cycle count at higher frequency = less time = more watts.
        assert sum(fast.dynamic_power(activity).values()) > sum(
            slow.dynamic_power(activity).values()
        )

    def test_scales_with_vdd_squared(self):
        activity = sample_activity()
        base = PowerModel(nehalem())
        boosted = PowerModel(replace(nehalem(), vdd=nehalem().vdd * 1.2))
        ratio = sum(boosted.dynamic_power(activity).values()) / sum(
            base.dynamic_power(activity).values()
        )
        assert ratio == pytest.approx(1.44, rel=0.01)

    def test_dram_traffic_costs_power(self):
        model = PowerModel(nehalem())
        light = sample_activity()
        heavy = sample_activity()
        heavy.dram_accesses = 50_000.0
        assert model.dynamic_power(heavy)["memctrl"] > (
            model.dynamic_power(light)["memctrl"]
        )


class TestBreakdownAndEnergy:
    def test_reference_core_power_plausible(self):
        # Thesis-era 45 nm quad-issue core: single-core power in the
        # handful-of-watts range with a meaningful static share (§2.4
        # says ~40% static at 45 nm).
        model = PowerModel(nehalem())
        breakdown = model.evaluate(sample_activity())
        assert 3.0 < breakdown.total < 40.0
        static_share = breakdown.static_total / breakdown.total
        assert 0.15 < static_share < 0.7

    def test_stack_merges_static_and_dynamic(self):
        model = PowerModel(nehalem())
        breakdown = model.evaluate(sample_activity())
        stack = breakdown.stack()
        assert sum(stack.values()) == pytest.approx(breakdown.total)

    def test_energy_is_power_times_time(self):
        model = PowerModel(nehalem())
        activity = sample_activity()
        breakdown = model.evaluate(activity)
        seconds = activity.cycles / (nehalem().frequency_ghz * 1e9)
        assert model.energy_joules(activity) == pytest.approx(
            breakdown.total * seconds
        )

    def test_edp_and_ed2p_ordering(self):
        model = PowerModel(nehalem())
        activity = sample_activity()
        seconds = activity.cycles / (nehalem().frequency_ghz * 1e9)
        assert model.edp(activity) == pytest.approx(
            model.energy_joules(activity) * seconds
        )
        assert model.ed2p(activity) == pytest.approx(
            model.edp(activity) * seconds
        )


class TestDVFSRail:
    def test_vdd_monotone_in_frequency(self):
        assert dvfs_vdd(1.2) < dvfs_vdd(2.66) < dvfs_vdd(3.4)

    def test_vdd_floor(self):
        for f in (0.1, 0.5, 1.0, 3.4):
            assert dvfs_vdd(f) >= 0.7


class TestAreaModel:
    def test_areas_positive(self):
        model = PowerModel(nehalem())
        for name, area in model.structure_areas().items():
            assert area > 0, name

    def test_llc_dominates_cache_area(self):
        areas = PowerModel(nehalem()).structure_areas()
        assert areas["llc"] > areas["l2"] > areas["l1"]

    def test_wider_core_more_logic_area(self):
        narrow = PowerModel(replace(nehalem(), dispatch_width=2))
        wide = PowerModel(replace(nehalem(), dispatch_width=6))
        assert wide.structure_areas()["core_logic"] > (
            narrow.structure_areas()["core_logic"]
        )
