"""Power model tests (thesis §2.4, §3.6, §6.3).

Behaviour is checked through the package's one power kernel,
:func:`repro.core.power.power_batch`; the kernel is pinned bitwise to
the per-configuration oracle in ``tests/reference/power.py``.
"""

import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from equivalence import assert_power_bitwise
from reference.power import PowerModel
from repro.caches.cache import CacheConfig
from repro.core.machine import dvfs_vdd, nehalem, nehalem_ports
from repro.core.power import ActivityVector, power_batch
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


def price(config, activity=None):
    """One pair through the kernel: (breakdown, energy, edp, ed2p)."""
    if activity is None:
        activity = sample_activity()
    (breakdown,), (energy,), (edp,), (ed2p,) = power_batch(
        [config], [activity]
    )
    return breakdown, energy, edp, ed2p


def static(config):
    return price(config)[0].static


def dynamic(config, activity):
    return price(config, activity)[0].dynamic


class TestStaticPower:
    def test_positive_for_all_structures(self):
        for name, watts in static(nehalem()).items():
            assert watts > 0, name

    def test_scales_with_llc_size(self):
        small = replace(
            nehalem(), llc=CacheConfig(2 << 20, 16, 64, latency=30)
        )
        large = replace(
            nehalem(), llc=CacheConfig(8 << 20, 16, 64, latency=30)
        )
        assert static(large)["llc"] > static(small)["llc"]

    def test_scales_with_rob(self):
        small = replace(nehalem(), rob_size=64)
        large = replace(nehalem(), rob_size=256)
        assert static(large)["rob_rf"] > static(small)["rob_rf"]

    def test_scales_with_voltage(self):
        low = replace(nehalem(), vdd=0.9)
        high = replace(nehalem(), vdd=1.2)
        assert sum(static(high).values()) > sum(static(low).values())


class TestDynamicPower:
    def test_zero_activity_zero_power(self):
        breakdown, energy, edp, ed2p = price(nehalem(), ActivityVector())
        assert breakdown.dynamic == {}
        assert breakdown.total == breakdown.static_total
        assert (energy, edp, ed2p) == (0.0, 0.0, 0.0)

    def test_positive_with_activity(self):
        power = dynamic(nehalem(), sample_activity())
        assert sum(power.values()) > 0

    def test_scales_with_frequency(self):
        activity = sample_activity()
        slow = replace(nehalem(), frequency_ghz=1.33)
        fast = replace(nehalem(), frequency_ghz=2.66)
        # Same cycle count at higher frequency = less time = more watts.
        assert sum(dynamic(fast, activity).values()) > sum(
            dynamic(slow, activity).values()
        )

    def test_scales_with_vdd_squared(self):
        activity = sample_activity()
        base = nehalem()
        boosted = replace(nehalem(), vdd=nehalem().vdd * 1.2)
        ratio = sum(dynamic(boosted, activity).values()) / sum(
            dynamic(base, activity).values()
        )
        assert ratio == pytest.approx(1.44, rel=0.01)

    def test_dram_traffic_costs_power(self):
        light = sample_activity()
        heavy = sample_activity()
        heavy.dram_accesses = 50_000.0
        assert dynamic(nehalem(), heavy)["memctrl"] > (
            dynamic(nehalem(), light)["memctrl"]
        )


class TestBreakdownAndEnergy:
    def test_reference_core_power_plausible(self):
        # Thesis-era 45 nm quad-issue core: single-core power in the
        # handful-of-watts range with a meaningful static share (§2.4
        # says ~40% static at 45 nm).
        breakdown = price(nehalem())[0]
        assert 3.0 < breakdown.total < 40.0
        static_share = breakdown.static_total / breakdown.total
        assert 0.15 < static_share < 0.7

    def test_stack_merges_static_and_dynamic(self):
        breakdown = price(nehalem())[0]
        stack = breakdown.stack()
        assert sum(stack.values()) == pytest.approx(breakdown.total)

    def test_energy_is_power_times_time(self):
        activity = sample_activity()
        breakdown, energy, _, _ = price(nehalem(), activity)
        seconds = activity.cycles / (nehalem().frequency_ghz * 1e9)
        assert energy == breakdown.total * seconds

    def test_edp_and_ed2p_ordering(self):
        activity = sample_activity()
        _, energy, edp, ed2p = price(nehalem(), activity)
        seconds = activity.cycles / (nehalem().frequency_ghz * 1e9)
        assert edp == energy * seconds
        assert ed2p == edp * seconds


class TestDVFSRail:
    def test_vdd_monotone_in_frequency(self):
        assert dvfs_vdd(1.2) < dvfs_vdd(2.66) < dvfs_vdd(3.4)

    def test_vdd_floor(self):
        for f in (0.1, 0.5, 1.0, 3.4):
            assert dvfs_vdd(f) >= 0.7


class TestAreaModel:
    """Leakage is proportional to area, so at one voltage the static
    breakdown orders structures as their areas do."""

    def test_areas_positive(self):
        for name, watts in static(nehalem()).items():
            assert watts > 0, name

    def test_llc_dominates_cache_area(self):
        watts = static(nehalem())
        assert watts["llc"] > watts["l2"] > watts["l1"]

    def test_wider_core_more_logic_area(self):
        narrow = replace(nehalem(), dispatch_width=2)
        wide = replace(nehalem(), dispatch_width=6)
        assert static(wide)["core_logic"] > static(narrow)["core_logic"]


# ----------------------------------------------------------------------
# The kernel against the oracle
# ----------------------------------------------------------------------


def assert_matches_oracle(configs, activities):
    """The kernel prices every pair exactly as the oracle: each float,
    the breakdowns' key order, totals, energy, EDP and ED^2P."""
    breakdowns, energy, edp, ed2p = power_batch(configs, activities)
    assert len(breakdowns) == len(configs)
    for j, (config, activity) in enumerate(zip(configs, activities)):
        assert_power_bitwise(config, activity, breakdowns[j], energy[j])
        oracle = PowerModel(config)
        assert edp[j].hex() == oracle.edp(activity).hex()
        assert ed2p[j].hex() == oracle.ed2p(activity).hex()


_count = st.one_of(
    st.integers(0, 10**9),
    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
)
_cycles = st.one_of(
    st.just(0.0),
    st.integers(1, 10**9),
    st.floats(1e-3, 1e12, allow_nan=False, allow_infinity=False),
)


@st.composite
def activity_batches(draw, size):
    """``size`` activities sharing one kind tuple, in any order (empty
    included), with zero or positive cycles."""
    kinds = draw(st.lists(st.sampled_from(list(UopKind)), unique=True))
    return [
        ActivityVector(
            cycles=draw(_cycles),
            uops=draw(_count),
            uop_kind_counts={kind: draw(_count) for kind in kinds},
            l1_accesses=draw(_count),
            l2_accesses=draw(_count),
            llc_accesses=draw(_count),
            dram_accesses=draw(_count),
            branch_lookups=draw(_count),
        )
        for _ in range(size)
    ]


def _cache(size_kb, latency):
    return CacheConfig(size_kb * 1024, 8, 64, latency=latency)


_kb = st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024, 2048, 8192])
_configs = st.builds(
    lambda width, rob, ports, l1d, l1i, l2, llc, freq, vdd: replace(
        nehalem(), dispatch_width=width, rob_size=rob,
        ports=nehalem_ports()[:ports], l1d=_cache(l1d, 4),
        l1i=_cache(l1i, 1), l2=_cache(l2, 12), llc=_cache(llc, 30),
        frequency_ghz=freq, vdd=vdd,
    ),
    width=st.integers(1, 8),
    rob=st.sampled_from([16, 32, 64, 128, 256, 512]),
    ports=st.integers(1, 6),
    l1d=_kb, l1i=_kb, l2=_kb, llc=_kb,
    freq=st.one_of(st.sampled_from([1.66, 2.66, 3.66]),
                   st.floats(0.1, 6.0)),
    # Repeated values exercise the kernel's per-unique-vdd scale.
    vdd=st.one_of(st.sampled_from([0.85, 1.1, 1.2]),
                  st.floats(0.5, 1.5)),
)


class TestKernelMatchesOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_batches(self, data):
        configs = data.draw(st.lists(_configs, min_size=1, max_size=6))
        activities = data.draw(activity_batches(len(configs)))
        assert_matches_oracle(configs, activities)

    def test_reference_core_sample(self):
        assert_matches_oracle([nehalem()], [sample_activity()])

    def test_empty_batch(self):
        assert power_batch([], []) == ([], [], [], [])

    def test_mixed_kind_tuples_rejected(self):
        first = sample_activity()
        extra = sample_activity()
        extra.uop_kind_counts = dict(extra.uop_kind_counts)
        extra.uop_kind_counts[UopKind.DIV] = 10.0
        with pytest.raises(ValueError, match="different uop kinds"):
            power_batch([nehalem(), nehalem()], [first, extra])
        # The same kinds in another order would sum in another order.
        reordered = sample_activity()
        reordered.uop_kind_counts = dict(
            reversed(list(reordered.uop_kind_counts.items()))
        )
        with pytest.raises(ValueError, match="different uop kinds"):
            power_batch([nehalem(), nehalem()], [first, reordered])

    def test_one_activity_per_config(self):
        with pytest.raises(ValueError, match="1 activities for 2"):
            power_batch([nehalem(), nehalem()], [sample_activity()])
