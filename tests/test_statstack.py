"""StatStack tests: reuse profiling, the transform, miss-rate queries.

Includes the thesis Fig 4.1 example and a cross-validation against the
functional fully-associative LRU cache (the approximation StatStack makes,
thesis §4.2).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.cache import Cache, CacheConfig, MissKind
from repro.statstack.model import StatStack
from repro.statstack.reuse import (
    ReuseProfile,
    collect_reuse_profile,
)


def stream(lines):
    """Build an (address, is_write) stream from line ids."""
    return [(line * 64, False) for line in lines]


class TestReuseProfiling:
    def test_fig_4_1_reuse_distances(self):
        # Thesis Fig 4.1: between 1st and 2nd use of A there are four
        # accesses (RD = 4); between 2nd and 3rd only one (RD = 1).
        # Stream: A B C B C A C A (arrows: A..A with B,C,B,C between).
        a, b, c = 0, 1, 2
        profile = collect_reuse_profile(
            stream([a, b, c, b, c, a, c, a])
        )
        assert profile.histogram.get(4) == 1  # A's first reuse
        assert profile.histogram.get(1) >= 1  # A's second reuse (C between)

    def test_cold_counts(self):
        profile = collect_reuse_profile(stream([1, 2, 3, 1]))
        assert profile.cold_loads == 3
        assert sum(profile.histogram.values()) == 1

    def test_typed_histograms(self):
        accesses = [(0, False), (64, True), (0, False), (64, True)]
        profile = collect_reuse_profile(accesses)
        assert sum(profile.load_histogram.values()) == 1
        assert sum(profile.store_histogram.values()) == 1

    def test_sampling_reduces_recorded_mass(self):
        lines = list(range(64)) * 20
        full = collect_reuse_profile(stream(lines), sample_rate=1.0)
        sampled = collect_reuse_profile(stream(lines), sample_rate=0.1,
                                        seed=3)
        assert sampled.sampled_total < full.sampled_total
        assert sampled.total_accesses == full.total_accesses

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            collect_reuse_profile(stream([1]), sample_rate=0.0)


class TestStatStackTransform:
    def test_cyclic_sweep_stack_distance(self):
        # Sweeping K distinct lines cyclically: every reuse has RD = K-1
        # and the stack distance is exactly K-1 (all intervening accesses
        # are unique).
        k = 16
        lines = list(range(k)) * 10
        profile = collect_reuse_profile(stream(lines))
        model = StatStack(profile)
        assert model.expected_stack_distance(k - 1) == pytest.approx(
            k - 1, rel=0.05
        )

    def test_sd_never_exceeds_rd(self):
        lines = [0, 1, 2, 1, 0, 2, 0, 1, 2, 0]
        model = StatStack(collect_reuse_profile(stream(lines)))
        for distance in range(0, 10):
            assert model.expected_stack_distance(distance) <= distance + 1e-9

    def test_sd_monotone_in_rd(self):
        lines = (list(range(8)) + [0, 1] + list(range(20))) * 5
        model = StatStack(collect_reuse_profile(stream(lines)))
        previous = -1.0
        for distance in range(0, 50, 3):
            current = model.expected_stack_distance(distance)
            assert current >= previous - 1e-9
            previous = current


class TestMissRatios:
    def test_fits_in_cache_no_capacity_misses(self):
        lines = list(range(8)) * 50
        model = StatStack(collect_reuse_profile(stream(lines)))
        ratio = model.miss_ratio(16 * 64, include_cold=False)
        assert ratio == pytest.approx(0.0, abs=0.01)

    def test_thrashing_misses_everything(self):
        # 64 lines cycling through a 16-line cache: every reuse misses.
        lines = list(range(64)) * 10
        model = StatStack(collect_reuse_profile(stream(lines)))
        # All 576 reuses miss; the 64 cold accesses stay in the
        # denominator (miss ratio is per access): 576/640 = 0.9.
        ratio = model.miss_ratio(16 * 64, include_cold=False)
        assert ratio == pytest.approx(576 / 640, abs=0.02)
        assert model.miss_ratio(16 * 64, include_cold=True) == (
            pytest.approx(1.0, abs=0.02)
        )

    def test_monotone_in_cache_size(self):
        lines = (list(range(40)) + list(range(10))) * 10
        model = StatStack(collect_reuse_profile(stream(lines)))
        sizes = [4 * 64, 16 * 64, 64 * 64, 256 * 64]
        ratios = [model.miss_ratio(s) for s in sizes]
        for small, large in zip(ratios, ratios[1:]):
            assert large <= small + 1e-9

    def test_ratio_bounds(self):
        lines = [0, 5, 3, 5, 0, 1, 2, 3, 4, 5] * 10
        model = StatStack(collect_reuse_profile(stream(lines)))
        for size in (64, 640, 6400):
            assert 0.0 <= model.miss_ratio(size) <= 1.0

    def test_cold_included_vs_excluded(self):
        lines = list(range(100))
        model = StatStack(collect_reuse_profile(stream(lines)))
        assert model.miss_ratio(64 * 64, include_cold=True) == 1.0
        assert model.miss_ratio(64 * 64, include_cold=False) == 0.0

    def test_against_functional_fully_associative_cache(self):
        """StatStack vs an actual fully-associative LRU simulation."""
        import random
        rng = random.Random(11)
        lines = [rng.randrange(0, 48) for _ in range(4000)]
        capacity = 16
        cache = Cache(CacheConfig(capacity * 64, associativity=capacity,
                                  line_size=64))
        misses = sum(
            1 for line in lines if cache.access(line * 64) is not MissKind.HIT
        )
        model = StatStack(collect_reuse_profile(stream(lines)))
        predicted = model.miss_ratio(capacity * 64) * len(lines)
        assert predicted == pytest.approx(misses, rel=0.15)

    def test_hierarchy_levels_independent(self):
        lines = list(range(64)) * 5
        model = StatStack(collect_reuse_profile(stream(lines)))
        ratios = model.hierarchy_miss_ratios([8 * 64, 32 * 64, 128 * 64])
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_miss_ratio_of_custom_histogram(self):
        lines = list(range(32)) * 10
        model = StatStack(collect_reuse_profile(stream(lines)))
        # A histogram of only-short distances should hit in a big cache.
        short = {2: 100}
        assert model.miss_ratio_of(short, 0, 64 * 64) == pytest.approx(0.0)
        far = {1000: 100}
        assert model.miss_ratio_of(far, 0, 4 * 64) == pytest.approx(1.0)

    def test_empty_profile(self):
        model = StatStack(ReuseProfile())
        assert model.miss_ratio(1024) == 0.0
        assert model.expected_stack_distance(10) == 0.0


class TestStatStackProperty:
    @given(st.lists(st.integers(0, 30), min_size=20, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_ratio_valid_and_monotone(self, lines):
        model = StatStack(collect_reuse_profile(stream(lines)))
        previous = 1.1
        for size_lines in (1, 4, 16, 64):
            ratio = model.miss_ratio(size_lines * 64)
            assert 0.0 <= ratio <= 1.0
            assert ratio <= previous + 1e-9
            previous = ratio
