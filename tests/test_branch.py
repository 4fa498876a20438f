"""Leaky-bucket branch resolution: bitwise oracle and bounded cost.

``branch_resolution_time`` stops stepping the bucket once
``int(occupancy)`` can no longer change; it must return bitwise what
the plain loop of ``tests/reference/branch.py`` returns, on drawn
chains, latencies, widths, ROB sizes and intervals, and on every call
the model makes over Table 6.3 for the fixture profiles.  Its work,
counted as CP lookups (one per bucket step), must not grow with the
interval length.  ``ChainProfile.at`` keeps its segment fits and must
match the per-call refit of ``tests/reference/dependences.py``.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from reference.branch import branch_resolution_time_scalar
from reference.dependences import chain_profile_at
from repro.core import AnalyticalModel, nehalem
from repro.core import batch as batch_module
from repro.core.branch import branch_resolution_time
from repro.core.machine import MachineConfig
from repro.explore.space import DesignSpace
from repro.profiler.dependences import (
    DEFAULT_ROB_GRID,
    ChainProfile,
    DependenceChains,
    profile_dependence_chains,
)

chain_values = st.floats(min_value=0.0, max_value=300.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def chain_profiles(draw):
    """Default-grid, irregular-grid, one-size and empty profiles."""
    kind = draw(st.sampled_from(("grid", "irregular", "one", "empty")))
    if kind == "empty":
        return ChainProfile()
    if kind == "grid":
        sizes = list(DEFAULT_ROB_GRID)
    elif kind == "one":
        sizes = [draw(st.integers(min_value=1, max_value=600))]
    else:
        sizes = draw(st.lists(st.integers(min_value=1, max_value=600),
                              min_size=2, max_size=20, unique=True))
    values = draw(st.lists(chain_values, min_size=len(sizes),
                           max_size=len(sizes)))
    if kind != "one" and draw(st.booleans()):
        values.sort()  # measured chains grow with the window
    return ChainProfile(dict(zip(sizes, values)))


@st.composite
def bucket_inputs(draw, max_interval=1e5):
    chains = DependenceChains(ap=ChainProfile(), abp=draw(chain_profiles()),
                              cp=draw(chain_profiles()))
    latency = draw(st.floats(min_value=0.05, max_value=12.0))
    config = MachineConfig(
        dispatch_width=draw(st.integers(min_value=1, max_value=8)),
        rob_size=draw(st.integers(min_value=8, max_value=512)),
    )
    interval = draw(st.one_of(
        st.floats(min_value=0.0, max_value=max_interval),
        st.integers(min_value=0, max_value=int(max_interval)).map(float),
    ))
    return chains, latency, interval, config


class CountingProfile(ChainProfile):
    """CP profile that counts its lookups: one per bucket step."""

    lookups = 0

    def at(self, rob):
        self.lookups += 1
        return super().at(rob)


def _counted(chains, latency, interval, config):
    counted = CountingProfile(dict(chains.cp.values))
    result = branch_resolution_time(
        dataclasses.replace(chains, cp=counted), latency, interval, config
    )
    return result, counted.lookups


class TestOracle:
    @given(bucket_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_plain_loop(self, inputs):
        chains, latency, interval, config = inputs
        fast = branch_resolution_time(chains, latency, interval, config)
        oracle = branch_resolution_time_scalar(chains, latency, interval,
                                               config)
        assert fast.hex() == oracle.hex()

    @given(chain_profiles(), st.integers(min_value=1, max_value=2048))
    @settings(max_examples=300, deadline=None)
    def test_fitted_lookup_bitwise(self, profile, rob):
        assert profile.at(rob).hex() == chain_profile_at(profile, rob).hex()

    @pytest.mark.parametrize("name", ["gcc", "mcf", "libquantum", "gamess"])
    def test_every_model_call_over_table_6_3(self, name, request,
                                             monkeypatch):
        profile = request.getfixturevalue(f"{name}_profile")
        calls = []

        def recording(*args):
            calls.append(args)
            return branch_resolution_time(*args)

        monkeypatch.setattr(batch_module, "branch_resolution_time",
                            recording)
        AnalyticalModel().predict_batch(profile,
                                        DesignSpace.default().configs())
        assert calls
        for args in calls:
            fast = branch_resolution_time(*args)
            assert fast.hex() == branch_resolution_time_scalar(*args).hex()


class TestBoundedCost:
    def test_long_interval_does_no_more_work(self, gcc_profile, mcf_profile):
        for profile in (gcc_profile, mcf_profile):
            for micro in profile.micro_traces:
                for width in (2, 4, 6):
                    for rob in (64, 128, 256):
                        config = dataclasses.replace(
                            nehalem(), dispatch_width=width, rob_size=rob
                        )
                        latency = micro.mix.average_latency(
                            config.latencies()
                        )
                        short, short_work = _counted(
                            micro.chains, latency, 1e4, config
                        )
                        long, long_work = _counted(
                            micro.chains, latency, 1e7, config
                        )
                        assert long_work <= short_work
                        assert long.hex() == short.hex()

    @pytest.mark.parametrize("cp, latency", [(8.0, 2.0), (3.0, 1.5),
                                             (20.0, 1.0), (100.0, 3.3)])
    def test_constant_chains(self, cp, latency):
        grid = DEFAULT_ROB_GRID
        chains = DependenceChains(cp=ChainProfile({g: cp for g in grid}),
                                  abp=ChainProfile({g: 3.0 for g in grid}))
        _, short_work = _counted(chains, latency, 1e4, MachineConfig())
        _, long_work = _counted(chains, latency, 1e7, MachineConfig())
        assert long_work <= short_work


class TestFitFreshness:
    def test_merge_refits(self):
        first = DependenceChains(cp=ChainProfile({16: 2.0, 64: 4.0}))
        second = DependenceChains(cp=ChainProfile({16: 6.0, 64: 12.0}))
        merged = DependenceChains(cp=ChainProfile({16: 1.0, 64: 1.0}))
        assert merged.cp.at(32) == 1.0  # builds the fit of the old values
        merged.merge_weighted([first, second], [1.0, 1.0])
        assert merged.cp.at(32) == chain_profile_at(merged.cp, 32)
        assert merged.cp.at(32) > 1.0

    def test_assigning_values_refits(self):
        profile = ChainProfile({16: 2.0, 64: 4.0})
        before = profile.at(32)
        profile.values = {16: 3.0, 64: 9.0}
        assert profile.at(32) != before
        assert profile.at(32) == chain_profile_at(profile, 32)

    def test_profiled_chains_are_fresh(self, gcc_trace):
        chains = profile_dependence_chains(gcc_trace.instructions[:2000])
        for stat in (chains.ap, chains.abp, chains.cp):
            for rob in (8, 24, 100, 300):
                assert stat.at(rob) == chain_profile_at(stat, rob)

    def test_pickle_carries_values_only(self):
        profile = ChainProfile({16: 2.0, 64: 4.0})
        fresh = pickle.dumps(profile)
        profile.at(32)
        assert pickle.dumps(profile) == fresh
        restored = pickle.loads(fresh)
        assert restored.at(32) == profile.at(32)
        assert restored == profile
