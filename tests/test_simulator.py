"""Reference simulator tests (the cycle-level ground truth).

Besides its behaviour, the simulator is pinned bitwise to the per-uop
oracle in ``tests/reference/simulator.py``.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from equivalence import assert_simulations_bitwise
from reference.simulator import simulate as simulate_reference
from repro.caches.cache import CacheConfig
from repro.core.machine import (
    MachineConfig,
    config_from_params,
    low_power_core,
    nehalem,
)
from repro.isa import Instruction, MacroOp
from repro.simulator import Simulator, simulate
from repro.workloads import generate_trace, make_workload
from repro.workloads.columns import TraceColumns
from repro.workloads.suite import workload_names
from repro.workloads.trace import Trace


def alu_trace(n, dependent=False):
    instructions = []
    for i in range(n):
        if dependent:
            instructions.append(
                Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=1, src1=1)
            )
        else:
            instructions.append(
                Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=i % 8)
            )
    return Trace(instructions, name="alu")


class TestBasicTiming:
    def test_ipc_bounded_by_width(self, gcc_trace):
        result = simulate(gcc_trace, nehalem())
        assert result.ipc <= nehalem().dispatch_width

    def test_independent_alus_near_width_limit(self):
        # Perfect conditions: IPC approaches min(D, ALU ports) = 2.
        result = simulate(alu_trace(4000), nehalem(),
                          perfect_frontend=True, perfect_caches=True)
        assert result.ipc == pytest.approx(2.0, rel=0.05)

    def test_serial_chain_ipc_one(self):
        # A fully serial unit-latency chain commits one per cycle.
        result = simulate(alu_trace(2000, dependent=True), nehalem(),
                          perfect_frontend=True, perfect_caches=True)
        assert result.ipc == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self, gcc_trace):
        first = simulate(gcc_trace, nehalem())
        second = simulate(gcc_trace, nehalem())
        assert first.cycles == second.cycles

    def test_stack_sums_to_cycles(self, gcc_trace):
        result = simulate(gcc_trace, nehalem())
        assert sum(result.stack.values()) == pytest.approx(
            result.cycles, rel=0.05
        )


class TestPerfectModes:
    def test_perfect_caches_not_slower(self, libquantum_trace):
        real = simulate(libquantum_trace, nehalem())
        perfect = simulate(libquantum_trace, nehalem(),
                           perfect_caches=True)
        assert perfect.cycles <= real.cycles

    def test_perfect_frontend_not_slower(self, gcc_trace):
        real = simulate(gcc_trace, nehalem())
        perfect = simulate(gcc_trace, nehalem(), perfect_frontend=True)
        assert perfect.cycles <= real.cycles

    def test_perfect_frontend_no_branch_misses(self, gcc_trace):
        result = simulate(gcc_trace, nehalem(), perfect_frontend=True)
        assert result.branch_mispredictions == 0
        assert result.stack["branch"] == 0.0


class TestMachineSensitivity:
    def test_memory_bound_workload_feels_llc_size(self, mcf_trace):
        from repro.caches.cache import CacheConfig
        small = simulate(mcf_trace, replace(
            nehalem(), llc=CacheConfig(1 << 20, 16, 64, latency=30)
        ))
        large = simulate(mcf_trace, nehalem())
        assert large.cycles <= small.cycles * 1.02

    def test_low_power_core_slower(self, gcc_trace):
        big = simulate(gcc_trace, nehalem())
        small = simulate(gcc_trace, low_power_core())
        assert small.cpi > big.cpi

    def test_prefetcher_helps_streaming(self, libquantum_trace):
        base = simulate(libquantum_trace, nehalem())
        prefetching = simulate(
            libquantum_trace, replace(nehalem(), prefetch=True)
        )
        assert prefetching.cycles <= base.cycles

    def test_narrow_rob_slower_on_mlp_workload(self, libquantum_trace):
        wide = simulate(libquantum_trace, nehalem())
        narrow = simulate(libquantum_trace, replace(nehalem(), rob_size=32))
        assert narrow.cycles >= wide.cycles


class TestAccounting:
    def test_uop_count_matches_trace(self, gcc_trace):
        result = simulate(gcc_trace, nehalem())
        assert result.uops == gcc_trace.stats().num_uops

    def test_branch_counts(self, gcc_trace):
        result = simulate(gcc_trace, nehalem())
        assert result.branches == gcc_trace.stats().num_branches
        assert 0 <= result.branch_mispredictions <= result.branches

    def test_activity_vector_consistent(self, gcc_trace):
        result = simulate(gcc_trace, nehalem())
        activity = result.activity
        assert activity.cycles == result.cycles
        assert activity.uops == result.uops
        assert activity.l1_accesses >= activity.l2_accesses
        assert activity.l2_accesses >= activity.llc_accesses

    def test_window_cpi_trace(self, gcc_trace):
        result = simulate(gcc_trace, nehalem(), window_instructions=2000)
        assert len(result.window_cpi) == len(gcc_trace) // 2000
        for _, cpi in result.window_cpi:
            assert cpi > 0

    def test_mpki_reported_per_level(self, gcc_trace):
        result = simulate(gcc_trace, nehalem())
        assert len(result.mpki) == 3
        assert result.mpki[0] >= result.mpki[2]


class TestMemoryChannels:
    def test_more_channels_help_bandwidth_bound(self, libquantum_trace):
        one = simulate(libquantum_trace, replace(nehalem(),
                                                 memory_channels=1))
        two = simulate(libquantum_trace, replace(nehalem(),
                                                 memory_channels=2))
        assert two.cycles < one.cycles

    def test_channels_neutral_for_compute_bound(self, gamess_trace):
        one = simulate(gamess_trace, nehalem())
        four = simulate(gamess_trace, replace(nehalem(),
                                              memory_channels=4))
        assert four.cycles <= one.cycles
        assert four.cycles > one.cycles * 0.8


# ----------------------------------------------------------------------
# Differential equivalence against the per-uop oracle
# ----------------------------------------------------------------------

#: The five perfbench applications, one per behaviour family.
APPS = ("libquantum", "mcf", "gamess", "gcc", "astar")

#: A narrow machine with small caches: w2 / ROB 32 / L1D 16 KB / 1 MB LLC.
NARROW = replace(
    nehalem(), name="w2-rob32-l1d16k-llc1m", dispatch_width=2,
    rob_size=32, l1d=CacheConfig(16 * 1024, 8, 64, latency=4),
    llc=CacheConfig(1 << 20, 16, 64, latency=30),
)
PREFETCH = replace(nehalem(), name="nehalem-prefetch", prefetch=True)


def corner_configs():
    """The four Table 6.3 corners of the validate benchmark: width 2 /
    ROB 64 and width 6 / ROB 256, each with a 2 MB and an 8 MB LLC."""
    return [
        config_from_params({"dispatch_width": width, "rob_size": rob,
                            "llc_mb": llc})
        for width, rob in ((2, 64), (6, 256)) for llc in (2, 8)
    ]


def assert_matches_oracle(trace, config, **kwargs):
    assert_simulations_bitwise(
        simulate(trace, config, **kwargs),
        simulate_reference(trace, config, **kwargs),
    )


class TestReferenceEquivalence:
    @pytest.mark.parametrize("name", workload_names())
    def test_suite_workload(self, name):
        trace = generate_trace(make_workload(name), max_instructions=2000)
        for config, flags in [
            (NARROW, {}),
            (nehalem(), {}),
            (PREFETCH, {}),
            (nehalem(), {"perfect_frontend": True}),
            (nehalem(), {"perfect_caches": True}),
        ]:
            assert_matches_oracle(trace, config, window_instructions=500,
                                  **flags)

    @pytest.mark.parametrize("name", APPS)
    def test_validate_corners(self, name):
        trace = generate_trace(make_workload(name),
                               max_instructions=10_000)
        for config in corner_configs():
            assert_matches_oracle(trace, config,
                                  window_instructions=2500)

    def test_two_channel_prefetch(self, libquantum_trace):
        config = replace(PREFETCH, name="prefetch-2ch", memory_channels=2)
        assert_matches_oracle(libquantum_trace, config)

    def test_port_trim(self):
        # A port holding more than 65,536 reserved cycles drops those
        # more than 1,024 before the current issue.  65,536 loads fill
        # the load port; a load behind a 70-deep divide chain issues
        # ~1,100 cycles ahead and trims them; the next load then finds
        # its cycles free and starts a DRAM-missing chain that ends
        # after everything before it, so the trim changes the cycles.
        ops, dst, src1, addr = [], [], [], []

        def add(op, d, s, a=0):
            ops.append(int(op))
            dst.append(d)
            src1.append(s)
            addr.append(a)

        for i in range(65_536):
            add(MacroOp.LOAD, 1 + i % 8, -1)
        for i in range(70):
            add(MacroOp.DIV, 20, 20 if i else -1)
        add(MacroOp.LOAD, 21, 20)
        add(MacroOp.LOAD, 22, -1)
        for i in range(12):
            add(MacroOp.LOAD, 22, 22, (1 << 24) + i * (1 << 16))
        n = len(ops)
        trace = Trace(name="port-trim", columns=TraceColumns(
            pc=4 * np.arange(n, dtype=np.int64),
            op=np.array(ops, np.int16), dst=np.array(dst, np.int32),
            src1=np.array(src1, np.int32),
            src2=np.full(n, -1, np.int32),
            addr=np.array(addr, np.int64), taken=np.zeros(n, bool),
        ))
        assert_matches_oracle(trace, nehalem(), perfect_frontend=True)

    def test_empty_trace(self):
        trace = Trace([], name="empty")
        assert_matches_oracle(trace, nehalem())


# ----------------------------------------------------------------------
# Outcome columns memoized on the trace
# ----------------------------------------------------------------------

class TestOutcomeMemo:
    @pytest.mark.parametrize("field, value", [
        ("l2", CacheConfig(128 * 1024, 8, 64, latency=12)),
        ("llc", CacheConfig(8 * 1024 * 1024, 16, 64, latency=40)),
        ("dram_latency", 300),
        ("predictor", "gshare"),
    ])
    def test_one_key_field_apart(self, gcc_trace, field, value):
        trace = gcc_trace[:5000]
        simulate(trace, nehalem())
        variant = replace(nehalem(), **{field: value})
        fresh = pickle.loads(pickle.dumps(trace))
        assert_simulations_bitwise(simulate(trace, variant),
                                   simulate(fresh, variant))

    def test_outcomes_are_not_pickled(self, gcc_trace):
        trace = gcc_trace[:3000]
        simulate(trace, nehalem())
        assert len(trace.sim_outcomes) == 3
        assert pickle.loads(pickle.dumps(trace)).sim_outcomes == {}

    def test_simulator_keeps_no_state_between_runs(self, gcc_trace):
        trace = gcc_trace[:3000]
        simulator = Simulator(PREFETCH)
        assert_simulations_bitwise(simulator.run(trace),
                                   simulator.run(trace))

    def test_validate_grid_shares_outcomes(self, tmp_path):
        # Five traces on the four corners: two I-side and two D-side
        # keys (the LLC differs) and one predictor per trace.
        from repro.api import ExperimentSpec, Session
        from repro.explore import DesignSpace, Parameter
        from repro.obs import Telemetry

        space = DesignSpace(
            parameters=(
                Parameter.categorical("dispatch_width", (2, 6)),
                Parameter.categorical("rob_size", (64, 256)),
                Parameter.categorical("llc_mb", (2, 8)),
            ),
            constraints=("(dispatch_width == 2 and rob_size == 64) or "
                         "(dispatch_width == 6 and rob_size == 256)",),
            name="corners",
        )
        path = str(tmp_path / "corners.json")
        space.save(path)
        spec = ExperimentSpec("validate", workloads=list(APPS),
                              instructions=1000, micro_trace=500,
                              window=1000, space=path)
        with Session(workers=1,
                     telemetry=Telemetry(trace=False)) as session:
            counters = session.run(spec).telemetry["metrics"]["counters"]
        assert counters["sim.points"] == 20
        assert counters["sim.outcomes.computed"] == 25
        assert counters["sim.outcomes.reused"] == 35
