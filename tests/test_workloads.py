"""Workload substrate tests: trace container, generator, the suite."""

import pytest
from hypothesis import given, settings, strategies as st

from equivalence import (
    TRACE_COLUMNS,
    assert_traces_identical,
    workload_specs,
)
from reference.generator import generate_trace_scalar
from repro.api import ExperimentSpec, Session
from repro.core import nehalem
from repro.isa import MacroOp, UopKind
from repro.profiler import SamplingConfig, profile_application
from repro.profiler.serialization import profile_fingerprint
from repro.simulator import simulate
from repro.workloads import (
    Trace,
    TraceColumns,
    generate_trace,
    make_suite,
    make_workload,
    workload_names,
)
from repro.workloads.generator import (
    AluSpec,
    BranchSpec,
    KernelSpec,
    LoadSpec,
    StoreSpec,
    WorkloadSpec,
)

#: The applications of the benchmark of record (``perfbench``).
PERFBENCH_APPS = ("libquantum", "gamess", "astar", "gcc", "mcf")


class TestTraceContainer:
    def test_length_and_iteration(self, gcc_trace):
        assert len(gcc_trace) == sum(1 for _ in gcc_trace)

    def test_slicing_returns_trace(self, gcc_trace):
        sub = gcc_trace[100:200]
        assert isinstance(sub, Trace)
        assert len(sub) == 100

    def test_stats_consistency(self, gcc_trace):
        stats = gcc_trace.stats()
        assert stats.num_instructions == len(gcc_trace)
        assert stats.num_uops >= stats.num_instructions
        assert sum(stats.macro_mix.values()) == stats.num_instructions
        assert sum(stats.uop_mix.values()) == stats.num_uops

    def test_windows(self, gcc_trace):
        windows = list(gcc_trace.windows(5000))
        assert sum(len(w) for w in windows) == len(gcc_trace)


class TestGenerator:
    def test_exact_length(self):
        spec = make_workload("gcc")
        trace = generate_trace(spec, max_instructions=12345)
        assert len(trace) == 12345

    def test_deterministic_with_seed(self):
        a = generate_trace(make_workload("gcc", seed=7),
                           max_instructions=5000)
        b = generate_trace(make_workload("gcc", seed=7),
                           max_instructions=5000)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = generate_trace(make_workload("gcc", seed=1),
                           max_instructions=5000)
        b = generate_trace(make_workload("gcc", seed=2),
                           max_instructions=5000)
        assert list(a) != list(b)

    def test_stride_pattern_addresses(self):
        kernel = KernelSpec("k", [
            LoadSpec(dst=1, pattern="stride", strides=(64,),
                     region=1 << 20, base=0x1000),
            BranchSpec(pattern="loop"),
        ], iterations=10)
        trace = generate_trace(WorkloadSpec("w", [kernel]))
        addrs = [i.addr for i in trace if i.is_load]
        assert addrs == [0x1000 + 64 * k for k in range(10)]

    def test_multi_stride_cycles(self):
        kernel = KernelSpec("k", [
            LoadSpec(dst=1, pattern="multi_stride", strides=(4, 12),
                     region=1 << 20, base=0),
            BranchSpec(pattern="loop"),
        ], iterations=5)
        trace = generate_trace(WorkloadSpec("w", [kernel]))
        addrs = [i.addr for i in trace if i.is_load]
        assert addrs == [0, 4, 16, 20, 32]

    def test_chase_loads_self_depend(self):
        kernel = KernelSpec("k", [
            LoadSpec(dst=3, pattern="chase", region=1 << 16, base=0),
            BranchSpec(pattern="loop"),
        ], iterations=5)
        trace = generate_trace(WorkloadSpec("w", [kernel]))
        loads = [i for i in trace if i.is_load]
        assert all(i.src1 == 3 for i in loads)

    def test_loop_branch_taken_until_last(self):
        kernel = KernelSpec("k", [BranchSpec(pattern="loop")], iterations=5)
        trace = generate_trace(WorkloadSpec("w", [kernel]))
        outcomes = [i.taken for i in trace]
        assert outcomes == [True, True, True, True, False]

    def test_periodic_branch(self):
        kernel = KernelSpec("k", [BranchSpec(pattern="periodic", period=3)],
                            iterations=6)
        trace = generate_trace(WorkloadSpec("w", [kernel]))
        outcomes = [i.taken for i in trace]
        assert outcomes == [True, False, False, True, False, False]

    def test_unknown_pattern_rejected(self):
        kernel = KernelSpec("k", [
            LoadSpec(dst=1, pattern="fractal"),
            BranchSpec(pattern="loop"),
        ], iterations=1)
        with pytest.raises(ValueError):
            generate_trace(WorkloadSpec("w", [kernel]))


def _one_kernel(*slots, iterations=3):
    """A one-kernel spec: ``slots`` after an ALU slot, closed by a loop."""
    body = [AluSpec(op=MacroOp.INT_ALU, dst=1)] + list(slots)
    body.append(BranchSpec(pattern="loop"))
    return WorkloadSpec("bad", [KernelSpec("k", body,
                                           iterations=iterations)])


class TestGeneratorOracle:
    """The columnar generator against the per-instruction oracle."""

    @pytest.mark.parametrize("name", workload_names())
    def test_suite_columns_match_oracle(self, name):
        # The oracle truncates one fixed stream, so its trace at a
        # shorter target is a prefix of its trace at 30k: one oracle
        # trace per (workload, seed) pins every length.
        for seed in (7, 42):
            spec = make_workload(name, seed)
            width = len(spec.kernels[0].body)
            oracle = generate_trace_scalar(spec, max_instructions=30_000)
            for length in (1, width - 1, width, width + 1, 6_000, 10_000,
                           30_000):
                trace = generate_trace(spec, max_instructions=length)
                assert_traces_identical(oracle[:length], trace)

    @pytest.mark.parametrize("name", ["astar", "gcc", "mcf"])
    def test_whole_runs_match_oracle(self, name):
        spec = make_workload(name, seed=7)
        assert_traces_identical(generate_trace_scalar(spec),
                                generate_trace(spec))

    @settings(max_examples=60, deadline=None)
    @given(spec=workload_specs(),
           length=st.one_of(st.none(), st.integers(1, 700)))
    def test_random_specs_match_oracle(self, spec, length):
        assert_traces_identical(generate_trace_scalar(spec, length),
                                generate_trace(spec, length))

    @pytest.mark.parametrize("spec, error", [
        (_one_kernel(LoadSpec(dst=1, pattern="fractal")), ValueError),
        (_one_kernel(StoreSpec(pattern="fractal")), ValueError),
        (_one_kernel(BranchSpec(pattern="coin")), ValueError),
        (_one_kernel("nop"), TypeError),
        (_one_kernel(BranchSpec(pattern="periodic", period=0)),
         ZeroDivisionError),
        (_one_kernel(LoadSpec(dst=1, strides=())), ZeroDivisionError),
        (_one_kernel(StoreSpec(pattern="multi_stride", strides=())),
         ZeroDivisionError),
    ], ids=["load-pattern", "store-pattern", "branch-pattern",
            "slot-type", "period-0", "no-strides", "no-multi-strides"])
    @pytest.mark.parametrize("length", [None, 1])
    def test_bad_slots_raise(self, spec, error, length):
        # A target of 1 keeps only the leading ALU slot; the slot past
        # the cut still raises.
        with pytest.raises(error):
            generate_trace_scalar(spec, length)
        with pytest.raises(error):
            generate_trace(spec, length)

    @pytest.mark.parametrize("spec", [
        WorkloadSpec("none", []),
        WorkloadSpec("hollow", [KernelSpec("k", [], iterations=5)]),
        WorkloadSpec("idle", [KernelSpec("k", [BranchSpec()],
                                         iterations=0)]),
    ], ids=["no-kernels", "empty-body", "zero-iterations"])
    def test_empty_specs(self, spec):
        with pytest.raises(ValueError):
            generate_trace_scalar(spec, 10)
        with pytest.raises(ValueError):
            generate_trace(spec, 10)
        assert_traces_identical(generate_trace_scalar(spec),
                                generate_trace(spec))
        assert len(generate_trace(spec)) == 0

    def test_perfbench_profile_fingerprints_match(self):
        sampling = SamplingConfig(1000, 5000)
        for app in PERFBENCH_APPS:
            spec = make_workload(app, seed=7)
            oracle = generate_trace_scalar(spec, max_instructions=30_000)
            trace = generate_trace(spec, max_instructions=30_000)
            assert (profile_fingerprint(profile_application(oracle,
                                                            sampling))
                    == profile_fingerprint(profile_application(trace,
                                                               sampling)))


class TestNoObjectView:
    def test_pipelines_never_build_the_object_view(self, monkeypatch):
        """Generated traces stay columnar through every served kind."""
        def refuse(columns):
            raise AssertionError("built the Instruction object view")

        monkeypatch.setattr(TraceColumns, "instructions", refuse)
        common = dict(workloads=["gcc", "mcf"], instructions=3000)
        specs = [
            ExperimentSpec("profile", **common),
            ExperimentSpec("sweep", limit=6, **common),
            ExperimentSpec("search", optimizer="random", budget=6, seed=1,
                           **common),
            ExperimentSpec("validate", limit=4, train_fraction=0.0,
                           **common),
        ]
        with Session(workers=1) as session:
            for spec in specs:
                session.run(spec)
        trace = generate_trace(make_workload("gcc"), max_instructions=3000)
        simulate(trace, nehalem())
        with pytest.raises(AssertionError, match="object view"):
            list(trace)


class TestSuite:
    def test_twenty_nine_workloads(self):
        assert len(workload_names()) == 29

    def test_all_buildable(self):
        for spec in make_suite():
            trace = generate_trace(spec, max_instructions=500)
            assert len(trace) == 500

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_workload("doom")

    def test_uops_per_instruction_in_paper_range(self):
        # Thesis Fig 3.1: SPEC CPU 2006 uop/instruction between ~1.05
        # and ~1.4.
        for name in workload_names():
            trace = generate_trace(make_workload(name),
                                   max_instructions=3000)
            ratio = trace.stats().uops_per_instruction
            assert 1.0 <= ratio <= 1.5, name

    def test_suite_covers_behaviour_classes(self):
        # The suite must include pointer chasing, streaming and compute
        # behaviours for the figures to show spread.
        chase = generate_trace(make_workload("mcf"), max_instructions=2000)
        stream = generate_trace(make_workload("libquantum"),
                                max_instructions=2000)
        compute = generate_trace(make_workload("gamess"),
                                 max_instructions=2000)
        assert any(i.is_load and i.src1 == i.dst for i in chase)
        assert stream.stats().uop_mix.get(UopKind.LOAD, 0) > 0
        assert compute.stats().uop_mix.get(UopKind.FP_ALU, 0) > 0

    def test_traces_pairwise_distinct(self):
        # A campaign over the suite must not count one workload twice.
        seen = {}
        for name in workload_names():
            columns = generate_trace(make_workload(name),
                                     max_instructions=20_000).columns()
            key = tuple(getattr(columns, field).tobytes()
                        for field in TRACE_COLUMNS)
            assert key not in seen, (name, seen.get(key))
            seen[key] = name

    def test_phased_workload_has_two_kernels(self):
        spec = make_workload("astar")
        assert len(spec.kernels) == 2
        assert spec.rounds > 1
