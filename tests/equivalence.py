"""Shared differential-equivalence harness: fast paths vs their oracles.

The package keeps one implementation of each hot path -- the columnar
trace generator, the columnar profiler passes, the batched model
kernel, the sort-based Pareto sweep -- and ``tests/reference/`` keeps
the frozen scalar oracle each one must reproduce.  The contract is
*bitwise* equivalence: same floats, same dict/Counter insertion order
(``most_common`` tie-breaking and float-summation order depend on it),
same serialized bytes, same memo-cache state.  This module centralizes
the comparers and the hypothesis strategies that drive them, so
generator tests (``test_workloads.py``), profiler tests
(``test_columnar.py``), model tests (``test_model_batch.py``) and
engine tests (``test_engine.py``) all pin the same contract.

Comparers come in four families:

* profile-side -- :func:`assert_profiles_bitwise`,
  :func:`assert_memory_profiles_bitwise` compare oracle vs columnar
  profiling output down to serialization bytes and store fingerprints;
* model-side -- :func:`assert_results_bitwise`,
  :func:`assert_points_identical`, :func:`assert_cache_states_equal`
  compare oracle vs batch model evaluations, sweep points and
  :class:`~repro.core.interval.ModelCache` contents;
  :func:`predict_both` runs one config batch through both;
* simulator-side -- :func:`assert_simulations_bitwise` compares two
  :class:`~repro.simulator.simulator.SimulationResult` field by field;
* generator-side -- :func:`assert_traces_identical` compares the seven
  trace columns and their dtypes, and :func:`workload_specs` draws the
  kernel specs both generators expand.

Cache-state comparison is only meaningful when both sides saw the
*same profile objects*: cache keys embed ``cache.token(profile)``,
which is the profile's identity for the cache's lifetime.
"""

import json

from hypothesis import strategies as st

from reference.model import predict_batch_scalar
from repro.core.interval import ModelCache
from repro.core.machine import config_from_params, design_space
from repro.core.model import AnalyticalModel
from repro.isa import Instruction, MacroOp
from repro.profiler import SamplingConfig, profile_application
from repro.profiler.serialization import (
    profile_fingerprint,
    profile_to_dict,
)
from repro.workloads import Trace, generate_trace
from repro.workloads.generator import (
    AluSpec,
    BranchSpec,
    KernelSpec,
    LoadSpec,
    StoreSpec,
    WorkloadSpec,
)

# ---------------------------------------------------------------------------
# Comparers: profile side (scalar oracle vs columnar profiler).
# ---------------------------------------------------------------------------


def assert_profiles_bitwise(a, b):
    """Two ApplicationProfiles are indistinguishable, bytes included.

    Byte-identical serialization, not just dict equality: the
    non-canonical ``save_profile`` JSON preserves key insertion order,
    so profiles built by the oracle and the profiler must serialize to
    the same bytes to share a :class:`ProfileStore` entry.
    """
    assert profile_to_dict(a) == profile_to_dict(b)
    assert json.dumps(profile_to_dict(a)) == json.dumps(profile_to_dict(b))
    assert profile_fingerprint(a) == profile_fingerprint(b)


def assert_memory_profiles_bitwise(scalar, vectorized):
    """Memory profiles match, including dict/Counter insertion order.

    Insertion order is part of the contract: ``classify_strides``
    breaks ``most_common`` ties by it, and f(l) dict order follows it.
    """
    assert scalar == vectorized
    assert list(scalar.static_loads) == list(vectorized.static_loads)
    assert (list(scalar.load_dependence)
            == list(vectorized.load_dependence))
    for pc, load in scalar.static_loads.items():
        assert (load.strides.most_common()
                == vectorized.static_loads[pc].strides.most_common())


# ---------------------------------------------------------------------------
# Comparers: model side (scalar oracle vs batch kernel).
# ---------------------------------------------------------------------------


def predict_both(profile, configs, **model_kwargs):
    """Evaluate ``configs`` with the oracle and the kernel, each on a
    fresh model and cache: ``(oracle, batch, oracle_cache, batch_cache)``.
    """
    oracle_model = AnalyticalModel(cache=ModelCache(), **model_kwargs)
    batch_model = AnalyticalModel(cache=ModelCache(), **model_kwargs)
    oracle = predict_batch_scalar(oracle_model, profile, configs)
    batch = batch_model.predict_batch(profile, configs)
    return oracle, batch, oracle_model.cache, batch_model.cache


def assert_predictions_bitwise(a, b):
    """Two interval-model Predictions match, stack key order included."""
    assert a == b
    assert list(a.stack) == list(b.stack)
    assert len(a.windows) == len(b.windows)
    for wa, wb in zip(a.windows, b.windows):
        assert list(wa.stack) == list(wb.stack)


def assert_results_bitwise(a, b):
    """Two full ModelResults match bitwise, dict key order included.

    Key order matters beyond equality: the power model and downstream
    reporting sum floats over ``.items()``, so a different insertion
    order can change totals in the last ulp.
    """
    assert_predictions_bitwise(a.performance, b.performance)
    assert a.activity == b.activity
    assert (list(a.activity.uop_kind_counts)
            == list(b.activity.uop_kind_counts))
    assert a.power == b.power
    assert list(a.power.static) == list(b.power.static)
    assert list(a.power.dynamic) == list(b.power.dynamic)
    assert a.energy_joules == b.energy_joules
    assert a.edp == b.edp
    assert a.ed2p == b.ed2p


def assert_result_lists_bitwise(a, b):
    """Two ModelResult sequences match element-wise, order included."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert_results_bitwise(ra, rb)


def assert_points_identical(a, b):
    """Two DesignPoint sequences match bitwise, in the same order."""
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.workload == pb.workload
        assert pa.config.name == pb.config.name
        assert pa.cpi == pb.cpi
        assert pa.seconds == pb.seconds
        assert pa.power_watts == pb.power_watts
        assert pa.energy_joules == pb.energy_joules
        assert_results_bitwise(pa.result, pb.result)


def assert_simulations_bitwise(a, b):
    """Two SimulationResults match in every field, bitwise.

    ``repr`` pins what equality does not: int vs float values (``1``
    vs ``1.0``) and dict insertion order (``stack``,
    ``activity.uop_kind_counts``), which the power model's float sums
    depend on.
    """
    import dataclasses

    for name in (f.name for f in dataclasses.fields(a)):
        assert getattr(a, name) == getattr(b, name), name
    assert list(a.stack) == list(b.stack)
    assert (list(a.activity.uop_kind_counts)
            == list(b.activity.uop_kind_counts))
    assert repr(a) == repr(b)


#: ``TraceColumns`` fields, in constructor order.
TRACE_COLUMNS = ("pc", "op", "dst", "src1", "src2", "addr", "taken")


def assert_traces_identical(oracle, trace):
    """Two traces hold the same seven columns: values and dtypes."""
    assert len(trace) == len(oracle)
    expected, actual = oracle.columns(), trace.columns()
    for name in TRACE_COLUMNS:
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name


def _values_equal(x, y):
    eq = x == y
    if isinstance(eq, bool):
        return eq
    import numpy as np  # array-valued memo entries compare elementwise

    return bool(np.all(eq))


def assert_cache_states_equal(a, b):
    """Two ModelCaches hold the same keys mapping to equal values.

    Keys are compared as *sets*: the oracle and the kernel may populate
    the memo in a different order (the batch path computes one
    dependency family at a time), but a warmed cache must answer
    exactly the same queries with exactly the same values either way.
    Only valid when both caches were used with the same profile objects
    (keys embed profile identity via ``ModelCache.token``).
    """
    assert set(a._memo) == set(b._memo)
    for key, value in a._memo.items():
        assert _values_equal(value, b._memo[key]), key


# ---------------------------------------------------------------------------
# Strategies: raw instruction streams (profiler-side differentials).
# ---------------------------------------------------------------------------

# Small pools on purpose: collisions (same pc, same line) are where the
# grouping logic can diverge from the scalar dictionaries.
instructions = st.builds(
    Instruction,
    pc=st.integers(0, 40).map(lambda k: 0x1000 + 4 * k),
    op=st.sampled_from(list(MacroOp)),
    dst=st.integers(-1, 15),
    src1=st.integers(-1, 15),
    src2=st.integers(-1, 15),
    addr=st.integers(0, 2048).map(lambda slot: slot * 8),
    taken=st.booleans(),
)
traces = st.lists(instructions, min_size=0, max_size=250)
accesses = st.lists(
    st.tuples(st.integers(0, 4096).map(lambda s: s * 16), st.booleans()),
    min_size=0, max_size=250,
)
line_sizes = st.sampled_from([32, 64, 128])
sample_rates = st.sampled_from([1.0, 0.5, 0.1])
seeds = st.integers(0, 50)


# ---------------------------------------------------------------------------
# Strategies: random-but-realistic workloads and profiles (model-side).
# ---------------------------------------------------------------------------

_registers = st.integers(1, 12)
_sources = st.lists(_registers, max_size=2).map(tuple)
_address_patterns = st.sampled_from(
    ["stride", "multi_stride", "random", "chase", "unique"])
# Negative strides wrap through Python's (and NumPy's) floor modulo.
_strides = st.lists(st.sampled_from([8, 24, 64, 128, -64]),
                    min_size=1, max_size=3).map(tuple)
# Regions below 8 bytes (and of 0) collapse random draws to one slot.
_regions = st.sampled_from([0, 4, 8, 4096, 65536, 1 << 20])
_bases = st.sampled_from([0, 1 << 20])

_alu = st.builds(
    AluSpec,
    op=st.sampled_from([MacroOp.INT_ALU, MacroOp.FP_ALU, MacroOp.FP_MUL]),
    dst=_registers,
    srcs=st.tuples(_registers),
)
_load = st.builds(
    LoadSpec,
    dst=_registers,
    pattern=_address_patterns,
    strides=_strides,
    region=_regions,
    base=_bases,
    srcs=_sources,
)
_store = st.builds(
    StoreSpec,
    pattern=_address_patterns,
    strides=_strides,
    region=_regions,
    base=_bases,
    srcs=_sources,
)
_branch = st.builds(
    BranchSpec,
    pattern=st.sampled_from(["loop", "periodic", "random", "biased"]),
    period=st.integers(1, 4),
    taken_prob=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    srcs=_sources,
)
_body = st.lists(st.one_of(_alu, _load, _store, _branch),
                 min_size=1, max_size=8)


@st.composite
def workload_specs(draw):
    """A random small workload: 1-3 kernels run for 1-3 rounds.

    Each kernel body mixes ALU, load, store and branch slots over every
    address and branch pattern and is closed by a loop branch.
    """
    kernels = []
    for index in range(draw(st.integers(1, 3))):
        body = draw(_body)
        body.append(BranchSpec(pattern="loop"))
        kernels.append(KernelSpec(
            f"k{index}", body, iterations=draw(st.integers(1, 40)),
            pc_base=0x1000 * (index + 1)))
    rounds = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 1000))
    return WorkloadSpec("prop", kernels, rounds=rounds, seed=seed)


@st.composite
def profiles(draw):
    """A real ApplicationProfile of a random workload.

    Profiling happens inside the strategy so each example hands the
    test one profile *object* to feed both sides -- a prerequisite
    for comparing cache states (keys embed profile identity).
    """
    spec = draw(workload_specs())
    trace = generate_trace(spec, max_instructions=2000)
    micro = draw(st.integers(50, 300))
    stretch = draw(st.integers(2, 4))
    sampling = SamplingConfig(micro, micro * stretch)
    return profile_application(trace, sampling)


@st.composite
def micro_profiles(draw):
    """A profile of a raw random instruction stream (degenerate-friendly)."""
    instrs = draw(st.lists(instructions, min_size=1, max_size=120))
    micro = draw(st.integers(10, 60))
    sampling = SamplingConfig(micro, micro * draw(st.integers(1, 3)))
    return profile_application(Trace(instrs, name="micro"), sampling)


# ---------------------------------------------------------------------------
# Strategies: configuration batches (model-side differentials).
# ---------------------------------------------------------------------------

#: Axes stretched past Table 6.3 to the model's extremes, including the
#: degenerate scalar pipeline and saturated-MSHR corners.
EXTREME_AXES = {
    "dispatch_width": (1, 2, 4, 6, 8),
    "rob_size": (16, 32, 128, 512),
    "l1d_kb": (16, 32, 64),
    "l2_kb": (128, 256, 512),
    "llc_mb": (1, 2, 8),
    "frequency_ghz": (1.2, 2.66, 3.4),
    "mshr_entries": (1, 4, 64),
    "prefetch": (False, True),
}

_config_params = st.fixed_dictionaries(
    {},
    optional={
        name: st.sampled_from(values)
        for name, values in EXTREME_AXES.items()
    },
)

_configurations = _config_params.map(config_from_params)

_TABLE_SPACE = None


def _table_space():
    global _TABLE_SPACE
    if _TABLE_SPACE is None:
        _TABLE_SPACE = design_space()  # Table 6.3: 243 configs
    return _TABLE_SPACE


@st.composite
def table_slices(draw):
    """A strided slice of the Table 6.3 design space (may be empty)."""
    space = _table_space()
    start = draw(st.integers(0, len(space)))
    step = draw(st.integers(17, 60))
    return space[start::step]


@st.composite
def config_batches(draw, min_size=0, max_size=8):
    """A batch of configurations over :data:`EXTREME_AXES`.

    ``min_size=0`` keeps the degenerate empty batch in play; duplicate
    configurations are allowed on purpose (the batch kernel groups by
    value, so duplicates stress the gather indices).
    """
    return draw(st.lists(_configurations,
                         min_size=min_size, max_size=max_size))


#: Either flavour of batch: random extreme-axis draws or Table 6.3 slices.
any_config_batch = st.one_of(config_batches(), table_slices())
