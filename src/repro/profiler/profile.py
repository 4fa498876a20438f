"""The application profile: everything the analytical model consumes.

``profile_application`` makes one pass over a trace (plus cheap auxiliary
passes) and returns an :class:`ApplicationProfile`:

* global statistics: uop mix, dependence chains, linear branch entropy,
  reuse-distance profile (loads/stores typed), instruction-stream reuse
  profile, cold-miss window distributions;
* per-micro-trace statistics (thesis §5, TC'16 per-sample evaluation):
  local mix, local chains, stride/spacing/f(l) memory distributions, and
  the micro-trace's typed reuse histogram measured against full history.

The profile is micro-architecture independent: nothing in it depends on a
cache size, predictor or ROB; the model derives all inputs for any machine
configuration from it.

The pass is vectorized: the trace's columnar view
(:class:`~repro.workloads.columns.TraceColumns`, built once and cached
on the trace) feeds NumPy sweeps for the reuse, cold-miss, stride, mix
and entropy statistics; only the inherently sequential
register-dataflow recurrences stay scalar loops over pre-extracted
arrays.  Profiles are **bitwise identical** (property-tested) to the
original per-``Instruction`` loops, kept as frozen oracles under
``tests/reference/``, so both hash to the same
:class:`~repro.profiler.serialization.ProfileStore` content key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frontend.entropy import (
    BranchEntropyProfile,
    profile_branch_entropy,
)
from repro.profiler.dependences import (
    DEFAULT_ROB_GRID,
    DependenceChains,
    profile_dependence_chains,
)
from repro.profiler.memory import (
    ColdMissProfile,
    MicroTraceMemoryProfile,
    profile_cold_misses,
    profile_micro_trace_memory,
)
from repro.profiler.mix import UopMix, profile_mix
from repro.profiler.sampling import SamplingConfig, iter_micro_spans
from repro.statstack.model import StatStack
from repro.statstack.reuse import ReuseProfile, reuse_sweep_into
from repro.workloads.columns import TraceColumns
from repro.workloads.trace import Trace


@dataclass
class MicroTraceProfile:
    """All statistics of one profiled micro-trace."""

    start: int
    length: int
    mix: UopMix
    chains: DependenceChains
    memory: MicroTraceMemoryProfile
    load_reuse: Dict[int, int] = field(default_factory=dict)
    store_reuse: Dict[int, int] = field(default_factory=dict)
    cold_loads: int = 0
    cold_stores: int = 0
    #: Per-static-load attributed reuse: pc -> {distance: count} and
    #: pc -> cold count, measured against full-stream history.  Gives the
    #: stride-MLP virtual stream exact per-load miss probabilities.
    load_reuse_by_pc: Dict[int, Dict[int, int]] = field(default_factory=dict)
    cold_by_pc: Dict[int, int] = field(default_factory=dict)


@dataclass
class ApplicationProfile:
    """Micro-architecture independent profile of one application."""

    name: str
    num_instructions: int
    sampling: SamplingConfig
    mix: UopMix
    chains: DependenceChains
    branch_entropy: BranchEntropyProfile
    reuse: ReuseProfile
    instruction_reuse: ReuseProfile
    cold: ColdMissProfile
    micro_traces: List[MicroTraceProfile] = field(default_factory=list)
    _statstack: Optional[StatStack] = None
    _instruction_statstack: Optional[StatStack] = None

    @property
    def sample_fraction(self) -> float:
        """Fraction of instructions inside micro-traces."""
        if self.num_instructions == 0:
            return 1.0
        profiled = sum(mt.length for mt in self.micro_traces)
        return profiled / self.num_instructions

    def statstack(self) -> StatStack:
        """The (cached) data-stream StatStack model."""
        if self._statstack is None:
            self._statstack = StatStack(self.reuse)
        return self._statstack

    def instruction_statstack(self) -> StatStack:
        """The (cached) instruction-stream StatStack model."""
        if self._instruction_statstack is None:
            self._instruction_statstack = StatStack(self.instruction_reuse)
        return self._instruction_statstack


def _empty_window_local() -> Dict[str, object]:
    """A fresh per-window attribution record (scalar-pass layout)."""
    return {"load": {}, "store": {}, "cold_loads": 0, "cold_stores": 0,
            "load_pc": {}, "cold_pc": {}}


def _global_reuse_pass(
    columns: TraceColumns,
    sampling: SamplingConfig,
    line_size: int,
) -> Tuple[ReuseProfile, Dict[int, MicroTraceProfile]]:
    """Vectorized global data-reuse pass over the columnar trace.

    Semantics are those of the scalar oracle in
    ``tests/reference/profile.py`` (distances against full-stream
    history; recorded reuses/colds closing inside a micro-trace also
    land in that window's local histograms).  The histogram collection
    itself delegates to the shared vectorized core
    (:func:`~repro.statstack.reuse.reuse_sweep_into`, also behind
    ``collect_reuse_profile``) with draws taken from
    ``random.Random(sampling.reuse_seed)`` -- the same underlying draw
    sequence as the scalar loop, bitwise.  Only the sparse
    recorded-in-micro-trace subset (a few percent of accesses) is
    walked in Python to build the per-window attribution dicts in
    stream order.
    """
    profile = ReuseProfile(line_size=line_size)
    window_length = sampling.window_length
    micro_length = sampling.micro_trace_length

    positions = np.nonzero(columns.is_mem)[0]
    is_write = columns.is_store[positions]
    swept = reuse_sweep_into(
        profile,
        columns.addr[positions],
        is_write,
        sampling.reuse_sample_rate,
        random.Random(sampling.reuse_seed),
    )
    if swept is None:
        return profile, {}
    recorded, cold, distance = swept

    # -- attribute recorded accesses closing inside micro-traces --------
    attributed = recorded & ((positions % window_length) < micro_length)
    per_window: Dict[int, Dict[str, object]] = {}
    if np.any(attributed):
        events = zip(
            (positions[attributed] // window_length).tolist(),
            columns.pc[positions[attributed]].tolist(),
            is_write[attributed].tolist(),
            cold[attributed].tolist(),
            distance[attributed].tolist(),
        )
        for window_id, pc, event_write, event_cold, d in events:
            local = per_window.get(window_id)
            if local is None:
                local = _empty_window_local()
                per_window[window_id] = local
            if event_cold:
                if event_write:
                    local["cold_stores"] += 1
                else:
                    local["cold_loads"] += 1
                    local["cold_pc"][pc] = (
                        local["cold_pc"].get(pc, 0) + 1
                    )
            else:
                bucket = local["store" if event_write else "load"]
                bucket[d] = bucket.get(d, 0) + 1
                if not event_write:
                    pc_bucket = local["load_pc"].setdefault(pc, {})
                    pc_bucket[d] = pc_bucket.get(d, 0) + 1

    micro_profiles: Dict[int, MicroTraceProfile] = {}
    for window_id, local in per_window.items():
        micro_profiles[window_id] = MicroTraceProfile(
            start=window_id * window_length,
            length=0,
            mix=UopMix(),
            chains=DependenceChains(),
            memory=MicroTraceMemoryProfile(),
            load_reuse=local["load"],
            store_reuse=local["store"],
            cold_loads=local["cold_loads"],
            cold_stores=local["cold_stores"],
            load_reuse_by_pc=local["load_pc"],
            cold_by_pc=local["cold_pc"],
        )
    return profile, micro_profiles


def _instruction_reuse_pass(
    columns: TraceColumns, line_size: int
) -> ReuseProfile:
    """Vectorized reuse profile over the instruction-fetch stream.

    Every fetch is an (unsampled) load access to its PC's cache line,
    so this is the shared reuse sweep over the PC column with an
    all-loads type vector and no sampling.  Bitwise identical to the
    scalar oracle in ``tests/reference/profile.py``.
    """
    profile = ReuseProfile(line_size=line_size)
    reuse_sweep_into(
        profile,
        columns.pc,
        np.zeros(len(columns), dtype=bool),
        1.0,
        None,
    )
    return profile


def profile_application(
    trace: Trace,
    sampling: Optional[SamplingConfig] = None,
    rob_grid: Sequence[int] = DEFAULT_ROB_GRID,
    line_size: int = 64,
    entropy_history_lengths: Sequence[int] = (4, 8, 12),
) -> ApplicationProfile:
    """Profile one application trace (the AIP's single profiling run)."""
    sampling = sampling or SamplingConfig()
    columns = TraceColumns.ensure(trace)
    total = len(columns)

    reuse, micro_by_window = _global_reuse_pass(
        columns, sampling, line_size
    )
    instruction_reuse = _instruction_reuse_pass(columns, line_size)
    cold = profile_cold_misses((), columns=columns)
    branch_entropy = profile_branch_entropy(
        (), entropy_history_lengths, columns=columns
    )

    micro_traces: List[MicroTraceProfile] = []
    all_chains: List[DependenceChains] = []
    weights: List[float] = []
    global_mix = UopMix()

    for start, end in iter_micro_spans(total, sampling):
        micro_columns = columns[start:end]
        window_id = start // sampling.window_length
        mix = profile_mix((), columns=micro_columns)
        chains = profile_dependence_chains(
            (), grid=rob_grid, columns=micro_columns
        )
        memory = profile_micro_trace_memory(
            (), line_size=line_size, columns=micro_columns
        )

        micro_profile = micro_by_window.get(window_id)
        if micro_profile is None:
            micro_profile = MicroTraceProfile(
                start=start,
                length=end - start,
                mix=mix,
                chains=chains,
                memory=memory,
            )
        else:
            micro_profile.start = start
            micro_profile.length = end - start
            micro_profile.mix = mix
            micro_profile.chains = chains
            micro_profile.memory = memory
        micro_traces.append(micro_profile)
        global_mix.merge(mix)
        all_chains.append(chains)
        weights.append(end - start)

    micro_traces.sort(key=lambda mt: mt.start)
    aggregate_chains = DependenceChains(grid=tuple(rob_grid))
    aggregate_chains.merge_weighted(all_chains, weights)

    return ApplicationProfile(
        name=trace.name,
        num_instructions=total,
        sampling=sampling,
        mix=global_mix,
        chains=aggregate_chains,
        branch_entropy=branch_entropy,
        reuse=reuse,
        instruction_reuse=instruction_reuse,
        cold=cold,
        micro_traces=micro_traces,
    )
