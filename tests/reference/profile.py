"""Scalar oracles of the :mod:`repro.profiler.profile` passes.

:func:`_profile_application_scalar` is the pre-columnar profiling run
as a whole; :func:`repro.profiler.profile_application` must match it
bitwise, down to the ProfileStore fingerprint.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.frontend.entropy import profile_branch_entropy
from repro.isa import Instruction
from repro.profiler.dependences import (
    DEFAULT_ROB_GRID,
    DependenceChains,
    profile_dependence_chains,
)
from repro.profiler.memory import MicroTraceMemoryProfile
from repro.profiler.mix import UopMix, profile_mix
from repro.profiler.profile import (
    ApplicationProfile,
    MicroTraceProfile,
    _empty_window_local,
)
from repro.profiler.sampling import SamplingConfig, iter_micro_traces
from repro.statstack.reuse import ReuseProfile
from repro.workloads.trace import Trace

from .memory import (
    _profile_cold_misses_scalar,
    _profile_micro_trace_memory_scalar,
)


def _global_reuse_pass_scalar(
    instructions: Sequence[Instruction],
    sampling: SamplingConfig,
    line_size: int,
) -> Tuple[ReuseProfile, Dict[int, MicroTraceProfile]]:
    """Scalar reference of the global reuse pass (kept verbatim).

    Distances are measured over the *full* access stream (so micro-trace
    accesses see cross-window history, as StatStack's burst sampling
    does); each recorded reuse/cold access whose closing access falls in a
    micro-trace is also added to that micro-trace's local histograms.

    When ``sampling.reuse_sample_rate < 1`` only a seeded-random subset
    of accesses is recorded (``sampling.reuse_seed`` makes the subset
    reproducible); distances stay exact because the per-line last-access
    index is updated for every access.
    """
    profile = ReuseProfile(line_size=line_size)
    per_window: Dict[int, Dict[str, object]] = {}
    last_access: Dict[int, int] = {}
    access_index = 0
    window_length = sampling.window_length
    micro_length = sampling.micro_trace_length
    record_all = sampling.reuse_sample_rate >= 1.0
    rng = random.Random(sampling.reuse_seed)

    for position, instr in enumerate(instructions):
        if not instr.is_mem:
            continue
        is_write = instr.is_store
        if is_write:
            profile.store_accesses += 1
        else:
            profile.load_accesses += 1
        line = instr.addr // line_size
        previous = last_access.get(line)
        if not (record_all or rng.random() < sampling.reuse_sample_rate):
            last_access[line] = access_index
            access_index += 1
            continue

        in_micro = position % window_length < micro_length
        window_id = position // window_length
        local = None
        if in_micro:
            local = per_window.setdefault(
                window_id, _empty_window_local()
            )

        profile.sampled_accesses += 1
        if previous is None:
            if is_write:
                profile.cold_stores += 1
                if local is not None:
                    local["cold_stores"] += 1
            else:
                profile.cold_loads += 1
                if local is not None:
                    local["cold_loads"] += 1
                    local["cold_pc"][instr.pc] = (
                        local["cold_pc"].get(instr.pc, 0) + 1
                    )
        else:
            distance = access_index - previous - 1
            profile.histogram[distance] = (
                profile.histogram.get(distance, 0) + 1
            )
            typed = (
                profile.store_histogram if is_write else profile.load_histogram
            )
            typed[distance] = typed.get(distance, 0) + 1
            if local is not None:
                bucket = local["store" if is_write else "load"]
                bucket[distance] = bucket.get(distance, 0) + 1
                if not is_write:
                    pc_bucket = local["load_pc"].setdefault(instr.pc, {})
                    pc_bucket[distance] = pc_bucket.get(distance, 0) + 1
        last_access[line] = access_index
        access_index += 1

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


def _instruction_reuse_pass_scalar(
    instructions: Sequence[Instruction], line_size: int
) -> ReuseProfile:
    """Scalar reference: reuse over the instruction-fetch address stream."""
    profile = ReuseProfile(line_size=line_size)
    last_access: Dict[int, int] = {}
    for index, instr in enumerate(instructions):
        profile.load_accesses += 1
        profile.sampled_accesses += 1
        line = instr.pc // line_size
        previous = last_access.get(line)
        if previous is None:
            profile.cold_loads += 1
        else:
            distance = index - previous - 1
            profile.histogram[distance] = (
                profile.histogram.get(distance, 0) + 1
            )
            profile.load_histogram[distance] = (
                profile.load_histogram.get(distance, 0) + 1
            )
        last_access[line] = index
    return profile


def _profile_application_scalar(
    trace: Trace,
    sampling: SamplingConfig,
    rob_grid: Sequence[int] = DEFAULT_ROB_GRID,
    line_size: int = 64,
    entropy_history_lengths: Sequence[int] = (4, 8, 12),
) -> ApplicationProfile:
    """Scalar reference profiling run (the pre-columnar implementation).

    Retained verbatim: this is the ground truth the vectorized backend
    is property-tested against, and the baseline
    ``benchmarks/bench_profiler.py`` measures its speedup over.
    """
    instructions = trace.instructions

    reuse, micro_by_window = _global_reuse_pass_scalar(
        instructions, sampling, line_size
    )
    instruction_reuse = _instruction_reuse_pass_scalar(
        instructions, line_size
    )
    cold = _profile_cold_misses_scalar(instructions)
    branch_entropy = profile_branch_entropy(
        instructions, entropy_history_lengths
    )

    micro_traces: List[MicroTraceProfile] = []
    all_chains: List[DependenceChains] = []
    weights: List[float] = []
    global_mix = UopMix()

    for start, micro in iter_micro_traces(instructions, sampling):
        window_id = start // sampling.window_length
        mix = profile_mix(micro)
        chains = profile_dependence_chains(micro, grid=rob_grid)
        memory = _profile_micro_trace_memory_scalar(
            micro, line_size=line_size
        )

        micro_profile = micro_by_window.get(window_id)
        if micro_profile is None:
            micro_profile = MicroTraceProfile(
                start=start,
                length=len(micro),
                mix=mix,
                chains=chains,
                memory=memory,
            )
        else:
            micro_profile.start = start
            micro_profile.length = len(micro)
            micro_profile.mix = mix
            micro_profile.chains = chains
            micro_profile.memory = memory
        micro_traces.append(micro_profile)
        global_mix.merge(mix)
        all_chains.append(chains)
        weights.append(len(micro))

    micro_traces.sort(key=lambda mt: mt.start)
    aggregate_chains = DependenceChains(grid=tuple(rob_grid))
    aggregate_chains.merge_weighted(all_chains, weights)

    return ApplicationProfile(
        name=trace.name,
        num_instructions=len(instructions),
        sampling=sampling,
        mix=global_mix,
        chains=aggregate_chains,
        branch_entropy=branch_entropy,
        reuse=reuse,
        instruction_reuse=instruction_reuse,
        cold=cold,
        micro_traces=micro_traces,
    )
