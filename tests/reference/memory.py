"""Scalar oracles of the :mod:`repro.profiler.memory` passes."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from repro.isa import Instruction
from repro.profiler.memory import (
    DEFAULT_COLD_ROB_GRID,
    DEFAULT_LINE_SIZES,
    ColdMissProfile,
    MicroTraceMemoryProfile,
    StaticLoadProfile,
)


def _profile_cold_misses_scalar(
    instructions: Sequence[Instruction],
    rob_grid: Sequence[int] = DEFAULT_COLD_ROB_GRID,
    line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
) -> ColdMissProfile:
    """Scalar reference for :func:`profile_cold_misses` (kept verbatim).

    One full Python pass per line size with a ``seen`` set; the ground
    truth the vectorized pass is property-tested against (bitwise).
    """
    profile = ColdMissProfile(num_instructions=len(instructions))
    for line_size in line_sizes:
        seen: set = set()
        cold_indices: List[int] = []
        for index, instr in enumerate(instructions):
            if not instr.is_mem:
                continue
            line = instr.addr // line_size
            if line not in seen:
                seen.add(line)
                cold_indices.append(index)
        profile.total[line_size] = len(cold_indices)
        for rob in rob_grid:
            windows = max(1, (len(instructions) + rob - 1) // rob)
            counts = Counter(index // rob for index in cold_indices)
            occupied = len(counts)
            if occupied:
                average = sum(counts.values()) / occupied
            else:
                average = 0.0
            profile.per_window[(line_size, rob)] = average
            profile.window_fraction[(line_size, rob)] = occupied / windows
    return profile


def _profile_micro_trace_memory_scalar(
    micro_trace: Sequence[Instruction],
    line_size: int = 64,
) -> MicroTraceMemoryProfile:
    """Scalar reference for :func:`profile_micro_trace_memory`.

    One forward pass maintains:

    * per-static-load position/address history (spacing + strides);
    * per-line last-access index for local reuse distances;
    * register dataflow depths counting only loads, giving f(l)
      (thesis Fig 4.5: the l-th load on a dependence chain).

    Kept verbatim as the ground truth the vectorized pass is
    property-tested against (bitwise).
    """
    profile = MicroTraceMemoryProfile(length=len(micro_trace))
    last_address: Dict[int, int] = {}
    last_line_access: Dict[int, int] = {}
    load_depth_of_reg: Dict[int, int] = {}
    access_index = 0

    for position, instr in enumerate(micro_trace):
        # Register dataflow load depth.
        depth = 0
        for src in (instr.src1, instr.src2):
            if src >= 0:
                depth = max(depth, load_depth_of_reg.get(src, 0))
        if instr.is_load:
            depth += 1
            profile.load_dependence[depth] += 1
            profile.load_positions.append(position)

            load = profile.static_loads.get(instr.pc)
            if load is None:
                load = StaticLoadProfile(
                    pc=instr.pc, first_position=position, dst=instr.dst
                )
                profile.static_loads[instr.pc] = load
            load.depth_sum += depth
            previous_addr = last_address.get(instr.pc)
            if previous_addr is not None:
                load.strides[instr.addr - previous_addr] += 1
            last_address[instr.pc] = instr.addr
            load.positions.append(position)

            line = instr.addr // line_size
            previous_access = last_line_access.get(line)
            if previous_access is not None:
                load.local_reuse.append(access_index - previous_access - 1)
            last_line_access[line] = access_index
            access_index += 1
        elif instr.is_store:
            profile.store_positions.append(position)
            line = instr.addr // line_size
            last_line_access[line] = access_index
            access_index += 1

        if instr.dst >= 0:
            load_depth_of_reg[instr.dst] = depth
    return profile
