"""Scalar oracles of the :mod:`repro.profiler.dependences` pass.

:func:`chain_lengths_exact` is thesis Algorithm 3.1 verbatim: it slides
the window one instruction at a time, O(N*B).  :func:`chain_lengths_stepped`
steps the window (non-overlapping) over ``Instruction`` objects -- the
pre-columnar implementation of the production pass, which
:func:`repro.profiler.profile_dependence_chains` must match bitwise.
:func:`chain_profile_at` is the interpolation ``ChainProfile.at`` did
before it kept its segment fits, which the fitted lookup must match
bitwise.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.isa import Instruction
from repro.profiler.dependences import (
    DEFAULT_ROB_GRID,
    ChainProfile,
    ChainStats,
    DependenceChains,
)


def _window_depths(window: Sequence[Instruction]) -> List[int]:
    """Chain length for each instruction of one window (register deps)."""
    depths: List[int] = []
    last_writer: Dict[int, int] = {}
    for position, instr in enumerate(window):
        depth = 0
        for src in (instr.src1, instr.src2):
            if src >= 0:
                producer = last_writer.get(src)
                if producer is not None:
                    depth = max(depth, depths[producer])
        depths.append(depth + 1)
        if instr.dst >= 0:
            last_writer[instr.dst] = position
    return depths


def chain_lengths_exact(
    instructions: Sequence[Instruction], window_size: int
) -> ChainStats:
    """Algorithm 3.1: slide a window one instruction at a time.

    Windows are every contiguous span of ``window_size`` instructions (the
    thesis' buffer after it first fills).  ABP averages only over windows
    containing at least one branch.
    """
    n = len(instructions)
    if n == 0:
        return ChainStats(0.0, 0.0, 0.0)
    size = min(window_size, n)
    ap_sum = 0.0
    abp_sum = 0.0
    cp_sum = 0.0
    windows = 0
    branch_windows = 0
    for start in range(0, n - size + 1):
        window = instructions[start:start + size]
        depths = _window_depths(window)
        ap_sum += sum(depths) / size
        branch_depths = [
            depth for depth, instr in zip(depths, window) if instr.is_branch
        ]
        if branch_depths:
            abp_sum += sum(branch_depths) / len(branch_depths)
            branch_windows += 1
        cp_sum += max(depths)
        windows += 1
    return ChainStats(
        ap=ap_sum / windows,
        abp=abp_sum / branch_windows if branch_windows else 0.0,
        cp=cp_sum / windows,
    )


def chain_lengths_stepped(
    instructions: Sequence[Instruction], window_size: int
) -> ChainStats:
    """Stepped-window variant: O(N) per window size."""
    n = len(instructions)
    if n == 0:
        return ChainStats(0.0, 0.0, 0.0)
    ap_sum = 0.0
    abp_sum = 0.0
    cp_sum = 0.0
    windows = 0
    branch_windows = 0
    for start in range(0, n, window_size):
        window = instructions[start:start + window_size]
        if len(window) < max(2, window_size // 4) and windows > 0:
            break  # skip a tiny ragged tail; it skews the averages
        depths = _window_depths(window)
        ap_sum += sum(depths) / len(window)
        branch_depths = [
            depth for depth, instr in zip(depths, window) if instr.is_branch
        ]
        if branch_depths:
            abp_sum += sum(branch_depths) / len(branch_depths)
            branch_windows += 1
        cp_sum += max(depths)
        windows += 1
    return ChainStats(
        ap=ap_sum / windows,
        abp=abp_sum / branch_windows if branch_windows else 0.0,
        cp=cp_sum / windows,
    )


def _profile_dependence_chains_scalar(
    instructions: Sequence[Instruction],
    grid: Sequence[int] = DEFAULT_ROB_GRID,
) -> DependenceChains:
    """Scalar reference for :func:`profile_dependence_chains`."""
    chains = DependenceChains(grid=tuple(grid))
    for size in grid:
        stats = chain_lengths_stepped(instructions, size)
        chains.ap.values[size] = stats.ap
        chains.abp.values[size] = stats.abp
        chains.cp.values[size] = stats.cp
    return chains


def chain_profile_at(profile: ChainProfile, rob: int) -> float:
    """``ChainProfile.at`` refitting its segment on every call (verbatim)."""
    self = profile
    if not self.values:
        return 1.0
    sizes = sorted(self.values)
    if rob in self.values:
        return self.values[rob]
    if rob <= sizes[0]:
        low, high = sizes[0], sizes[1] if len(sizes) > 1 else sizes[0]
    elif rob >= sizes[-1]:
        low = sizes[-2] if len(sizes) > 1 else sizes[-1]
        high = sizes[-1]
    else:
        high = min(s for s in sizes if s > rob)
        low = max(s for s in sizes if s < rob)
    if low == high:
        return self.values[low]
    v_low, v_high = self.values[low], self.values[high]
    b = (v_high - v_low) / (math.log(high) - math.log(low))
    a = v_low - b * math.log(low)
    value = a + b * math.log(max(rob, 1))
    return max(value, 0.0)
