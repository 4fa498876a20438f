"""Dependence chain profiling: AP, ABP and CP (thesis §3.3, Alg 3.1).

For a window (reorder buffer) of instructions, the chain length of an
instruction is the number of instructions on the longest producer chain
leading up to and including it (an instruction with no in-window producers
has length 1).  Three statistics summarize a window:

* **AP** (average path): mean chain length over all instructions;
* **ABP** (average branch path): mean chain length over branches only;
* **CP** (critical path): the maximum chain length.

The profiler steps the window (non-overlapping windows, O(N) per window
size) rather than sliding it one instruction at a time as Algorithm 3.1
does, trading the thesis' sliding window for speed the same way its
stride-MLP model does (§4.5: "sliding versus stepping ... gave similar
results").  Both variants over ``Instruction`` objects are kept as
oracles in ``tests/reference/dependences.py``.

Chain lengths are profiled over a grid of window sizes and interpolated to
arbitrary ROB sizes with the thesis' logarithmic fit (§5.2, Eq 5.2).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.isa import Instruction
from repro.workloads.columns import TraceColumns

#: Default grid of profiled window sizes (thesis: 16..256 step 16).
DEFAULT_ROB_GRID: Tuple[int, ...] = tuple(range(16, 257, 16))


def _window_lengths(
    src1: List[int],
    src2: List[int],
    dst: List[int],
    start: int,
    stop: int,
    num_regs: int,
) -> List[int]:
    """Chain length of each instruction in ``[start, stop)`` (register deps).

    The register-dataflow recurrence is inherently sequential; it reads
    pre-extracted plain-int columns, and the per-register state stores
    the last writer's *chain length* directly (``0`` = no in-window
    producer; lengths are always >= 1) in a flat list.
    """
    depths: List[int] = []
    append = depths.append
    writer_length = [0] * num_regs
    for s1, s2, reg in zip(src1[start:stop], src2[start:stop],
                           dst[start:stop]):
        depth = 0
        if s1 >= 0:
            produced = writer_length[s1]
            if produced > depth:
                depth = produced
        if s2 >= 0:
            produced = writer_length[s2]
            if produced > depth:
                depth = produced
        depth += 1
        append(depth)
        if reg >= 0:
            writer_length[reg] = depth
    return depths


def _stepped_chain_stats(
    src1: List[int],
    src2: List[int],
    dst: List[int],
    branch_positions: List[int],
    n: int,
    window_size: int,
    num_regs: int,
) -> "ChainStats":
    """AP/ABP/CP over stepped windows of ``window_size`` instructions.

    ABP averages only over windows containing at least one branch.
    """
    if n == 0:
        return ChainStats(0.0, 0.0, 0.0)
    ap_sum = 0.0
    abp_sum = 0.0
    cp_sum = 0.0
    windows = 0
    branch_windows = 0
    num_branches = len(branch_positions)
    cursor = 0  # next unconsumed branch position (windows are ascending)
    for start in range(0, n, window_size):
        stop = min(start + window_size, n)
        length = stop - start
        if length < max(2, window_size // 4) and windows > 0:
            break  # skip a tiny ragged tail; it skews the averages
        depths = _window_lengths(src1, src2, dst, start, stop, num_regs)
        ap_sum += sum(depths) / length
        branch_sum = 0
        branch_count = 0
        while (cursor < num_branches
               and branch_positions[cursor] < stop):
            branch_sum += depths[branch_positions[cursor] - start]
            branch_count += 1
            cursor += 1
        if branch_count:
            abp_sum += branch_sum / branch_count
            branch_windows += 1
        cp_sum += max(depths)
        windows += 1
    return ChainStats(
        ap=ap_sum / windows,
        abp=abp_sum / branch_windows if branch_windows else 0.0,
        cp=cp_sum / windows,
    )


@dataclass
class ChainStats:
    """AP/ABP/CP for one window size."""

    ap: float
    abp: float
    cp: float


class _LogFit(NamedTuple):
    """Per-segment log fits of one :class:`ChainProfile` (thesis Eq 5.2).

    Segment ``i`` spans ``sizes[i]..sizes[i + 1]`` and interpolates as
    ``a[i] + b[i] * log(ROB)``.
    """

    sizes: Tuple[int, ...]
    a: Tuple[float, ...]
    b: Tuple[float, ...]


def _log_fit(values: Dict[int, float]) -> _LogFit:
    """Fit every segment between consecutive profiled (positive) sizes."""
    sizes = tuple(sorted(values))
    a: List[float] = []
    b: List[float] = []
    for low, high in zip(sizes, sizes[1:]):
        v_low, v_high = values[low], values[high]
        slope = (v_high - v_low) / (math.log(high) - math.log(low))
        b.append(slope)
        a.append(v_low - slope * math.log(low))
    return _LogFit(sizes, tuple(a), tuple(b))


@dataclass
class ChainProfile:
    """One chain statistic over the profiled window-size grid.

    ``at(rob)`` interpolates between profiled sizes with the logarithmic
    fit of thesis Eq 5.2 (``length = a + b * log(ROB)``), fitted segment
    by segment as the thesis does (§5.2: per-pair fits beat a global fit).

    The segment fits are computed on the first ``at`` between profiled
    sizes and kept on the profile, so they are freed with it.  They are
    a function of ``values``: assigning ``values`` drops them, and
    ``values`` is replaced, never edited in place, once it is queried.
    """

    values: Dict[int, float] = field(default_factory=dict)

    #: The :class:`_LogFit` of ``values`` once built (not a field).
    _fit = None

    def __setattr__(self, name: str, value: object) -> None:
        if name == "values":
            self.__dict__.pop("_fit", None)
        object.__setattr__(self, name, value)

    def __getstate__(self) -> Dict[str, object]:
        # The fit is derived; pickles carry only the values.
        return {"values": self.values}

    def at(self, rob: int) -> float:
        values = self.values
        if not values:
            return 1.0
        if rob in values:
            return values[rob]
        fit = self._fit
        if fit is None:
            fit = self._fit = _log_fit(values)
        sizes = fit.sizes
        if len(sizes) == 1:
            return values[sizes[0]]
        # Below the grid the first segment extrapolates, above it the last.
        segment = min(max(bisect_left(sizes, rob) - 1, 0), len(sizes) - 2)
        value = fit.a[segment] + fit.b[segment] * math.log(max(rob, 1))
        return max(value, 0.0)


@dataclass
class DependenceChains:
    """AP/ABP/CP chain profiles over the window grid."""

    ap: ChainProfile = field(default_factory=ChainProfile)
    abp: ChainProfile = field(default_factory=ChainProfile)
    cp: ChainProfile = field(default_factory=ChainProfile)
    grid: Tuple[int, ...] = DEFAULT_ROB_GRID

    def merge_weighted(
        self, others: Sequence["DependenceChains"], weights: Sequence[float]
    ) -> None:
        """Set this profile to the weighted mean of ``others``."""
        total = sum(weights)
        if total == 0:
            return
        for attr in ("ap", "abp", "cp"):
            merged: Dict[int, float] = {}
            for other, weight in zip(others, weights):
                profile: ChainProfile = getattr(other, attr)
                for size, value in profile.values.items():
                    merged[size] = merged.get(size, 0.0) + weight * value
            getattr(self, attr).values = {
                size: value / total for size, value in merged.items()
            }


def profile_dependence_chains(
    instructions: Sequence[Instruction],
    grid: Sequence[int] = DEFAULT_ROB_GRID,
    *,
    columns: Optional[TraceColumns] = None,
) -> DependenceChains:
    """Profile AP/ABP/CP over a window-size grid.

    The register columns are extracted once and shared across all grid
    sizes.  ``columns`` supplies a pre-built columnar view; when omitted
    it is built from (or found cached on) ``instructions``.
    """
    if columns is None:
        columns = TraceColumns.ensure(instructions)
    src1 = columns.src1.tolist()
    src2 = columns.src2.tolist()
    dst = columns.dst.tolist()
    branch_positions = np.nonzero(columns.is_branch)[0].tolist()
    n = len(columns)
    num_regs = 1
    if n:
        num_regs = 1 + max(
            int(columns.src1.max()), int(columns.src2.max()),
            int(columns.dst.max()), 0,
        )
    ap: Dict[int, float] = {}
    abp: Dict[int, float] = {}
    cp: Dict[int, float] = {}
    for size in grid:
        stats = _stepped_chain_stats(
            src1, src2, dst, branch_positions, n, size, num_regs
        )
        ap[size] = stats.ap
        abp[size] = stats.abp
        cp[size] = stats.cp
    return DependenceChains(
        ap=ChainProfile(ap), abp=ChainProfile(abp), cp=ChainProfile(cp),
        grid=tuple(grid),
    )
