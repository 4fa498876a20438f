"""Memory-behaviour distributions (thesis §4.4--4.5, §5.4).

Two families of statistics feed the MLP models:

* **Cold-miss window distributions** (cold-miss MLP model, §4.4): over the
  *full* instruction stream -- cold misses cannot be sampled (§5.4.2) --
  record, for a grid of window (ROB) sizes and cache-line sizes, how many
  first-touch lines fall in each window.
* **Per-micro-trace static-load distributions** (stride MLP model, §4.5):
  load spacing (first position + recurrence gaps), stride distributions,
  inter-load dependence distribution f(l), and per-load local reuse
  distances.  These are enough to rebuild a *virtual instruction stream*
  over which the abstract MLP model hovers.

Stride classification follows Fig 4.7: single-stride, filtered 1..4-stride
(cumulative cutoffs 60/70/80/90%), random-strided and unique loads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa import Instruction
from repro.workloads.columns import TraceColumns, previous_occurrence

DEFAULT_LINE_SIZES: Tuple[int, ...] = (32, 64, 128)
DEFAULT_COLD_ROB_GRID: Tuple[int, ...] = (32, 64, 128, 192, 256)

#: Cumulative-frequency cutoffs for classifying 1..4-strided loads.
STRIDE_CUTOFFS: Tuple[float, ...] = (0.60, 0.70, 0.80, 0.90)


@dataclass
class ColdMissProfile:
    """Cold misses binned into instruction windows, full-stream.

    ``per_window[(line_size, rob)]`` is the average number of cold misses
    per window *containing at least one cold miss*; ``window_fraction``
    is the fraction of windows with at least one.  ``total[line_size]``
    counts all cold misses.
    """

    per_window: Dict[Tuple[int, int], float] = field(default_factory=dict)
    window_fraction: Dict[Tuple[int, int], float] = field(default_factory=dict)
    total: Dict[int, int] = field(default_factory=dict)
    num_instructions: int = 0

    @staticmethod
    def _nearest_key(
        keys: List[Tuple[int, int]], rob: int, line_size: int
    ) -> Tuple[int, int]:
        """The profiled ``(line_size, rob)`` key nearest the query."""
        return min(
            keys,
            key=lambda k: (abs(k[0] - line_size), abs(k[1] - rob)),
        )

    def cold_misses_per_occupied_window(
        self, rob: int, line_size: int = 64
    ) -> float:
        """m_cold_LLC(ROB): thesis §4.4, nearest profiled sizes."""
        if not self.per_window:
            return 0.0
        best = self._nearest_key(list(self.per_window), rob, line_size)
        return self.per_window[best]

    def occupied_window_fraction(
        self, rob: int, line_size: int = 64
    ) -> float:
        """Fraction of ROB-sized windows containing a cold miss.

        The companion lookup to
        :meth:`cold_misses_per_occupied_window`: same nearest-profiled
        ``(line_size, rob)`` key rule, applied to ``window_fraction``.
        """
        if not self.window_fraction:
            return 0.0
        best = self._nearest_key(
            list(self.window_fraction), rob, line_size
        )
        return self.window_fraction[best]


def profile_cold_misses(
    instructions: Sequence[Instruction],
    rob_grid: Sequence[int] = DEFAULT_COLD_ROB_GRID,
    line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
    columns: Optional[TraceColumns] = None,
) -> ColdMissProfile:
    """Profile first-touch (cold) misses over the full stream.

    Vectorized: per line size, one ``np.unique(..., return_index=True)``
    over the memory-access line ids yields the first-touch indices in a
    single pass (the scalar oracle in ``tests/reference/memory.py``
    walks the stream once per line size with a ``seen`` set).  Outputs
    are bitwise identical.

    ``columns`` supplies a pre-built columnar view; when omitted it is
    built from (or found cached on) ``instructions``.
    """
    if columns is None:
        columns = TraceColumns.ensure(instructions)
    n = len(columns)
    profile = ColdMissProfile(num_instructions=n)
    mem_positions = np.nonzero(columns.is_mem)[0]
    mem_addr = columns.addr[mem_positions]
    for line_size in line_sizes:
        _, first = np.unique(mem_addr // line_size, return_index=True)
        cold_indices = np.sort(mem_positions[first])
        total = int(cold_indices.shape[0])
        profile.total[line_size] = total
        for rob in rob_grid:
            windows = max(1, (n + rob - 1) // rob)
            occupied = int(np.unique(cold_indices // rob).shape[0])
            if occupied:
                average = total / occupied
            else:
                average = 0.0
            profile.per_window[(line_size, rob)] = average
            profile.window_fraction[(line_size, rob)] = occupied / windows
    return profile


@dataclass
class StaticLoadProfile:
    """Distributions of one static load inside one micro-trace."""

    pc: int
    first_position: int
    positions: List[int] = field(default_factory=list)
    strides: Counter = field(default_factory=Counter)
    local_reuse: List[int] = field(default_factory=list)
    dst: int = -1
    depth_sum: int = 0  # sum of load-chain depths l over occurrences

    @property
    def occurrences(self) -> int:
        return len(self.positions)

    @property
    def mean_depth(self) -> float:
        """Average position l of this load on its load dependence chain."""
        if not self.positions:
            return 1.0
        return self.depth_sum / len(self.positions)

    @property
    def mean_gap(self) -> float:
        if len(self.positions) < 2:
            return 0.0
        gaps = [
            b - a for a, b in zip(self.positions, self.positions[1:])
        ]
        return sum(gaps) / len(gaps)


def classify_strides(profile: StaticLoadProfile) -> Tuple[str, List[int]]:
    """Classify a static load's access pattern (thesis §4.5, Fig 4.7).

    Returns ``(category, dominant_strides)`` where category is one of
    ``STRIDE``, ``FILTER-1`` .. ``FILTER-4``, ``RANDOM``, ``UNIQUE``.
    The simplest pattern passing its cumulative cutoff wins.
    """
    if profile.occurrences <= 1:
        return "UNIQUE", []
    strides = profile.strides
    total = sum(strides.values())
    if total == 0:
        return "UNIQUE", []
    ranked = strides.most_common()
    if len(ranked) == 1:
        return "STRIDE", [ranked[0][0]]
    cumulative = 0.0
    chosen: List[int] = []
    for k, (stride, count) in enumerate(ranked[:4]):
        cumulative += count / total
        chosen.append(stride)
        if cumulative >= STRIDE_CUTOFFS[k]:
            return f"FILTER-{k + 1}", chosen
    return "RANDOM", []


@dataclass
class MicroTraceMemoryProfile:
    """Memory distributions of one micro-trace (stride-MLP inputs)."""

    static_loads: Dict[int, StaticLoadProfile] = field(default_factory=dict)
    load_dependence: Counter = field(default_factory=Counter)  # f(l)
    load_positions: List[int] = field(default_factory=list)
    store_positions: List[int] = field(default_factory=list)
    length: int = 0

    @property
    def num_loads(self) -> int:
        return len(self.load_positions)

    def load_dependence_distribution(self) -> Dict[int, float]:
        """Normalized f(l): P(a load is the l-th load on its chain)."""
        total = sum(self.load_dependence.values())
        if total == 0:
            return {}
        return {
            depth: count / total
            for depth, count in sorted(self.load_dependence.items())
        }

    def independent_load_fraction(self) -> float:
        """Fraction of loads heading a load-dependence chain (l == 1)."""
        distribution = self.load_dependence_distribution()
        return distribution.get(1, 0.0)

    def stride_categories(self) -> Dict[str, int]:
        """Histogram of stride categories over static loads."""
        categories: Counter = Counter()
        for load in self.static_loads.values():
            category, _ = classify_strides(load)
            categories[category] += 1
        return dict(categories)


def profile_micro_trace_memory(
    micro_trace: Sequence[Instruction],
    line_size: int = 64,
    columns: Optional[TraceColumns] = None,
) -> MicroTraceMemoryProfile:
    """Collect the stride-MLP distributions for one micro-trace.

    The vectorizable statistics come from columnar sweeps: load/store
    positions from mask ``nonzero``, per-PC stride diffs and occurrence
    lists from one stable argsort grouping loads by PC, and local reuse
    distances from the
    :func:`~repro.workloads.columns.previous_occurrence` predecessor
    sweep over the interleaved load/store line stream.  Only the
    register-dataflow depth recurrence (f(l), thesis Fig 4.5) is
    inherently sequential; it stays a scalar loop but reads plain int
    arrays instead of ``Instruction`` objects.  Outputs are bitwise
    identical to the scalar oracle in ``tests/reference/memory.py``.

    ``columns`` supplies a pre-built columnar view; when omitted it is
    built from (or found cached on) ``micro_trace``.
    """
    if columns is None:
        columns = TraceColumns.ensure(micro_trace)
    n = len(columns)
    profile = MicroTraceMemoryProfile(length=n)
    is_load = columns.is_load
    load_positions = np.nonzero(is_load)[0]
    profile.load_positions = load_positions.tolist()
    profile.store_positions = np.nonzero(columns.is_store)[0].tolist()

    # -- local reuse distances over the interleaved load/store stream --
    mem_positions = np.nonzero(columns.is_mem)[0]
    access_index = np.arange(mem_positions.shape[0], dtype=np.int64)
    prev = previous_occurrence(columns.addr[mem_positions] // line_size)
    closes_reuse = is_load[mem_positions] & (prev >= 0)
    reuse_pc = columns.pc[mem_positions[closes_reuse]]
    reuse_distance = (access_index - prev - 1)[closes_reuse]
    reuse_order = np.argsort(reuse_pc, kind="stable")
    sorted_reuse_pc = reuse_pc[reuse_order]
    sorted_reuse_d = reuse_distance[reuse_order]
    local_by_pc: Dict[int, List[int]] = {}
    if sorted_reuse_pc.shape[0]:
        cuts = np.nonzero(np.diff(sorted_reuse_pc))[0] + 1
        group_starts = np.concatenate(([0], cuts))
        group_ends = np.concatenate((cuts, [sorted_reuse_pc.shape[0]]))
        for start, end in zip(group_starts.tolist(), group_ends.tolist()):
            local_by_pc[int(sorted_reuse_pc[start])] = (
                sorted_reuse_d[start:end].tolist()
            )

    # -- register-dataflow load depths: sequential by nature ------------
    src1 = columns.src1.tolist()
    src2 = columns.src2.tolist()
    dst = columns.dst.tolist()
    loads = is_load.tolist()
    pcs = columns.pc.tolist()
    load_depth_of_reg: Dict[int, int] = {}
    load_dependence = profile.load_dependence
    depth_sum_by_pc: Dict[int, int] = {}
    for position in range(n):
        depth = 0
        src = src1[position]
        if src >= 0:
            depth = load_depth_of_reg.get(src, 0)
        src = src2[position]
        if src >= 0:
            other = load_depth_of_reg.get(src, 0)
            if other > depth:
                depth = other
        if loads[position]:
            depth += 1
            load_dependence[depth] += 1
            pc = pcs[position]
            depth_sum_by_pc[pc] = depth_sum_by_pc.get(pc, 0) + depth
        reg = dst[position]
        if reg >= 0:
            load_depth_of_reg[reg] = depth

    # -- static loads grouped by PC, in first-occurrence order ----------
    load_pc = columns.pc[load_positions]
    order = np.argsort(load_pc, kind="stable")
    grouped_pc = load_pc[order]
    grouped_pos = load_positions[order]
    grouped_addr = columns.addr[load_positions][order]
    grouped_dst = columns.dst[load_positions][order]
    if grouped_pc.shape[0]:
        cuts = np.nonzero(np.diff(grouped_pc))[0] + 1
        group_starts = np.concatenate(([0], cuts))
        group_ends = np.concatenate((cuts, [grouped_pc.shape[0]]))
        first_seen = np.argsort(grouped_pos[group_starts], kind="stable")
        for group in first_seen.tolist():
            start = int(group_starts[group])
            end = int(group_ends[group])
            pc = int(grouped_pc[start])
            load = StaticLoadProfile(
                pc=pc,
                first_position=int(grouped_pos[start]),
                dst=int(grouped_dst[start]),
            )
            load.positions = grouped_pos[start:end].tolist()
            load.strides = Counter(
                (grouped_addr[start + 1:end]
                 - grouped_addr[start:end - 1]).tolist()
            )
            load.local_reuse = local_by_pc.get(pc, [])
            load.depth_sum = depth_sum_by_pc.get(pc, 0)
            profile.static_loads[pc] = load
    return profile
