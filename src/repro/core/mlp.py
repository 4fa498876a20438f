"""Memory-level parallelism models (thesis §4.3--4.5, CAL'18).

Two alternative estimators for the MLP divisor of the interval equation:

* :func:`cold_miss_mlp` -- the ISPASS'15 model (Eqs 4.1--4.3): burstiness
  is carried by the cold-miss window distribution; conflict/capacity
  misses are assumed uniformly spread.
* :func:`stride_mlp` -- the CAL'18 model: a *virtual instruction stream*
  is rebuilt from per-static-load spacing and stride distributions, each
  occurrence is marked hit/miss through the (global) StatStack transform
  applied to its load's local reuse distances, and an abstract model
  hovers ROB-sized windows over the stream counting independent misses.
  The stride prefetcher's effect (Eq 4.13) is applied as fractional miss
  weights on prefetchable occurrences.

Both return an :class:`MLPResult` whose ``mlp`` is >= 1 by construction
(MLP is defined as outstanding misses given at least one).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.machine import MachineConfig
from repro.profiler.memory import (
    ColdMissProfile,
    MicroTraceMemoryProfile,
    StaticLoadProfile,
    classify_strides,
)
from repro.statstack.model import StatStack


@dataclass
class MLPResult:
    """MLP estimate plus the window-level data downstream models need."""

    mlp: float
    llc_misses: float          # (possibly fractional) misses in the span
    window_misses: List[float] = field(default_factory=list)

    def clamped(self, lower: float = 1.0) -> "MLPResult":
        return MLPResult(
            mlp=max(self.mlp, lower),
            llc_misses=self.llc_misses,
            window_misses=self.window_misses,
        )


def _independence_factor(
    load_dependence: Mapping[int, float], miss_rate: float
) -> float:
    """sum_l f(l) * (1 - M)^(l-1): probability a miss is independent.

    A load that is the l-th load on its dependence chain issues in
    parallel with an earlier miss only if none of its l-1 predecessors
    missed (thesis Eq 4.1 reasoning).
    """
    if not load_dependence:
        return 1.0
    survival = max(0.0, min(1.0, 1.0 - miss_rate))
    return sum(
        fraction * (survival ** max(depth - 1, 0))
        for depth, fraction in load_dependence.items()
    )


def cold_miss_mlp(
    cold: ColdMissProfile,
    load_dependence: Mapping[int, float],
    llc_load_miss_rate: float,
    cold_fraction: float,
    load_fraction: float,
    config: MachineConfig,
    line_size: int = 64,
) -> MLPResult:
    """The cold-miss MLP model (thesis Eqs 4.1--4.3).

    ``cold_fraction`` is the fraction of LLC load misses that are cold;
    ``load_fraction`` the fraction of uops that are loads.
    """
    rob = config.rob_size
    m_cold_window = cold.cold_misses_per_occupied_window(rob, line_size)
    loads_per_rob = load_fraction * rob
    m_cf_per_rob = max(0.0, llc_load_miss_rate * (1.0 - cold_fraction)) * (
        loads_per_rob
    )

    independence = _independence_factor(load_dependence, llc_load_miss_rate)
    mlp_cold = m_cold_window * independence
    mlp_cf = m_cf_per_rob * independence

    cold_weight = min(max(cold_fraction, 0.0), 1.0)
    mlp = cold_weight * mlp_cold + (1.0 - cold_weight) * mlp_cf
    return MLPResult(mlp=mlp, llc_misses=0.0).clamped()


# ----------------------------------------------------------------------
# Stride MLP model
# ----------------------------------------------------------------------


@dataclass
class VirtualLoad:
    """One load occurrence in the reconstructed virtual stream."""

    position: int
    pc: int
    miss_weight: float  # 0 = hit; 1 = full DRAM miss; (0,1) = partly hidden
    independence: float = 1.0  # P(no predecessor load on its chain misses)


@dataclass
class VirtualStream:
    """The reconstructed instruction stream skeleton (loads only)."""

    loads: List[VirtualLoad]
    length: int

    @property
    def total_miss_weight(self) -> float:
        return sum(load.miss_weight for load in self.loads)


def _per_load_miss_probability(
    load: StaticLoadProfile,
    statstack: StatStack,
    cache_bytes: int,
) -> float:
    """Miss probability of one static load at one cache size.

    Local (in-micro-trace) reuse distances go through the global StatStack
    transform; occurrences with no local reuse fall back to the global
    load miss ratio (their reuse, if any, is beyond the micro-trace).
    """
    local_hist: Dict[int, int] = {}
    for distance in load.local_reuse:
        local_hist[distance] = local_hist.get(distance, 0) + 1
    n_local = len(load.local_reuse)
    n_total = load.occurrences
    n_far = n_total - n_local
    global_ratio = statstack.miss_ratio(cache_bytes, kind="load")
    if n_total == 0:
        return global_ratio
    p_local = (
        statstack.miss_ratio_of(local_hist, 0, cache_bytes)
        if n_local else 0.0
    )
    return (n_local * p_local + n_far * global_ratio) / n_total


def _new_line_flags(
    load: StaticLoadProfile, line_size: int
) -> List[bool]:
    """Which occurrences touch a different line than their predecessor.

    Reconstructed from the stride distribution: dominant strides replayed
    cyclically from address 0 (only line *changes* matter, not absolute
    addresses).  Random/unique loads change lines on every occurrence.
    """
    category, strides = classify_strides(load)
    n = load.occurrences
    if category in ("RANDOM", "UNIQUE") or not strides:
        return [True] * n
    flags = [True]  # first occurrence always starts a line
    addr = 0
    for k in range(1, n):
        stride = strides[(k - 1) % len(strides)]
        new_addr = addr + stride
        flags.append(new_addr // line_size != addr // line_size)
        addr = new_addr
    return flags


def build_virtual_stream(
    memory: MicroTraceMemoryProfile,
    statstack: StatStack,
    config: MachineConfig,
    line_size: int = 64,
    deff: float = 4.0,
    load_reuse_by_pc: Optional[Dict[int, Dict[int, int]]] = None,
    cold_by_pc: Optional[Dict[int, int]] = None,
) -> VirtualStream:
    """Rebuild the virtual load stream and mark (weighted) LLC misses.

    Misses are assigned per static load by deterministic thinning: the
    load's miss probability accumulates over its new-line occurrences and
    emits a miss every time the accumulator crosses 1 -- preserving both
    the expected miss count and the recurrence structure (burstiness).

    When ``config.prefetch`` is set, prefetchable occurrences (strided,
    stride within a DRAM page, trainer still in the prefetch table) have
    their miss weight reduced per the timeliness rule of Eq 4.13.
    """
    llc_bytes = config.llc.size_bytes
    loads: List[VirtualLoad] = []

    # Emulated prefetcher training table (LRU over static loads).
    table: "OrderedDict[int, int]" = OrderedDict()  # pc -> last position

    per_load_flags: Dict[int, List[bool]] = {}
    per_load_prob: Dict[int, float] = {}
    per_load_category: Dict[int, Tuple[str, List[int]]] = {}
    for pc, load in memory.static_loads.items():
        per_load_flags[pc] = _new_line_flags(load, line_size)
        attributed = (
            load_reuse_by_pc.get(pc) if load_reuse_by_pc is not None
            else None
        )
        if attributed is not None or (cold_by_pc and pc in cold_by_pc):
            # Exact per-load attributed reuse (full-stream distances).
            hist = attributed or {}
            cold = cold_by_pc.get(pc, 0) if cold_by_pc else 0
            seen = sum(hist.values()) + cold
            probability = statstack.miss_ratio_of(hist, cold, llc_bytes)
            # Occurrences the attribution pass didn't see keep the
            # local/global estimate.
            if seen < load.occurrences:
                fallback = _per_load_miss_probability(
                    load, statstack, llc_bytes
                )
                probability = (
                    seen * probability
                    + (load.occurrences - seen) * fallback
                ) / load.occurrences
            per_load_prob[pc] = probability
        else:
            per_load_prob[pc] = _per_load_miss_probability(
                load, statstack, llc_bytes
            )
        per_load_category[pc] = classify_strides(load)

    occurrence_index: Dict[int, int] = {pc: 0 for pc in memory.static_loads}
    accumulator: Dict[int, float] = {pc: 0.5 for pc in memory.static_loads}
    previous_position: Dict[int, int] = {}

    # Replay loads in stream order.
    ordered: List[Tuple[int, int]] = []  # (position, pc)
    for pc, load in memory.static_loads.items():
        for position in load.positions:
            ordered.append((position, pc))
    ordered.sort()

    for position, pc in ordered:
        k = occurrence_index[pc]
        occurrence_index[pc] = k + 1
        flags = per_load_flags[pc]
        new_line = flags[k] if k < len(flags) else True
        load = memory.static_loads[pc]

        miss_weight = 0.0
        if new_line:
            n = load.occurrences
            n_new = max(1, sum(flags))
            probability = per_load_prob[pc] * n / n_new
            accumulator[pc] += min(probability, 1.0)
            if accumulator[pc] >= 1.0:
                accumulator[pc] -= 1.0
                miss_weight = 1.0

        # Prefetcher (Eq 4.13): only strided loads within a page train it.
        if miss_weight > 0.0 and config.prefetch:
            category, strides = per_load_category[pc]
            strided = category.startswith("STRIDE") or category.startswith(
                "FILTER"
            )
            in_page = strides and all(
                abs(s) < config.dram_page_bytes for s in strides
            )
            trainer = table.get(pc)
            if strided and in_page and trainer is not None:
                gap = position - trainer
                if gap >= config.rob_size:
                    miss_weight = 0.0  # timely prefetch
                else:
                    hidden = gap / max(deff, 1e-6)
                    miss_weight = max(
                        0.0,
                        (config.dram_latency - hidden) / config.dram_latency,
                    )
        # Train the table on every occurrence of the load.
        if pc in table:
            table.move_to_end(pc)
        elif config.prefetch:
            if len(table) >= config.prefetch_table:
                table.popitem(last=False)
        table[pc] = position
        if not config.prefetch:
            # Keep table bounded even when unused (cheap no-op semantics).
            if len(table) > 4096:
                table.popitem(last=False)

        # Independence: a miss overlaps earlier misses only if the l-1
        # predecessor loads on its chain all hit; chains mostly reuse the
        # same static load (pointer chases), so its own probability is
        # the chain-miss proxy.
        depth = load.mean_depth
        chain_p = min(1.0, per_load_prob[pc])
        independence = (1.0 - chain_p) ** max(depth - 1.0, 0.0)

        loads.append(VirtualLoad(position=position, pc=pc,
                                 miss_weight=miss_weight,
                                 independence=independence))

    return VirtualStream(loads=loads, length=memory.length)


def stride_mlp(
    stream: VirtualStream,
    load_dependence: Mapping[int, float],
    config: MachineConfig,
    deff: float = 4.0,
) -> MLPResult:
    """Hover ROB-sized windows over the virtual stream (thesis §4.5).

    MLP of a window is its (weighted) miss count scaled per static load by
    the chain-independence factor; the micro-trace MLP is the mean over
    windows containing at least one miss.

    A second *pipelined-MLP* term captures overlap across consecutive
    windows: independent misses spaced s cycles apart with latency c keep
    c/s requests outstanding even when each ROB window holds only one (the
    ROB slides, it does not step).  The window MLP is the larger of the
    in-window parallelism and this train overlap, which only independent
    misses enjoy.
    """
    rob = config.rob_size
    memory_latency = float(config.llc.latency + config.dram_latency)
    window_misses: List[float] = []
    window_independent: List[float] = []
    if stream.length == 0:
        return MLPResult(mlp=1.0, llc_misses=0.0)

    # Global train-overlap bound: independent misses at density d per uop
    # overlap when the next one enters the (sliding) ROB before the
    # current one returns.  Outstanding count = min(latency /
    # spacing_cycles, ROB / spacing_uops, MSHRs), with the spacing taken
    # from the micro-trace-global independent-miss density (per-window
    # density is quantization-biased at small ROB sizes).
    total_raw = sum(
        load.miss_weight * load.independence for load in stream.loads
    )
    density = total_raw / stream.length  # independent misses per uop
    pipeline_global = 0.0
    if density > 0.0:
        pipeline_global = min(
            memory_latency * density * max(deff, 1e-6),
            rob * density,
            float(max(config.mshr_entries, 1)),
        )

    # One pass buckets the missing loads by ROB window, keeping stream
    # order within a window; windows without a miss contribute nothing.
    num_windows = -(-stream.length // rob)
    windows: Dict[int, List[VirtualLoad]] = {}
    for load in stream.loads:
        if load.miss_weight > 0.0:
            index = load.position // rob
            if 0 <= index < num_windows:
                windows.setdefault(index, []).append(load)

    for index in sorted(windows):
        weight = 0.0
        # Group the window's misses by static load: a serialized chain
        # (pointer chase) keeps one miss outstanding no matter how many of
        # its occurrences fall in the window, while independent loads
        # (depth ~1) each contribute fully.  Parallel chains therefore
        # add up -- two chases overlap with each other even though each is
        # internally serial.
        per_pc_weight: Dict[int, float] = {}
        per_pc_independence: Dict[int, float] = {}
        for load in windows[index]:
            weight += load.miss_weight
            per_pc_weight[load.pc] = (
                per_pc_weight.get(load.pc, 0.0) + load.miss_weight
            )
            per_pc_independence[load.pc] = load.independence
        independent = 0.0
        for pc, m_pc in per_pc_weight.items():
            head = min(m_pc, 1.0)
            tail = max(m_pc - 1.0, 0.0)
            independent += head + tail * per_pc_independence[pc]
        independent = max(independent, 1.0)
        window_misses.append(weight)
        window_independent.append(max(independent, pipeline_global, 1.0))

    if not window_misses:
        return MLPResult(mlp=1.0, llc_misses=stream.total_miss_weight)

    mlp = sum(window_independent) / len(window_independent)
    return MLPResult(
        mlp=mlp,
        llc_misses=stream.total_miss_weight,
        window_misses=window_misses,
    ).clamped()
