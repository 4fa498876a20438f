"""Scalar oracle of :func:`repro.core.mlp.stride_mlp`.

The window scan kept verbatim: every ROB-sized window rescans every load
of the virtual stream, so a call costs O(windows x loads).  The
production helper buckets the loads by window once and must return
bitwise the same :class:`~repro.core.mlp.MLPResult`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.machine import MachineConfig
from repro.core.mlp import MLPResult, VirtualStream


def stride_mlp_scalar(
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

    for start in range(0, stream.length, rob):
        end = start + rob
        weight = 0.0
        # Group the window's misses by static load: a serialized chain
        # (pointer chase) keeps one miss outstanding no matter how many of
        # its occurrences fall in the window, while independent loads
        # (depth ~1) each contribute fully.  Parallel chains therefore
        # add up -- two chases overlap with each other even though each is
        # internally serial.
        per_pc_weight: Dict[int, float] = {}
        per_pc_independence: Dict[int, float] = {}
        for load in stream.loads:
            if start <= load.position < end and load.miss_weight > 0.0:
                weight += load.miss_weight
                per_pc_weight[load.pc] = (
                    per_pc_weight.get(load.pc, 0.0) + load.miss_weight
                )
                per_pc_independence[load.pc] = load.independence
        if weight > 0.0:
            independent = 0.0
            raw_independent = 0.0  # chain-free miss mass only
            for pc, m_pc in per_pc_weight.items():
                head = min(m_pc, 1.0)
                tail = max(m_pc - 1.0, 0.0)
                chain_independence = per_pc_independence[pc]
                independent += head + tail * chain_independence
                raw_independent += m_pc * chain_independence
            independent = max(independent, 1.0)
            window_misses.append(weight)
            window_independent.append(
                max(independent, pipeline_global, 1.0)
            )

    if not window_misses:
        return MLPResult(mlp=1.0, llc_misses=stream.total_miss_weight)

    mlp = sum(window_independent) / len(window_independent)
    return MLPResult(
        mlp=mlp,
        llc_misses=stream.total_miss_weight,
        window_misses=window_misses,
    ).clamped()
