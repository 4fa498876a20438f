"""Memory-side penalty models: MSHR cap, bus queuing, LLC hit chaining.

* :func:`mshr_soft_cap` -- thesis Eq 4.4: misses beyond the MSHR file
  overlap only partially with outstanding ones ('soft' cap on MLP).
* :func:`bus_queue_cycles` -- thesis Eqs 4.5--4.6: concurrent misses
  serialize on the memory bus; store misses are folded into the
  concurrency factor because they consume bandwidth even though they do
  not stall the core.
* :func:`llc_chain_penalty` -- thesis Eqs 4.7--4.12: chains of dependent
  LLC *hits* whose serialized latency exceeds the ROB fill time show up
  as a visible penalty.

The MSHR cap and the chain penalty are evaluated elementwise over a
config batch by the model kernel (:mod:`repro.core.batch`); their
per-configuration scalar forms are the oracle in
``tests/reference/model.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.machine import MachineConfig


def mshr_soft_cap(
    mlp: np.ndarray,
    mshr_entries: np.ndarray,
    dram_latency: np.ndarray,
) -> np.ndarray:
    """Apply the MSHR soft cap (Eq 4.4) to raw MLP estimates, elementwise.

    With ``M`` MSHR entries, ``min(mlp, M)`` misses proceed in parallel;
    the remainder wait an average ``T_MSHRfree`` before overlapping for
    the rest of the DRAM access:

        MLP = DRAM_MSHR + DRAM_wait * (T_DRAM - T_MSHRfree) / T_DRAM

    ``T_MSHRfree`` is the average queueing delay before a slot frees:
    the k-th waiting request waits ~k * T/M (entries retire at rate M/T),
    so the average over W waiters is (W+1)/2 * T/M, clamped at T -- deep
    overflow degenerates to the hard cap M, light overflow overlaps
    most of the access (the thesis' soft-cap behaviour).

    Every argument is a float64/int64 array (or a scalar) over one
    config batch; MLP at or below the MSHR count passes through.
    """
    in_flight = np.maximum(1, mshr_entries).astype(np.float64)
    t_dram = np.asarray(dram_latency, dtype=np.float64)
    waiting = mlp - in_flight
    t_free = np.minimum(t_dram, (waiting + 1.0) / 2.0 * t_dram / in_flight)
    capped = in_flight + waiting * (t_dram - t_free) / t_dram
    return np.where(mlp <= in_flight, mlp, capped)


def bus_queue_cycles(
    mlp: float,
    llc_load_misses: float,
    llc_store_misses: float,
    config: MachineConfig,
) -> float:
    """Average per-miss bus queuing latency (Eqs 4.5--4.6).

    The i-th of MLP' concurrent misses waits i bus-transfer slots, so the
    mean bus latency is ``(MLP' + 1)/2 * c_transfer``.  MLP' rescales the
    load-only MLP by total (load+store) traffic; multiple channels divide
    the effective concurrency.
    """
    transfer = float(config.bus_transfer_cycles)
    if llc_load_misses <= 0.0:
        return transfer
    scaled = mlp * (llc_load_misses + llc_store_misses) / llc_load_misses
    scaled /= max(1, config.memory_channels)
    scaled = max(scaled, 1.0)
    return (scaled + 1.0) / 2.0 * transfer


def llc_chain_penalty(
    llc_hits_per_rob: np.ndarray,
    independent_load_fraction: float,
    loads_per_rob: np.ndarray,
    deff: np.ndarray,
    num_uops: float,
    rob_size: np.ndarray,
    llc_latency: np.ndarray,
) -> np.ndarray:
    """Total chained-LLC-hit penalty over ``num_uops`` uops (Eqs 4.7-4.12).

    ``llc_hits_per_rob``: expected loads per ROB window that miss L2 but
    hit the LLC.  ``independent_load_fraction`` is f(1) from the
    inter-load dependence distribution, so the number of load dependence
    paths per ROB is ``f(1) * loads_per_rob``.

    Elementwise over one config batch (arrays or scalars); windows with
    no LLC hits or no loads carry no penalty.
    """
    paths = np.maximum(independent_load_fraction * loads_per_rob, 1.0)
    loads_per_path = loads_per_rob / paths

    chain_avg = llc_hits_per_rob / paths
    chain_max = np.minimum(llc_hits_per_rob, loads_per_path)
    chain_expected = (
        chain_avg + np.maximum(chain_max - chain_avg, 0.0) / paths
    )

    serialized = llc_latency * chain_expected
    rob_fill = rob_size / np.maximum(deff, 1e-6)
    per_window = np.maximum(0.0, serialized - rob_fill)
    windows = num_uops / rob_size
    return np.where(
        (llc_hits_per_rob <= 0.0) | (loads_per_rob <= 0.0),
        0.0,
        per_window * windows,
    )


def icache_penalty(
    instruction_count: float,
    level_miss_ratios: Sequence[float],
    config: MachineConfig,
) -> float:
    """Instruction-cache penalty: sum_i m_ILi * c_{Li+1} (Eq 3.1 term 3).

    ``level_miss_ratios`` are per-level I-stream miss ratios (L1I, L2,
    LLC); each level's misses pay the next level's access latency.
    """
    next_latency = [
        config.l2.latency, config.llc.latency, config.dram_latency
    ]
    penalty = 0.0
    for ratio, latency in zip(level_miss_ratios, next_latency):
        penalty += instruction_count * ratio * latency
    return penalty
