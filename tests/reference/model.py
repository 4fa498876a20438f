"""Scalar oracle of the analytical model: one (profile, config) at a time.

The batched kernel (:mod:`repro.core.batch`) is the only evaluation path
in the package; this module keeps the per-configuration walk it must
reproduce *bitwise*, results and :class:`~repro.core.interval.ModelCache`
state alike:

* :func:`predict_interval_scalar` and :func:`_evaluate_window_scalar`
  are the interval model's former ``IntervalModel.predict`` and
  ``_evaluate_window`` (thesis Eq 3.1 per micro-trace), with ``self``
  spelled ``model``;
* :func:`mshr_soft_cap_scalar` and :func:`llc_chain_penalty_scalar` are
  the scalar bodies of the Eq 4.4 and Eqs 4.7--4.12 helpers, which the
  package now evaluates elementwise over a config batch;
* :func:`derive_activity_scalar` is the former ``derive_activity``
  (Eq 3.16) and :func:`predict_scalar` the former
  ``AnalyticalModel.predict`` body (interval model, activity, power).
  Power is priced by the package's one power kernel,
  :func:`~repro.core.power.power_batch`, as a one-config batch; the
  kernel has its own oracle in ``tests/reference/power.py``.

The shared per-group helpers (dispatch limits, branch resolution,
StatStack queries, virtual streams, stride/cold MLP, I-cache penalty)
are called here exactly as the kernel calls them, through the same
memo keys.  Nothing here calls ``model.predict``: that now runs the
kernel, and a differential test against it would compare the kernel
with itself.  :class:`ScalarModel` routes engines and searches through
this walk, so whole sweeps and search trajectories can be pinned too.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.batch import BatchConfigs
from repro.core.branch import branch_resolution_time
from repro.core.dispatch import effective_dispatch_rate
from repro.core.interval import (
    STACK_COMPONENTS,
    IntervalModel,
    ModelCache,
    Prediction,
    WindowPrediction,
)
from repro.core.machine import MachineConfig
from repro.core.memory_model import icache_penalty
from repro.core.mlp import (
    MLPResult,
    build_virtual_stream,
    cold_miss_mlp,
    stride_mlp,
)
from repro.core.model import AnalyticalModel, ModelResult
from repro.core.power import ActivityVector, power_batch
from repro.isa import UopKind
from repro.profiler.profile import ApplicationProfile, MicroTraceProfile


def mshr_soft_cap_scalar(
    mlp: float,
    config: MachineConfig,
) -> float:
    """Apply the MSHR soft cap (Eq 4.4) to a raw MLP estimate.

    With ``M`` MSHR entries, ``min(mlp, M)`` misses proceed in parallel;
    the remainder wait an average ``T_MSHRfree`` before overlapping for
    the rest of the DRAM access:

        MLP = DRAM_MSHR + DRAM_wait * (T_DRAM - T_MSHRfree) / T_DRAM

    ``T_MSHRfree`` is the average queueing delay before a slot frees:
    the k-th waiting request waits ~k * T/M (entries retire at rate M/T),
    so the average over W waiters is (W+1)/2 * T/M, clamped at T -- deep
    overflow degenerates to the hard cap M, light overflow overlaps
    most of the access (the thesis' soft-cap behaviour).
    """
    entries = max(1, config.mshr_entries)
    if mlp <= entries:
        return mlp
    t_dram = float(config.dram_latency)
    in_flight = float(entries)
    waiting = mlp - in_flight
    t_free = min(t_dram, (waiting + 1.0) / 2.0 * t_dram / in_flight)
    return in_flight + waiting * (t_dram - t_free) / t_dram


def llc_chain_penalty_scalar(
    llc_hits_per_rob: float,
    independent_load_fraction: float,
    loads_per_rob: float,
    deff: float,
    num_uops: float,
    config: MachineConfig,
) -> float:
    """Total chained-LLC-hit penalty over ``num_uops`` uops (Eqs 4.7-4.12).

    ``llc_hits_per_rob``: expected loads per ROB window that miss L2 but
    hit the LLC.  ``independent_load_fraction`` is f(1) from the
    inter-load dependence distribution, so the number of load dependence
    paths per ROB is ``f(1) * loads_per_rob``.
    """
    if llc_hits_per_rob <= 0.0 or loads_per_rob <= 0.0:
        return 0.0
    paths = max(independent_load_fraction * loads_per_rob, 1.0)
    loads_per_path = loads_per_rob / paths

    chain_avg = llc_hits_per_rob / paths
    chain_max = min(llc_hits_per_rob, loads_per_path)
    chain_expected = chain_avg + max(chain_max - chain_avg, 0.0) / paths

    serialized = config.llc.latency * chain_expected
    rob_fill = config.rob_size / max(deff, 1e-6)
    per_window = max(0.0, serialized - rob_fill)
    windows = num_uops / config.rob_size
    return per_window * windows


def _evaluate_window_scalar(
    model: IntervalModel,
    profile: ApplicationProfile,
    micro: MicroTraceProfile,
    config: MachineConfig,
    miss_rate_bpred: float,
) -> WindowPrediction:
    mix = micro.mix
    n_uops = float(mix.num_uops)
    n_instr = float(mix.num_instructions)
    statstack = profile.statstack()
    tok = model.cache.token(profile) if model.cache is not None else 0

    limits = model._memo(
        ("limits", tok, micro.start, config.dispatch_width,
         config.rob_size, config.ports, config.uop_latencies),
        lambda: effective_dispatch_rate(mix, micro.chains, config),
    )
    deff = limits.effective()
    base = n_uops / deff

    # --- Branch component -----------------------------------------
    branches = float(mix.counts.get(UopKind.BRANCH, 0))
    mispredictions = miss_rate_bpred * branches
    branch_cycles = 0.0
    if mispredictions > 0.0:
        interval_uops = n_uops / mispredictions
        average_latency = mix.average_latency(config.latencies())
        resolution = model._memo(
            ("branch", tok, micro.start, average_latency,
             interval_uops, config.dispatch_width, config.rob_size),
            lambda: branch_resolution_time(
                micro.chains, average_latency, interval_uops, config
            ),
        )
        branch_cycles = mispredictions * (
            resolution + config.frontend_refill
        )

    # --- Instruction cache ------------------------------------------
    i_sizes = (config.l1i.size_bytes, config.l2.size_bytes,
               config.llc.size_bytes)
    i_ratios = model._memo(
        ("iratios", tok) + i_sizes,
        lambda: profile.instruction_statstack().hierarchy_miss_ratios(
            list(i_sizes), kind="load"
        ),
    )
    icache_cycles = icache_penalty(n_instr, i_ratios, config)

    # --- Data cache misses -------------------------------------------
    loads = float(mix.counts.get(UopKind.LOAD, 0))
    stores = float(mix.counts.get(UopKind.STORE, 0))

    def _load_ratio(size: int) -> float:
        return model._memo(
            ("dratio", tok, micro.start, "load", size),
            lambda: statstack.miss_ratio_of(
                micro.load_reuse, micro.cold_loads, size
            ),
        )

    ratio_l2 = _load_ratio(config.l2.size_bytes)
    ratio_llc = _load_ratio(config.llc.size_bytes)
    store_ratio_llc = model._memo(
        ("dratio", tok, micro.start, "store", config.llc.size_bytes),
        lambda: statstack.miss_ratio_of(
            micro.store_reuse, micro.cold_stores, config.llc.size_bytes
        ),
    )
    m_l2 = ratio_l2 * loads
    m_llc = ratio_llc * loads
    m_llc_store = store_ratio_llc * stores
    llc_hits = max(0.0, m_l2 - m_llc)

    # --- MLP ----------------------------------------------------------
    f_l = model._memo(
        ("fl", tok, micro.start),
        lambda: micro.memory.load_dependence_distribution(),
    )
    if model.mlp_model == "stride":
        # With the prefetcher off, the virtual stream and its MLP
        # depend only on the listed fields, so both memoize across
        # configurations; prefetching adds deff/table/page/timing
        # dependencies, so that path always recomputes.
        def _build_stream():
            return build_virtual_stream(
                micro.memory, statstack, config, deff=deff,
                load_reuse_by_pc=micro.load_reuse_by_pc,
                cold_by_pc=micro.cold_by_pc,
            )

        if config.prefetch:
            stream = _build_stream()
            result = stride_mlp(stream, f_l, config, deff=deff)
        else:
            stream = model._memo(
                ("stream", tok, micro.start, config.llc.size_bytes),
                _build_stream,
            )
            result = model._memo(
                ("smlp", tok, micro.start, config.llc.size_bytes,
                 config.rob_size, config.mshr_entries,
                 config.llc.latency, config.dram_latency, deff),
                lambda: stride_mlp(stream, f_l, config, deff=deff),
            )
        if config.prefetch:
            # The virtual stream carries the prefetch-adjusted miss
            # weights; rescale StatStack's count by that reduction.
            raw = sum(1.0 for vl in stream.loads if vl.miss_weight > 0.0)
            reduction = (
                stream.total_miss_weight / raw if raw > 0.0 else 1.0
            )
            m_llc *= min(1.0, reduction)
    elif model.mlp_model == "cold":
        cold_fraction = 0.0
        if m_llc > 0.0:
            cold_fraction = min(1.0, micro.cold_loads / m_llc)
        result = cold_miss_mlp(
            profile.cold,
            f_l,
            ratio_llc,
            cold_fraction,
            mix.load_fraction,
            config,
        )
    else:  # "none": serialize all misses
        result = MLPResult(mlp=1.0, llc_misses=m_llc)

    mlp = result.mlp
    if model.enable_mshr:
        mlp = mshr_soft_cap_scalar(mlp, config)
    mlp = max(mlp, 1.0)

    # --- DRAM component -----------------------------------------------
    # The full main-memory round trip: LLC tag check that discovered
    # the miss, the line's own bus transfer, DRAM access.
    memory_latency = float(config.llc.latency + config.dram_latency)
    if model.enable_bus:
        memory_latency += config.bus_transfer_cycles
    dram_cycles = m_llc * memory_latency / mlp
    if model.enable_bus:
        # Bus congestion enters as a bandwidth floor (the §4.7
        # saturated-bus regime): no amount of MLP makes the memory
        # component smaller than the total bus occupancy of all
        # transfers (loads and stores) minus what hides under the
        # base component.  This replaces the per-miss queue of
        # Eq 4.5, which double-counts congestion once the floor
        # binds (validated against the reference simulator's
        # in-order bus).
        occupancy = (
            (m_llc + m_llc_store) * config.bus_transfer_cycles
            / max(1, config.memory_channels)
        )
        dram_cycles = max(dram_cycles, occupancy - base)

    # --- Chained LLC hits ----------------------------------------------
    chain_cycles = 0.0
    if model.enable_llc_chaining and n_uops > 0:
        load_fraction = mix.load_fraction
        loads_per_rob = load_fraction * config.rob_size
        hits_per_rob = (
            (llc_hits / loads) * loads_per_rob if loads > 0 else 0.0
        )
        f1 = micro.memory.independent_load_fraction() or 1.0
        chain_cycles = llc_chain_penalty_scalar(
            hits_per_rob, f1, loads_per_rob, deff, n_uops, config
        )

    stack = {
        "base": base,
        "branch": branch_cycles,
        "icache": icache_cycles,
        "llc_chain": chain_cycles,
        "dram": dram_cycles,
    }
    cycles = sum(stack.values())
    return WindowPrediction(
        start=micro.start,
        instructions=n_instr,
        cycles=cycles,
        stack=stack,
        deff=deff,
        mlp=mlp,
        limiter=limits.limiter(),
        llc_misses=m_llc,
    )


def predict_interval_scalar(
    model: IntervalModel,
    profile: ApplicationProfile,
    config: MachineConfig,
) -> Prediction:
    """Evaluate the interval model over all micro-traces."""
    miss_rate = model.entropy_model.predict_from_profile(
        profile.branch_entropy
    )

    total_cycles = 0.0
    total_instr = 0.0
    total_uops = 0.0
    total_misses = 0.0
    total_mispredictions = 0.0
    mlp_weighted = 0.0
    mlp_weight = 0.0
    stack = {key: 0.0 for key in STACK_COMPONENTS}
    windows: List[WindowPrediction] = []

    for micro in profile.micro_traces:
        weight = model._window_weight(profile, micro)
        if weight == 0.0:
            continue
        window = _evaluate_window_scalar(
            model, profile, micro, config, miss_rate
        )
        windows.append(window)
        total_cycles += window.cycles * weight
        total_instr += window.instructions * weight
        total_uops += micro.mix.num_uops * weight
        for key in stack:
            stack[key] += window.stack[key] * weight
        total_misses += window.llc_misses * weight
        dram = window.stack["dram"]
        if dram > 0.0:
            mlp_weighted += window.mlp * dram
            mlp_weight += dram
        total_mispredictions += (
            miss_rate * micro.mix.counts.get(UopKind.BRANCH, 0) * weight
        )

    mlp = mlp_weighted / mlp_weight if mlp_weight else 1.0
    return Prediction(
        config_name=config.name,
        workload=profile.name,
        cycles=total_cycles,
        instructions=total_instr,
        uops=total_uops,
        stack=stack,
        windows=windows,
        mlp=mlp,
        llc_load_misses=total_misses,
        branch_mispredictions=total_mispredictions,
        frequency_ghz=config.frequency_ghz,
    )


def derive_activity_scalar(
    profile: ApplicationProfile,
    prediction: Prediction,
    config: MachineConfig,
    cache: Optional[ModelCache] = None,
) -> ActivityVector:
    """Predicted activity factors from the profile + prediction (Eq 3.16).

    Cache access counts cascade through the StatStack miss ratios; the
    instruction stream contributes L1I lookups and its own L2/LLC traffic.
    """
    statstack = profile.statstack()
    instruction_statstack = profile.instruction_statstack()
    mix = profile.mix
    scale = (
        prediction.instructions / mix.num_instructions
        if mix.num_instructions else 0.0
    )

    loads = mix.counts.get(UopKind.LOAD, 0) * scale
    stores = mix.counts.get(UopKind.STORE, 0) * scale
    branches = mix.counts.get(UopKind.BRANCH, 0) * scale
    instructions = prediction.instructions

    def _ratios(model, stream, kind, sizes):
        if cache is None:
            return model.hierarchy_miss_ratios(list(sizes), kind=kind)
        return cache.get(
            ("activity", cache.token(profile), stream, kind)
            + tuple(sizes),
            lambda: model.hierarchy_miss_ratios(list(sizes), kind=kind),
        )

    sizes = (config.l1d.size_bytes, config.l2.size_bytes,
             config.llc.size_bytes)
    load_ratios = _ratios(statstack, "data", "load", sizes)
    store_ratios = _ratios(statstack, "data", "store", sizes)
    i_sizes = (config.l1i.size_bytes, config.l2.size_bytes,
               config.llc.size_bytes)
    i_ratios = _ratios(instruction_statstack, "instr", "load", i_sizes)

    l1_data = loads + stores
    l2_data = loads * load_ratios[0] + stores * store_ratios[0]
    llc_data = loads * load_ratios[1] + stores * store_ratios[1]
    dram_data = loads * load_ratios[2] + stores * store_ratios[2]
    l1_instr = instructions
    l2_instr = instructions * i_ratios[0]
    llc_instr = instructions * i_ratios[1]
    dram_instr = instructions * i_ratios[2]

    return ActivityVector(
        cycles=prediction.cycles,
        uops=prediction.uops,
        uop_kind_counts={
            kind: count * scale for kind, count in mix.counts.items()
        },
        l1_accesses=l1_data + l1_instr,
        l2_accesses=l2_data + l2_instr,
        llc_accesses=llc_data + llc_instr,
        dram_accesses=dram_data + dram_instr,
        branch_lookups=branches,
    )


def predict_scalar(
    model: AnalyticalModel,
    profile: ApplicationProfile,
    config: MachineConfig,
) -> ModelResult:
    """Full performance + power prediction for one pair."""
    prediction = predict_interval_scalar(model.interval, profile, config)
    activity = derive_activity_scalar(
        profile, prediction, config, cache=model.interval.cache
    )
    (breakdown,), (energy,), (edp,), (ed2p,) = power_batch(
        [config], [activity]
    )
    return ModelResult(
        performance=prediction,
        power=breakdown,
        activity=activity,
        energy_joules=energy,
        edp=edp,
        ed2p=ed2p,
    )


def predict_batch_scalar(
    model: AnalyticalModel,
    profile: ApplicationProfile,
    configs: Sequence[MachineConfig],
) -> List[ModelResult]:
    """:func:`predict_scalar` per configuration, in input order."""
    if isinstance(configs, BatchConfigs):
        configs = configs.configs
    return [predict_scalar(model, profile, config) for config in configs]


class ScalarModel(AnalyticalModel):
    """An :class:`AnalyticalModel` that evaluates through the oracle."""

    def predict(self, profile, config):
        """Evaluate one configuration with :func:`predict_scalar`."""
        return predict_scalar(self, profile, config)

    def predict_batch(self, profile, configs):
        """Evaluate ``configs`` with :func:`predict_batch_scalar`."""
        return predict_batch_scalar(self, profile, configs)
