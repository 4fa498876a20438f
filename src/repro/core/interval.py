"""The micro-architecture independent interval model (thesis Eq 3.1).

Total cycles for one application on one machine configuration:

    C = N/Deff + m_bpred*(c_res + c_fe) + sum_i m_ILi*c_{Li+1}
        + m_LLC*(c_mem + c_bus)/MLP + P_hLLC

evaluated *per micro-trace* and combined (the TC'16 per-sample evaluation,
thesis §6.2.2: contention and MLP burstiness are visible only at small
time scales), with every input derived from the micro-architecture
independent profile:

* Deff from the uop mix + dependence chains (Eq 3.10);
* m_bpred from linear branch entropy via a per-predictor linear model;
* cache misses from StatStack miss ratios;
* MLP from the cold-miss or stride model, MSHR-capped;
* bus queuing and LLC hit chaining from Eqs 4.5--4.12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.branch import branch_resolution_time
from repro.core.dispatch import DispatchLimits, effective_dispatch_rate
from repro.core.machine import MachineConfig
from repro.core.memory_model import (
    icache_penalty,
    llc_chain_penalty,
    mshr_soft_cap,
)
from repro.core.mlp import (
    MLPResult,
    build_virtual_stream,
    cold_miss_mlp,
    stride_mlp,
)
from repro.frontend.entropy import EntropyMissRateModel
from repro.isa import UopKind
from repro.profiler.profile import ApplicationProfile, MicroTraceProfile

#: CPI stack component keys, in display order.
STACK_COMPONENTS: Tuple[str, ...] = (
    "base", "branch", "icache", "llc_chain", "dram"
)


class ModelCache:
    """Cross-configuration memo of micro-architecture independent work.

    Most of the interval model's per-(profile, config) cost is spent in
    computations whose inputs are a micro-trace plus a *small subset* of
    configuration fields: the branch resolution leaky bucket, the virtual
    load stream, the dispatch limits, and StatStack miss-ratio queries.
    Across a design-space grid those subsets collide constantly (a 243-
    config space has only 3 distinct LLC sizes), so memoizing on the
    exact dependency set collapses thousands of evaluations into a few
    dozen.

    Every key used by :class:`IntervalModel` enumerates *all* the inputs
    the computation reads, so a cache hit returns a value bitwise
    identical to recomputing it -- the cache changes wall-clock time,
    never results.  Profile-scoped keys use the profile's identity; the
    cache pins a reference to each profile it has seen so ``id`` reuse
    after garbage collection cannot alias keys.

    A cache is typically owned by one sweep (the sweep engine attaches a
    fresh one per run / per worker process); share one across sweeps only
    while the profile objects stay alive.  For the same reason a cache
    pickles *empty*: its keys hold profile identities that mean nothing
    in another process, so a model shipped to a worker arrives with a
    fresh cache of its own.

    Accounting: :attr:`hits` / :attr:`misses` count every :meth:`get`
    unconditionally (two plain integer adds -- results and wall-time
    are unaffected), and :meth:`flush_metrics` publishes the deltas
    accumulated since the previous flush into a
    :class:`~repro.obs.metrics.MetricsRegistry` under
    ``model_cache.hits`` / ``model_cache.misses``.  Engines flush at
    batch boundaries, so worker-side caches ship their counts back
    piggybacked on result messages (see :mod:`repro.api.pool`).
    """

    def __init__(self) -> None:
        self._memo: Dict[Tuple, object] = {}
        self._pins: Dict[int, object] = {}
        #: Lifetime memo lookups answered from the memo.
        self.hits = 0
        #: Lifetime memo lookups that had to compute.
        self.misses = 0
        self._flushed_hits = 0
        self._flushed_misses = 0

    def token(self, profile: "ApplicationProfile") -> int:
        """A key component identifying ``profile`` for this cache's life."""
        ident = id(profile)
        if ident not in self._pins:
            self._pins[ident] = profile
        return ident

    def get(self, key: Tuple, compute: Callable[[], object]) -> object:
        """The memoized value for ``key``, computing it on first use."""
        try:
            value = self._memo[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._memo[key] = value
            return value
        self.hits += 1
        return value

    def __reduce__(self):
        """Pickle as a fresh, empty cache (keys are process-local)."""
        return (ModelCache, ())

    def __len__(self) -> int:
        return len(self._memo)

    def flush_metrics(self, metrics) -> None:
        """Publish hit/miss counts accumulated since the last flush.

        Increments ``model_cache.hits`` / ``model_cache.misses`` on
        ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry` or
        the no-op default) by the deltas since the previous flush, so
        repeated flushing never double-counts.  Flushing into a
        disabled registry is a no-op that keeps the deltas pending.
        """
        if not metrics.enabled:
            return
        delta_hits = self.hits - self._flushed_hits
        delta_misses = self.misses - self._flushed_misses
        if delta_hits:
            metrics.inc("model_cache.hits", delta_hits)
            self._flushed_hits = self.hits
        if delta_misses:
            metrics.inc("model_cache.misses", delta_misses)
            self._flushed_misses = self.misses

    def clear(self) -> None:
        """Drop all memoized values and pinned profiles.

        Accounting survives: :attr:`hits` / :attr:`misses` are lifetime
        counters and keep counting across clears.
        """
        self._memo.clear()
        self._pins.clear()


@dataclass
class WindowPrediction:
    """Per-micro-trace prediction (phase analysis, Fig 6.14)."""

    start: int
    instructions: float
    cycles: float
    stack: Dict[str, float]
    deff: float
    mlp: float
    limiter: str
    llc_misses: float = 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class Prediction:
    """Full performance prediction for one (profile, config) pair."""

    config_name: str
    workload: str
    cycles: float
    instructions: float
    uops: float
    stack: Dict[str, float]
    windows: List[WindowPrediction] = field(default_factory=list)
    mlp: float = 1.0
    llc_load_misses: float = 0.0
    branch_mispredictions: float = 0.0
    frequency_ghz: float = 2.66

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def seconds(self) -> float:
        return self.cycles / (self.frequency_ghz * 1e9)

    def cpi_stack(self) -> Dict[str, float]:
        """The stack normalized to cycles-per-instruction."""
        if not self.instructions:
            return {key: 0.0 for key in self.stack}
        return {
            key: value / self.instructions
            for key, value in self.stack.items()
        }


#: Fallback entropy model: an ideal predictor mispredicts ~E/2 of
#: branches; the small intercept mirrors the residual alias misses of the
#: thesis' fitted predictors (Fig 3.9).
DEFAULT_ENTROPY_MODEL = EntropyMissRateModel(
    predictor_name="generic",
    slope=0.45,
    intercept=0.005,
    history_bits=12,
)


class IntervalModel:
    """Evaluates the interval equation for profiles and configurations.

    Parameters
    ----------
    entropy_model:
        Branch predictor miss-rate model; defaults to the generic linear
        entropy fit.
    mlp_model:
        ``"stride"`` (CAL'18 virtual stream), ``"cold"`` (ISPASS'15
        cold-window model) or ``"none"`` (serialize all misses).
    enable_llc_chaining / enable_mshr / enable_bus:
        Feature toggles for the corresponding penalty terms.
    cache:
        Optional :class:`ModelCache` memoizing micro-architecture
        independent intermediates across configurations.  Results are
        bitwise identical with or without it.
    """

    def __init__(
        self,
        entropy_model: Optional[EntropyMissRateModel] = None,
        mlp_model: str = "stride",
        enable_llc_chaining: bool = True,
        enable_mshr: bool = True,
        enable_bus: bool = True,
        cache: Optional[ModelCache] = None,
    ) -> None:
        if mlp_model not in ("stride", "cold", "none"):
            raise ValueError("mlp_model must be 'stride', 'cold' or 'none'")
        self.entropy_model = entropy_model or DEFAULT_ENTROPY_MODEL
        self.mlp_model = mlp_model
        self.enable_llc_chaining = enable_llc_chaining
        self.enable_mshr = enable_mshr
        self.enable_bus = enable_bus
        self.cache = cache

    def _memo(self, key: Tuple, compute: Callable[[], object]) -> object:
        """Memoize through the attached cache, or just compute."""
        if self.cache is None:
            return compute()
        return self.cache.get(key, compute)

    # ------------------------------------------------------------------

    def _window_weight(
        self, profile: ApplicationProfile, micro: MicroTraceProfile
    ) -> float:
        """How many trace instructions this micro-trace represents."""
        window = profile.sampling.window_length
        represented = min(window, profile.num_instructions - micro.start)
        if micro.length == 0:
            return 0.0
        return represented / micro.length

    def _evaluate_window(
        self,
        profile: ApplicationProfile,
        micro: MicroTraceProfile,
        config: MachineConfig,
        miss_rate_bpred: float,
    ) -> WindowPrediction:
        mix = micro.mix
        n_uops = float(mix.num_uops)
        n_instr = float(mix.num_instructions)
        statstack = profile.statstack()
        tok = self.cache.token(profile) if self.cache is not None else 0

        limits = self._memo(
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
            resolution = self._memo(
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
        i_ratios = self._memo(
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
            return self._memo(
                ("dratio", tok, micro.start, "load", size),
                lambda: statstack.miss_ratio_of(
                    micro.load_reuse, micro.cold_loads, size
                ),
            )

        ratio_l2 = _load_ratio(config.l2.size_bytes)
        ratio_llc = _load_ratio(config.llc.size_bytes)
        store_ratio_llc = self._memo(
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
        f_l = self._memo(
            ("fl", tok, micro.start),
            lambda: micro.memory.load_dependence_distribution(),
        )
        if self.mlp_model == "stride":
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
                stream = self._memo(
                    ("stream", tok, micro.start, config.llc.size_bytes),
                    _build_stream,
                )
                result = self._memo(
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
        elif self.mlp_model == "cold":
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
        if self.enable_mshr:
            mlp = mshr_soft_cap(mlp, config)
        mlp = max(mlp, 1.0)

        # --- DRAM component -----------------------------------------------
        # The full main-memory round trip: LLC tag check that discovered
        # the miss, the line's own bus transfer, DRAM access.
        memory_latency = float(config.llc.latency + config.dram_latency)
        if self.enable_bus:
            memory_latency += config.bus_transfer_cycles
        dram_cycles = m_llc * memory_latency / mlp
        if self.enable_bus:
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
        if self.enable_llc_chaining and n_uops > 0:
            load_fraction = mix.load_fraction
            loads_per_rob = load_fraction * config.rob_size
            hits_per_rob = (
                (llc_hits / loads) * loads_per_rob if loads > 0 else 0.0
            )
            f1 = micro.memory.independent_load_fraction() or 1.0
            chain_cycles = llc_chain_penalty(
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

    # ------------------------------------------------------------------

    def predict(
        self,
        profile: ApplicationProfile,
        config: MachineConfig,
    ) -> Prediction:
        """Evaluate the interval model over all micro-traces."""
        miss_rate = self.entropy_model.predict_from_profile(
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
            weight = self._window_weight(profile, micro)
            if weight == 0.0:
                continue
            window = self._evaluate_window(profile, micro, config, miss_rate)
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

    def predict_batch(
        self,
        profile: ApplicationProfile,
        configs: Sequence[MachineConfig],
    ) -> List[Prediction]:
        """Batched :meth:`predict`: one array program over all configs.

        Accepts a config sequence or a prebuilt
        :class:`~repro.core.batch.BatchConfigs`.  Results (and any
        attached :class:`ModelCache` state) are bitwise identical to
        calling :meth:`predict` per configuration.
        """
        from repro.core.batch import predict_interval_batch

        return predict_interval_batch(self, profile, configs)
