"""Batched (structure-of-arrays) evaluation of the analytical model.

One profile evaluated against *N* machine configurations at once, as a
single array program.  This is the model's only evaluation path:
:meth:`~repro.core.interval.IntervalModel.predict` and
:meth:`~repro.core.model.AnalyticalModel.predict` are one-config batches
through it.  The per-configuration walk of the same equations is the
reference oracle in ``tests/reference/model.py``, and this module
reproduces it **bitwise** for a whole :class:`BatchConfigs` batch per
call.

Bitwise parity is achieved by construction, not by tolerance:

* Every expensive intermediate (dispatch limits, branch resolution,
  StatStack miss ratios, virtual streams, stride/cold MLP) is computed
  by calling the *same scalar helper* exactly once per unique
  dependency-key group -- using the exact :class:`ModelCache` keys the
  oracle uses -- and scattered to configurations through inverse
  index arrays.  A cache warmed by either therefore serves the
  other, and both leave the identical key -> value mapping behind.
* The remaining glue arithmetic -- including the Eq 4.4 MSHR cap and
  the Eqs 4.7--4.12 chain penalty of :mod:`repro.core.memory_model` --
  is vectorized with NumPy elementwise float64 operations in the
  *identical operation order* as the scalar oracle (IEEE-754
  elementwise ops are bit-identical to CPython floats).
  Conditional accumulations become masked adds of ``0.0`` (exact on the
  non-negative accumulators used here), and scalar-int/float mixing
  maps to int64/float64 array promotion (also exact).
* Results are materialized back to Python floats via ``ndarray.tolist``
  (bit-preserving), so downstream JSON serialization and dataclass
  ``==`` comparisons behave exactly as with the oracle.
* Configs that differ only along axes the interval equation never
  reads (L1D size, frequency, Vdd) share their window lists and stack
  dicts: the values are bitwise identical by construction, so ``==``
  and serialization cannot tell shared from copied sub-structure.  The
  aliasing contract is that returned predictions are read-only; no code
  in this repository mutates them, and callers that want to must copy
  first (as they already must for the memoized inputs).

The one deliberately *non*-vectorized helper is
:func:`~repro.core.memory_model.icache_penalty`, whose internal loop
carries an accumulation order; it is evaluated per unique group
instead.  See ``docs/ARCHITECTURE.md`` ("Batched model layer") for the
rules to follow when vectorizing a new component.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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
from repro.core.memory_model import (
    icache_penalty,
    llc_chain_penalty,
    mshr_soft_cap,
)
from repro.core.mlp import build_virtual_stream, cold_miss_mlp, stride_mlp
from repro.core.power import (
    EVENT_ENERGY_NJ,
    REFERENCE_VDD,
    _UOP_EVENT,
    ActivityVector,
    PowerBreakdown,
    PowerModel,
)
from repro.isa import UopKind
from repro.profiler.profile import ApplicationProfile

__all__ = [
    "BatchConfigs",
    "ConfigGroups",
    "predict_interval_batch",
    "derive_activity_batch",
    "predict_model_batch",
    "compose_groups",
]


class ConfigGroups:
    """A partition of a config batch by a dependency-key function.

    ``reps[g]`` is the index (into the batch) of the representative
    config of group ``g``; ``inverse[i]`` is the group of config ``i``.
    Computing a value once per representative and gathering it with
    ``np.asarray(values)[inverse]`` reproduces a per-config scalar loop
    exactly whenever the value depends only on the key fields.
    """

    __slots__ = ("reps", "inverse")

    def __init__(self, reps: List[int], inverse: np.ndarray) -> None:
        self.reps = reps
        self.inverse = inverse

    def __len__(self) -> int:
        return len(self.reps)

    def gather(self, values: Sequence[float]) -> np.ndarray:
        """Scatter one value per group out to a per-config float array."""
        return np.asarray(values, dtype=np.float64)[self.inverse]


def _group_by_keys(keys: Sequence) -> ConfigGroups:
    index: Dict[object, int] = {}
    reps: List[int] = []
    inverse = np.empty(len(keys), dtype=np.intp)
    for i, key in enumerate(keys):
        group = index.get(key)
        if group is None:
            group = len(reps)
            index[key] = group
            reps.append(i)
        inverse[i] = group
    return ConfigGroups(reps, inverse)


def _group_from_array(values: np.ndarray) -> ConfigGroups:
    """Partition by the values of one array axis (np.unique, C speed)."""
    _, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    return ConfigGroups(first.tolist(), inverse.astype(np.intp))


def compose_groups(a: ConfigGroups, b: ConfigGroups) -> ConfigGroups:
    """The refinement of two partitions of the same config batch."""
    combined = a.inverse.astype(np.int64) * max(len(b), 1) + b.inverse
    return _group_from_array(combined)


class BatchConfigs:
    """Structure-of-arrays view over a batch of machine configurations.

    Integer axes are int64 arrays and real axes float64 arrays, so the
    vectorized model arithmetic promotes exactly like the scalar
    int/float mixing it replaces.  The original
    :class:`~repro.core.machine.MachineConfig` objects are retained (in
    order) for naming, grouping and the per-group scalar helper calls.
    """

    def __init__(self, configs: Sequence[MachineConfig]) -> None:
        self.configs: List[MachineConfig] = list(configs)
        cfgs = self.configs

        table = np.array([
            (c.dispatch_width, c.rob_size, c.frontend_refill,
             c.mshr_entries, c.dram_latency, c.bus_transfer_cycles,
             c.memory_channels, c.l1d.size_bytes, c.l1i.size_bytes,
             c.l2.size_bytes, c.llc.size_bytes, c.l2.latency,
             c.llc.latency, len(c.ports), c.prefetch_table,
             c.dram_page_bytes)
            for c in cfgs
        ], dtype=np.int64).reshape(len(cfgs), 16).T.copy()
        (self.dispatch_width, self.rob_size, self.frontend_refill,
         self.mshr_entries, self.dram_latency, self.bus_transfer_cycles,
         self.memory_channels, self.l1d_bytes, self.l1i_bytes,
         self.l2_bytes, self.llc_bytes, self.l2_latency,
         self.llc_latency, self.n_ports, self.prefetch_table,
         self.dram_page_bytes) = table
        self.prefetch = np.array([c.prefetch for c in cfgs], dtype=bool)
        self.frequency_ghz = np.array(
            [c.frequency_ghz for c in cfgs], dtype=np.float64
        )
        self.vdd = np.array([c.vdd for c in cfgs], dtype=np.float64)
        self._partitions: Dict[object, ConfigGroups] = {}

    def __len__(self) -> int:
        return len(self.configs)

    @classmethod
    def ensure(
        cls, configs: Union["BatchConfigs", Sequence[MachineConfig]]
    ) -> "BatchConfigs":
        """Coerce a config sequence to a batch (no-op if already one)."""
        if isinstance(configs, cls):
            return configs
        return cls(configs)

    def partition(self, *fields: str) -> ConfigGroups:
        """Memoized partition by one or more structure-of-array axes.

        Multi-axis partitions are built by refining the memoized prefix
        partition, so repeated calls sharing prefixes cost one
        ``np.unique`` each.
        """
        part = self._partitions.get(fields)
        if part is None:
            if len(fields) == 1:
                part = _group_from_array(getattr(self, fields[0]))
            else:
                part = compose_groups(
                    self.partition(*fields[:-1]),
                    self.partition(fields[-1]),
                )
            self._partitions[fields] = part
        return part

    def core_partition(self) -> ConfigGroups:
        """Partition by (dispatch_width, rob_size, ports, uop_latencies).

        This is the dependency set of both the dispatch-limits and the
        branch-resolution memo keys.  Ports and latency tables are
        arbitrary objects, so their sub-partition is dict-based (done
        once and memoized); the integer axes refine it at array speed.
        """
        part = self._partitions.get("core")
        if part is None:
            objects = _group_by_keys(
                [(c.ports, c.uop_latencies) for c in self.configs]
            )
            part = compose_groups(
                self.partition("dispatch_width", "rob_size"), objects
            )
            self._partitions["core"] = part
        return part


# ----------------------------------------------------------------------
# Interval model
# ----------------------------------------------------------------------


def predict_interval_batch(
    model: IntervalModel,
    profile: ApplicationProfile,
    configs: Union[BatchConfigs, Sequence[MachineConfig]],
) -> List[Prediction]:
    """Batched :meth:`IntervalModel.predict`: one array program, N configs.

    Returns one :class:`Prediction` per config, bitwise identical to the
    scalar oracle (including per-window stacks and, when a
    :class:`ModelCache` is attached, the cache's key -> value state).
    """
    batch = BatchConfigs.ensure(configs)
    n = len(batch)
    if n == 0:
        return []
    cfgs = batch.configs
    cache = model.cache
    tok = cache.token(profile) if cache is not None else 0
    memo = model._memo
    statstack = profile.statstack()

    miss_rate = model.entropy_model.predict_from_profile(
        profile.branch_entropy
    )

    # Dependency-key partitions.  Every key field below is
    # window-independent, so one partition per dependency set serves all
    # micro-traces.  The branch memo key reads the same fields as the
    # dispatch-limits key, so both share the core partition; the
    # stride-MLP partition refines the core partition because deff
    # enters its memo key.
    g_limits = batch.core_partition()
    g_branch = g_limits
    g_icache = batch.partition(
        "l1i_bytes", "l2_bytes", "llc_bytes",
        "l2_latency", "llc_latency", "dram_latency",
    )
    g_l2 = batch.partition("l2_bytes")
    g_llc = batch.partition("llc_bytes")
    if model.mlp_model == "stride":
        g_stride = compose_groups(g_limits, batch.partition(
            "llc_bytes", "rob_size", "mshr_entries",
            "llc_latency", "dram_latency", "prefetch",
            "prefetch_table", "dram_page_bytes",
        ))
    elif model.mlp_model == "cold":
        g_cold = batch.partition("rob_size", "llc_bytes")

    # The interval equation never reads the L1D size, the clock
    # frequency or Vdd, so configs that differ only along those axes
    # produce bitwise-identical window predictions and stacks.  The
    # interval partition below groups such configs; windows, stacks and
    # totals are materialized once per group and *shared* (same list /
    # dict objects) across the group's Predictions.  Equality (and JSON
    # serialization) cannot tell shared from copied sub-structure; see
    # the module docstring for the aliasing contract.
    g_int = compose_groups(g_limits, batch.partition(
        "frontend_refill", "l1i_bytes", "l2_bytes", "llc_bytes",
        "l2_latency", "llc_latency", "dram_latency",
        "bus_transfer_cycles", "memory_channels", "mshr_entries",
        "prefetch", "prefetch_table", "dram_page_bytes",
    ))
    int_reps = np.asarray(g_int.reps, dtype=np.intp)

    total_cycles = np.zeros(n)
    total_misses = np.zeros(n)
    mlp_weighted = np.zeros(n)
    mlp_weight = np.zeros(n)
    stack_totals = {key: np.zeros(n) for key in STACK_COMPONENTS}
    total_instr = 0.0
    total_uops = 0.0
    total_mispredictions = 0.0
    window_rows: List[Dict[str, object]] = []

    for micro in profile.micro_traces:
        weight = model._window_weight(profile, micro)
        if weight == 0.0:
            continue
        mix = micro.mix
        n_uops = float(mix.num_uops)
        n_instr = float(mix.num_instructions)

        # --- Dispatch limits ------------------------------------------
        limits_g = []
        for rep in g_limits.reps:
            c = cfgs[rep]
            limits_g.append(memo(
                ("limits", tok, micro.start, c.dispatch_width,
                 c.rob_size, c.ports, c.uop_latencies),
                lambda cc=c: effective_dispatch_rate(mix, micro.chains, cc),
            ))
        deff_g = [limits.effective() for limits in limits_g]
        limiter_g = [limits.limiter() for limits in limits_g]
        deff = g_limits.gather(deff_g)
        base = n_uops / deff

        # --- Branch component -----------------------------------------
        branches = float(mix.counts.get(UopKind.BRANCH, 0))
        mispredictions = miss_rate * branches
        if mispredictions > 0.0:
            interval_uops = n_uops / mispredictions
            res_g = []
            for rep in g_branch.reps:
                c = cfgs[rep]
                average_latency = mix.average_latency(c.latencies())
                res_g.append(memo(
                    ("branch", tok, micro.start, average_latency,
                     interval_uops, c.dispatch_width, c.rob_size),
                    lambda al=average_latency, cc=c: branch_resolution_time(
                        micro.chains, al, interval_uops, cc
                    ),
                ))
            resolution = g_branch.gather(res_g)
            branch_cycles = mispredictions * (
                resolution + batch.frontend_refill
            )
        else:
            branch_cycles = np.zeros(n)

        # --- Instruction cache ----------------------------------------
        icache_g = []
        for rep in g_icache.reps:
            c = cfgs[rep]
            i_sizes = (c.l1i.size_bytes, c.l2.size_bytes,
                       c.llc.size_bytes)
            i_ratios = memo(
                ("iratios", tok) + i_sizes,
                lambda s=i_sizes:
                    profile.instruction_statstack().hierarchy_miss_ratios(
                        list(s), kind="load"
                    ),
            )
            icache_g.append(icache_penalty(n_instr, i_ratios, c))
        icache_cycles = g_icache.gather(icache_g)

        # --- Data cache misses ----------------------------------------
        loads = float(mix.counts.get(UopKind.LOAD, 0))
        stores = float(mix.counts.get(UopKind.STORE, 0))

        def _load_ratio(size: int) -> float:
            return memo(
                ("dratio", tok, micro.start, "load", size),
                lambda: statstack.miss_ratio_of(
                    micro.load_reuse, micro.cold_loads, size
                ),
            )

        l2_ratio_g = [
            _load_ratio(cfgs[rep].l2.size_bytes) for rep in g_l2.reps
        ]
        llc_ratio_g = [
            _load_ratio(cfgs[rep].llc.size_bytes) for rep in g_llc.reps
        ]
        store_ratio_g = []
        for rep in g_llc.reps:
            size = cfgs[rep].llc.size_bytes
            store_ratio_g.append(memo(
                ("dratio", tok, micro.start, "store", size),
                lambda s=size: statstack.miss_ratio_of(
                    micro.store_reuse, micro.cold_stores, s
                ),
            ))
        ratio_l2 = g_l2.gather(l2_ratio_g)
        ratio_llc = g_llc.gather(llc_ratio_g)
        store_ratio_llc = g_llc.gather(store_ratio_g)
        m_l2 = ratio_l2 * loads
        m_llc = ratio_llc * loads
        m_llc_store = store_ratio_llc * stores
        llc_hits = np.maximum(0.0, m_l2 - m_llc)

        # --- MLP ------------------------------------------------------
        f_l = memo(
            ("fl", tok, micro.start),
            lambda: micro.memory.load_dependence_distribution(),
        )
        if model.mlp_model == "stride":
            mlp_g = np.empty(len(g_stride))
            miss_scale_g = np.ones(len(g_stride))
            for gi, rep in enumerate(g_stride.reps):
                c = cfgs[rep]
                deff_rep = deff_g[g_limits.inverse[rep]]
                if c.prefetch:
                    # The oracle recomputes the prefetch stream per
                    # configuration (no memo); one call per group gives
                    # the identical value without touching the cache.
                    stream = build_virtual_stream(
                        micro.memory, statstack, c, deff=deff_rep,
                        load_reuse_by_pc=micro.load_reuse_by_pc,
                        cold_by_pc=micro.cold_by_pc,
                    )
                    result = stride_mlp(stream, f_l, c, deff=deff_rep)
                    raw = sum(
                        1.0 for vl in stream.loads if vl.miss_weight > 0.0
                    )
                    reduction = (
                        stream.total_miss_weight / raw if raw > 0.0 else 1.0
                    )
                    miss_scale_g[gi] = min(1.0, reduction)
                else:
                    stream = memo(
                        ("stream", tok, micro.start, c.llc.size_bytes),
                        lambda cc=c, d=deff_rep: build_virtual_stream(
                            micro.memory, statstack, cc, deff=d,
                            load_reuse_by_pc=micro.load_reuse_by_pc,
                            cold_by_pc=micro.cold_by_pc,
                        ),
                    )
                    result = memo(
                        ("smlp", tok, micro.start, c.llc.size_bytes,
                         c.rob_size, c.mshr_entries, c.llc.latency,
                         c.dram_latency, deff_rep),
                        lambda s=stream, cc=c, d=deff_rep: stride_mlp(
                            s, f_l, cc, deff=d
                        ),
                    )
                mlp_g[gi] = result.mlp
            mlp = mlp_g[g_stride.inverse]
            m_llc = m_llc * miss_scale_g[g_stride.inverse]
        elif model.mlp_model == "cold":
            mlp_g = np.empty(len(g_cold))
            for gi, rep in enumerate(g_cold.reps):
                c = cfgs[rep]
                ratio_llc_rep = llc_ratio_g[g_llc.inverse[rep]]
                m_llc_rep = ratio_llc_rep * loads
                cold_fraction = 0.0
                if m_llc_rep > 0.0:
                    cold_fraction = min(1.0, micro.cold_loads / m_llc_rep)
                result = cold_miss_mlp(
                    profile.cold, f_l, ratio_llc_rep, cold_fraction,
                    mix.load_fraction, c,
                )
                mlp_g[gi] = result.mlp
            mlp = mlp_g[g_cold.inverse]
        else:  # "none": serialize all misses
            mlp = np.ones(n)

        if model.enable_mshr:
            mlp = mshr_soft_cap(mlp, batch.mshr_entries, batch.dram_latency)
        mlp = np.maximum(mlp, 1.0)

        # --- DRAM component -------------------------------------------
        memory_latency = batch.llc_latency + batch.dram_latency
        if model.enable_bus:
            memory_latency = memory_latency + batch.bus_transfer_cycles
        memory_latency = memory_latency.astype(np.float64)
        dram_cycles = m_llc * memory_latency / mlp
        if model.enable_bus:
            occupancy = (
                (m_llc + m_llc_store) * batch.bus_transfer_cycles
                / np.maximum(1, batch.memory_channels)
            )
            dram_cycles = np.maximum(dram_cycles, occupancy - base)

        # --- Chained LLC hits -----------------------------------------
        if model.enable_llc_chaining and n_uops > 0:
            load_fraction = mix.load_fraction
            loads_per_rob = load_fraction * batch.rob_size
            if loads > 0:
                hits_per_rob = (llc_hits / loads) * loads_per_rob
            else:
                hits_per_rob = np.zeros(n)
            f1 = micro.memory.independent_load_fraction() or 1.0
            chain_cycles = llc_chain_penalty(
                hits_per_rob, f1, loads_per_rob, deff, n_uops,
                batch.rob_size, batch.llc_latency,
            )
        else:
            chain_cycles = np.zeros(n)

        # Same summation order as sum(stack.values()) in the oracle.
        cycles = (
            base + branch_cycles + icache_cycles + chain_cycles
            + dram_cycles
        )

        total_cycles += cycles * weight
        total_instr += n_instr * weight
        total_uops += mix.num_uops * weight
        components = {
            "base": base,
            "branch": branch_cycles,
            "icache": icache_cycles,
            "llc_chain": chain_cycles,
            "dram": dram_cycles,
        }
        for key in STACK_COMPONENTS:
            stack_totals[key] += components[key] * weight
        total_misses += m_llc * weight
        dram_mask = dram_cycles > 0.0
        mlp_weighted += np.where(dram_mask, mlp * dram_cycles, 0.0)
        mlp_weight += np.where(dram_mask, dram_cycles, 0.0)
        total_mispredictions += (
            miss_rate * mix.counts.get(UopKind.BRANCH, 0) * weight
        )

        window_rows.append({
            "start": micro.start,
            "instructions": n_instr,
            "cycles": cycles[int_reps].tolist(),
            "base": base[int_reps].tolist(),
            "branch": branch_cycles[int_reps].tolist(),
            "icache": icache_cycles[int_reps].tolist(),
            "llc_chain": chain_cycles[int_reps].tolist(),
            "dram": dram_cycles[int_reps].tolist(),
            "deff": deff[int_reps].tolist(),
            "mlp": mlp[int_reps].tolist(),
            "llc_misses": m_llc[int_reps].tolist(),
            "limiter": [
                limiter_g[g] for g in g_limits.inverse[int_reps].tolist()
            ],
        })

    safe_weight = np.where(mlp_weight != 0.0, mlp_weight, 1.0)
    final_mlp = np.where(
        mlp_weight != 0.0, mlp_weighted / safe_weight, 1.0
    )

    n_groups = len(g_int)
    cycles_l = total_cycles[int_reps].tolist()
    misses_l = total_misses[int_reps].tolist()
    mlp_l = final_mlp[int_reps].tolist()

    # Transposed window materialization, once per interval group.  The
    # inner loop bypasses the dataclass constructor (building the
    # instance __dict__ directly) -- at 10^4+ WindowPrediction objects
    # per call, the generated __init__ is a measurable fraction of the
    # whole batch evaluation.  Field names and values match the
    # constructor call in the oracle exactly; the equivalence
    # harness pins the resulting objects ``==``.
    windows_by_group: List[List[WindowPrediction]] = [
        [] for _ in range(n_groups)
    ]
    new_window = WindowPrediction.__new__
    for row in window_rows:
        start = row["start"]
        instructions = row["instructions"]
        for cyc, base_c, branch_c, icache_c, chain_c, dram_c, deff_c, \
                mlp_c, limiter_c, misses_c, bucket in zip(
                    row["cycles"], row["base"], row["branch"],
                    row["icache"], row["llc_chain"], row["dram"],
                    row["deff"], row["mlp"], row["limiter"],
                    row["llc_misses"], windows_by_group):
            window = new_window(WindowPrediction)
            window.__dict__ = {
                "start": start,
                "instructions": instructions,
                "cycles": cyc,
                "stack": {
                    "base": base_c,
                    "branch": branch_c,
                    "icache": icache_c,
                    "llc_chain": chain_c,
                    "dram": dram_c,
                },
                "deff": deff_c,
                "mlp": mlp_c,
                "limiter": limiter_c,
                "llc_misses": misses_c,
            }
            bucket.append(window)

    stacks_by_group = [
        dict(zip(STACK_COMPONENTS, row))
        for row in zip(*[
            stack_totals[key][int_reps].tolist()
            for key in STACK_COMPONENTS
        ])
    ]

    workload = profile.name
    freq_l = batch.frequency_ghz.tolist()
    inverse_l = g_int.inverse.tolist()
    predictions: List[Prediction] = []
    new_prediction = Prediction.__new__
    for j, config in enumerate(cfgs):
        g = inverse_l[j]
        prediction = new_prediction(Prediction)
        prediction.__dict__ = {
            "config_name": config.name,
            "workload": workload,
            "cycles": cycles_l[g],
            "instructions": total_instr,
            "uops": total_uops,
            "stack": stacks_by_group[g],
            "windows": windows_by_group[g],
            "mlp": mlp_l[g],
            "llc_load_misses": misses_l[g],
            "branch_mispredictions": total_mispredictions,
            "frequency_ghz": config.frequency_ghz,
        }
        predictions.append(prediction)
    return predictions


# ----------------------------------------------------------------------
# Activity derivation
# ----------------------------------------------------------------------


def derive_activity_batch(
    profile: ApplicationProfile,
    predictions: Sequence[Prediction],
    configs: Union[BatchConfigs, Sequence[MachineConfig]],
    cache: Optional[ModelCache] = None,
) -> List[ActivityVector]:
    """Predicted activity factors for a config batch (Eq 3.16).

    Cache access counts cascade through the StatStack miss ratios; the
    instruction stream contributes L1I lookups and its own L2/LLC
    traffic.  ``cache`` memoizes the per-level miss-ratio queries
    across configurations sharing cache sizes.  ``predictions`` are
    :func:`predict_interval_batch`'s for this profile and batch.
    """
    batch = BatchConfigs.ensure(configs)
    n = len(batch)
    if n == 0:
        return []
    cfgs = batch.configs
    statstack = profile.statstack()
    instruction_statstack = profile.instruction_statstack()
    mix = profile.mix

    instructions = np.array(
        [p.instructions for p in predictions], dtype=np.float64
    )
    if mix.num_instructions:
        scale = instructions / mix.num_instructions
    else:
        scale = np.zeros(n)
    loads = mix.counts.get(UopKind.LOAD, 0) * scale
    stores = mix.counts.get(UopKind.STORE, 0) * scale
    branches = mix.counts.get(UopKind.BRANCH, 0) * scale

    def _ratios(model, stream, kind, sizes):
        if cache is None:
            return model.hierarchy_miss_ratios(list(sizes), kind=kind)
        return cache.get(
            ("activity", cache.token(profile), stream, kind)
            + tuple(sizes),
            lambda: model.hierarchy_miss_ratios(list(sizes), kind=kind),
        )

    g_data = batch.partition("l1d_bytes", "l2_bytes", "llc_bytes")
    g_instr = batch.partition("l1i_bytes", "l2_bytes", "llc_bytes")
    load_ratios_g = []
    store_ratios_g = []
    for rep in g_data.reps:
        c = cfgs[rep]
        sizes = (c.l1d.size_bytes, c.l2.size_bytes, c.llc.size_bytes)
        load_ratios_g.append(_ratios(statstack, "data", "load", sizes))
        store_ratios_g.append(_ratios(statstack, "data", "store", sizes))
    i_ratios_g = []
    for rep in g_instr.reps:
        c = cfgs[rep]
        i_sizes = (c.l1i.size_bytes, c.l2.size_bytes, c.llc.size_bytes)
        i_ratios_g.append(
            _ratios(instruction_statstack, "instr", "load", i_sizes)
        )

    def level(groups: ConfigGroups, ratios, idx: int) -> np.ndarray:
        return groups.gather([r[idx] for r in ratios])

    l1_data = loads + stores
    l2_data = (
        loads * level(g_data, load_ratios_g, 0)
        + stores * level(g_data, store_ratios_g, 0)
    )
    llc_data = (
        loads * level(g_data, load_ratios_g, 1)
        + stores * level(g_data, store_ratios_g, 1)
    )
    dram_data = (
        loads * level(g_data, load_ratios_g, 2)
        + stores * level(g_data, store_ratios_g, 2)
    )
    l1_instr = instructions
    l2_instr = instructions * level(g_instr, i_ratios_g, 0)
    llc_instr = instructions * level(g_instr, i_ratios_g, 1)
    dram_instr = instructions * level(g_instr, i_ratios_g, 2)

    l1_l = (l1_data + l1_instr).tolist()
    l2_l = (l2_data + l2_instr).tolist()
    llc_l = (llc_data + llc_instr).tolist()
    dram_l = (dram_data + dram_instr).tolist()
    branches_l = branches.tolist()

    # Per-kind counts in ``mix.counts`` insertion order (count * scale
    # is the oracle's per-config multiply).  Predictions produced by
    # :func:`predict_interval_batch` all carry the profile's instruction
    # total, so the scale -- and hence the whole kind dict -- is one
    # for the batch: it is built once and shared (same read-only
    # aliasing contract as the window lists above).  As with
    # WindowPrediction, the dataclass constructor is bypassed for
    # speed; the equivalence harness pins the objects ``==``.
    scale_0 = float(scale[0])
    kind_counts = {kind: count * scale_0
                   for kind, count in mix.counts.items()}

    activities: List[ActivityVector] = []
    new_activity = ActivityVector.__new__
    for j in range(n):
        prediction = predictions[j]
        activity = new_activity(ActivityVector)
        activity.__dict__ = {
            "cycles": prediction.cycles,
            "uops": prediction.uops,
            "uop_kind_counts": kind_counts,
            "l1_accesses": l1_l[j],
            "l2_accesses": l2_l[j],
            "llc_accesses": llc_l[j],
            "dram_accesses": dram_l[j],
            "branch_lookups": branches_l[j],
        }
        activities.append(activity)
    return activities


# ----------------------------------------------------------------------
# Power model
# ----------------------------------------------------------------------


def _power_batch(
    batch: BatchConfigs, activities: Sequence[ActivityVector]
) -> Tuple[List[PowerBreakdown], List[float], List[float], List[float]]:
    """Breakdowns + (energy, edp, ed2p) for a batch, bitwise-exact."""
    n = len(batch)
    if n == 0:
        return [], [], [], []

    # Every vector of the batch takes its kinds, in order, from the one
    # profile's mix (derive_activity_batch), so the first names them all.
    kinds = tuple(activities[0].uop_kind_counts)
    cycles = np.array([a.cycles for a in activities], dtype=np.float64)
    uops = np.array([a.uops for a in activities], dtype=np.float64)
    l1 = np.array([a.l1_accesses for a in activities], dtype=np.float64)
    l2 = np.array([a.l2_accesses for a in activities], dtype=np.float64)
    llc = np.array([a.llc_accesses for a in activities], dtype=np.float64)
    dram = np.array(
        [a.dram_accesses for a in activities], dtype=np.float64
    )
    lookups = np.array(
        [a.branch_lookups for a in activities], dtype=np.float64
    )

    # Same structure order (and arithmetic) as PowerModel.structure_areas.
    mb = 1024.0 * 1024.0
    areas = {
        "core_logic": 0.8 * (batch.dispatch_width / 4.0),
        "rob_rf": 0.5 * (batch.rob_size / 128.0),
        "functional_units": 0.15 * batch.n_ports,
        "predictor": np.full(n, 0.1),
        "l1": 0.12 * (
            (batch.l1d_bytes + batch.l1i_bytes) / (64.0 * 1024.0)
        ),
        "l2": 0.25 * (batch.l2_bytes / (256.0 * 1024.0)),
        "llc": 2.2 * (batch.llc_bytes / (8.0 * mb)),
        "memctrl": np.full(n, 0.3),
    }

    # (vdd / REFERENCE_VDD) ** 2 per *unique* vdd with Python floats:
    # numpy's power kernel is not guaranteed bit-identical to CPython's.
    g_vdd = batch.partition("vdd")
    vscale = g_vdd.gather([
        (batch.configs[rep].vdd / REFERENCE_VDD) ** 2 for rep in g_vdd.reps
    ])

    static = {
        name: PowerModel.LEAKAGE_DENSITY * area * vscale
        for name, area in areas.items()
    }

    mask = cycles > 0.0
    freq_hz = batch.frequency_ghz * 1e9
    seconds = cycles / freq_hz
    safe_seconds = np.where(mask, seconds, 1.0)

    def watts(event: str, count: np.ndarray) -> np.ndarray:
        return (
            count * EVENT_ENERGY_NJ[event] * 1e-9 * vscale / safe_seconds
        )

    dynamic: Dict[str, np.ndarray] = {}
    dynamic["core_logic"] = watts("uop", uops) + watts("clock", cycles)
    fu = np.zeros(n)
    for kind in kinds:
        counts = np.array(
            [a.uop_kind_counts[kind] for a in activities], dtype=np.float64
        )
        fu = fu + watts(_UOP_EVENT.get(kind, "int_alu"), counts)
    dynamic["functional_units"] = fu
    dynamic["rob_rf"] = watts("uop", uops) * 0.6
    dynamic["predictor"] = watts("branch_lookup", lookups)
    dynamic["l1"] = watts("l1", l1)
    dynamic["l2"] = watts("l2", l2)
    dynamic["llc"] = watts("llc", llc)
    dynamic["memctrl"] = watts("dram", dram)

    static_total = np.zeros(n)
    for value in static.values():
        static_total = static_total + value
    dynamic_total = np.zeros(n)
    for value in dynamic.values():
        dynamic_total = dynamic_total + value
    dynamic_total = np.where(mask, dynamic_total, 0.0)
    total = static_total + dynamic_total
    energy = total * seconds
    edp = energy * seconds
    ed2p = edp * seconds

    static_names = list(static)
    dynamic_names = list(dynamic)
    static_rows = zip(*[value.tolist() for value in static.values()])
    dynamic_rows = zip(*[value.tolist() for value in dynamic.values()])
    breakdowns = []
    new_breakdown = PowerBreakdown.__new__
    for masked, static_row, dynamic_row in zip(
            mask.tolist(), static_rows, dynamic_rows):
        breakdown = new_breakdown(PowerBreakdown)
        breakdown.__dict__ = {
            "static": dict(zip(static_names, static_row)),
            "dynamic": (
                dict(zip(dynamic_names, dynamic_row)) if masked else {}
            ),
        }
        breakdowns.append(breakdown)
    return breakdowns, energy.tolist(), edp.tolist(), ed2p.tolist()


# ----------------------------------------------------------------------
# Full pipeline
# ----------------------------------------------------------------------


def predict_model_batch(
    model,  # AnalyticalModel (imported lazily to avoid a module cycle)
    profile: ApplicationProfile,
    configs: Union[BatchConfigs, Sequence[MachineConfig]],
) -> List["ModelResult"]:
    """Batched :meth:`AnalyticalModel.predict`: N full results per call."""
    from repro.core.model import ModelResult

    batch = BatchConfigs.ensure(configs)
    predictions = predict_interval_batch(model.interval, profile, batch)
    activities = derive_activity_batch(
        profile, predictions, batch, cache=model.interval.cache
    )
    breakdowns, energy, edp, ed2p = _power_batch(batch, activities)
    return [
        ModelResult(
            performance=predictions[j],
            power=breakdowns[j],
            activity=activities[j],
            energy_joules=energy[j],
            edp=edp[j],
            ed2p=ed2p[j],
        )
        for j in range(len(batch))
    ]
