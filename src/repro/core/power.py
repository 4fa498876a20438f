"""McPAT-style analytical power model (thesis §2.4, §3.6, §4.10, §6.3).

Power = static + dynamic:

* static (Eq 2.1): ``P_s = I_l * V_dd`` with leakage proportional to the
  area of each structure (sized from the machine configuration);
* dynamic (Eq 2.2): ``P_d = 1/2 C V^2 a f`` expressed per structure as
  (events/cycle) * (energy/event at V_dd) * frequency.

:func:`power_batch` is the backend's one implementation.  The
analytical model (predicted activity factors, Eq 3.16) and the
reference simulator (measured activity factors) both call it, exactly
as the paper routes both through McPAT.  It prices a whole config batch
as one array program and reproduces the per-configuration oracle in
``tests/reference/power.py`` bitwise: every float, the breakdowns' dict
key order and their totals.  Per-event energies and per-area leakage
densities are calibrated so the reference Nehalem-like core lands near
10 W with roughly 40% static power at 45 nm (thesis §2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.isa import UopKind

#: Per-event dynamic energy at the reference voltage (nJ).
EVENT_ENERGY_NJ: Dict[str, float] = {
    "uop": 0.45,            # rename + ROB + RF + bypass per uop
    "int_alu": 0.10,
    "int_mul": 0.25,
    "fp_alu": 0.30,
    "fp_mul": 0.40,
    "div": 1.50,
    "load_agen": 0.08,
    "store_agen": 0.08,
    "branch_lookup": 0.12,
    "l1": 0.20,
    "l2": 0.60,
    "llc": 1.80,
    "dram": 18.0,
    "clock": 0.55,          # clock tree + pipeline latches, per cycle
}

_UOP_EVENT = {
    UopKind.INT_ALU: "int_alu",
    UopKind.INT_MUL: "int_mul",
    UopKind.FP_ALU: "fp_alu",
    UopKind.FP_MUL: "fp_mul",
    UopKind.DIV: "div",
    UopKind.LOAD: "load_agen",
    UopKind.STORE: "store_agen",
    UopKind.BRANCH: "branch_lookup",
    UopKind.MOVE: "int_alu",
}

REFERENCE_VDD = 1.1


@dataclass
class ActivityVector:
    """Event counts over one run (the McPAT XML activity summary)."""

    cycles: float = 0.0
    uops: float = 0.0
    uop_kind_counts: Dict[UopKind, float] = field(default_factory=dict)
    l1_accesses: float = 0.0
    l2_accesses: float = 0.0
    llc_accesses: float = 0.0
    dram_accesses: float = 0.0
    branch_lookups: float = 0.0


@dataclass
class PowerBreakdown:
    """Static + dynamic watts per structure (the power stack, Fig 6.7)."""

    static: Dict[str, float] = field(default_factory=dict)
    dynamic: Dict[str, float] = field(default_factory=dict)

    @property
    def static_total(self) -> float:
        return sum(self.static.values())

    @property
    def dynamic_total(self) -> float:
        return sum(self.dynamic.values())

    @property
    def total(self) -> float:
        return self.static_total + self.dynamic_total

    def stack(self) -> Dict[str, float]:
        """Combined per-structure watts (static + dynamic)."""
        keys = set(self.static) | set(self.dynamic)
        return {
            key: self.static.get(key, 0.0) + self.dynamic.get(key, 0.0)
            for key in sorted(keys)
        }


#: Leakage density: watts per mm^2-equivalent area unit at 1.1 V.
LEAKAGE_DENSITY = 1.0


def power_batch(
    configs,  # BatchConfigs or MachineConfigs (batch imports this module)
    activities: Sequence[ActivityVector],
) -> Tuple[List[PowerBreakdown], List[float], List[float], List[float]]:
    """Price activity vectors on their configurations, as one batch.

    ``activities[i]`` is priced on ``configs[i]``.  Returns one
    :class:`PowerBreakdown` per pair, in input order, and the energy
    (J), energy-delay (J*s) and energy-delay-squared (J*s^2) products.
    A vector with no cycles draws static power only: its ``dynamic``
    dict is empty and its energy is zero.

    Raises
    ------
    ValueError
        If there is not one activity per config, or if the activities'
        ``uop_kind_counts`` name different kinds or the same kinds in
        another order: the functional-unit watts are summed over one
        kind tuple for the whole batch, and the summation order is part
        of the result.
    """
    from repro.core.batch import BatchConfigs

    batch = BatchConfigs.ensure(configs)
    n = len(batch)
    if len(activities) != n:
        raise ValueError(
            f"{len(activities)} activities for {n} configurations"
        )
    if n == 0:
        return [], [], [], []

    first = activities[0].uop_kind_counts
    kinds = tuple(first)
    for activity in activities:
        counts = activity.uop_kind_counts
        if counts is not first and tuple(counts) != kinds:
            raise ValueError(
                f"activities name different uop kinds: {kinds} "
                f"and {tuple(counts)}"
            )
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

    # Area per structure (arbitrary units ~ mm^2), scaling with the
    # configured sizes; the dict order is the breakdowns' key order.
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
    # Leakage grows superlinearly with Vdd, so static power takes the
    # same ~V^2 scale as dynamic power.
    g_vdd = batch.partition("vdd")
    vscale = g_vdd.gather([
        (batch.configs[rep].vdd / REFERENCE_VDD) ** 2 for rep in g_vdd.reps
    ])

    static = {
        name: LEAKAGE_DENSITY * area * vscale
        for name, area in areas.items()
    }

    # Dynamic watts per structure from activity factors (Eq 3.16).
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
