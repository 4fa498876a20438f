"""McPAT-style analytical power model (thesis §2.4, §3.6, §4.10, §6.3).

Power = static + dynamic:

* static (Eq 2.1): ``P_s = I_l * V_dd`` with leakage proportional to the
  area of each structure (sized from the machine configuration);
* dynamic (Eq 2.2): ``P_d = 1/2 C V^2 a f`` expressed per structure as
  (events/cycle) * (energy/event at V_dd) * frequency.

Both the analytical model (predicted activity factors, Eq 3.16) and the
reference simulator (measured activity factors) feed the same backend,
exactly as the paper routes both through McPAT.  Per-event energies and
per-area leakage densities are calibrated so the reference Nehalem-like
core lands near 10 W with roughly 40% static power at 45 nm (thesis §2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.machine import MachineConfig
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

    def merge_scaled(self, other: "ActivityVector", scale: float) -> None:
        self.cycles += other.cycles * scale
        self.uops += other.uops * scale
        for kind, count in other.uop_kind_counts.items():
            self.uop_kind_counts[kind] = (
                self.uop_kind_counts.get(kind, 0.0) + count * scale
            )
        self.l1_accesses += other.l1_accesses * scale
        self.l2_accesses += other.l2_accesses * scale
        self.llc_accesses += other.llc_accesses * scale
        self.dram_accesses += other.dram_accesses * scale
        self.branch_lookups += other.branch_lookups * scale


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


class PowerModel:
    """Computes power from a machine configuration and activity vector."""

    #: Leakage density: watts per mm^2-equivalent area unit at 1.1 V.
    LEAKAGE_DENSITY = 1.0

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    # -- area model (arbitrary area units ~ mm^2) ----------------------

    def structure_areas(self) -> Dict[str, float]:
        """Area per structure, scaling with configured sizes."""
        config = self.config
        mb = 1024.0 * 1024.0
        return {
            "core_logic": 0.8 * (config.dispatch_width / 4.0),
            "rob_rf": 0.5 * (config.rob_size / 128.0),
            "functional_units": 0.15 * len(config.ports),
            "predictor": 0.1,
            "l1": 0.12 * (
                (config.l1d.size_bytes + config.l1i.size_bytes)
                / (64.0 * 1024.0)
            ),
            "l2": 0.25 * (config.l2.size_bytes / (256.0 * 1024.0)),
            "llc": 2.2 * (config.llc.size_bytes / (8.0 * mb)),
            "memctrl": 0.3,
        }

    # -- power ----------------------------------------------------------

    def _voltage_scale_dynamic(self) -> float:
        return (self.config.vdd / REFERENCE_VDD) ** 2

    def _voltage_scale_static(self) -> float:
        # Leakage grows superlinearly with Vdd; model ~V^2 as well.
        return (self.config.vdd / REFERENCE_VDD) ** 2

    def static_power(self) -> Dict[str, float]:
        scale = self._voltage_scale_static()
        return {
            name: self.LEAKAGE_DENSITY * area * scale
            for name, area in self.structure_areas().items()
        }

    def dynamic_power(self, activity: ActivityVector) -> Dict[str, float]:
        """Dynamic watts per structure from activity factors (Eq 3.16)."""
        if activity.cycles <= 0.0:
            return {}
        freq_hz = self.config.frequency_ghz * 1e9
        vscale = self._voltage_scale_dynamic()
        seconds = activity.cycles / freq_hz

        def watts(event: str, count: float) -> float:
            return (
                count * EVENT_ENERGY_NJ[event] * 1e-9 * vscale / seconds
            )

        power: Dict[str, float] = {}
        power["core_logic"] = watts("uop", activity.uops) + watts(
            "clock", activity.cycles
        )
        fu = 0.0
        for kind, count in activity.uop_kind_counts.items():
            event = _UOP_EVENT.get(kind, "int_alu")
            fu += watts(event, count)
        power["functional_units"] = fu
        power["rob_rf"] = watts("uop", activity.uops) * 0.6
        power["predictor"] = watts("branch_lookup", activity.branch_lookups)
        power["l1"] = watts("l1", activity.l1_accesses)
        power["l2"] = watts("l2", activity.l2_accesses)
        power["llc"] = watts("llc", activity.llc_accesses)
        power["memctrl"] = watts("dram", activity.dram_accesses)
        return power

    def evaluate(self, activity: ActivityVector) -> PowerBreakdown:
        return PowerBreakdown(
            static=self.static_power(),
            dynamic=self.dynamic_power(activity),
        )

    # -- energy metrics ---------------------------------------------------

    def energy_joules(self, activity: ActivityVector) -> float:
        breakdown = self.evaluate(activity)
        seconds = activity.cycles / (self.config.frequency_ghz * 1e9)
        return breakdown.total * seconds

    def edp(self, activity: ActivityVector) -> float:
        """Energy-delay product (J*s)."""
        seconds = activity.cycles / (self.config.frequency_ghz * 1e9)
        return self.energy_joules(activity) * seconds

    def ed2p(self, activity: ActivityVector) -> float:
        """Energy-delay-squared product (J*s^2)."""
        seconds = activity.cycles / (self.config.frequency_ghz * 1e9)
        return self.energy_joules(activity) * seconds * seconds
