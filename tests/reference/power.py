"""Scalar oracle of the power backend: one (config, activity) at a time.

:func:`repro.core.power.power_batch` is the only power arithmetic in the
package: the model and the simulator-side sweeps both price activity
through it.  This module keeps the per-configuration ``PowerModel`` it
replaced, verbatim, and the kernel must reproduce it *bitwise*: every
static and dynamic watt, the breakdowns' dict key order (the totals sum
over ``.values()``), ``.total``, energy, EDP and ED^2P.
"""

from __future__ import annotations

from typing import Dict

from repro.core.machine import MachineConfig
from repro.core.power import (
    EVENT_ENERGY_NJ,
    REFERENCE_VDD,
    _UOP_EVENT,
    ActivityVector,
    PowerBreakdown,
)


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
