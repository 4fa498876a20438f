"""DVFS exploration and power-constrained optimization (thesis §7.2-7.3).

The analytical model's performance prediction is in cycles, so scaling
frequency (and the DVFS rail voltage) re-prices the same cycle count in
seconds and watts; memory latency in *cycles* scales with frequency
because DRAM time is constant in nanoseconds.  For simplicity -- and like
the thesis' DVFS study -- we re-evaluate the model at every operating
point (one config batch) with a frequency-scaled DRAM latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.machine import DVFSPoint, MachineConfig, dvfs_points
from repro.core.model import AnalyticalModel, ModelResult
from repro.profiler.profile import ApplicationProfile


@dataclass
class DVFSResult:
    """Model evaluation at one DVFS operating point."""

    point: DVFSPoint
    result: ModelResult

    @property
    def seconds(self) -> float:
        """Predicted execution time at this operating point."""
        return self.result.seconds

    @property
    def power_watts(self) -> float:
        """Predicted average power at this operating point."""
        return self.result.power_watts

    @property
    def energy_joules(self) -> float:
        """Predicted total energy at this operating point."""
        return self.result.energy_joules

    @property
    def edp(self) -> float:
        """Energy-delay product at this operating point."""
        return self.result.edp

    @property
    def ed2p(self) -> float:
        """Energy-delay-squared product at this operating point."""
        return self.result.ed2p


def config_at(
    base: MachineConfig, point: DVFSPoint
) -> MachineConfig:
    """The base machine re-clocked to one DVFS point.

    DRAM latency is constant in wall-clock time, so its cycle count scales
    with frequency.
    """
    scale = point.frequency_ghz / base.frequency_ghz
    return replace(
        base,
        name=f"{base.name}@{point.frequency_ghz:.2f}GHz",
        frequency_ghz=point.frequency_ghz,
        vdd=point.vdd,
        dram_latency=max(1, int(round(base.dram_latency * scale))),
        bus_transfer_cycles=max(
            1, int(round(base.bus_transfer_cycles * scale))
        ),
    )


def explore_dvfs(
    profile: ApplicationProfile,
    base: MachineConfig,
    points: Optional[Sequence[DVFSPoint]] = None,
    model: Optional[AnalyticalModel] = None,
    engine=None,
) -> List[DVFSResult]:
    """Evaluate the model at each DVFS point (Table 7.2 / Fig 7.3).

    Parameters
    ----------
    profile:
        The application profile.
    base:
        The machine to re-clock.
    points:
        DVFS operating points; defaults to the Table 7.2 grid.
    model:
        Analytical model; defaults to a fresh one.  Ignored when
        ``engine`` is given.
    engine:
        Optional :class:`~repro.explore.engine.SweepEngine`; the grid is
        then evaluated through the engine (sharing its caches and
        worker pool) instead of one local ``model.predict_batch`` call.

    Returns
    -------
    list of DVFSResult
        One result per operating point, in ``points`` order.
    """
    points = list(points or dvfs_points())
    configs = [config_at(base, point) for point in points]
    if engine is not None:
        stream = list(engine.iter_sweep([profile], configs))
        if len(stream) != len(points):
            # zip() would silently truncate; a short stream means the
            # engine dropped results and the pairing would be wrong.
            raise ValueError(
                f"engine yielded {len(stream)} results for "
                f"{len(points)} DVFS operating points"
            )
        return [
            DVFSResult(point=point, result=design_point.result)
            for point, design_point in zip(points, stream)
        ]
    model = model or AnalyticalModel()
    return [
        DVFSResult(point=point, result=result)
        for point, result in zip(points,
                                 model.predict_batch(profile, configs))
    ]


def optimal_ed2p(results: Sequence[DVFSResult]) -> DVFSResult:
    """The ED^2P-minimizing operating point (Fig 7.3)."""
    if not results:
        raise ValueError("no DVFS results")
    return min(results, key=lambda r: r.ed2p)


def best_under_power_cap(
    candidates: Sequence[Tuple[MachineConfig, ModelResult]],
    power_cap_watts: float,
) -> Optional[Tuple[MachineConfig, ModelResult]]:
    """Fastest design whose predicted power fits the cap (Table 7.1)."""
    feasible = [
        (config, result)
        for config, result in candidates
        if result.power_watts <= power_cap_watts
    ]
    if not feasible:
        return None
    return min(feasible, key=lambda item: item[1].seconds)
