"""Machine configurations: cores, memory hierarchies, design spaces.

The reference configuration follows thesis Table 6.1/6.4 (Intel
Nehalem-like): 4-wide dispatch, 128-entry ROB, 6 issue ports, 32 KB L1I/D,
256 KB L2, 8 MB LLC, 200-cycle DRAM, 10 MSHRs, tournament-class branch
predictor, 2.66 GHz.

The design space (Table 6.3) is the cartesian product of three values for
each of five parameters: dispatch width, ROB size, L1D size, LLC size and
frequency -- 3^5 = 243 configurations, matching the thesis count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.caches.cache import CacheConfig
from repro.isa import UopKind


@dataclass(frozen=True)
class PortSpec:
    """One issue port and the uop kinds it can forward."""

    name: str
    kinds: FrozenSet[UopKind]


def nehalem_ports() -> Tuple[PortSpec, ...]:
    """The six-port Nehalem issue stage (thesis Fig 3.5)."""
    return (
        PortSpec("P0", frozenset({UopKind.INT_ALU, UopKind.FP_MUL,
                                  UopKind.DIV, UopKind.MOVE})),
        PortSpec("P1", frozenset({UopKind.INT_ALU, UopKind.INT_MUL,
                                  UopKind.FP_ALU, UopKind.MOVE})),
        PortSpec("P2", frozenset({UopKind.LOAD})),
        PortSpec("P3", frozenset({UopKind.STORE})),
        PortSpec("P4", frozenset({UopKind.STORE})),
        PortSpec("P5", frozenset({UopKind.BRANCH, UopKind.MOVE})),
    )


def narrow_ports() -> Tuple[PortSpec, ...]:
    """A three-port low-power issue stage."""
    return (
        PortSpec("P0", frozenset({UopKind.INT_ALU, UopKind.INT_MUL,
                                  UopKind.FP_ALU, UopKind.FP_MUL,
                                  UopKind.DIV, UopKind.MOVE})),
        PortSpec("P1", frozenset({UopKind.LOAD, UopKind.STORE})),
        PortSpec("P2", frozenset({UopKind.INT_ALU, UopKind.BRANCH,
                                  UopKind.MOVE})),
    )


#: Non-pipelined uop kinds (occupy their unit for the full latency).
NON_PIPELINED: FrozenSet[UopKind] = frozenset({UopKind.DIV})


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine description consumed by model and simulator."""

    name: str = "nehalem"
    # Core
    dispatch_width: int = 4
    rob_size: int = 128
    frontend_refill: int = 6  # c_fe: front-end refill after redirect
    ports: Tuple[PortSpec, ...] = field(default_factory=nehalem_ports)
    uop_latencies: Tuple[Tuple[UopKind, int], ...] = (
        (UopKind.INT_ALU, 1),
        (UopKind.INT_MUL, 3),
        (UopKind.FP_ALU, 3),
        (UopKind.FP_MUL, 5),
        (UopKind.DIV, 18),
        (UopKind.LOAD, 2),
        (UopKind.STORE, 1),
        (UopKind.BRANCH, 1),
        (UopKind.MOVE, 1),
    )
    # Branch prediction
    predictor: str = "tournament"
    # Memory hierarchy (L1D, L2, LLC); L1I mirrors L1D geometry.
    l1d: CacheConfig = CacheConfig(32 * 1024, 8, 64, latency=4)
    l2: CacheConfig = CacheConfig(256 * 1024, 8, 64, latency=12)
    llc: CacheConfig = CacheConfig(8 * 1024 * 1024, 16, 64, latency=30)
    l1i: CacheConfig = CacheConfig(32 * 1024, 8, 64, latency=1)
    dram_latency: int = 200
    bus_transfer_cycles: int = 16  # cache line / bus width, per access
    memory_channels: int = 1
    mshr_entries: int = 10
    # Prefetching
    prefetch: bool = False
    prefetch_table: int = 64
    prefetch_degree: int = 1
    dram_page_bytes: int = 4096
    # Clock / voltage (power model)
    frequency_ghz: float = 2.66
    vdd: float = 1.1
    technology_nm: int = 45

    # ------------------------------------------------------------------

    def latency_of(self, kind: UopKind) -> int:
        for k, latency in self.uop_latencies:
            if k is kind:
                return latency
        return 1

    def latencies(self) -> Dict[UopKind, int]:
        return dict(self.uop_latencies)

    def cache_levels(self) -> List[CacheConfig]:
        return [self.l1d, self.l2, self.llc]

    def level_latencies(self) -> List[int]:
        """Hit latency per level, then DRAM."""
        return [c.latency for c in self.cache_levels()] + [self.dram_latency]

    def units_of(self, kind: UopKind) -> int:
        """Number of functional units of one kind (one per serving port)."""
        return sum(1 for port in self.ports if kind in port.kinds)

    def with_frequency(self, frequency_ghz: float,
                       vdd: Optional[float] = None) -> "MachineConfig":
        """A DVFS variant of this config (latencies stay in cycles)."""
        new_vdd = vdd if vdd is not None else dvfs_vdd(frequency_ghz)
        return replace(
            self,
            name=f"{self.name}@{frequency_ghz:.2f}GHz",
            frequency_ghz=frequency_ghz,
            vdd=new_vdd,
        )


def dvfs_vdd(frequency_ghz: float) -> float:
    """Supply voltage for a frequency (linear DVFS rail, 45 nm-ish).

    Anchored at 2.66 GHz -> 1.1 V with ~0.12 V per GHz slope, floored at
    the near-threshold limit.
    """
    return max(0.7, 1.1 + 0.12 * (frequency_ghz - 2.66))


def nehalem() -> MachineConfig:
    """The reference architecture (thesis Table 6.1/6.4)."""
    return MachineConfig()


def low_power_core() -> MachineConfig:
    """A small in-order-ish core used for comparison plots (Fig 6.13)."""
    return MachineConfig(
        name="low-power",
        dispatch_width=2,
        rob_size=32,
        frontend_refill=4,
        ports=narrow_ports(),
        l1d=CacheConfig(16 * 1024, 4, 64, latency=3),
        l2=CacheConfig(128 * 1024, 8, 64, latency=10),
        llc=CacheConfig(1 * 1024 * 1024, 8, 64, latency=24),
        l1i=CacheConfig(16 * 1024, 4, 64, latency=1),
        mshr_entries=4,
        frequency_ghz=1.2,
        vdd=0.85,
    )


#: Design-space axes (Table 6.3): 3 values x 5 parameters = 243 cores.
DESIGN_SPACE_AXES: Dict[str, Sequence] = {
    "dispatch_width": (2, 4, 6),
    "rob_size": (64, 128, 256),
    "l1d_kb": (16, 32, 64),
    "llc_mb": (2, 4, 8),
    "frequency_ghz": (1.66, 2.66, 3.66),
}


#: Parameters understood by :func:`config_from_params`, with defaults.
CONFIG_PARAM_DEFAULTS: Dict[str, object] = {
    "dispatch_width": 4,
    "rob_size": 128,
    "l1d_kb": 32,
    "l2_kb": 256,
    "llc_mb": 8,
    "frequency_ghz": 2.66,
    "mshr_entries": None,  # None: derived from dispatch width
    "prefetch": False,
}


def config_from_params(params: Dict[str, object]) -> MachineConfig:
    """Build a named design-space configuration from a parameter dict.

    This is the single mapping from abstract design-space coordinates
    (``dispatch_width``, ``rob_size``, ``l1d_kb``, ``l2_kb``,
    ``llc_mb``, ``frequency_ghz``, ``mshr_entries``, ``prefetch``) to a
    concrete :class:`MachineConfig`, shared by the historical
    :func:`design_space` grid and the declarative
    :class:`~repro.explore.space.DesignSpace`.  Omitted parameters take
    the Nehalem-like reference values; for parameters at their default,
    nothing extra is appended to the generated name, so dicts drawn
    from the classic five axes reproduce the historical config names
    (and configs) bitwise.

    Parameters
    ----------
    params:
        Mapping from parameter name to value.  Unknown names raise
        ``ValueError`` (catching typos in externally supplied spaces).

    Returns
    -------
    MachineConfig
        The fully populated configuration.
    """
    unknown = set(params) - set(CONFIG_PARAM_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown design-space parameter(s): {sorted(unknown)}; "
            f"known: {sorted(CONFIG_PARAM_DEFAULTS)}"
        )
    width = int(params.get("dispatch_width", 4))
    rob = int(params.get("rob_size", 128))
    l1_kb = int(params.get("l1d_kb", 32))
    l2_kb = int(params.get("l2_kb", 256))
    llc_mb = params.get("llc_mb", 8)
    freq = params.get("frequency_ghz", 2.66)
    mshr = params.get("mshr_entries")
    prefetch = bool(params.get("prefetch", False))
    name = f"w{width}-rob{rob}-l1{l1_kb}k-llc{llc_mb}m-f{freq:.2f}"
    if l2_kb != 256:
        name += f"-l2{l2_kb}k"
    if mshr is not None:
        name += f"-mshr{int(mshr)}"
    if prefetch:
        name += "-pf"
    return MachineConfig(
        name=name,
        dispatch_width=width,
        rob_size=rob,
        ports=nehalem_ports() if width >= 4 else narrow_ports(),
        l1d=CacheConfig(l1_kb * 1024, 8, 64, latency=4),
        l1i=CacheConfig(l1_kb * 1024, 8, 64, latency=1),
        l2=CacheConfig(l2_kb * 1024, 8, 64, latency=12),
        llc=CacheConfig(int(llc_mb * 1024) * 1024, 16, 64, latency=30),
        mshr_entries=(max(4, 2 + width * 2) if mshr is None
                      else int(mshr)),
        prefetch=prefetch,
        frequency_ghz=freq,
        vdd=dvfs_vdd(freq),
    )


def design_space(
    axes: Optional[Dict[str, Sequence]] = None,
) -> List[MachineConfig]:
    """Enumerate the design space (243 configs with the default axes)."""
    axes = axes or DESIGN_SPACE_AXES
    names = list(axes)
    return [
        config_from_params(dict(zip(names, values)))
        for values in itertools.product(*(axes[n] for n in names))
    ]


@dataclass(frozen=True)
class DVFSPoint:
    """One DVFS operating point."""

    frequency_ghz: float
    vdd: float


def dvfs_points() -> List[DVFSPoint]:
    """The DVFS grid of Table 7.2."""
    return [
        DVFSPoint(f, dvfs_vdd(f))
        for f in (1.2, 1.6, 2.0, 2.4, 2.66, 3.0, 3.4)
    ]
