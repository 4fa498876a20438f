"""Set-associative LRU caches and an inclusive hierarchy (functional).

This is the simulation ground truth the statistical StatStack model is
validated against (thesis Fig 4.2) and the memory substrate of the
reference simulator.  Misses are classified cold vs capacity/conflict
(thesis Fig 4.4): a miss is *cold* when the line was never resident before.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class MissKind(enum.Enum):
    HIT = "hit"
    COLD = "cold"
    CAPACITY = "capacity"  # capacity or conflict; not distinguished


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int = 8
    line_size: int = 64
    latency: int = 4  # access latency in cycles (hit at this level)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ValueError(
                f"size {self.size_bytes} not divisible by "
                f"assoc*line ({self.associativity}*{self.line_size})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)


@dataclass
class CacheStats:
    """Per-level access statistics, split by access type."""

    load_accesses: int = 0
    load_misses: int = 0
    load_cold_misses: int = 0
    store_accesses: int = 0
    store_misses: int = 0
    store_cold_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.load_accesses + self.store_accesses

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, config: CacheConfig, name: str = "L?") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # One OrderedDict per set: line tag -> True, in LRU order
        # (first = LRU, last = MRU).
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._ever_resident: Set[int] = set()

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.config.line_size
        return line, line % self.config.num_sets

    def lookup(self, addr: int) -> bool:
        """Check residency without updating state."""
        line, set_index = self._locate(addr)
        return line in self._sets[set_index]

    def access(self, addr: int, is_write: bool = False,
               is_prefetch: bool = False) -> MissKind:
        """Access one address; update LRU state and statistics."""
        line, set_index = self._locate(addr)
        ways = self._sets[set_index]
        if is_prefetch:
            self.stats.prefetch_accesses += 1
        elif is_write:
            self.stats.store_accesses += 1
        else:
            self.stats.load_accesses += 1

        if line in ways:
            ways.move_to_end(line)
            return MissKind.HIT

        kind = (
            MissKind.COLD if line not in self._ever_resident
            else MissKind.CAPACITY
        )
        if is_prefetch:
            self.stats.prefetch_misses += 1
        elif is_write:
            self.stats.store_misses += 1
            if kind is MissKind.COLD:
                self.stats.store_cold_misses += 1
        else:
            self.stats.load_misses += 1
            if kind is MissKind.COLD:
                self.stats.load_cold_misses += 1

        self._fill(line, ways)
        return kind

    def _fill(self, line: int, ways: OrderedDict) -> None:
        if len(ways) >= self.config.associativity:
            ways.popitem(last=False)
            self.stats.evictions += 1
        ways[line] = True
        self._ever_resident.add(line)

    def reset_stats(self) -> None:
        """Clear counters but keep cache contents (for warmup runs)."""
        self.stats = CacheStats()


class CacheAccessResult:
    """Outcome of a hierarchy access: deepest level that hit and latency."""

    __slots__ = ("hit_level", "latency", "kinds")

    def __init__(self, hit_level: int, latency: int,
                 kinds: List[MissKind]) -> None:
        #: 1-based cache level that served the access; 0 means DRAM.
        self.hit_level = hit_level
        #: total access latency in cycles (hit latency of serving level).
        self.latency = latency
        #: per-level miss kinds for the levels that missed.
        self.kinds = kinds


class CacheHierarchy:
    """An inclusive multi-level data (or instruction) cache hierarchy."""

    def __init__(
        self,
        configs: List[CacheConfig],
        dram_latency: int = 200,
    ) -> None:
        if not configs:
            raise ValueError("need at least one cache level")
        self.levels = [
            Cache(config, name=f"L{i + 1}")
            for i, config in enumerate(configs)
        ]
        self.dram_latency = dram_latency
        self.dram_accesses = 0

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def llc(self) -> Cache:
        return self.levels[-1]

    def access(self, addr: int, is_write: bool = False,
               is_prefetch: bool = False) -> CacheAccessResult:
        """Look up all levels top-down; fill on the way back (inclusive)."""
        kinds: List[MissKind] = []
        for index, cache in enumerate(self.levels):
            kind = cache.access(addr, is_write=is_write,
                                is_prefetch=is_prefetch)
            if kind is MissKind.HIT:
                return CacheAccessResult(
                    hit_level=index + 1,
                    latency=cache.config.latency,
                    kinds=kinds,
                )
            kinds.append(kind)
        self.dram_accesses += 1
        return CacheAccessResult(
            hit_level=0, latency=self.dram_latency, kinds=kinds
        )

    def mpki(self, instructions: int) -> List[float]:
        """Misses-per-kilo-instruction per level (loads + stores)."""
        if instructions == 0:
            return [0.0] * self.num_levels
        return [
            1000.0 * cache.stats.misses / instructions
            for cache in self.levels
        ]

    def reset_stats(self) -> None:
        for cache in self.levels:
            cache.reset_stats()
        self.dram_accesses = 0


def default_hierarchy(dram_latency: int = 200) -> CacheHierarchy:
    """The thesis reference 32 KB / 256 KB / 8 MB three-level hierarchy."""
    return CacheHierarchy(
        [
            CacheConfig(32 * 1024, associativity=8, line_size=64, latency=4),
            CacheConfig(256 * 1024, associativity=8, line_size=64, latency=12),
            CacheConfig(8 * 1024 * 1024, associativity=16, line_size=64,
                        latency=30),
        ],
        dram_latency=dram_latency,
    )
