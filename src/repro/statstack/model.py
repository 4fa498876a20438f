"""The StatStack reuse -> stack distance transform and miss-rate queries.

Given the reuse-distance histogram of an application, the expected stack
distance of a reuse with distance ``d`` is the expected number of *unique*
lines touched inside the reuse window.  An intervening access at position
``i`` inside the window contributes a unique line exactly when its own
forward reuse "arrow" reaches past the window end (thesis Fig 4.1: count
the intersecting arrows), which happens with probability
``P(RD > d - i)``.  Summing over the window:

    E[SD(d)] = sum_{j=0}^{d-1} P(RD > j)

The miss ratio of a fully-associative LRU cache with ``C`` lines is then
the fraction of accesses whose expected stack distance is >= C, plus the
cold accesses (never-reused lines always miss).

Multi-level hierarchies are modeled by querying each level's size
independently (inclusive hierarchy assumption, thesis §4.2).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.statstack.reuse import ReuseProfile

#: Version of the reuse -> stack distance conversion.  Bump whenever
#: :meth:`StatStack._expected_stack_distances` changes so cached tables
#: from older releases are rebuilt instead of silently reused.
TABLES_VERSION = 1


class StatStack:
    """Statistical cache model built from one :class:`ReuseProfile`.

    Parameters
    ----------
    profile:
        The sampled reuse-distance histograms to transform.
    tables:
        Optional precomputed stack-distance tables as returned by
        :meth:`export_tables`.  When the tables match the profile's
        distinct reuse distances, the expensive expected-stack-distance
        pass is skipped; on any mismatch the tables are ignored and the
        model is rebuilt from scratch (so stale caches degrade to a
        recomputation, never to wrong answers).
    """

    def __init__(self, profile: ReuseProfile,
                 tables: Optional[Dict[str, List[float]]] = None) -> None:
        self.profile = profile
        self._build(tables)

    def export_tables(self) -> Dict[str, List[float]]:
        """Serialize the derived stack-distance tables.

        Returns
        -------
        dict
            JSON-compatible mapping with the conversion-algorithm
            ``version``, the distinct reuse ``distances`` with their
            ``counts`` and ``cold`` mass, and the ``expected_sd`` value
            at each distance -- everything :meth:`from_tables` needs to
            both skip the conversion pass and detect staleness.
        """
        return {
            "version": TABLES_VERSION,
            "distances": [int(d) for d in self._distances],
            "counts": [float(c) for c in self._counts],
            "cold": int(
                self.profile.cold_loads + self.profile.cold_stores
            ),
            "expected_sd": [float(v) for v in self._expected_sd],
        }

    @classmethod
    def from_tables(
        cls, profile: ReuseProfile, tables: Dict[str, List[float]]
    ) -> "StatStack":
        """Build a model, reusing cached tables when they still apply."""
        return cls(profile, tables=tables)

    def _tables_match(self, tables: Dict[str, List[float]]) -> bool:
        if tables.get("version") != TABLES_VERSION:
            return False
        distances = tables.get("distances")
        counts = tables.get("counts")
        expected = tables.get("expected_sd")
        if distances is None or counts is None or expected is None:
            return False
        cold = self.profile.cold_loads + self.profile.cold_stores
        if tables.get("cold") != cold:
            return False
        n = self._distances.size
        if len(distances) != n or len(counts) != n or len(expected) != n:
            return False
        return all(
            int(a) == int(b) for a, b in zip(distances, self._distances)
        ) and all(
            float(a) == float(b) for a, b in zip(counts, self._counts)
        )

    def _build(self, tables: Optional[Dict[str, List[float]]] = None) -> None:
        histogram = self.profile.histogram
        if histogram:
            distances = np.array(sorted(histogram), dtype=np.int64)
            counts = np.array(
                [histogram[d] for d in distances], dtype=np.float64
            )
        else:
            distances = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.float64)
        total = counts.sum()
        cold = self.profile.cold_loads + self.profile.cold_stores
        self._distances = distances
        self._counts = counts
        self._total_reuses = float(total)
        self._total_sampled = float(total + cold)

        # Expected stack distance per distinct reuse distance:
        #   E[SD(d)] = sum_{j=0}^{d-1} P(RD > j)
        # P(RD > j) is a step function, constant between distinct distances,
        # so the sum telescopes over segments.
        if tables is not None and self._tables_match(tables):
            self._expected_sd = np.array(
                tables["expected_sd"], dtype=np.float64
            )
        else:
            self._expected_sd = self._expected_stack_distances()

    def _expected_stack_distances(self) -> np.ndarray:
        """E[SD] at each distinct reuse distance (vectorized prefix sums)."""
        n = self._distances.size
        if n == 0:
            return np.zeros(0)
        cold = self.profile.cold_loads + self.profile.cold_stores
        total = self._total_sampled
        # Segment boundaries: [0, d_0], (d_0, d_1], ... P(RD > j) is
        # constant within (d_{k-1}, d_k]: it equals
        # (reuses with RD > d_{k-1}) adjusted... We evaluate stepwise:
        # for j in [0, d_0): P = (all reuses + cold)/total  (RD >= 0 ... > j
        #   means all, since min distance is d_0 >= 0 -> RD > j for j < d_0
        #   except reuses exactly at smaller distances -- none below d_0).
        # Between consecutive distinct distances the survival is constant.
        expected = np.zeros(n)
        running = 0.0
        prev_d = 0
        mass_below = 0.0  # reuses with RD <= previous boundary
        for k in range(n):
            d = int(self._distances[k])
            # For j in [prev_d, d): P(RD > j) = (total_reuses - mass_below
            #                                     + cold) / total
            surv = (self._total_reuses - mass_below + cold) / total
            running += surv * (d - prev_d)
            expected[k] = running
            mass_below += float(self._counts[k])
            prev_d = d
        return expected

    def expected_stack_distance(self, reuse_distance: int) -> float:
        """E[SD] for one reuse distance."""
        if self._distances.size == 0:
            return 0.0
        index = bisect.bisect_left(self._distances, reuse_distance)
        if index < len(self._distances) and (
            self._distances[index] == reuse_distance
        ):
            return float(self._expected_sd[index])
        # Interpolate a non-profiled distance by extending from the
        # previous boundary with the local survival value.
        cold = self.profile.cold_loads + self.profile.cold_stores
        if index == 0:
            surv = (self._total_reuses + cold) / max(self._total_sampled, 1.0)
            return surv * reuse_distance
        prev_d = int(self._distances[index - 1])
        base = float(self._expected_sd[index - 1])
        mass_below = float(self._counts[:index].sum())
        surv = (self._total_reuses - mass_below + cold) / self._total_sampled
        return base + surv * (reuse_distance - prev_d)

    # ------------------------------------------------------------------
    # Miss-rate queries
    # ------------------------------------------------------------------

    def _typed_histogram(self, kind: str) -> Dict[int, int]:
        if kind == "load":
            return self.profile.load_histogram
        if kind == "store":
            return self.profile.store_histogram
        if kind == "all":
            return self.profile.histogram
        raise ValueError(f"kind must be load/store/all, got {kind!r}")

    def _typed_cold(self, kind: str) -> int:
        if kind == "load":
            return self.profile.cold_loads
        if kind == "store":
            return self.profile.cold_stores
        return self.profile.cold_loads + self.profile.cold_stores

    def miss_ratio_of(
        self,
        histogram: Dict[int, int],
        cold: int,
        cache_bytes: int,
        include_cold: bool = True,
    ) -> float:
        """Miss ratio for an arbitrary reuse histogram.

        The survival transform (hence the reuse->stack mapping) is the
        *global* one; the histogram selects which accesses are queried.
        Used for per-micro-trace miss ratios in the per-sample model
        evaluation (TC'16 extension).
        """
        cache_lines = max(1, cache_bytes // self.profile.line_size)
        total = sum(histogram.values()) + cold
        if total == 0:
            return 0.0
        missing = cold if include_cold else 0
        for distance, count in histogram.items():
            if self.expected_stack_distance(distance) >= cache_lines:
                missing += count
        return missing / total

    def miss_ratio(
        self,
        cache_bytes: int,
        kind: str = "all",
        include_cold: bool = True,
    ) -> float:
        """Miss ratio of a fully-associative LRU cache of ``cache_bytes``.

        ``kind`` selects which access type's outcome is queried; reuse
        windows always span the combined stream (a load's stack distance
        counts intervening stores too).
        """
        return self.miss_ratio_of(
            self._typed_histogram(kind),
            self._typed_cold(kind),
            cache_bytes,
            include_cold=include_cold,
        )

    def misses(
        self,
        cache_bytes: int,
        kind: str = "load",
        include_cold: bool = True,
    ) -> float:
        """Estimated absolute miss count, scaled to the full stream."""
        ratio = self.miss_ratio(cache_bytes, kind=kind,
                                include_cold=include_cold)
        if kind == "load":
            return ratio * self.profile.load_accesses
        if kind == "store":
            return ratio * self.profile.store_accesses
        return ratio * self.profile.total_accesses

    def mpki(
        self,
        cache_bytes: int,
        instructions: int,
        kind: str = "all",
        include_cold: bool = True,
    ) -> float:
        """Estimated misses per kilo-instruction for one cache size."""
        if instructions == 0:
            return 0.0
        return 1000.0 * self.misses(
            cache_bytes, kind=kind, include_cold=include_cold
        ) / instructions

    def hierarchy_miss_ratios(
        self,
        level_bytes: Sequence[int],
        kind: str = "all",
        include_cold: bool = True,
    ) -> List[float]:
        """Per-level miss ratios, each level modeled independently."""
        return [
            self.miss_ratio(size, kind=kind, include_cold=include_cold)
            for size in level_bytes
        ]
