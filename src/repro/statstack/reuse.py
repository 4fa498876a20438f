"""Reuse-distance profiling (cache-line granularity, optionally sampled).

A *reuse distance* counts the memory accesses to other cache lines between
two accesses to the same line (thesis Fig 4.1).  Reuse distances need only
a last-access counter per line -- far cheaper than maintaining an LRU stack
-- which is why StatStack profiles reuse distances and converts them to
stack distances statistically.

Sampling follows the thesis (§5.4.1): the access stream is divided into
bursts and only one in ``1/sample_rate`` accesses seeds a tracked reuse;
distances are still exact for the tracked accesses.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.workloads.columns import (
    bernoulli_draws,
    count_histogram,
    previous_occurrence,
)


@dataclass
class ReuseProfile:
    """Sampled reuse-distance histograms of one access stream.

    Attributes
    ----------
    histogram:
        Combined (loads+stores) reuse distance -> count.  Distances are in
        accesses to other lines; an access with no prior use of its line is
        *cold* and appears in the cold counters instead.
    load_histogram / store_histogram:
        Same, typed by the access that closes the reuse (the access whose
        hit/miss outcome the distance determines).
    cold_loads / cold_stores:
        Sampled accesses whose line was never touched before.
    load_accesses / store_accesses:
        Total (unsampled) access counts, for scaling to MPKI.
    line_size:
        Cache line granularity in bytes.
    """

    histogram: Dict[int, int] = field(default_factory=dict)
    load_histogram: Dict[int, int] = field(default_factory=dict)
    store_histogram: Dict[int, int] = field(default_factory=dict)
    cold_loads: int = 0
    cold_stores: int = 0
    load_accesses: int = 0
    store_accesses: int = 0
    sampled_accesses: int = 0
    line_size: int = 64

    @property
    def total_accesses(self) -> int:
        return self.load_accesses + self.store_accesses

    @property
    def sampled_total(self) -> int:
        """Sampled reuses + sampled cold accesses (histogram mass)."""
        return (
            sum(self.histogram.values()) + self.cold_loads + self.cold_stores
        )


def collect_reuse_profile(
    accesses: Iterable[Tuple[int, bool]],
    line_size: int = 64,
    sample_rate: float = 1.0,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> ReuseProfile:
    """Profile reuse distances over an ``(address, is_write)`` stream.

    With ``sample_rate < 1`` only a random subset of accesses closes
    recorded reuses, mirroring StatStack's burst sampling; distances remain
    exact because the per-line last-access index is updated for every
    access.

    Parameters
    ----------
    accesses:
        Iterable of ``(address, is_write)`` pairs in stream order, or a
        pre-columnized ``(addresses, is_write)`` pair of NumPy arrays
        -- the fast path that skips per-access tuple iteration.
    line_size:
        Cache-line granularity in bytes.
    sample_rate:
        Probability that an access closes a recorded reuse; must be in
        ``(0, 1]``.
    seed:
        Seed of the sampling RNG.  The same ``(accesses, sample_rate,
        seed)`` triple always produces a bitwise-identical profile.
    rng:
        Explicit ``random.Random`` instance; overrides ``seed``.  Pass
        one to share a sampling stream across several collection calls.

    Returns
    -------
    ReuseProfile
        The sampled (or exhaustive) reuse-distance histograms.
    """
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError("sample_rate must be in (0, 1]")
    rng = rng if rng is not None else random.Random(seed)
    if isinstance(accesses, tuple) and len(accesses) == 2 and isinstance(
        accesses[0], np.ndarray
    ):
        addr, is_write = accesses
        addr = np.asarray(addr, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
    else:
        records = np.fromiter(
            accesses, dtype=np.dtype([("addr", "i8"), ("w", "?")])
        )
        addr = records["addr"]
        is_write = records["w"]
    return _reuse_profile_from_arrays(
        addr, is_write, line_size=line_size, sample_rate=sample_rate,
        rng=rng,
    )


def reuse_sweep_into(
    profile: ReuseProfile,
    addr: np.ndarray,
    is_write: np.ndarray,
    sample_rate: float,
    rng: Optional[random.Random],
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorized reuse-distance sweep: the shared bitwise-sensitive core.

    Fills ``profile``'s access totals, cold counts and typed histograms
    from the ``(addr, is_write)`` arrays (line granularity taken from
    ``profile.line_size``).  The per-line last-access dictionary becomes
    one stable-argsort predecessor sweep
    (:func:`~repro.workloads.columns.previous_occurrence`) and the
    Bernoulli sampling decision one vectorized compare against draws
    taken from the *scalar* RNG in stream order, so the recorded subset
    -- and hence every histogram, including key insertion order -- is
    bitwise identical to the scalar oracle in
    ``tests/reference/reuse.py``.

    Both :func:`collect_reuse_profile` and the profiler's global reuse
    pass (``repro.profiler.profile._global_reuse_pass``) delegate here,
    so the two can never drift apart.

    Returns
    -------
    tuple of ndarray, or None
        ``(recorded, cold, distance)`` per-access intermediates for
        callers that attribute recorded accesses further (the
        micro-trace attribution pass); ``None`` for an empty stream.
    """
    n = int(addr.shape[0])
    profile.store_accesses = int(np.count_nonzero(is_write))
    profile.load_accesses = n - profile.store_accesses
    if n == 0:
        return None

    prev = previous_occurrence(addr // profile.line_size)
    if sample_rate >= 1.0:
        recorded = np.ones(n, dtype=bool)
    else:
        recorded = bernoulli_draws(rng, n) < sample_rate
    profile.sampled_accesses = int(np.count_nonzero(recorded))

    cold = prev < 0
    profile.cold_stores = int(np.count_nonzero(recorded & cold & is_write))
    profile.cold_loads = int(
        np.count_nonzero(recorded & cold & ~is_write)
    )
    closing = recorded & ~cold
    distance = np.arange(n, dtype=np.int64) - prev - 1
    profile.histogram = count_histogram(distance[closing])
    profile.load_histogram = count_histogram(
        distance[closing & ~is_write]
    )
    profile.store_histogram = count_histogram(
        distance[closing & is_write]
    )
    return recorded, cold, distance


def _reuse_profile_from_arrays(
    addr: np.ndarray,
    is_write: np.ndarray,
    line_size: int,
    sample_rate: float,
    rng: random.Random,
) -> ReuseProfile:
    """Vectorized reuse-distance collection over address/type arrays."""
    profile = ReuseProfile(line_size=line_size)
    reuse_sweep_into(profile, addr, is_write, sample_rate, rng)
    return profile
