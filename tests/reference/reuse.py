"""Scalar oracle of :func:`repro.statstack.reuse.collect_reuse_profile`."""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Tuple

from repro.statstack.reuse import ReuseProfile


def _collect_reuse_profile_scalar(
    accesses: Iterable[Tuple[int, bool]],
    line_size: int = 64,
    sample_rate: float = 1.0,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> ReuseProfile:
    """Scalar reference implementation of :func:`collect_reuse_profile`.

    One Python loop with a per-line last-access dictionary -- the
    pre-columnar implementation, kept verbatim as the ground truth the
    vectorized path is property-tested against (bitwise).
    """
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError("sample_rate must be in (0, 1]")
    rng = rng if rng is not None else random.Random(seed)
    profile = ReuseProfile(line_size=line_size)
    last_access: Dict[int, int] = {}
    index = 0
    record_all = sample_rate >= 1.0

    for addr, is_write in accesses:
        line = addr // line_size
        if is_write:
            profile.store_accesses += 1
        else:
            profile.load_accesses += 1

        recorded = record_all or rng.random() < sample_rate
        previous = last_access.get(line)
        if recorded:
            profile.sampled_accesses += 1
            if previous is None:
                if is_write:
                    profile.cold_stores += 1
                else:
                    profile.cold_loads += 1
            else:
                distance = index - previous - 1
                profile.histogram[distance] = (
                    profile.histogram.get(distance, 0) + 1
                )
                typed = (
                    profile.store_histogram if is_write
                    else profile.load_histogram
                )
                typed[distance] = typed.get(distance, 0) + 1
        last_access[line] = index
        index += 1
    return profile
