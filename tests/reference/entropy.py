"""Scalar oracle of :func:`repro.frontend.entropy.profile_branch_entropy`."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.frontend.entropy import BranchEntropyProfile, linear_entropy
from repro.isa import Instruction


def _profile_branch_entropy_scalar(
    trace: Iterable[Instruction],
    history_lengths: Sequence[int] = (4, 8, 12),
) -> BranchEntropyProfile:
    """Scalar reference: one pass with a dict table per history length.

    Per history length a table ``(pc, history) -> [taken, not_taken]``
    is filled in stream order; the execution-weighted average of
    ``E(p(b, H))`` (Eq 3.15) is then summed in the table's insertion
    order -- the order the vectorized pass reproduces bitwise.
    """
    tables: Dict[int, Dict[Tuple[int, int], List[int]]] = {
        h: {} for h in history_lengths
    }
    histories: Dict[int, int] = {h: 0 for h in history_lengths}
    masks: Dict[int, int] = {h: (1 << h) - 1 for h in history_lengths}
    num_branches = 0

    for instr in trace:
        if not instr.is_branch:
            continue
        num_branches += 1
        taken = instr.taken
        for h in history_lengths:
            key = (instr.pc, histories[h])
            record = tables[h].get(key)
            if record is None:
                record = [0, 0]
                tables[h][key] = record
            record[0 if taken else 1] += 1
            histories[h] = ((histories[h] << 1) | int(taken)) & masks[h]

    profile = BranchEntropyProfile(num_branches=num_branches)
    for h in history_lengths:
        weighted = 0.0
        total = 0
        for (taken_count, not_taken_count) in tables[h].values():
            n = taken_count + not_taken_count
            p = taken_count / n
            weighted += n * linear_entropy(p)
            total += n
        profile.entropy[h] = weighted / total if total else 0.0
    return profile
