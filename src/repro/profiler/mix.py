"""Micro-op instruction mix profiling (thesis §5.1, Fig 5.2, Table 2.1).

The mix drives the base-component model: the uop count sets the unit of
work (§3.2) and the per-kind frequencies feed the issue-port scheduling
and functional-unit contention terms of the effective dispatch rate
(§3.4) plus the activity factors of the power model (§3.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.isa import Instruction, MacroOp, UopKind, crack
from repro.workloads.columns import TraceColumns


@dataclass
class UopMix:
    """Micro-op histogram over some instruction span."""

    counts: Dict[UopKind, int] = field(default_factory=dict)
    num_instructions: int = 0
    num_uops: int = 0

    def merge(self, other: "UopMix") -> None:
        self.num_instructions += other.num_instructions
        self.num_uops += other.num_uops
        for kind, count in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count

    def fraction(self, kind: UopKind) -> float:
        """Fraction of uops of one kind."""
        if self.num_uops == 0:
            return 0.0
        return self.counts.get(kind, 0) / self.num_uops

    def fractions(self) -> Dict[UopKind, float]:
        if self.num_uops == 0:
            return {}
        return {k: c / self.num_uops for k, c in self.counts.items()}

    @property
    def uops_per_instruction(self) -> float:
        if self.num_instructions == 0:
            return 0.0
        return self.num_uops / self.num_instructions

    @property
    def load_fraction(self) -> float:
        return self.fraction(UopKind.LOAD)

    @property
    def store_fraction(self) -> float:
        return self.fraction(UopKind.STORE)

    @property
    def branch_fraction(self) -> float:
        return self.fraction(UopKind.BRANCH)

    def average_latency(self, latencies: Mapping[UopKind, float]) -> float:
        """Execution-weighted average uop latency.

        The latency table comes from the machine configuration (it embeds
        the average load latency including L1/L2 hits, §3.3).
        """
        if self.num_uops == 0:
            return 1.0
        total = sum(
            count * latencies.get(kind, 1.0)
            for kind, count in self.counts.items()
        )
        return total / self.num_uops

    def scaled(self, factor: float) -> "UopMix":
        """A copy with all counts scaled (for sample extrapolation)."""
        scaled_mix = UopMix(
            counts={k: int(round(c * factor)) for k, c in self.counts.items()},
            num_instructions=int(round(self.num_instructions * factor)),
            num_uops=int(round(self.num_uops * factor)),
        )
        return scaled_mix


def profile_mix(
    instructions: Sequence[Instruction],
    columns: Optional[TraceColumns] = None,
) -> UopMix:
    """Profile the uop mix of an instruction span.

    The mix is one ``bincount`` over the macro-op codes expanded through
    the static cracking templates -- no per-instruction loop.  The
    ``counts`` dict is keyed in the order each uop kind first appears
    in the cracked instruction stream: downstream float reductions
    iterate ``counts.items()``, so key order is part of the bitwise
    contract, not a cosmetic detail.

    ``columns`` supplies a pre-built columnar view of the span; when
    omitted it is built from (or found cached on) ``instructions``.
    """
    if columns is None:
        columns = TraceColumns.ensure(instructions)
    op_counts = np.bincount(columns.op, minlength=len(MacroOp)).tolist()
    codes, first_index = np.unique(columns.op, return_index=True)
    mix = UopMix(num_instructions=len(columns))
    counts = mix.counts
    # Accumulate ops by first dynamic appearance (template order within
    # an op), so each kind is inserted at its first appearance in the
    # cracked stream; the integer totals are order-independent.
    for code in codes[np.argsort(first_index, kind="stable")].tolist():
        count = op_counts[code]
        for kind in crack(MacroOp(code)):
            counts[kind] = counts.get(kind, 0) + count
            mix.num_uops += count
    return mix
