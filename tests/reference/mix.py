"""Scalar oracle of :func:`repro.profiler.mix.profile_mix`."""

from __future__ import annotations

from typing import Iterable

from repro.isa import Instruction, crack
from repro.profiler.mix import UopMix


def _profile_mix_scalar(instructions: Iterable[Instruction]) -> UopMix:
    """Scalar reference: crack every instruction, one at a time.

    The pre-columnar implementation; its ``counts`` insertion order
    (first appearance of each uop kind) is part of the bitwise contract
    the vectorized pass reproduces.
    """
    mix = UopMix()
    for instr in instructions:
        mix.num_instructions += 1
        for kind in crack(instr.op):
            mix.counts[kind] = mix.counts.get(kind, 0) + 1
            mix.num_uops += 1
    return mix
