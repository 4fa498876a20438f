"""Instruction-set substrate: x86-like macro instructions and micro-ops.

The paper models CISC (x86) processors whose decode stage cracks macro
instructions into micro-operations (uops).  The interval model counts work
in uops, not instructions (thesis §3.2, Fig 3.1: uop/instruction ratios of
roughly 1.07--1.38 across SPEC CPU 2006).

This module defines:

* :class:`UopKind` -- the micro-operation categories the issue stage
  schedules onto functional units (thesis Fig 3.5, Table 3.1).
* :class:`MacroOp` -- macro instruction classes with their uop templates
  (register-register ALU ops crack into one uop; load-op and op-store forms
  crack into two; load-op-store cracks into three).
* :class:`Instruction` -- one dynamic instruction record in a trace.
* :func:`crack` -- macro instruction -> tuple of uop kinds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class UopKind(enum.IntEnum):
    """Micro-operation categories, one per functional-unit type."""

    INT_ALU = 0
    INT_MUL = 1
    FP_ALU = 2
    FP_MUL = 3
    DIV = 4
    LOAD = 5
    STORE = 6
    BRANCH = 7
    MOVE = 8

    @property
    def is_memory(self) -> bool:
        return self in (UopKind.LOAD, UopKind.STORE)


#: Default execution latency (cycles) per uop kind on the reference core
#: (thesis §3.4: ALU/branch 1 cycle, loads hitting L1 longer, FP mul 5,
#: divide 5 and non-pipelined).
DEFAULT_UOP_LATENCY = {
    UopKind.INT_ALU: 1,
    UopKind.INT_MUL: 3,
    UopKind.FP_ALU: 3,
    UopKind.FP_MUL: 5,
    UopKind.DIV: 18,
    UopKind.LOAD: 2,
    UopKind.STORE: 1,
    UopKind.BRANCH: 1,
    UopKind.MOVE: 1,
}


class MacroOp(enum.IntEnum):
    """Macro instruction classes with distinct uop cracking templates."""

    INT_ALU = 0          # reg-reg integer op            -> 1 uop
    INT_ALU_LOAD = 1     # load-op form (mem source)     -> 2 uops
    INT_ALU_STORE = 2    # op-store form (mem dest)      -> 2 uops
    INT_MUL = 3
    FP_ALU = 4
    FP_ALU_LOAD = 5      # FP load-op form               -> 2 uops
    FP_MUL = 6
    DIV = 7
    LOAD = 8
    STORE = 9
    BRANCH = 10
    MOVE = 11
    NOP = 12


#: Cracking templates: macro class -> tuple of uop kinds, issued in order.
_CRACK_TABLE: dict = {
    MacroOp.INT_ALU: (UopKind.INT_ALU,),
    MacroOp.INT_ALU_LOAD: (UopKind.LOAD, UopKind.INT_ALU),
    MacroOp.INT_ALU_STORE: (UopKind.INT_ALU, UopKind.STORE),
    MacroOp.INT_MUL: (UopKind.INT_MUL,),
    MacroOp.FP_ALU: (UopKind.FP_ALU,),
    MacroOp.FP_ALU_LOAD: (UopKind.LOAD, UopKind.FP_ALU),
    MacroOp.FP_MUL: (UopKind.FP_MUL,),
    MacroOp.DIV: (UopKind.DIV,),
    MacroOp.LOAD: (UopKind.LOAD,),
    MacroOp.STORE: (UopKind.STORE,),
    MacroOp.BRANCH: (UopKind.BRANCH,),
    MacroOp.MOVE: (UopKind.MOVE,),
    MacroOp.NOP: (UopKind.MOVE,),
}


def crack(op: MacroOp) -> Tuple[UopKind, ...]:
    """Return the micro-op sequence a macro instruction decodes into."""
    return _CRACK_TABLE[op]


def uop_count(op: MacroOp) -> int:
    """Number of micro-ops a macro instruction cracks into."""
    return len(_CRACK_TABLE[op])


@dataclass(frozen=True, slots=True)
class Instruction:
    """One dynamic instruction in a trace.

    Attributes
    ----------
    pc:
        Static instruction address.  Identifies the static instruction for
        branch-entropy and stride profiling.
    op:
        Macro instruction class (determines uop cracking).
    dst:
        Destination architectural register, or ``-1`` when none.
    src1, src2:
        Source architectural registers, ``-1`` when unused.
    addr:
        Effective memory address for loads/stores (byte address), else 0.
    taken:
        Branch outcome; meaningful only when ``op is MacroOp.BRANCH``.
    """

    pc: int
    op: MacroOp
    dst: int = -1
    src1: int = -1
    src2: int = -1
    addr: int = 0
    taken: bool = False

    @property
    def is_branch(self) -> bool:
        return self.op is MacroOp.BRANCH

    @property
    def is_load(self) -> bool:
        return self.op in (
            MacroOp.LOAD,
            MacroOp.INT_ALU_LOAD,
            MacroOp.FP_ALU_LOAD,
        )

    @property
    def is_store(self) -> bool:
        return self.op in (MacroOp.STORE, MacroOp.INT_ALU_STORE)

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    def uops(self) -> Tuple[UopKind, ...]:
        return crack(self.op)

    def uop_count(self) -> int:
        return uop_count(self.op)


#: Number of architectural registers in the modeled ISA (x86-64 integer
#: GPRs + a few; deliberately small as the thesis notes x86's register
#: scarcity lengthens dependence chains, §3.3).
NUM_ARCH_REGS = 16
