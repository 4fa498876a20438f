"""Per-instruction oracle of the trace generator, kept verbatim.

The package generator (:mod:`repro.workloads.generator`) expands each
kernel run straight into :class:`~repro.workloads.columns.TraceColumns`
arrays and stops at the target length.  This module keeps the former
generator that appended one :class:`~repro.isa.Instruction` per dynamic
instruction, ran every kernel to its last iteration and truncated at the
end.  The package generator must reproduce all seven columns and their
dtypes bitwise (``tests/test_workloads.py``).
"""

from __future__ import annotations

import random
from typing import List, Optional, Union

from repro.isa import Instruction, MacroOp
from repro.workloads.generator import (
    AluSpec,
    BranchSpec,
    KernelSpec,
    LoadSpec,
    StoreSpec,
    WorkloadSpec,
)
from repro.workloads.trace import Trace

_CACHE_LINE = 64


class _SlotState:
    """Mutable per-static-slot generation state (address cursors)."""

    __slots__ = ("cursor", "stride_index")

    def __init__(self) -> None:
        self.cursor = 0
        self.stride_index = 0


def _next_address(
    spec: Union[LoadSpec, StoreSpec],
    state: _SlotState,
    rng: random.Random,
) -> int:
    pattern = spec.pattern
    if pattern in ("stride", "multi_stride"):
        addr = spec.base + state.cursor % max(spec.region, 1)
        stride = spec.strides[state.stride_index % len(spec.strides)]
        state.stride_index += 1
        state.cursor += stride
        return addr
    if pattern in ("random", "chase"):
        offset = rng.randrange(0, max(spec.region // 8, 1)) * 8
        return spec.base + offset
    if pattern == "unique":
        addr = spec.base + state.cursor
        state.cursor += _CACHE_LINE
        return addr
    raise ValueError(f"unknown address pattern: {pattern!r}")


def _branch_taken(
    spec: BranchSpec,
    execution_index: int,
    last_iteration: bool,
    rng: random.Random,
) -> bool:
    if spec.pattern == "loop":
        return not last_iteration
    if spec.pattern == "periodic":
        return execution_index % spec.period == 0
    if spec.pattern in ("random", "biased"):
        return rng.random() < spec.taken_prob
    raise ValueError(f"unknown branch pattern: {spec.pattern!r}")


def generate_kernel(
    kernel: KernelSpec,
    rng: random.Random,
    out: List[Instruction],
) -> None:
    """Append the dynamic instructions of one kernel run to ``out``."""
    states = [_SlotState() for _ in kernel.body]
    exec_counts = [0] * len(kernel.body)
    for iteration in range(kernel.iterations):
        last = iteration == kernel.iterations - 1
        for slot_index, slot in enumerate(kernel.body):
            pc = kernel.pc_base + 4 * slot_index
            if isinstance(slot, AluSpec):
                srcs = slot.srcs
                out.append(
                    Instruction(
                        pc=pc,
                        op=slot.op,
                        dst=slot.dst,
                        src1=srcs[0] if len(srcs) > 0 else -1,
                        src2=srcs[1] if len(srcs) > 1 else -1,
                    )
                )
            elif isinstance(slot, LoadSpec):
                addr = _next_address(slot, states[slot_index], rng)
                srcs = slot.srcs
                if slot.pattern == "chase":
                    # Pointer chase: next address comes from loaded value.
                    srcs = tuple(srcs) + (slot.dst,)
                out.append(
                    Instruction(
                        pc=pc,
                        op=slot.op,
                        dst=slot.dst,
                        src1=srcs[0] if len(srcs) > 0 else -1,
                        src2=srcs[1] if len(srcs) > 1 else -1,
                        addr=addr,
                    )
                )
            elif isinstance(slot, StoreSpec):
                addr = _next_address(slot, states[slot_index], rng)
                srcs = slot.srcs
                out.append(
                    Instruction(
                        pc=pc,
                        op=slot.op,
                        dst=-1,
                        src1=srcs[0] if len(srcs) > 0 else -1,
                        src2=srcs[1] if len(srcs) > 1 else -1,
                        addr=addr,
                    )
                )
            elif isinstance(slot, BranchSpec):
                taken = _branch_taken(
                    slot, exec_counts[slot_index], last, rng
                )
                srcs = slot.srcs
                out.append(
                    Instruction(
                        pc=pc,
                        op=MacroOp.BRANCH,
                        dst=-1,
                        src1=srcs[0] if len(srcs) > 0 else -1,
                        src2=srcs[1] if len(srcs) > 1 else -1,
                        taken=taken,
                    )
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown slot type: {type(slot)!r}")
            exec_counts[slot_index] += 1


def generate_trace_scalar(spec: WorkloadSpec, max_instructions: Optional[int] = None) -> Trace:
    """Generate the dynamic instruction trace of a workload spec.

    When ``max_instructions`` is given it is a *target length*: the kernel
    sequence is repeated as many times as needed and the trace truncated to
    exactly that many instructions, which keeps specs reusable at different
    scales (tests vs benchmarks).
    """
    rng = random.Random(spec.seed)
    out: List[Instruction] = []
    if max_instructions is None:
        for _ in range(spec.rounds):
            for kernel in spec.kernels:
                generate_kernel(kernel, rng, out)
        return Trace(out, name=spec.name, seed=spec.seed)

    while len(out) < max_instructions:
        before = len(out)
        for kernel in spec.kernels:
            generate_kernel(kernel, rng, out)
            if len(out) >= max_instructions:
                break
        if len(out) == before:  # pragma: no cover - empty spec guard
            raise ValueError("workload spec generated no instructions")
    return Trace(out[:max_instructions], name=spec.name, seed=spec.seed)
