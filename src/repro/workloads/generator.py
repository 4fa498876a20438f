"""Parameterized synthetic trace generation.

Workloads are expressed as loop kernels of static instruction slots.  A
kernel iterates its body, so static PCs recur with controllable memory
strides, register dependence chains and branch outcome patterns -- exactly
the structure the micro-architecture independent profiler measures
(instruction mix, AP/ABP/CP chains, stride distributions, reuse distances,
branch entropy).

Dependences are explicit: every slot names its destination register and its
source registers, so the static dataflow graph of the kernel (and hence the
dependence-chain statistics of the trace) is fully determined by the spec.

Generation is columnar: each kernel run expands straight into the seven
:class:`~repro.workloads.columns.TraceColumns` arrays (static fields
tiled over the iterations, address cursors and branch outcomes computed
per slot as arrays), and only the random addresses and outcomes are
drawn one by one, in execution order, from the spec's seeded
``random.Random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.isa import MacroOp
from repro.workloads.columns import TraceColumns
from repro.workloads.trace import Trace

_CACHE_LINE = 64


@dataclass(frozen=True)
class AluSpec:
    """A compute slot (integer/FP ALU, multiply, divide or move)."""

    op: MacroOp
    dst: int
    srcs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class LoadSpec:
    """A load slot with an address pattern.

    Patterns
    --------
    ``stride``
        Address advances by ``strides[0]`` bytes per recurrence.
    ``multi_stride``
        Address advances cycling through ``strides``.
    ``random``
        Uniform random address in ``[base, base + region)``.
    ``chase``
        Pointer chase: random address, and the load depends on its own
        previous instance (its destination register is added to its
        sources), serializing successive misses.
    ``unique``
        Address advances by one cache line and never wraps, so every
        access touches a new line (cold-miss generator).
    """

    dst: int
    pattern: str = "stride"
    strides: Tuple[int, ...] = (_CACHE_LINE,)
    region: int = 1 << 14
    base: int = 0
    srcs: Tuple[int, ...] = ()
    op: MacroOp = MacroOp.LOAD


@dataclass(frozen=True)
class StoreSpec:
    """A store slot; address patterns as for :class:`LoadSpec`."""

    pattern: str = "stride"
    strides: Tuple[int, ...] = (_CACHE_LINE,)
    region: int = 1 << 14
    base: int = 0
    srcs: Tuple[int, ...] = ()
    op: MacroOp = MacroOp.STORE


@dataclass(frozen=True)
class BranchSpec:
    """A conditional branch slot with an outcome pattern.

    Patterns
    --------
    ``loop``
        Taken except on the kernel's last iteration (highly predictable).
    ``periodic``
        Taken every ``period``-th execution (predictable with history).
    ``random``
        Taken with probability ``taken_prob`` (entropy source).
    ``biased``
        Same as random; conventional name for skewed probabilities.
    """

    pattern: str = "loop"
    period: int = 2
    taken_prob: float = 0.5
    srcs: Tuple[int, ...] = ()


Slot = Union[AluSpec, LoadSpec, StoreSpec, BranchSpec]


@dataclass
class KernelSpec:
    """A loop kernel: a static body executed for ``iterations`` passes."""

    name: str
    body: List[Slot]
    iterations: int = 1000
    pc_base: int = 0x1000


@dataclass
class WorkloadSpec:
    """A workload: a sequence of kernels executed back to back.

    Repeating the kernel sequence (``rounds > 1``) creates phase behaviour
    (thesis §6.5) and data reuse across kernel instances.
    """

    name: str
    kernels: List[KernelSpec]
    rounds: int = 1
    seed: int = 42


#: Column dtypes, in :class:`~repro.workloads.columns.TraceColumns`
#: field order (``pc, op, dst, src1, src2, addr, taken``).
_DTYPES = (np.int64, np.int16, np.int32, np.int32, np.int32, np.int64,
           np.bool_)

_Columns = Tuple[np.ndarray, ...]


def _expand_kernel(
    kernel: KernelSpec,
    rng: random.Random,
    limit: Optional[int],
) -> _Columns:
    """The dynamic instructions of one kernel run, as seven columns.

    The run is laid out as an ``(iterations, len(body))`` grid: static
    fields are tiled over the rows and each slot's dynamic field
    (address or branch outcome) fills its column, indexed by the
    iteration ``k`` within the run -- address cursors and branch counts
    restart with every run.  With ``limit`` only
    ``ceil(limit / len(body))`` iterations are expanded and the grid is
    cut after ``limit`` instructions.

    Random addresses and outcomes are drawn from ``rng`` in execution
    order (iteration by iteration, body order within one) for the kept
    slots only.  Every slot of the body is checked, in body order, even
    the ones past the cut.
    """
    body = kernel.body
    width = len(body)
    count = max(kernel.iterations, 0) * width
    if limit is not None:
        count = min(count, limit)
    if count == 0:
        return tuple(np.empty(0, dtype) for dtype in _DTYPES)
    rows = -(-count // width)
    full, tail = divmod(count, width)
    k = np.arange(rows, dtype=np.int64)
    static = np.empty((5, width), dtype=np.int64)
    addr = np.zeros((rows, width), dtype=np.int64)
    taken = np.zeros((rows, width), dtype=np.bool_)
    randoms = []  # (slot index, slot, draw) in body order
    for s, slot in enumerate(body):
        if isinstance(slot, AluSpec):
            op, dst, srcs = slot.op, slot.dst, slot.srcs
        elif isinstance(slot, (LoadSpec, StoreSpec)):
            op, srcs = slot.op, slot.srcs
            dst = slot.dst if isinstance(slot, LoadSpec) else -1
            pattern = slot.pattern
            if pattern == "chase" and isinstance(slot, LoadSpec):
                # Pointer chase: next address comes from loaded value.
                srcs = tuple(srcs) + (slot.dst,)
            if pattern in ("stride", "multi_stride"):
                if not slot.strides:
                    raise ZeroDivisionError(
                        f"{pattern} pattern needs at least one stride")
                steps = np.resize(np.asarray(slot.strides, np.int64), rows)
                cursor = np.cumsum(steps) - steps
                addr[:, s] = slot.base + cursor % max(slot.region, 1)
            elif pattern in ("random", "chase"):
                randoms.append((s, slot, partial(
                    rng.randrange, 0, max(slot.region // 8, 1))))
            elif pattern == "unique":
                addr[:, s] = slot.base + _CACHE_LINE * k
            else:
                raise ValueError(f"unknown address pattern: {pattern!r}")
        elif isinstance(slot, BranchSpec):
            op, dst, srcs = MacroOp.BRANCH, -1, slot.srcs
            pattern = slot.pattern
            if pattern == "loop":
                taken[:, s] = k != kernel.iterations - 1
            elif pattern == "periodic":
                if slot.period == 0:
                    raise ZeroDivisionError(
                        "periodic branch needs a nonzero period")
                taken[:, s] = k % slot.period == 0
            elif pattern in ("random", "biased"):
                randoms.append((s, slot, rng.random))
            else:
                raise ValueError(f"unknown branch pattern: {pattern!r}")
        else:
            raise TypeError(f"unknown slot type: {type(slot)!r}")
        static[:, s] = (kernel.pc_base + 4 * s, int(op), dst,
                        srcs[0] if len(srcs) > 0 else -1,
                        srcs[1] if len(srcs) > 1 else -1)

    if randoms:
        # One flat list in execution order: ``full`` whole iterations,
        # then the random slots ahead of the cut in the partial one.
        # Slot j's draws are then ``flat[j::len(randoms)]``.
        draws = [draw for _, _, draw in randoms]
        kept = sum(1 for s, _, _ in randoms if s < tail)
        flat = [draw() for _ in range(full) for draw in draws]
        flat += [draw() for draw in draws[:kept]]
        for j, (s, slot, _) in enumerate(randoms):
            values = flat[j::len(randoms)]
            n = len(values)
            if isinstance(slot, BranchSpec):
                taken[:n, s] = np.array(values) < slot.taken_prob
            else:
                addr[:n, s] = slot.base + 8 * np.array(values, np.int64)

    return tuple(
        np.tile(row.astype(dtype), rows)[:count]
        for row, dtype in zip(static, _DTYPES)
    ) + (addr.ravel()[:count], taken.ravel()[:count])


def generate_trace(spec: WorkloadSpec, max_instructions: Optional[int] = None) -> Trace:
    """Generate the dynamic instruction trace of a workload spec.

    Without ``max_instructions`` the kernel sequence runs ``spec.rounds``
    times, every kernel run to its last iteration.  With it, the value
    is a *target length*: the kernels are cycled (``rounds`` is ignored)
    and generation stops as soon as exactly that many instructions
    exist, which keeps specs reusable at different scales (tests vs
    benchmarks).

    The trace is built as columns, one kernel run at a time; its
    ``Instruction`` object view is materialized only if a caller asks
    for it (:attr:`Trace.instructions`).

    Raises
    ------
    ValueError
        On an unknown address or branch pattern, or when a spec given a
        target length generates no instructions.
    TypeError
        On a body slot that is none of the slot specs.
    ZeroDivisionError
        On a ``periodic`` branch with ``period=0`` or a ``stride`` /
        ``multi_stride`` slot without strides.
    """
    rng = random.Random(spec.seed)
    runs: List[_Columns] = []
    if max_instructions is None:
        for _ in range(spec.rounds):
            for kernel in spec.kernels:
                runs.append(_expand_kernel(kernel, rng, None))
    else:
        remaining = max_instructions
        while remaining > 0:
            before = remaining
            for kernel in spec.kernels:
                run = _expand_kernel(kernel, rng, remaining)
                runs.append(run)
                remaining -= len(run[0])
                if remaining == 0:
                    break
            if remaining == before:
                raise ValueError("workload spec generated no instructions")
    columns = TraceColumns(*(
        np.concatenate([np.empty(0, dtype)] + [run[i] for run in runs])
        for i, dtype in enumerate(_DTYPES)
    ))
    return Trace(name=spec.name, seed=spec.seed, columns=columns)
