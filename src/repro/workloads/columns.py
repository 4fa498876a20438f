"""Columnar (structure-of-arrays) trace backend.

Python-object traces -- lists of :class:`~repro.isa.Instruction` -- are
convenient but slow to scan: every profiling pass pays an attribute
lookup per field per instruction.  :class:`TraceColumns` stores the same
stream as parallel NumPy arrays (one per instruction field) so the
profiling hot loops (reuse distances, cold misses, stride profiling)
become a handful of vectorized sweeps, and shipping a trace to a worker
process pickles seven flat arrays instead of hundreds of thousands of
objects.

The trace generator builds these arrays directly, one kernel run at a
time, so a generated :class:`~repro.workloads.trace.Trace` starts out
columnar; a trace built from ``Instruction`` objects builds its columns
once on demand and caches them.  ``Instruction`` iteration stays
available as a compatibility view (:meth:`TraceColumns.instructions`
materializes the object list).  Both representations are lossless, so
every profiler output is bitwise identical whichever one feeds it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa import Instruction, MacroOp

#: Per-macro-op lookup tables indexed by ``int(op)``; boolean table
#: lookup vectorizes the ``Instruction.is_load`` family of predicates.
_NUM_OPS = len(MacroOp)
_LOAD_TABLE = np.zeros(_NUM_OPS, dtype=bool)
for _op in (MacroOp.LOAD, MacroOp.INT_ALU_LOAD, MacroOp.FP_ALU_LOAD):
    _LOAD_TABLE[int(_op)] = True
_STORE_TABLE = np.zeros(_NUM_OPS, dtype=bool)
for _op in (MacroOp.STORE, MacroOp.INT_ALU_STORE):
    _STORE_TABLE[int(_op)] = True
_BRANCH_TABLE = np.zeros(_NUM_OPS, dtype=bool)
_BRANCH_TABLE[int(MacroOp.BRANCH)] = True

#: ``MacroOp`` instances by code, so materializing instructions avoids
#: one enum construction per record.
_OPS_BY_CODE: Tuple[MacroOp, ...] = tuple(MacroOp(code)
                                          for code in range(_NUM_OPS))


class TraceColumns:
    """One dynamic instruction stream as parallel NumPy arrays.

    Attributes
    ----------
    pc, addr:
        ``int64`` static instruction address / effective memory address.
    op:
        ``int16`` macro-op code (``int(MacroOp)``).
    dst, src1, src2:
        ``int32`` architectural register numbers, ``-1`` when unused.
    taken:
        ``bool`` branch outcome (meaningful for branches only).

    Derived boolean masks (``is_load``, ``is_store``, ``is_mem``,
    ``is_branch``) are computed lazily from ``op`` and cached.
    Instances are cheap views when sliced: ``columns[a:b]`` shares the
    underlying arrays.
    """

    __slots__ = ("pc", "op", "dst", "src1", "src2", "addr", "taken",
                 "_masks")

    def __init__(
        self,
        pc: np.ndarray,
        op: np.ndarray,
        dst: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        addr: np.ndarray,
        taken: np.ndarray,
    ) -> None:
        self.pc = pc
        self.op = op
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.addr = addr
        self.taken = taken
        self._masks: Dict[str, np.ndarray] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_instructions(
        cls, instructions: Sequence[Instruction]
    ) -> "TraceColumns":
        """Build columns from an ``Instruction`` sequence (one pass/field)."""
        n = len(instructions)
        from operator import attrgetter

        def column(name: str, dtype) -> np.ndarray:
            return np.fromiter(
                map(attrgetter(name), instructions), dtype, count=n
            )

        return cls(
            pc=column("pc", np.int64),
            op=column("op", np.int16),
            dst=column("dst", np.int32),
            src1=column("src1", np.int32),
            src2=column("src2", np.int32),
            addr=column("addr", np.int64),
            taken=column("taken", np.bool_),
        )

    @classmethod
    def ensure(cls, trace) -> "TraceColumns":
        """The columns of ``trace`` -- cached when it is a ``Trace``.

        Accepts a :class:`~repro.workloads.trace.Trace` (uses its cached
        columns), a ``TraceColumns`` (returned as-is), or any
        ``Instruction`` sequence (columns built on the fly).
        """
        if isinstance(trace, cls):
            return trace
        columns = getattr(trace, "columns", None)
        if callable(columns):
            return columns()
        return cls.from_instructions(trace)

    # -- basic protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self.pc.shape[0])

    def __getitem__(self, index: slice) -> "TraceColumns":
        if not isinstance(index, slice):
            raise TypeError("TraceColumns supports slice indexing only")
        view = TraceColumns(
            pc=self.pc[index],
            op=self.op[index],
            dst=self.dst[index],
            src1=self.src1[index],
            src2=self.src2[index],
            addr=self.addr[index],
            taken=self.taken[index],
        )
        start, stop, step = index.indices(len(self))
        if step == 1:
            for name, mask in self._masks.items():
                view._masks[name] = mask[index]
        return view

    def __repr__(self) -> str:
        return f"TraceColumns(n={len(self)})"

    # -- derived masks --------------------------------------------------

    def _mask(self, name: str, table: np.ndarray) -> np.ndarray:
        mask = self._masks.get(name)
        if mask is None:
            mask = table[self.op]
            self._masks[name] = mask
        return mask

    @property
    def is_load(self) -> np.ndarray:
        """Boolean mask of load (or load-op) instructions."""
        return self._mask("is_load", _LOAD_TABLE)

    @property
    def is_store(self) -> np.ndarray:
        """Boolean mask of store (or op-store) instructions."""
        return self._mask("is_store", _STORE_TABLE)

    @property
    def is_branch(self) -> np.ndarray:
        """Boolean mask of conditional branches."""
        return self._mask("is_branch", _BRANCH_TABLE)

    @property
    def is_mem(self) -> np.ndarray:
        """Boolean mask of memory instructions (loads | stores)."""
        mask = self._masks.get("is_mem")
        if mask is None:
            mask = self.is_load | self.is_store
            self._masks["is_mem"] = mask
        return mask

    # -- compatibility view ---------------------------------------------

    def instructions(self) -> List[Instruction]:
        """Materialize the stream back into ``Instruction`` objects."""
        return [
            Instruction(pc=pc, op=_OPS_BY_CODE[op], dst=dst,
                        src1=src1, src2=src2, addr=addr, taken=taken)
            for pc, op, dst, src1, src2, addr, taken in zip(
                self.pc.tolist(), self.op.tolist(), self.dst.tolist(),
                self.src1.tolist(), self.src2.tolist(),
                self.addr.tolist(), self.taken.tolist(),
            )
        ]

    # -- pickling (masks are derived; never shipped) --------------------

    def __getstate__(self):
        return (self.pc, self.op, self.dst, self.src1, self.src2,
                self.addr, self.taken)

    def __setstate__(self, state) -> None:
        (self.pc, self.op, self.dst, self.src1, self.src2,
         self.addr, self.taken) = state
        self._masks = {}


def previous_occurrence(ids: np.ndarray) -> np.ndarray:
    """``prev[i]`` = largest ``j < i`` with ``ids[j] == ids[i]``, else -1.

    This is the vectorized form of the per-line last-access dictionary
    every reuse-distance pass maintains: one stable argsort groups equal
    ids together while preserving stream order inside each group, so the
    predecessor of each occurrence is simply its left neighbour within
    the group.
    """
    n = int(ids.shape[0])
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    same = sorted_ids[1:] == sorted_ids[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def count_histogram(values: np.ndarray) -> Dict[int, int]:
    """``{value: count}`` over an integer array, as Python ints.

    Keys are inserted in first-encounter order -- the order a scalar
    ``hist[v] = hist.get(v, 0) + 1`` loop would produce -- so the
    serialized (non-canonical) JSON of a columnar-built profile is
    byte-identical to the scalar reference's, not merely dict-equal.
    """
    if values.size == 0:
        return {}
    unique, first_index, counts = np.unique(
        values, return_index=True, return_counts=True
    )
    order = np.argsort(first_index, kind="stable")
    return dict(zip(unique[order].tolist(), counts[order].tolist()))


def bernoulli_draws(rng, count: int) -> np.ndarray:
    """``count`` uniform draws from a ``random.Random``, as an array.

    The draws come from the *Python* generator (one ``rng.random()``
    call per element, in order), so a vectorized sampling decision
    ``draws < rate`` consumes exactly the same underlying Mersenne
    Twister sequence as the scalar loop it replaces -- bitwise, and
    leaving ``rng`` in the identical end state.
    """
    return np.fromiter(
        (rng.random() for _ in range(count)), np.float64, count=count
    )
