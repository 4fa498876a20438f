"""Trace container and summary statistics.

A :class:`Trace` is an in-memory dynamic instruction stream -- the unit of
work every profiler and simulator in this package consumes.  Traces are
immutable once built; all tools read them without mutation so one
trace can feed the profiler, the reference simulator and validation tools.

A trace keeps two interchangeable representations of the same stream:

* the **columnar view** -- :class:`~repro.workloads.columns.TraceColumns`
  structure-of-arrays -- which the generator builds and the vectorized
  profiling passes and the cycle-level simulator read;
* the **object view** -- a list of :class:`~repro.isa.Instruction` --
  a compatibility view for per-instruction consumers (the scalar
  reference oracles, hand-built test traces via
  ``Trace(instructions=...)``).

Either view is built lazily from the other and cached, and pickling
always ships the columnar form (seven flat arrays) rather than the
object list, so worker processes receive compact buffers and rebuild
``Instruction`` objects only if they actually iterate them.  Data
derived from the stream -- :meth:`Trace.stats` and the simulator's
outcome columns (:attr:`Trace.sim_outcomes`) -- is cached on the trace
too; the outcome columns are never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence

import numpy as np

from repro.isa import Instruction, MacroOp, UopKind, crack, uop_count
from repro.workloads.columns import TraceColumns


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics of a trace (exact, unsampled)."""

    num_instructions: int
    num_uops: int
    macro_mix: Dict[MacroOp, int]
    uop_mix: Dict[UopKind, int]
    num_branches: int
    num_loads: int
    num_stores: int

    @property
    def uops_per_instruction(self) -> float:
        if self.num_instructions == 0:
            return 0.0
        return self.num_uops / self.num_instructions


class Trace:
    """An immutable dynamic instruction stream with a name and metadata."""

    def __init__(
        self,
        instructions: Optional[Sequence[Instruction]] = None,
        name: str = "anonymous",
        seed: int = 0,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        if instructions is None and columns is None:
            raise ValueError("need instructions or columns")
        self._instructions: Optional[List[Instruction]] = (
            list(instructions) if instructions is not None else None
        )
        self._columns: Optional[TraceColumns] = columns
        self.name = name
        self.seed = seed
        self._stats: Optional[TraceStats] = None  # lazily computed
        #: Timing-independent simulator outcomes (cache hit levels,
        #: branch predictions) by key, filled by
        #: :mod:`repro.simulator`; derived data, never pickled.
        self.sim_outcomes: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        if self._instructions is not None:
            return len(self._instructions)
        return len(self._columns)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            name = f"{self.name}[{index.start}:{index.stop}]"
            if self._instructions is not None:
                sliced = Trace(self._instructions[index], name=name,
                               seed=self.seed)
                if (self._columns is not None
                        and (index.step is None or index.step == 1)):
                    sliced._columns = self._columns[index]
                return sliced
            return Trace(name=name, seed=self.seed,
                         columns=self._columns[index])
        return self.instructions[index]

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, n={len(self)})"

    @property
    def instructions(self) -> Sequence[Instruction]:
        """The ``Instruction`` object view -- a compatibility view,
        materialized from the columns on first access and cached."""
        if self._instructions is None:
            self._instructions = self._columns.instructions()
        return self._instructions

    def columns(self) -> TraceColumns:
        """The columnar (structure-of-arrays) view, built once and cached."""
        if self._columns is None:
            self._columns = TraceColumns.from_instructions(
                self._instructions
            )
        return self._columns

    def stats(self) -> TraceStats:
        """Compute (and cache) exact whole-trace statistics.

        One columnar pass: a ``bincount`` over the macro-op codes gives
        the macro mix, and the uop mix follows from the static cracking
        templates -- no per-instruction Python loop.
        """
        if self._stats is None:
            columns = self.columns()
            op_counts = np.bincount(
                columns.op, minlength=len(MacroOp)
            ).tolist()
            macro_mix: Dict[MacroOp, int] = {}
            uop_mix: Dict[UopKind, int] = {}
            num_uops = 0
            for code, count in enumerate(op_counts):
                if not count:
                    continue
                op = MacroOp(code)
                macro_mix[op] = count
                num_uops += uop_count(op) * count
                for kind in crack(op):
                    uop_mix[kind] = uop_mix.get(kind, 0) + count
            self._stats = TraceStats(
                num_instructions=len(self),
                num_uops=num_uops,
                macro_mix=macro_mix,
                uop_mix=uop_mix,
                num_branches=int(np.count_nonzero(columns.is_branch)),
                num_loads=int(np.count_nonzero(columns.is_load)),
                num_stores=int(np.count_nonzero(columns.is_store)),
            )
        return self._stats

    def windows(self, window_size: int) -> Iterator["Trace"]:
        """Yield consecutive window-sized sub-traces (last may be short)."""
        for start in range(0, len(self), window_size):
            yield self[start:start + window_size]

    # -- pickling: ship columns, not object lists -----------------------

    def __getstate__(self):
        """Pickle the columnar view only (compact, array-backed)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "columns": self.columns(),
            "stats": self._stats,
        }

    def __setstate__(self, state) -> None:
        self.name = state["name"]
        self.seed = state["seed"]
        self._columns = state["columns"]
        self._instructions = None
        self._stats = state["stats"]
        self.sim_outcomes = {}
