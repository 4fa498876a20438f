"""Functional branch predictor simulators.

The thesis evaluates the entropy model against five predictors of ~4 KB
each (Fig 3.10): GAg, GAp, PAp, gshare and a GAp/PAp tournament.  Each
predictor here follows the classic two-level scheme of Yeh & Patt with
2-bit saturating counters.

Sizing convention: a predictor's ``size_bits`` is the total number of
pattern-history-table counter bits (2 bits per counter); 4 KB = 32768 bits
= 16384 counters = 14 index bits.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.isa import Instruction
from repro.workloads.columns import TraceColumns
from repro.workloads.trace import Trace


class _Counter2:
    """Array of 2-bit saturating counters stored in a dict (sparse)."""

    __slots__ = ("table", "default")

    def __init__(self, default: int = 1) -> None:
        self.table: Dict[int, int] = {}
        self.default = default

    def predict(self, index: int) -> bool:
        return self.table.get(index, self.default) >= 2

    def update(self, index: int, taken: bool) -> None:
        value = self.table.get(index, self.default)
        if taken:
            value = min(3, value + 1)
        else:
            value = max(0, value - 1)
        self.table[index] = value


class BranchPredictor:
    """Base interface: ``predict_and_update(pc, taken) -> correct?``."""

    name = "base"

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        raise NotImplementedError


class AlwaysTakenPredictor(BranchPredictor):
    """Static predictor: always predicts taken."""

    name = "always-taken"

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        return taken


class BimodalPredictor(BranchPredictor):
    """PC-indexed table of 2-bit counters (no history)."""

    name = "bimodal"

    def __init__(self, index_bits: int = 14) -> None:
        self._mask = (1 << index_bits) - 1
        self._pht = _Counter2()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        index = (pc >> 2) & self._mask
        prediction = self._pht.predict(index)
        self._pht.update(index, taken)
        return prediction == taken


class GAgPredictor(BranchPredictor):
    """Global history register indexing one global PHT."""

    name = "GAg"

    def __init__(self, history_bits: int = 14) -> None:
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._history = 0
        self._pht = _Counter2()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        index = self._history & self._mask
        prediction = self._pht.predict(index)
        self._pht.update(index, taken)
        self._history = ((self._history << 1) | int(taken)) & self._mask
        return prediction == taken


class GApPredictor(BranchPredictor):
    """Global history with per-branch pattern tables.

    Modeled with an unaliased (pc, history) composite index; the limited
    hardware budget is reflected in the shorter history.
    """

    name = "GAp"

    def __init__(self, history_bits: int = 8, pc_bits: int = 6) -> None:
        self.history_bits = history_bits
        self._hmask = (1 << history_bits) - 1
        self._pcmask = (1 << pc_bits) - 1
        self._history = 0
        self._pht = _Counter2()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        index = (((pc >> 2) & self._pcmask) << self.history_bits) | (
            self._history & self._hmask
        )
        prediction = self._pht.predict(index)
        self._pht.update(index, taken)
        self._history = ((self._history << 1) | int(taken)) & self._hmask
        return prediction == taken


class PApPredictor(BranchPredictor):
    """Per-branch history registers with per-branch pattern tables."""

    name = "PAp"

    def __init__(self, history_bits: int = 8, pc_bits: int = 6) -> None:
        self.history_bits = history_bits
        self._hmask = (1 << history_bits) - 1
        self._pcmask = (1 << pc_bits) - 1
        self._histories: Dict[int, int] = {}
        self._pht = _Counter2()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        key = (pc >> 2) & self._pcmask
        history = self._histories.get(key, 0)
        index = (key << self.history_bits) | history
        prediction = self._pht.predict(index)
        self._pht.update(index, taken)
        self._histories[key] = ((history << 1) | int(taken)) & self._hmask
        return prediction == taken


class GsharePredictor(BranchPredictor):
    """Global history XOR PC indexing one PHT (McFarling)."""

    name = "gshare"

    def __init__(self, index_bits: int = 14) -> None:
        self._mask = (1 << index_bits) - 1
        self._history = 0
        self._pht = _Counter2()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        index = ((pc >> 2) ^ self._history) & self._mask
        prediction = self._pht.predict(index)
        self._pht.update(index, taken)
        self._history = ((self._history << 1) | int(taken)) & self._mask
        return prediction == taken


class TournamentPredictor(BranchPredictor):
    """GAp/PAp tournament with a PC-indexed 2-bit chooser."""

    name = "tournament"

    def __init__(self, history_bits: int = 7, pc_bits: int = 6) -> None:
        self._gap = GApPredictor(history_bits, pc_bits)
        self._pap = PApPredictor(history_bits, pc_bits)
        self._chooser = _Counter2(default=1)
        self._pcmask = (1 << 12) - 1

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        key = (pc >> 2) & self._pcmask
        use_pap = self._chooser.predict(key)
        gap_correct = self._gap.predict_and_update(pc, taken)
        pap_correct = self._pap.predict_and_update(pc, taken)
        if gap_correct != pap_correct:
            self._chooser.update(key, pap_correct)
        return pap_correct if use_pap else gap_correct


_PREDICTOR_FACTORIES = {
    "always-taken": AlwaysTakenPredictor,
    "bimodal": BimodalPredictor,
    "GAg": GAgPredictor,
    "GAp": GApPredictor,
    "PAp": PApPredictor,
    "gshare": GsharePredictor,
    "tournament": TournamentPredictor,
}


def make_predictor(name: str) -> BranchPredictor:
    """Instantiate a fresh ~4 KB predictor by name."""
    try:
        return _PREDICTOR_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown predictor {name!r}; choose from "
            f"{sorted(_PREDICTOR_FACTORIES)}"
        ) from None


def branch_outcomes(
    predictor: BranchPredictor, columns: TraceColumns
) -> np.ndarray:
    """Whether ``predictor`` predicts each branch of ``columns``.

    One ``predict_and_update`` per conditional branch, in program
    order; returns one ``bool`` per branch (``True`` = correct).  The
    cycle-level simulator's branch pass and :func:`simulate_predictor`
    both walk the predictor here.
    """
    branch = columns.is_branch
    pcs = columns.pc[branch].tolist()
    return np.fromiter(
        map(predictor.predict_and_update, pcs,
            columns.taken[branch].tolist()),
        np.bool_, count=len(pcs),
    )


def simulate_predictor(
    predictor: BranchPredictor, trace: Sequence[Instruction]
) -> Tuple[int, int]:
    """Run a predictor over a trace (a ``Trace``, ``TraceColumns`` or
    ``Instruction`` sequence).

    Returns ``(num_branches, num_mispredictions)``.
    """
    correct = branch_outcomes(predictor, TraceColumns.ensure(trace))
    return len(correct), len(correct) - int(np.count_nonzero(correct))


def misprediction_rate(predictor: BranchPredictor, trace: Trace) -> float:
    """Misprediction rate (fraction of branches mispredicted)."""
    branches, misses = simulate_predictor(predictor, trace)
    if branches == 0:
        return 0.0
    return misses / branches
