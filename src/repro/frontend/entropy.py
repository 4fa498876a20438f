"""Linear branch entropy and the entropy -> misprediction-rate model.

Thesis §3.5 (after De Pestel et al.): for every static branch ``b`` and
global-history pattern ``H`` of fixed length, record taken/not-taken
counts.  The taken probability (Eq 3.13)

    p(b, H) = T(b, H) / (T(b, H) + NT(b, H))

defines the linear entropy (Eq 3.14)

    E(p) = 2 * min(p, 1 - p)

and the application's entropy is the execution-weighted average over all
(b, H) pairs (Eq 3.15).  A perfectly predictable branch stream has E = 0;
coin-flip branches have E = 1.

Misprediction rates for a *specific* predictor are then obtained from a
one-time linear fit of (entropy, simulated missrate) pairs over a training
set (Fig 3.8/3.9): ``missrate = a * E + b``.  The fit is per predictor and
amortized over every later application/design-space query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa import Instruction
from repro.frontend.predictors import make_predictor, simulate_predictor
from repro.workloads.columns import TraceColumns
from repro.workloads.trace import Trace


@dataclass
class BranchEntropyProfile:
    """Entropy of an application at several history lengths.

    ``entropy[h]`` is the linear branch entropy computed with ``h`` bits of
    global history.  Longer histories expose more pattern structure, so
    entropy is non-increasing in ``h``; different predictors are fitted
    against the history length closest to what they exploit.
    """

    entropy: Dict[int, float] = field(default_factory=dict)
    num_branches: int = 0

    def at(self, history_bits: int) -> float:
        """Entropy at the profiled history length nearest ``history_bits``."""
        if not self.entropy:
            return 0.0
        best = min(self.entropy, key=lambda h: abs(h - history_bits))
        return self.entropy[best]


def linear_entropy(p: float) -> float:
    """Linear entropy of a taken probability (Eq 3.14)."""
    return 2.0 * min(p, 1.0 - p)


def profile_branch_entropy(
    trace: Sequence[Instruction],
    history_lengths: Sequence[int] = (4, 8, 12),
    columns: Optional[TraceColumns] = None,
) -> BranchEntropyProfile:
    """Profile linear branch entropy at several global-history lengths.

    Per history length ``h``, branches are grouped by ``(pc, history)``
    and ``E(p(b, H))`` is averaged weighted by execution counts
    (Eq 3.15).  The pass is vectorized over the conditional-branch
    subsequence: the ``h``-bit global history before branch ``i`` is
    ``outcome[i-k] << (k-1)`` summed over ``k = 1..h`` -- a handful of
    shifted-slice ORs -- and one ``np.unique`` over the combined key
    yields the per-group taken counts.  The weighted average is
    accumulated in first-encounter order of each ``(pc, history)``
    group, which fixes the float summation order.

    ``columns`` supplies a pre-built columnar view of the trace; when
    omitted it is built from (or found cached on) ``trace``.
    """
    if columns is None:
        columns = TraceColumns.ensure(trace)
    branch_mask = columns.is_branch
    pcs = columns.pc[branch_mask].astype(np.int64)
    taken = columns.taken[branch_mask].astype(np.int64)
    num_branches = int(pcs.shape[0])
    profile = BranchEntropyProfile(num_branches=num_branches)
    for h in history_lengths:
        if num_branches == 0:
            profile.entropy[h] = 0.0
            continue
        history = np.zeros(num_branches, dtype=np.int64)
        for k in range(1, h + 1):
            if k >= num_branches:
                break
            history[k:] |= taken[:-k] << (k - 1)
        key = (pcs << np.int64(h)) | history
        unique, first_index, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
        group_total = np.bincount(
            inverse, minlength=unique.shape[0]
        ).tolist()
        group_taken = np.bincount(
            inverse[taken.astype(bool)], minlength=unique.shape[0]
        ).tolist()
        weighted = 0.0
        total = 0
        for group in np.argsort(first_index, kind="stable").tolist():
            n = group_total[group]
            p = group_taken[group] / n
            weighted += n * linear_entropy(p)
            total += n
        profile.entropy[h] = weighted / total if total else 0.0
    return profile


@dataclass
class EntropyMissRateModel:
    """Per-predictor linear model ``missrate = slope * entropy + intercept``.

    ``history_bits`` records which entropy history length the model was
    trained against, so queries use the matching profile entry.
    """

    predictor_name: str
    slope: float
    intercept: float
    history_bits: int
    r_squared: float = 0.0
    training_points: List[Tuple[float, float]] = field(default_factory=list)

    def predict(self, entropy: float) -> float:
        """Predicted misprediction rate, clamped to [0, 1]."""
        rate = self.slope * entropy + self.intercept
        return min(1.0, max(0.0, rate))

    def predict_from_profile(self, profile: BranchEntropyProfile) -> float:
        return self.predict(profile.at(self.history_bits))


#: History length (bits) each predictor's entropy fit uses.  Predictors
#: with longer effective histories pair with longer-history entropy.
_PREDICTOR_HISTORY = {
    "always-taken": 4,
    "bimodal": 4,
    "GAg": 8,
    "GAp": 8,
    "PAp": 8,
    "gshare": 8,
    "tournament": 8,
}


def train_entropy_model(
    predictor_name: str,
    training_traces: Sequence[Trace],
    history_lengths: Sequence[int] = (4, 8, 12),
) -> EntropyMissRateModel:
    """Fit the linear entropy->missrate model for one predictor.

    For every training trace: profile entropy once, simulate the predictor
    once, then least-squares fit a line through the (entropy, missrate)
    points (Fig 3.9).  This is the one-time training cost of Fig 3.8.
    """
    history_bits = _PREDICTOR_HISTORY.get(predictor_name, 8)
    xs: List[float] = []
    ys: List[float] = []
    for trace in training_traces:
        profile = profile_branch_entropy(trace, history_lengths)
        predictor = make_predictor(predictor_name)
        branches, misses = simulate_predictor(predictor, trace)
        if branches == 0:
            continue
        xs.append(profile.at(history_bits))
        ys.append(misses / branches)
    if len(xs) < 2:
        raise ValueError(
            "need at least two training traces with branches to fit"
        )
    x = np.asarray(xs)
    y = np.asarray(ys)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), residuals, _, _ = np.linalg.lstsq(design, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if residuals.size:
        ss_res = float(residuals[0])
    else:
        ss_res = float(np.sum((design @ np.array([slope, intercept]) - y) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return EntropyMissRateModel(
        predictor_name=predictor_name,
        slope=float(slope),
        intercept=float(intercept),
        history_bits=history_bits,
        r_squared=r_squared,
        training_points=list(zip(xs, ys)),
    )
