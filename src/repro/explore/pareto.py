"""Pareto frontier extraction and filtering metrics (thesis §7.4).

A design is Pareto-optimal when no other design is at least as good on
both objectives (delay, power) and strictly better on one.  The thesis
scores the *predicted* frontier against the *true* (simulated) frontier
with four metrics:

* **sensitivity** -- fraction of truly optimal designs the prediction
  found (recall);
* **specificity** -- fraction of truly non-optimal designs the prediction
  correctly excluded;
* **accuracy** -- overall fraction classified correctly;
* **HVR** (hypervolume ratio, Fig 7.8) -- the hypervolume dominated by
  the *true* points selected by the prediction divided by the hypervolume
  of the full true frontier; close to 1 means the predicted selection
  covers the whole interesting range even if individual picks differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

Point = Tuple[float, float]  # (delay-like, power-like): lower is better


def _dominates(a: Point, b: Point) -> bool:
    """Whether ``a`` strictly Pareto-dominates ``b`` (both minimized)."""
    return (
        a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])
    )


class StreamingParetoFront:
    """Incrementally maintained 2-D Pareto frontier (both axes minimized).

    Built for the sweep engine's streaming mode: feed it design points
    as they arrive and read the frontier at any time -- the state after
    ``n`` points equals :func:`pareto_front` over those same ``n``
    points, including the convention that duplicated coordinates are all
    kept.

    Examples
    --------
    >>> front = StreamingParetoFront()
    >>> for x, y in [(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)]:
    ...     _ = front.add(x, y)
    >>> [(x, y) for x, y, _ in front.frontier()]
    [(1.0, 2.0), (2.0, 1.0)]
    """

    def __init__(self) -> None:
        self._members: List[Tuple[float, float, Any]] = []

    def add(self, x: float, y: float, payload: Any = None) -> bool:
        """Offer a point to the frontier.

        Parameters
        ----------
        x / y:
            The two objectives (lower is better), e.g. seconds and
            watts.
        payload:
            Arbitrary object carried with the point (typically the
            :class:`~repro.explore.dse.DesignPoint`).

        Returns
        -------
        bool
            ``True`` when the point is currently non-dominated (it
            joined the frontier), ``False`` when an existing member
            strictly dominates it.
        """
        candidate = (x, y)
        for mx, my, _ in self._members:
            if _dominates((mx, my), candidate):
                return False
        self._members = [
            member for member in self._members
            if not _dominates(candidate, (member[0], member[1]))
        ]
        self._members.append((x, y, payload))
        return True

    def add_point(self, point: Any) -> bool:
        """Offer a (seconds, power) design point; see :meth:`add`."""
        return self.add(point.seconds, point.power_watts, point)

    def frontier(self) -> List[Tuple[float, float, Any]]:
        """The current frontier as ``(x, y, payload)``, sorted by ``x``."""
        return sorted(self._members, key=lambda member: member[:2])

    def __len__(self) -> int:
        return len(self._members)


def pareto_front(points: Sequence[Point]) -> List[int]:
    """Indices of the non-dominated points (both objectives minimized).

    Sort-based O(n log n) sweep: points are visited in ascending
    ``(x, y)`` order while tracking the best (lowest) ``y`` seen at any
    strictly smaller ``x``.  Within a group sharing one ``x`` only the
    lowest-``y`` members can be optimal (higher ones are dominated
    in-group), and they are optimal exactly when that ``y`` improves on
    everything to their left.  Equivalent, index set included, to the
    quadratic all-pairs scan (the oracle in ``tests/reference/pareto.py``).

    Ties: duplicated coordinates are all kept (they dominate nothing and
    are not strictly dominated).
    """
    n = len(points)
    order = sorted(range(n), key=lambda i: points[i])
    indices: List[int] = []
    best_y = float("inf")
    i = 0
    while i < n:
        x = points[order[i]][0]
        group_min_y = points[order[i]][1]  # sorted: first y is minimal
        j = i
        while j < n and points[order[j]][0] == x:
            j += 1
        if group_min_y < best_y:
            for k in range(i, j):
                if points[order[k]][1] == group_min_y:
                    indices.append(order[k])
            best_y = group_min_y
        i = j
    indices.sort()
    return indices


def hypervolume(points: Sequence[Point], reference: Point) -> float:
    """2-D hypervolume dominated by ``points`` w.r.t. ``reference``.

    Standard sweep: sort by x, accumulate rectangles up to the reference
    point (both objectives minimized; reference must be >= all points).
    """
    clipped = [
        (x, y) for x, y in points if x <= reference[0] and y <= reference[1]
    ]
    if not clipped:
        return 0.0
    # Keep the staircase: sort by x ascending; y must descend.
    clipped.sort()
    staircase: List[Point] = []
    best_y = float("inf")
    for x, y in clipped:
        if y < best_y:
            staircase.append((x, y))
            best_y = y
    volume = 0.0
    prev_x = reference[0]
    for x, y in reversed(staircase):
        volume += (prev_x - x) * (reference[1] - y)
        prev_x = x
    return volume


def hvr(
    true_points: Sequence[Point],
    selected_true_points: Sequence[Point],
    reference: Optional[Point] = None,
) -> float:
    """Hypervolume ratio (Fig 7.8).

    ``selected_true_points`` are the *true* coordinates of the designs the
    prediction picked; their dominated hypervolume is compared with the
    full true frontier's.

    The default reference point spans the **union** of both point sets
    (1.1x their per-axis maxima): a reference derived from the true
    frontier alone would clip selected designs lying beyond it to zero
    contribution, understating the ratio for predictions whose picks are
    dominated but far from the front.
    """
    if reference is None:
        xs = [p[0] for p in true_points]
        xs += [p[0] for p in selected_true_points]
        ys = [p[1] for p in true_points]
        ys += [p[1] for p in selected_true_points]
        reference = (max(xs) * 1.1, max(ys) * 1.1)
    denominator = hypervolume(true_points, reference)
    if denominator == 0.0:
        # Zero-extent true frontier (e.g. a point with a zero
        # coordinate): the ratio is undefined, so score by coverage
        # instead of rewarding every selection -- including the empty
        # one -- with a perfect 1.0.
        return 1.0 if set(true_points) <= set(selected_true_points) else 0.0
    return hypervolume(selected_true_points, reference) / denominator


@dataclass
class ParetoMetrics:
    """The four filtering-quality metrics of thesis §7.4."""

    sensitivity: float
    specificity: float
    accuracy: float
    hvr: float
    true_front_size: int
    predicted_front_size: int


def pareto_metrics(
    true_points: Sequence[Point],
    predicted_points: Sequence[Point],
) -> ParetoMetrics:
    """Score a predicted frontier against the true one.

    ``true_points[i]`` and ``predicted_points[i]`` must describe the same
    design (same index).  The predicted frontier is computed on predicted
    coordinates and then evaluated in true coordinates.
    """
    if len(true_points) != len(predicted_points):
        raise ValueError("point lists must align by design index")
    n = len(true_points)
    true_front: Set[int] = set(pareto_front(true_points))
    predicted_front: Set[int] = set(pareto_front(predicted_points))

    tp = len(true_front & predicted_front)
    fn = len(true_front - predicted_front)
    fp = len(predicted_front - true_front)
    tn = n - tp - fn - fp

    sensitivity = tp / (tp + fn) if (tp + fn) else 1.0
    specificity = tn / (tn + fp) if (tn + fp) else 1.0
    accuracy = (tp + tn) / n if n else 1.0

    selected_true_coordinates = [true_points[i] for i in predicted_front]
    all_true_front_coordinates = [true_points[i] for i in true_front]
    ratio = hvr(all_true_front_coordinates, selected_true_coordinates)

    return ParetoMetrics(
        sensitivity=sensitivity,
        specificity=specificity,
        accuracy=accuracy,
        hvr=ratio,
        true_front_size=len(true_front),
        predicted_front_size=len(predicted_front),
    )
