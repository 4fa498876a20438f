"""Quadratic oracle of :func:`repro.explore.pareto.pareto_front`."""

from __future__ import annotations

from typing import List, Sequence

from repro.explore.pareto import Point


def _pareto_front_quadratic(points: Sequence[Point]) -> List[int]:
    """Reference all-pairs O(n^2) frontier; ground truth for tests."""
    indices: List[int] = []
    for i, (x_i, y_i) in enumerate(points):
        dominated = False
        for j, (x_j, y_j) in enumerate(points):
            if j == i:
                continue
            if (
                x_j <= x_i and y_j <= y_i
                and (x_j < x_i or y_j < y_i)
            ):
                dominated = True
                break
        if not dominated:
            indices.append(i)
    return indices
