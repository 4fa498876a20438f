"""Pareto tooling tests (thesis §7.4): front, metrics, hypervolume."""

import pytest
from hypothesis import given, settings, strategies as st

from reference.pareto import _pareto_front_quadratic
from repro.explore.pareto import (
    StreamingParetoFront,
    hypervolume,
    hvr,
    pareto_front,
    pareto_metrics,
)

# Coordinates drawn from a small pool so random clouds contain ties and
# exact duplicates, the cases where a sort-based sweep can diverge from
# the all-pairs reference.
coordinate = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 5.0]),
    st.floats(0.1, 100, allow_nan=False),
)
point_clouds = st.lists(st.tuples(coordinate, coordinate),
                        min_size=0, max_size=80)


class TestParetoFront:
    def test_diagonal_all_optimal(self):
        points = [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]
        assert pareto_front(points) == [0, 1, 2, 3, 4]

    def test_dominated_points_excluded(self):
        points = [(1, 1), (2, 2), (3, 3)]
        assert pareto_front(points) == [0]

    def test_mixed(self):
        points = [(1, 5), (2, 4), (3, 3), (3, 4), (4, 4)]
        assert pareto_front(points) == [0, 1, 2]

    def test_duplicates_kept(self):
        points = [(1, 1), (1, 1)]
        assert pareto_front(points) == [0, 1]

    def test_single_point(self):
        assert pareto_front([(3, 7)]) == [0]

    @given(st.lists(
        st.tuples(st.floats(0.1, 100, allow_nan=False),
                  st.floats(0.1, 100, allow_nan=False)),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=50, deadline=None)
    def test_front_points_mutually_non_dominated(self, points):
        front = pareto_front(points)
        assert front  # at least one point is always non-dominated
        for i in front:
            for j in front:
                if i == j:
                    continue
                strictly_dominates = (
                    points[j][0] <= points[i][0]
                    and points[j][1] <= points[i][1]
                    and points[j] != points[i]
                )
                assert not strictly_dominates


class TestParetoFrontEquivalence:
    """The O(n log n) sweep must match the quadratic reference exactly."""

    @given(point_clouds)
    @settings(max_examples=200, deadline=None)
    def test_index_set_matches_quadratic_reference(self, points):
        assert pareto_front(points) == _pareto_front_quadratic(points)

    def test_duplicate_coordinates_all_kept(self):
        points = [(2.0, 2.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0),
                  (2.0, 2.0)]
        assert pareto_front(points) == [0, 1, 2, 3, 4]

    def test_equal_x_tie_resolved_within_group(self):
        # (1, 5) dominates (1, 7); (2, 5) is dominated by (1, 5).
        points = [(1.0, 7.0), (1.0, 5.0), (2.0, 5.0)]
        assert pareto_front(points) == [1]

    def test_empty(self):
        assert pareto_front([]) == []

    @given(point_clouds)
    @settings(max_examples=100, deadline=None)
    def test_streaming_front_matches_batch(self, points):
        front = StreamingParetoFront()
        for index, (x, y) in enumerate(points):
            front.add(x, y, index)
        streaming = sorted(payload for _, _, payload in front.frontier())
        assert streaming == pareto_front(points)

    @given(point_clouds, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_streaming_front_insertion_order_invariant(self, points,
                                                       rng):
        shuffled = list(enumerate(points))
        rng.shuffle(shuffled)
        front = StreamingParetoFront()
        for index, (x, y) in shuffled:
            front.add(x, y, index)
        streaming = sorted(payload for _, _, payload in front.frontier())
        assert streaming == pareto_front(points)


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume([(1, 1)], (2, 2)) == pytest.approx(1.0)

    def test_staircase(self):
        # Two rects [1,4]x[3,4] and [3,4]x[1,4], overlap [3,4]x[3,4]:
        # union area = 3 + 3 - 1 = 5.
        volume = hypervolume([(1, 3), (3, 1)], (4, 4))
        assert volume == pytest.approx(5.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([(1, 1)], (4, 4))
        extra = hypervolume([(1, 1), (2, 2)], (4, 4))
        assert extra == pytest.approx(base)

    def test_points_beyond_reference_clipped(self):
        assert hypervolume([(5, 5)], (2, 2)) == 0.0

    def test_empty(self):
        assert hypervolume([], (1, 1)) == 0.0


class TestHVR:
    def test_full_selection_ratio_one(self):
        true_front = [(1, 3), (2, 2), (3, 1)]
        assert hvr(true_front, true_front) == pytest.approx(1.0)

    def test_partial_selection_below_one(self):
        true_front = [(1, 10), (5, 5), (10, 1)]
        selected = [(5, 5)]
        ratio = hvr(true_front, selected)
        assert 0.0 < ratio < 1.0

    def test_empty_selection_zero(self):
        true_front = [(1, 2), (2, 1)]
        assert hvr(true_front, []) == 0.0

    def test_reference_spans_selected_points(self):
        # Regression: a selection dominated-but-beyond 1.1x the true
        # front's maxima used to be clipped to zero contribution.
        true_front = [(1.0, 10.0), (10.0, 1.0)]
        far_selected = [(50.0, 50.0)]
        assert hvr(true_front, far_selected) > 0.0

    def test_degenerate_front_not_rewarded(self):
        # Regression: a zero-extent true front made the denominator 0
        # and returned a perfect 1.0 for *any* selection -- including
        # the empty one and dominated far-away picks.
        degenerate = [(0.0, 5.0)]
        assert hvr(degenerate, []) == 0.0
        # A dominated far-away pick widens the union reference, so the
        # ratio is defined again -- and terrible, not perfect.
        assert hvr(degenerate, [(3.0, 7.0)]) < 0.1
        assert hvr(degenerate, [(0.0, 5.0)]) == 1.0

    def test_explicit_reference_still_honored(self):
        true_front = [(1.0, 1.0)]
        assert hvr(true_front, true_front,
                   reference=(2.0, 2.0)) == pytest.approx(1.0)

    @given(point_clouds.filter(len))
    @settings(max_examples=100, deadline=None)
    def test_full_selection_always_one(self, points):
        front = [points[i] for i in pareto_front(points)]
        assert hvr(front, front) == pytest.approx(1.0)


class TestParetoMetrics:
    def test_perfect_prediction(self):
        points = [(1, 5), (2, 4), (3, 3), (4, 4), (5, 5)]
        metrics = pareto_metrics(points, points)
        assert metrics.sensitivity == 1.0
        assert metrics.specificity == 1.0
        assert metrics.accuracy == 1.0
        assert metrics.hvr == pytest.approx(1.0)

    def test_inverted_prediction_poor_sensitivity(self):
        true_points = [(1, 5), (2, 4), (3, 3), (6, 6), (7, 7)]
        # Prediction ranks the dominated designs as best.
        predicted = [(9, 9), (8, 8), (7, 7), (1, 2), (2, 1)]
        metrics = pareto_metrics(true_points, predicted)
        assert metrics.sensitivity < 0.5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            pareto_metrics([(1, 1)], [(1, 1), (2, 2)])

    def test_metrics_in_unit_range(self):
        import random
        rng = random.Random(5)
        true_points = [(rng.random(), rng.random()) for _ in range(40)]
        noisy = [(x + rng.gauss(0, 0.05), y + rng.gauss(0, 0.05))
                 for x, y in true_points]
        metrics = pareto_metrics(true_points, noisy)
        for value in (metrics.sensitivity, metrics.specificity,
                      metrics.accuracy, metrics.hvr):
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_noisy_prediction_keeps_high_hvr(self):
        # The thesis' key claim: even with prediction noise, the selected
        # designs cover the true frontier's hypervolume (HVR ~ 0.97).
        import random
        rng = random.Random(11)
        true_points = []
        for _ in range(100):
            x = rng.uniform(1, 10)
            y = 10.0 / x + rng.uniform(0, 3)
            true_points.append((x, y))
        predicted = [
            (x * (1 + rng.gauss(0, 0.05)), y * (1 + rng.gauss(0, 0.05)))
            for x, y in true_points
        ]
        metrics = pareto_metrics(true_points, predicted)
        assert metrics.hvr > 0.8
        assert metrics.specificity > 0.8
