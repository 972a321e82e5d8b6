"""Property-based tests (hypothesis) for the positioning estimators."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.building.model import Building, Partition
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.positioning.fingerprinting import KNNFingerprinting, RadioMap, ReferenceLocation
from repro.positioning.trilateration import linearised_start, refine, weighted_cost

coordinate = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=0.05, max_value=80.0, allow_nan=False, allow_infinity=False)


@st.composite
def anchor_sets(draw):
    """3–5 anchors: scattered, or spread along a line with at most a tiny
    perpendicular offset (collinear to within rounding)."""
    count = draw(st.integers(min_value=3, max_value=5))
    if draw(st.booleans()):
        xs = [draw(coordinate) for _ in range(count)]
        ys = [draw(coordinate) for _ in range(count)]
    else:
        x0, y0 = draw(coordinate), draw(coordinate)
        angle = draw(st.floats(min_value=0.0, max_value=math.pi))
        offset = st.floats(min_value=-1e-3, max_value=1e-3)
        along = [draw(coordinate) for _ in range(count)]
        across = [draw(offset) for _ in range(count)]
        xs = [x0 + a * math.cos(angle) - o * math.sin(angle) for a, o in zip(along, across)]
        ys = [y0 + a * math.sin(angle) + o * math.cos(angle) for a, o in zip(along, across)]
    radii = [draw(radius) for _ in range(count)]
    return xs, ys, radii


def _numpy_start(xs, ys, radii):
    """The linearised solve through numpy (rank test, then lstsq): the
    reference for :func:`linearised_start`."""
    rows = [[2.0 * (xs[i] - xs[-1]), 2.0 * (ys[i] - ys[-1])] for i in range(len(xs) - 1)]
    rhs = [
        xs[i] ** 2 - xs[-1] ** 2 + ys[i] ** 2 - ys[-1] ** 2 + radii[-1] ** 2 - radii[i] ** 2
        for i in range(len(xs) - 1)
    ]
    matrix = np.asarray(rows, dtype=float)
    if np.linalg.matrix_rank(matrix) < 2:
        return None, math.inf
    solution, *_ = np.linalg.lstsq(matrix, np.asarray(rhs, dtype=float), rcond=None)
    return (float(solution[0]), float(solution[1])), float(np.linalg.cond(matrix))


class TestTrilaterationSolver:
    @settings(max_examples=300, deadline=None)
    @given(anchor_sets())
    def test_refined_point_is_finite_and_never_costs_more_than_its_start(self, anchors):
        xs, ys, radii = anchors
        start = linearised_start(xs, ys, radii)
        assume(start is not None)
        x, y = refine(xs, ys, radii, *start)
        assert math.isfinite(x) and math.isfinite(y)
        assert weighted_cost(xs, ys, radii, x, y) <= weighted_cost(xs, ys, radii, *start)

    @settings(max_examples=300, deadline=None)
    @given(anchor_sets())
    def test_linearised_start_matches_the_numpy_solve(self, anchors):
        xs, ys, radii = anchors
        expected, condition = _numpy_start(xs, ys, radii)
        assume(condition < 1e6)
        start = linearised_start(xs, ys, radii)
        assert start is not None
        scale = max(1.0, abs(expected[0]), abs(expected[1]))
        assert start == pytest.approx(expected, rel=1e-6, abs=1e-6 * scale)

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 10.0, 20.0], [5.0, 5.0, 5.0]),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ([3.0, 3.0, 3.0], [7.0, 7.0, 7.0]),
    ])
    def test_collinear_and_coincident_anchors_are_rejected(self, xs, ys):
        radii = [5.0] * len(xs)
        assert _numpy_start(xs, ys, radii)[0] is None
        assert linearised_start(xs, ys, radii) is None


_HALL = Building("hall")
_HALL.new_floor(0).add_partition(Partition("hall", 0, Polygon.rectangle(0, 0, 40, 40)))

device_ids = st.sampled_from([f"ap_{index}" for index in range(6)])
#: Whole and half decibels, so exact ties between different fingerprints occur.
rssi = st.integers(min_value=-190, max_value=-70).map(lambda half_db: half_db / 2.0)
fingerprints = st.dictionaries(device_ids, rssi, max_size=6)


@st.composite
def radio_maps(draw):
    """References with random fingerprints, some repeated verbatim."""
    mean_rssi = draw(st.lists(fingerprints, min_size=1, max_size=12))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mean_rssi.append(dict(draw(st.sampled_from(mean_rssi))))
    return RadioMap([
        ReferenceLocation(0, Point(float(index), 1.0), mean_rssi=values)
        for index, values in enumerate(mean_rssi)
    ])


#: Observations may include devices that no reference heard.
observations = st.dictionaries(
    st.sampled_from([f"ap_{index}" for index in range(8)]), rssi, min_size=1, max_size=8
)


class TestKNNRanking:
    @settings(max_examples=150, deadline=None)
    @given(radio_maps(), observations)
    def test_batched_ranking_equals_an_exact_sort(self, radio_map, observation):
        references = radio_map.references
        exact = sorted(
            range(len(references)),
            key=lambda index: (references[index].signal_distance(observation), index),
        )
        for k in range(1, len(references) + 2):
            method = KNNFingerprinting(_HALL, [], radio_map, k=k)
            chosen = [id(reference) for reference in method.nearest(observation)]
            assert chosen == [id(references[index]) for index in exact[:k]]
