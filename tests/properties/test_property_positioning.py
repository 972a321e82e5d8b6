"""Property-based tests (hypothesis) for the positioning estimators."""

import math
import statistics
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.building.model import Building, Partition
from repro.core.types import IndoorLocation, RSSIRecord
from repro.devices.wifi import WiFiAccessPoint
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.positioning.base import ObservationWindow
from repro.positioning.fingerprinting import KNNFingerprinting, RadioMap, ReferenceLocation
from repro.positioning.trilateration import (
    TrilaterationMethod,
    linearised_start,
    linearised_starts,
    refine,
    refine_batch,
    weighted_cost,
)

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


@st.composite
def solver_windows(draw):
    """One window for the batch solver: 3–5 anchors (scattered, collinear or
    coincident) and a start, which may sit on the anchors (``det`` is then 0
    at the first trial step)."""
    shape = draw(st.sampled_from(["anchors", "coincident"]))
    if shape == "anchors":
        xs, ys, radii = draw(anchor_sets())
        x, y = draw(coordinate), draw(coordinate)
    else:
        count = draw(st.integers(min_value=3, max_value=5))
        x, y = draw(coordinate), draw(coordinate)
        xs, ys = [x] * count, [y] * count
        radii = [draw(radius) for _ in range(count)]
    if draw(st.booleans()):
        x, y = xs[0], ys[0]
    return xs, ys, radii, x, y


def _loop_start(xs, ys, radii):
    """The linearised start of one window in Python floats, loop by loop:
    the reference the batched solve must equal bit for bit."""
    last = len(xs) - 1
    rx, ry, rr = xs[last], ys[last], radii[last]
    rows = [
        (
            2.0 * (xs[i] - rx),
            2.0 * (ys[i] - ry),
            xs[i] ** 2 - rx ** 2 + ys[i] ** 2 - ry ** 2 + rr ** 2 - radii[i] ** 2,
        )
        for i in range(last)
    ]
    trace = sum(u * u + v * v for u, v, _ in rows)
    det = x_sum = y_sum = 0.0
    for i, (ui, vi, bi) in enumerate(rows):
        for uj, vj, bj in rows[i + 1:]:
            minor = ui * vj - uj * vi
            det += minor * minor
            x_sum += minor * (vj * bi - vi * bj)
            y_sum += minor * (ui * bj - uj * bi)
    s_max_sq = 0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
    if not s_max_sq > 0.0 or math.sqrt(det) <= s_max_sq * max(last, 2) * 2.220446049250313e-16:
        return None
    x, y = x_sum / det, y_sum / det
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return x, y


def _loop_linearise(xs, ys, radii, weights, x, y):
    cost = a = b = c = gx = gy = 0.0
    for ax, ay, radius, weight in zip(xs, ys, radii, weights):
        dx, dy = x - ax, y - ay
        distance = max(math.hypot(dx, dy), 1e-6)
        residual = (distance - radius) * weight
        jx, jy = dx / distance * weight, dy / distance * weight
        cost += residual * residual
        a += jx * jx
        b += jx * jy
        c += jy * jy
        gx += jx * residual
        gy += jy * residual
    return cost, a, b, c, gx, gy


def _loop_refine(xs, ys, radii, x, y):
    """Levenberg–Marquardt on one window in Python floats: the reference the
    batched solve must equal bit for bit."""
    weights = [1.0 / max(radius, 0.5) for radius in radii]
    cost, a, b, c, gx, gy = _loop_linearise(xs, ys, radii, weights, x, y)
    mu = 1e-3 * max(a, c)
    for _ in range(20):
        a_mu, c_mu = a + mu, c + mu
        det = a_mu * c_mu - b * b
        if not det > 0.0:
            break
        step_x = (b * gy - c_mu * gx) / det
        step_y = (b * gx - a_mu * gy) / det
        trial = _loop_linearise(xs, ys, radii, weights, x + step_x, y + step_y)
        if trial[0] < cost:
            x, y = x + step_x, y + step_y
            cost, a, b, c, gx, gy = trial
            mu *= 0.1
        else:
            mu *= 10.0
        if math.hypot(step_x, step_y) < 1e-4:
            break
    return x, y


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

    @settings(max_examples=300, deadline=None)
    @given(anchor_sets(), coordinate, coordinate)
    def test_refine_from_any_start_never_costs_more_than_it(self, anchors, x, y):
        xs, ys, radii = anchors
        refined = refine(xs, ys, radii, x, y)
        assert weighted_cost(xs, ys, radii, *refined) <= weighted_cost(xs, ys, radii, x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(solver_windows(), min_size=1, max_size=12))
    def test_solving_windows_together_equals_solving_each_alone(self, windows):
        by_count = defaultdict(list)
        for window in windows:
            by_count[len(window[0])].append(window)
        for group in by_count.values():
            xs, ys, radii, start_x, start_y = (
                np.array([window[column] for window in group], dtype=float)
                for column in range(5)
            )
            ok, batch_x, batch_y = linearised_starts(xs, ys, radii)
            refined_x, refined_y = refine_batch(xs, ys, radii, start_x, start_y)
            for index, (wxs, wys, wradii, wx, wy) in enumerate(group):
                alone = linearised_start(wxs, wys, wradii)
                together = (batch_x[index].item(), batch_y[index].item()) if ok[index] else None
                assert together == alone == _loop_start(wxs, wys, wradii)
                refined = (refined_x[index].item(), refined_y[index].item())
                assert refined == refine(wxs, wys, wradii, wx, wy)
                assert refined == _loop_refine(wxs, wys, wradii, wx, wy)

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


#: Devices of the trilateration hall: two share a position, and three stand
#: on one line, so some windows are rank-deficient.
_HALL_DEVICES = [
    WiFiAccessPoint(f"ap_{index}", IndoorLocation("hall", 0, x=x, y=y), detection_range=80.0)
    for index, (x, y) in enumerate([
        (2.0, 2.0), (38.0, 2.0), (38.0, 38.0), (2.0, 38.0), (20.0, 2.0), (20.0, 2.0),
        (20.0, 20.0),
    ])
]


@st.composite
def hall_windows(draw):
    """An observation window: 1–3 RSSI samples from each of a random subset
    of the hall's devices."""
    heard = draw(st.lists(
        st.sampled_from(_HALL_DEVICES), min_size=1, max_size=7,
        unique_by=lambda device: device.device_id,
    ))
    values = st.floats(min_value=-95.0, max_value=-35.0, allow_nan=False)
    records = [
        RSSIRecord("o", device.device_id, draw(values), 1.0)
        for device in heard
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return ObservationWindow("o", 0.0, 5.0, records=records)


class TestTrilaterationBatch:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(hall_windows(), min_size=1, max_size=10), st.integers(3, 5))
    def test_estimate_windows_equals_estimating_each_window(self, windows, max_devices):
        method = TrilaterationMethod(_HALL, _HALL_DEVICES, max_devices=max_devices)
        alone = [method.estimate_window(window) for window in windows]
        assert method.estimate_windows(windows) == alone


class TestSurveyStd:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from([f"ap_{index}" for index in range(6)]),
        st.lists(
            st.floats(min_value=-110.0, max_value=-20.0, allow_nan=False), min_size=1, max_size=12
        ),
        max_size=6,
    ))
    def test_survey_std_is_statistics_pstdev(self, samples):
        class Generator:
            def collect_fingerprint(self, floor_id, point, samples=10):
                return {device_id: list(values) for device_id, values in fingerprint.items()}

        fingerprint = samples
        radio_map = RadioMap.survey(_HALL, Generator(), [(0, Point(1.0, 1.0))])
        std = radio_map.references[0].std_rssi
        expected = {
            device_id: statistics.pstdev(values) if len(values) > 1 else 0.0
            for device_id, values in samples.items()
        }
        assert {device_id: std[device_id].hex() for device_id in samples} == {
            device_id: value.hex() for device_id, value in expected.items()
        }
        assert dict(std) == expected
        assert std.get("not_surveyed", 2.0) == 2.0
