"""Unit tests for repro.geometry.line_of_sight."""

import pytest

from repro.geometry import line_of_sight
from repro.geometry.line_of_sight import (
    SightFan,
    analyze_sightline,
    count_obstacle_crossings,
    count_wall_crossings,
    has_line_of_sight,
    visible_targets,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment


@pytest.fixture()
def single_wall():
    """A vertical wall at x = 5 between y = 0 and y = 10."""
    return [Segment(Point(5, 0), Point(5, 10))]


class TestWallCrossings:
    def test_blocked_sightline_counts_one_wall(self, single_wall):
        sightline = Segment(Point(0, 5), Point(10, 5))
        assert count_wall_crossings(sightline, single_wall) == 1

    def test_clear_sightline_counts_zero(self, single_wall):
        sightline = Segment(Point(0, 15), Point(10, 15))
        assert count_wall_crossings(sightline, single_wall) == 0

    def test_parallel_sightline_not_blocked(self, single_wall):
        sightline = Segment(Point(4, 0), Point(4, 10))
        assert count_wall_crossings(sightline, single_wall) == 0

    def test_multiple_walls_counted_individually(self):
        walls = [Segment(Point(x, 0), Point(x, 10)) for x in (2, 4, 6)]
        sightline = Segment(Point(0, 5), Point(10, 5))
        assert count_wall_crossings(sightline, walls) == 3

    def test_sightline_grazing_wall_endpoint_not_counted(self, single_wall):
        sightline = Segment(Point(0, 10), Point(10, 10))
        assert count_wall_crossings(sightline, single_wall) == 0


class TestObstacleCrossings:
    def test_obstacle_crossed(self):
        obstacle = Polygon.rectangle(4, 4, 6, 6)
        sightline = Segment(Point(0, 5), Point(10, 5))
        assert count_obstacle_crossings(sightline, [obstacle]) == 1

    def test_obstacle_missed(self):
        obstacle = Polygon.rectangle(4, 7, 6, 9)
        sightline = Segment(Point(0, 5), Point(10, 5))
        assert count_obstacle_crossings(sightline, [obstacle]) == 0

    def test_endpoint_inside_obstacle_counts(self):
        obstacle = Polygon.rectangle(0, 0, 2, 2)
        sightline = Segment(Point(1, 1), Point(10, 10))
        assert count_obstacle_crossings(sightline, [obstacle]) == 1


class TestSightlineReport:
    def test_report_fields(self, single_wall):
        report = analyze_sightline(Point(0, 5), Point(10, 5), walls=single_wall)
        assert report.distance == pytest.approx(10.0)
        assert report.wall_crossings == 1
        assert report.obstacle_crossings == 0
        assert report.total_crossings == 1
        assert not report.clear

    def test_clear_report(self):
        report = analyze_sightline(Point(0, 0), Point(3, 4))
        assert report.clear
        assert report.distance == pytest.approx(5.0)

    def test_has_line_of_sight(self, single_wall):
        assert not has_line_of_sight(Point(0, 5), Point(10, 5), walls=single_wall)
        assert has_line_of_sight(Point(0, 5), Point(4, 5), walls=single_wall)

    def test_visible_targets(self, single_wall):
        origin = Point(0, 5)
        targets = [Point(4, 5), Point(10, 5), Point(2, 8)]
        assert visible_targets(origin, targets, walls=single_wall) == [0, 2]

    def test_figure3_asymmetry(self):
        """Figure 3(a): equal distances, but the wall-blocked device hears less.

        The geometric part of the figure is that only one of the two sight
        lines crosses a wall; the RSSI consequence is tested in the rssi
        package tests.
        """
        wall = [Segment(Point(4, 0), Point(4, 4.5))]
        observed = Point(5, 5)
        device_behind_wall = Point(2, 2)    # sight line crosses the wall
        device_in_open = Point(8, 2)        # clear line of sight
        assert observed.distance_to(device_behind_wall) == pytest.approx(
            observed.distance_to(device_in_open)
        )
        assert not has_line_of_sight(observed, device_behind_wall, walls=wall)
        assert has_line_of_sight(observed, device_in_open, walls=wall)


class TestSightFan:
    #: A wall, a wall collinear with sight lines along y = 5, a tiny wall
    #: that a sight line crosses with a near-zero denominator (which
    #: Segment.crosses does not count), and two obstacles.
    WALLS = [
        Segment(Point(5, 0), Point(5, 10)),
        Segment(Point(1, 5), Point(3, 5)),
        Segment(Point(5, 1e-11), Point(5, -1e-11)),
    ]
    OBSTACLES = [Polygon.rectangle(6, 4, 8, 6), Polygon.rectangle(-1, -1, 1, 1)]
    TARGETS = [
        Point(10, 5), Point(4, 5), Point(0, 5), Point(0, 0), Point(10, 1e-11),
        Point(5, 10), Point(5, 3), Point(7, 5), Point(6, 4), Point(2, 8),
    ]

    def _expected(self, origin):
        return (
            [count_wall_crossings(Segment(origin, t), self.WALLS) for t in self.TARGETS],
            [count_obstacle_crossings(Segment(origin, t), self.OBSTACLES) for t in self.TARGETS],
        )

    @pytest.mark.parametrize("origin", [Point(0, 0), Point(0, 5), Point(7, 5), Point(5, 0)])
    def test_counts_equal_the_scalar_counts(self, origin):
        fan = SightFan(origin, self.WALLS, self.OBSTACLES)
        xs, ys = [t.x for t in self.TARGETS], [t.y for t in self.TARGETS]
        assert fan.crossings(xs, ys) == self._expected(origin)

    def test_near_parallel_tiny_wall_is_not_counted(self):
        fan = SightFan(Point(0, 0), self.WALLS[2:], [])
        assert fan.crossings([10.0], [1e-11]) == ([0], [0])

    def test_counts_do_not_depend_on_the_pass_size(self, monkeypatch):
        origin = Point(0, 5)
        monkeypatch.setattr(line_of_sight, "PAIRS_PER_PASS", 4)
        fan = SightFan(origin, self.WALLS, self.OBSTACLES)
        xs, ys = [t.x for t in self.TARGETS], [t.y for t in self.TARGETS]
        assert fan.crossings(xs, ys) == self._expected(origin)

    def test_no_targets_and_no_geometry(self):
        assert SightFan(Point(0, 0), [], []).crossings([1.0, 2.0], [0.0, 0.0]) == (
            [0, 0], [0, 0]
        )
        assert SightFan(Point(0, 0), self.WALLS, self.OBSTACLES).crossings([], []) == ([], [])
