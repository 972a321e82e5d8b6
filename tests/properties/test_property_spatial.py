"""Property tests: cached spatial answers are identical to ground truth.

The SpatialService's determinism contract, exercised across random
buildings, random query points and random seeds:

* cached and uncached services return *identical* routes, sightline reports,
  nearest-neighbour distances and locations (the caches memoize pure
  functions — they can never change an answer);
* the service's routing agrees with the legacy temporary-node Dijkstra of
  ``RoutePlanner`` on route cost (length and travel time);
* sightline reports agree exactly with the unpruned
  ``analyze_sightline`` scan (grid buckets only skip walls that cannot
  intersect the sight line);
* a sight fan's batched counts agree exactly with ``count_wall_crossings``
  and ``count_obstacle_crossings`` over every wall and obstacle of the
  floor, degenerate sight lines included.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.building.distance import RoutePlanner
from repro.building.model import Obstacle
from repro.building.synthetic import OfficeSpec, building_by_name, office_building
from repro.core.config import SpatialConfig
from repro.core.errors import RoutingError
from repro.geometry.line_of_sight import (
    SightFan,
    analyze_sightline,
    count_obstacle_crossings,
    count_wall_crossings,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment
from repro.spatial import SpatialService

BUILDING_NAMES = ("office", "mall", "clinic")

#: Buildings are deterministic per (name, floors); build each once.
_BUILDINGS = {}


def _building(name, floors):
    key = (name, floors)
    if key not in _BUILDINGS:
        _BUILDINGS[key] = building_by_name(name, floors=floors)
    return _BUILDINGS[key]


def _random_points(building, seed, count):
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        location = building.random_location(rng)
        points.append((location.floor_id, Point(location.x, location.y)))
    return points


@st.composite
def spatial_cases(draw):
    name = draw(st.sampled_from(BUILDING_NAMES))
    floors = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return name, floors, seed


class TestRoutingEquivalence:
    @given(case=spatial_cases(), metric=st.sampled_from(["length", "time"]))
    @settings(max_examples=25, deadline=None)
    def test_cached_routes_identical_to_uncached(self, case, metric):
        name, floors, seed = case
        building = _building(name, floors)
        cached = SpatialService(building)
        uncached = SpatialService(building, config=SpatialConfig(enabled=False))
        points = _random_points(building, seed, 6)
        for (sf, sp), (tf, tp) in zip(points, points[1:]):
            try:
                ours = cached.shortest_route(sf, sp, tf, tp, metric=metric)
            except RoutingError:
                continue
            again = cached.shortest_route(sf, sp, tf, tp, metric=metric)
            plain = uncached.shortest_route(sf, sp, tf, tp, metric=metric)
            assert ours.waypoints == plain.waypoints == again.waypoints
            assert ours.length == plain.length == again.length
            assert ours.travel_time == plain.travel_time == again.travel_time
            assert ours.doors == plain.doors
            assert ours.staircases == plain.staircases

    @given(case=spatial_cases(), metric=st.sampled_from(["length", "time"]))
    @settings(max_examples=25, deadline=None)
    def test_route_cost_matches_legacy_planner(self, case, metric):
        name, floors, seed = case
        building = _building(name, floors)
        service = SpatialService(building)
        planner = RoutePlanner(building)
        for (sf, sp), (tf, tp) in zip(*[iter(_random_points(building, seed, 6))] * 2):
            try:
                ours = service.shortest_route(sf, sp, tf, tp, metric=metric)
            except RoutingError:
                continue
            legacy = planner.shortest_route(sf, sp, tf, tp, metric=metric)
            assert abs(ours.length - legacy.length) <= 1e-9 * max(1.0, legacy.length)
            assert abs(ours.travel_time - legacy.travel_time) <= (
                1e-9 * max(1.0, legacy.travel_time)
            )

    @given(case=spatial_cases())
    @settings(max_examples=20, deadline=None)
    def test_object_speed_only_scales_travel_time_for_length_metric(self, case):
        name, floors, seed = case
        building = _building(name, floors)
        service = SpatialService(building)
        points = _random_points(building, seed, 2)
        (sf, sp), (tf, tp) = points
        try:
            slow = service.shortest_route(sf, sp, tf, tp, walking_speed=0.9)
            fast = service.shortest_route(sf, sp, tf, tp, walking_speed=1.9)
        except RoutingError:
            return
        # Under the length metric the chosen path is speed-independent.
        assert slow.waypoints == fast.waypoints
        assert slow.length == fast.length


class TestSightlineEquivalence:
    @given(case=spatial_cases())
    @settings(max_examples=30, deadline=None)
    def test_pruned_sightline_matches_full_scan(self, case):
        name, floors, seed = case
        building = _building(name, floors)
        cached = SpatialService(building)
        uncached = SpatialService(building, config=SpatialConfig(enabled=False))
        points = _random_points(building, seed, 8)
        for (sf, sp), (tf, tp) in zip(points, points[1:]):
            if sf != tf:
                continue
            floor = building.floor(sf)
            legacy = analyze_sightline(
                sp, tp, floor.wall_segments(), floor.obstacle_polygons()
            )
            assert cached.sightline(sf, sp, tp) == legacy
            assert cached.sightline(sf, sp, tp) == legacy  # cache hit path
            assert uncached.sightline(sf, sp, tp) == legacy


def _obstructed_office():
    building = office_building(OfficeSpec(floors=1))
    floor = building.floor(0)
    shapes = (
        Polygon.rectangle(10, 2, 12, 4),
        Polygon.rectangle(20, 6, 23, 8),
        Polygon([Point(30.0, 2.0), Point(34.0, 2.5), Point(31.0, 5.0)]),
    )
    for index, shape in enumerate(shapes):
        floor.add_obstacle(Obstacle(f"obstacle{index}", 0, shape))
    return building


_OBSTRUCTED = _obstructed_office()
_WALLS = _OBSTRUCTED.floor(0).wall_segments()
_OBSTACLES = _OBSTRUCTED.floor(0).obstacle_polygons()
_KINDS = ("free", "on_wall", "wall_end", "in_obstacle", "on_line", "at_origin")


@st.composite
def fan_cases(draw):
    """An origin and targets, mixing free points with the degenerate ones:
    on a wall, on a wall endpoint, inside an obstacle, on the line of the
    wall the origin lies on (collinear sight lines) and the origin itself
    (zero-length sight lines)."""
    fraction = st.floats(0.0, 1.0)
    line = draw(st.sampled_from(_WALLS))

    def point(kind, origin=None):
        if kind == "free":
            return Point(draw(st.floats(-2.0, 42.0)), draw(st.floats(-2.0, 20.0)))
        if kind == "on_wall":
            return draw(st.sampled_from(_WALLS)).point_at(draw(fraction))
        if kind == "wall_end":
            wall = draw(st.sampled_from(_WALLS))
            return draw(st.sampled_from((wall.start, wall.end)))
        if kind == "in_obstacle":
            box = draw(st.sampled_from(_OBSTACLES)).bounding_box
            return Point(box.min_x + (box.max_x - box.min_x) * draw(fraction),
                         box.min_y + (box.max_y - box.min_y) * draw(fraction))
        if kind == "on_line":
            return line.point_at(draw(st.floats(-0.5, 1.5)))
        return origin

    origin = point(draw(st.sampled_from(_KINDS[:-1])))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=12))
    return origin, [point(kind, origin) for kind in kinds]


class TestSightFanEquivalence:
    @given(case=fan_cases())
    @settings(max_examples=200, deadline=None)
    def test_fan_counts_match_the_scalar_counts(self, case):
        origin, targets = case
        expected_walls = [count_wall_crossings(Segment(origin, t), _WALLS) for t in targets]
        expected_obstacles = [
            count_obstacle_crossings(Segment(origin, t), _OBSTACLES) for t in targets
        ]
        xs, ys = [t.x for t in targets], [t.y for t in targets]
        # The kernel over every wall and obstacle of the floor...
        assert SightFan(origin, _WALLS, _OBSTACLES).crossings(xs, ys) == (
            expected_walls, expected_obstacles
        )
        # ...and through the service, pruned to the reach the RSSI layer uses.
        reach = max(math.hypot(origin.x - t.x, origin.y - t.y) for t in targets)
        for config in (SpatialConfig(), SpatialConfig(enabled=False)):
            fan = SpatialService(_OBSTRUCTED, config=config).sight_fan(0, origin, reach)
            assert fan.crossings(xs, ys) == (expected_walls, expected_obstacles)


class TestNearestNeighbourEquivalence:
    @given(case=spatial_cases())
    @settings(max_examples=30, deadline=None)
    def test_nearest_door_and_wall_match_brute_force(self, case):
        name, floors, seed = case
        building = _building(name, floors)
        service = SpatialService(building)
        for floor_id, point in _random_points(building, seed, 6):
            floor = building.floor(floor_id)
            doors = list(floor.doors.values())
            if doors:
                expected = min(door.position.distance_to(point) for door in doors)
                assert service.nearest_door_distance(floor_id, point) == expected
            walls = floor.wall_segments()
            if walls:
                expected = min(wall.distance_to_point(point) for wall in walls)
                assert service.nearest_wall_distance(floor_id, point) == expected

    @given(case=spatial_cases())
    @settings(max_examples=20, deadline=None)
    def test_locate_matches_building_locate(self, case):
        name, floors, seed = case
        building = _building(name, floors)
        service = SpatialService(building)
        for floor_id, point in _random_points(building, seed, 6):
            assert service.locate(floor_id, point) == building.locate(floor_id, point)
