"""Unit tests of the shared cached SpatialService."""

import math

import pytest

from repro.building.distance import RoutePlanner
from repro.building.model import Door, Obstacle, Partition, PartitionKind
from repro.building.synthetic import OfficeSpec, office_building
from repro.core.config import SpatialConfig
from repro.core.errors import ConfigurationError, RoutingError
from repro.geometry.line_of_sight import analyze_sightline
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.spatial import LRUCache, SpatialService
from repro.spatial.cache import CacheStats, diff_stats, merge_stats


@pytest.fixture()
def service(office):
    return SpatialService(office)


@pytest.fixture()
def uncached(office):
    return SpatialService(office, config=SpatialConfig(enabled=False))


class TestConfig:
    def test_defaults_are_enabled(self):
        config = SpatialConfig()
        assert config.enabled
        assert config.route_cache_size > 0

    def test_rejects_negative_sizes_and_zero_quantum(self):
        with pytest.raises(ConfigurationError):
            SpatialConfig(route_cache_size=-1)
        with pytest.raises(ConfigurationError):
            SpatialConfig(quantum=0.0)


class TestLRUCache:
    def test_exact_verification_prevents_bucket_collisions(self):
        cache = LRUCache(8, CacheStats())
        cache.put("bucket", ("exact-a",), "value-a")
        value, hit = cache.get("bucket", ("exact-a",))
        assert hit and value == "value-a"
        # A different exact query in the same bucket must miss, never
        # return value-a (caching may change cost, not results).
        value, hit = cache.get("bucket", ("exact-b",))
        assert not hit and value is None

    def test_lru_eviction_bounds_size(self):
        cache = LRUCache(2, CacheStats())
        for index in range(5):
            cache.put(index, index, index)
        assert len(cache) == 2

    def test_stats_helpers(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        merged = merge_stats({"a": 1}, {"a": 2, "b": 5})
        assert merged == {"a": 3, "b": 5}
        assert diff_stats({"a": 3, "b": 5}, {"a": 1}) == {"a": 2, "b": 5}


class TestRouting:
    def test_same_partition_is_a_straight_walk(self, service):
        route = service.shortest_route(0, Point(3.0, 3.0), 0, Point(5.0, 4.0))
        assert len(route.waypoints) == 2
        assert route.length == pytest.approx(Point(3.0, 3.0).distance_to(Point(5.0, 4.0)))

    def test_cross_floor_route_uses_a_staircase(self, service):
        route = service.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        assert route.staircases
        assert route.floors_visited == [0, 1]

    def test_route_matches_legacy_planner_cost(self, office, service):
        planner = RoutePlanner(office)
        for source, target in (
            (Point(4.0, 3.0), Point(35.0, 3.0)),
            (Point(12.0, 3.0), Point(4.0, 8.0)),
        ):
            for metric in ("length", "time"):
                ours = service.shortest_route(0, source, 1, target, metric=metric)
                legacy = planner.shortest_route(0, source, 1, target, metric=metric)
                assert ours.length == pytest.approx(legacy.length, rel=1e-9)
                assert ours.travel_time == pytest.approx(legacy.travel_time, rel=1e-9)

    def test_repeated_query_hits_the_route_cache(self, service):
        first = service.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        second = service.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        assert second is first
        stats = service.cache_stats()
        assert stats["route_hits"] == 1

    def test_disabled_service_never_counts_or_caches(self, uncached):
        uncached.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        uncached.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        stats = uncached.cache_stats()
        assert all(value == 0 for value in stats.values())

    def test_unknown_metric_raises(self, service):
        with pytest.raises(RoutingError):
            service.shortest_route(0, Point(4.0, 3.0), 0, Point(5.0, 3.0), metric="teleport")

    def test_point_outside_any_partition_raises(self, service):
        with pytest.raises(RoutingError):
            service.shortest_route(0, Point(-50.0, -50.0), 0, Point(5.0, 3.0))

    def test_shortest_distance_is_route_length(self, service):
        route = service.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        assert service.shortest_distance(0, Point(4.0, 3.0), 1, Point(35.0, 3.0)) == (
            pytest.approx(route.length)
        )


class TestSightline:
    def test_matches_legacy_analysis(self, office, service):
        floor = office.floor(0)
        origin, target = Point(2.0, 2.0), Point(30.0, 9.0)
        ours = service.sightline(0, origin, target)
        legacy = analyze_sightline(
            origin, target, floor.wall_segments(), floor.obstacle_polygons()
        )
        assert ours == legacy

    def test_repeated_sightline_hits_the_cache(self, service):
        origin, target = Point(2.0, 2.0), Point(30.0, 9.0)
        first = service.sightline(0, origin, target)
        second = service.sightline(0, origin, target)
        assert second is first
        assert service.cache_stats()["los_hits"] == 1

    def test_obstacles_are_counted(self, fresh_office):
        fresh_office.floor(0).add_obstacle(
            Obstacle(
                obstacle_id="cabinet",
                floor_id=0,
                polygon=Polygon.rectangle(5.0, 2.5, 6.0, 3.5),
                attenuation_db=6.0,
            )
        )
        service = SpatialService(fresh_office)
        report = service.sightline(0, Point(4.0, 3.0), Point(8.0, 3.0))
        assert report.obstacle_crossings == 1


class TestNearestNeighbour:
    def test_nearest_door_matches_brute_force(self, office, service):
        floor = office.floor(0)
        for point in (Point(2.0, 2.0), Point(18.0, 7.5), Point(33.0, 4.0)):
            expected = min(
                door.position.distance_to(point) for door in floor.doors.values()
            )
            assert service.nearest_door_distance(0, point) == expected

    def test_nearest_wall_matches_brute_force(self, office, service):
        for point in (Point(2.0, 2.0), Point(18.0, 7.5), Point(33.0, 4.0)):
            expected = min(
                wall.distance_to_point(point)
                for wall in office.floor(0).wall_segments()
            )
            assert service.nearest_wall_distance(0, point) == expected

    def test_doorless_floor_returns_infinity(self):
        building = office_building(OfficeSpec(floors=1))
        lonely = building.floor(0)
        for door_id in list(lonely.doors):
            del lonely.doors[door_id]
        lonely._invalidate_caches()
        service = SpatialService(building)
        assert service.nearest_door(0, Point(2.0, 2.0)) is None
        assert math.isinf(service.nearest_door_distance(0, Point(2.0, 2.0)))


class TestSightFan:
    @staticmethod
    def _obstructed_office():
        building = office_building(OfficeSpec(floors=1))
        floor = building.floor(0)
        for index, box in enumerate(((10, 2, 12, 4), (20, 6, 23, 8))):
            floor.add_obstacle(
                Obstacle(f"cabinet{index}", 0, Polygon.rectangle(*box), attenuation_db=4.0)
            )
        return building

    def test_counts_match_sightline_reports(self):
        building = self._obstructed_office()
        service = SpatialService(building)
        origin = Point(4.0, 3.0)
        targets = [Point(x + 0.5, y + 0.25) for x in range(0, 40, 3) for y in range(0, 18, 3)]
        reach = max(origin.distance_to(target) for target in targets)
        walls, obstacles = service.sight_fan(0, origin, reach).crossings(
            [target.x for target in targets], [target.y for target in targets]
        )
        reports = [service.sightline(0, origin, target) for target in targets]
        assert walls == [report.wall_crossings for report in reports]
        assert obstacles == [report.obstacle_crossings for report in reports]
        assert max(walls) > 0 and max(obstacles) > 0, "vacuous: nothing crossed"

    def test_reach_prunes_walls_without_changing_counts(self):
        building = self._obstructed_office()
        origin, reach = Point(11.0, 5.0), 6.0
        targets = [Point(11.0 + dx, 5.0 + dy) for dx in (-5.5, -2.0, 0.0, 3.0, 5.9)
                   for dy in (-2.9, 0.0, 2.9)]
        xs, ys = [target.x for target in targets], [target.y for target in targets]
        pruned = SpatialService(building).sight_fan(0, origin, reach)
        full = SpatialService(building, config=SpatialConfig(enabled=False)).sight_fan(
            0, origin, reach
        )
        assert pruned._width < full._width
        assert pruned.crossings(xs, ys) == full.crossings(xs, ys)

    def test_fans_are_memoized_until_the_building_changes(self, fresh_office):
        service = SpatialService(fresh_office)
        origin, target = Point(4.0, 3.0), Point(8.0, 3.0)
        fan = service.sight_fan(0, origin, 10.0)
        assert service.sight_fan(0, origin, 10.0) is fan
        assert fan.crossings([target.x], [target.y]) == ([0], [0])
        fresh_office.floor(0).add_obstacle(
            Obstacle("cabinet", 0, Polygon.rectangle(5.0, 2.5, 6.0, 3.5))
        )
        rebuilt = service.sight_fan(0, origin, 10.0)
        assert rebuilt is not fan
        assert rebuilt.crossings([target.x], [target.y]) == ([0], [1])

    def test_generators_with_different_devices_share_one_service(self, office, office_wifi):
        from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator

        service = SpatialService(office)
        point = office_wifi[0].position
        floor_id = office_wifi[0].floor_id
        few = RSSIGenerator(office, office_wifi[:3], RSSIGenerationConfig(seed=1), spatial=service)
        everyone = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=1), spatial=service)
        alone = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=1))
        allowed = {device.device_id for device in office_wifi[:3]}
        assert {r.device_id for r in few.measure_all(floor_id, point, "o1", 0.0)} <= allowed
        assert everyone.measure_all(floor_id, point, "o1", 0.0) == alone.measure_all(
            floor_id, point, "o1", 0.0
        )


class TestLocateAndBounds:
    def test_locate_matches_building_locate(self, office, service):
        point = Point(4.0, 3.0)
        assert service.locate(0, point) == office.locate(0, point)
        # The second lookup is served from the cache and shares the instance.
        assert service.locate(0, point) is service.locate(0, point)

    def test_floor_bounds_are_memoized(self, office, service):
        assert service.floor_bounds(0) == office.floor(0).bounding_box
        assert service.floor_bounds(0) is service.floor_bounds(0)


class TestInvalidation:
    def test_building_mutation_invalidates_stale_answers(self, fresh_office):
        service = SpatialService(fresh_office)
        point = Point(18.0, 5.0)
        before = service.nearest_door_distance(0, point)
        floor = fresh_office.floor(0)
        hall = next(
            p for p in floor.partitions.values() if p.kind is PartitionKind.HALLWAY
        )
        room = next(
            p for p in floor.partitions.values() if p.partition_id != hall.partition_id
        )
        floor.add_door(
            Door(
                door_id="door_right_here",
                floor_id=0,
                position=point,
                partitions=(hall.partition_id, room.partition_id),
            )
        )
        after = service.nearest_door_distance(0, point)
        assert before > 0.0
        assert after == 0.0

    def test_version_counter_advances_on_mutation(self, fresh_office):
        version = fresh_office.version
        fresh_office.floor(0).add_partition(
            Partition(
                partition_id="annex",
                floor_id=0,
                polygon=Polygon.rectangle(100.0, 100.0, 104.0, 104.0),
            )
        )
        assert fresh_office.version > version
