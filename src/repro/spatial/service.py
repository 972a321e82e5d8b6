"""The shared, cached spatial layer of the generator.

Every layer of the generation chain (moving pattern -> trajectory -> RSSI ->
positioning -> analysis) leans on the same spatial primitives: door-to-door
shortest routes, line-of-sight analysis, nearest-door lookups and point
location.  Before this module each layer called raw
geometry independently — the engine re-ran a full Dijkstra per re-route, the
RSSI noise model re-scanned every wall per (device, point) pair, and the
analysis layer brute-forced ``min()`` over all doors.  The per-building
:class:`SpatialService` centralises those primitives behind caches, in the
spirit of the precomputed indoor-routing schemata of Yang et al. (EDBT 2010)
that :mod:`repro.building.distance` follows and of MWGen's precomputed
indoor graphs.

Three kinds of acceleration, none of which may change results:

* **Routing** — the door-to-door graph is built once (memoized
  :class:`~repro.building.distance.RoutePlanner`); shortest routes are
  answered by combining memoized single-source Dijkstra tables per
  door/staircase node instead of re-running a whole-graph search with
  temporary endpoint nodes, plus an LRU of full routes keyed by
  (partition, quantized point, partition, quantized point, metric, speed).
* **Line of sight** — per-floor grid buckets
  (:class:`~repro.geometry.spatial_index.GridIndex`) prune the walls and
  obstacles tested per sight line (exact: any crossed wall's bounding box
  intersects the sight line's), plus an LRU of full sightline reports for
  repeated single queries.  RSSI generation asks for a
  :class:`~repro.geometry.line_of_sight.SightFan` per device instead: the
  walls and obstacles within the device's reach, as numpy arrays, which
  count the crossings of all of a trajectory's sight lines to that device
  in one pass.
* **Nearest neighbour** — packed R-trees over doors and walls answer
  nearest-door / nearest-wall queries with exact distance refinement
  instead of O(n) scans.

**Determinism contract.**  Every cache stores the exact arguments alongside
its value and verifies them on lookup (:mod:`repro.spatial.cache`), and the
cached and uncached paths run the *same* deterministic algorithms — the
caches only skip recomputation of pure functions.  Output is therefore
record-identical with caching on or off, serial or parallel.  Cross-process
safety mirrors ``Floor.__getstate__``: pickling a service ships only the
building and configuration; every cache, index, array and graph is rebuilt
lazily inside the receiving worker.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.building.distance import (
    DEFAULT_WALKING_SPEED,
    Route,
    RoutePlanner,
    RouteWaypoint,
)
from repro.building.model import Building, Door, Floor
from repro.core.config import SpatialConfig
from repro.core.errors import RoutingError
from repro.core.types import FloorId, IndoorLocation
from repro.geometry.line_of_sight import (
    SightFan,
    SightlineReport,
    count_obstacle_crossings,
    count_wall_crossings,
)
from repro.geometry.point import Point
from repro.geometry.polygon import BoundingBox, Polygon
from repro.geometry.segment import Segment
from repro.geometry.spatial_index import GridIndex, RTreeIndex
from repro.spatial.cache import CacheStats, LRUCache


def _segment_box(segment: Segment) -> BoundingBox:
    """Bounding box of a wall segment (degenerate boxes are fine)."""
    return BoundingBox(
        min(segment.start.x, segment.end.x),
        min(segment.start.y, segment.end.y),
        max(segment.start.x, segment.end.x),
        max(segment.start.y, segment.end.y),
    )


def _point_box(point: Point) -> BoundingBox:
    return BoundingBox(point.x, point.y, point.x, point.y)


class SpatialService:
    """Per-building cached spatial primitives shared by every layer.

    Args:
        building: the host indoor environment served.
        config: cache knobs; defaults to an enabled service with the
            standard cache sizes.
        planner: reuse an existing route planner instead of building one
            lazily (its graph must describe *building*).
        walking_speed: planner-level walking speed used when a route query
            does not supply an object-specific speed.
    """

    def __init__(
        self,
        building: Building,
        config: Optional[SpatialConfig] = None,
        planner: Optional[RoutePlanner] = None,
        walking_speed: float = DEFAULT_WALKING_SPEED,
    ) -> None:
        self.building = building
        self.config = config or SpatialConfig()
        self.walking_speed = planner.walking_speed if planner is not None else walking_speed
        self._planner: Optional[RoutePlanner] = planner
        self._reset_derived_state()
        self._built_version = building.version

    # ------------------------------------------------------------------ #
    # Lifecycle: lazy construction, invalidation, pickling
    # ------------------------------------------------------------------ #
    def _reset_derived_state(self) -> None:
        """(Re)initialise every cache and index to its empty lazy state."""
        config = self.config
        self._stats: Dict[str, CacheStats] = {
            name: CacheStats() for name in ("route", "los", "locate", "table")
        }
        self._route_cache = LRUCache(config.route_cache_size, self._stats["route"])
        self._los_cache = LRUCache(config.los_cache_size, self._stats["los"])
        self._locate_cache = LRUCache(config.locate_cache_size, self._stats["locate"])
        #: (node, metric) -> (distance dict, path dict) single-source tables.
        self._node_tables: Dict[Tuple, Tuple[Dict, Dict]] = {}
        #: node -> partition id annotation (pure function of the building).
        self._node_partitions: Dict[Tuple, str] = {}
        self._wall_indices: Dict[FloorId, GridIndex[Segment]] = {}
        self._wall_rtrees: Dict[FloorId, RTreeIndex[Segment]] = {}
        self._obstacle_indices: Dict[FloorId, GridIndex[Polygon]] = {}
        self._door_indices: Dict[FloorId, RTreeIndex[Door]] = {}
        #: (floor, origin x, origin y, reach) -> SightFan (one per device).
        self._sight_fans: Dict[Tuple, SightFan] = {}
        self._floor_bounds: Dict[FloorId, BoundingBox] = {}
        #: (floor, region corners) -> frozenset of partition ids whose bbox
        #: overlaps the region; used by the live monitors' record pruning.
        self._region_partitions: Dict[Tuple, frozenset] = {}

    def invalidate(self) -> None:
        """Drop every derived structure; they rebuild lazily on next use.

        Counters survive: they describe the whole run, not one epoch.
        """
        stats = self._stats
        planner_stale = self.building.version != self._built_version
        self._reset_derived_state()
        self._stats = stats
        self._route_cache.stats = stats["route"]
        self._los_cache.stats = stats["los"]
        self._locate_cache.stats = stats["locate"]
        if planner_stale:
            self._planner = None
        self._built_version = self.building.version

    def _check_version(self) -> None:
        if self.building.version != self._built_version:
            self.invalidate()

    def __getstate__(self) -> dict:
        # Like Floor.__getstate__: graphs, indexes and caches are dropped on
        # pickle (cheap to rebuild, partly unpicklable) so a ShardContext can
        # cross process boundaries; workers rebuild them lazily.
        return {
            "building": self.building,
            "config": self.config,
            "walking_speed": self.walking_speed,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._planner = None
        self._reset_derived_state()
        self._built_version = self.building.version

    # ------------------------------------------------------------------ #
    # Cache bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether memoization is active (results are identical either way)."""
        return self.config.enabled

    def cache_stats(self) -> Dict[str, int]:
        """Flat hit/miss counters of every cache, e.g. ``{"route_hits": 10}``."""
        flat: Dict[str, int] = {}
        for name, stats in self._stats.items():
            flat[f"{name}_hits"] = stats.hits
            flat[f"{name}_misses"] = stats.misses
        return flat

    def reset_stats(self) -> None:
        for stats in self._stats.values():
            stats.reset()

    def _quantize(self, point: Point) -> Tuple[int, int]:
        quantum = self.config.quantum
        return (int(round(point.x / quantum)), int(round(point.y / quantum)))

    # ------------------------------------------------------------------ #
    # (a) Routing: memoized graph + Dijkstra tables + route LRU
    # ------------------------------------------------------------------ #
    @property
    def planner(self) -> RoutePlanner:
        """The door-to-door route planner (graph built once, memoized)."""
        self._check_version()
        if self._planner is None:
            self._planner = RoutePlanner(self.building, walking_speed=self.walking_speed)
        return self._planner

    def shortest_route(
        self,
        source_floor: FloorId,
        source_point: Point,
        target_floor: FloorId,
        target_point: Point,
        metric: str = "length",
        walking_speed: Optional[float] = None,
    ) -> Route:
        """Optimal route between two indoor points (cached).

        Same semantics and failure modes as
        :meth:`repro.building.distance.RoutePlanner.shortest_route`; see the
        module docstring for why the answers are identical with caching on
        or off.
        """
        if metric not in ("length", "time"):
            raise RoutingError(f"unknown routing metric {metric!r}")
        self._check_version()
        planner = self.planner
        speed = walking_speed or planner.walking_speed
        exact = (
            source_floor, source_point.x, source_point.y,
            target_floor, target_point.x, target_point.y,
            metric, speed,
        )
        if self.enabled:
            bucket = (
                source_floor, self._quantize(source_point),
                target_floor, self._quantize(target_point),
                metric, speed,
            )
            route, hit = self._route_cache.get(bucket, exact)
            if hit:
                return route
        route = self._compute_route(
            source_floor, source_point, target_floor, target_point, metric, speed
        )
        if self.enabled:
            self._route_cache.put(bucket, exact, route)
        return route

    def shortest_distance(
        self,
        source_floor: FloorId,
        source_point: Point,
        target_floor: FloorId,
        target_point: Point,
    ) -> float:
        """Minimum indoor walking distance between two points (cached)."""
        return self.shortest_route(
            source_floor, source_point, target_floor, target_point, metric="length"
        ).length

    def _compute_route(
        self,
        source_floor: FloorId,
        source_point: Point,
        target_floor: FloorId,
        target_point: Point,
        metric: str,
        speed: float,
    ) -> Route:
        planner = self.planner
        if type(planner).shortest_route is not RoutePlanner.shortest_route:
            # A RoutePlanner subclass overrides the query itself (custom
            # penalties, forbidden doors, ...): defer to it wholesale so the
            # service only memoizes, never re-implements, its behaviour.
            return planner.shortest_route(
                source_floor, source_point, target_floor, target_point,
                metric=metric, walking_speed=speed,
            )
        source_partition = self.building.floor(source_floor).partition_at(source_point)
        target_partition = self.building.floor(target_floor).partition_at(target_point)
        if source_partition is None:
            raise RoutingError(
                f"source point {source_point} is not inside any partition of floor {source_floor}"
            )
        if target_partition is None:
            raise RoutingError(
                f"target point {target_point} is not inside any partition of floor {target_floor}"
            )
        if (source_floor, source_partition.partition_id) == (
            target_floor,
            target_partition.partition_id,
        ):
            length = source_point.distance_to(target_point)
            time = length / (speed * source_partition.speed_factor)
            waypoints = [
                RouteWaypoint(source_floor, source_partition.partition_id, source_point),
                RouteWaypoint(target_floor, target_partition.partition_id, target_point),
            ]
            return Route(waypoints=waypoints, length=length, travel_time=time)

        exit_nodes = planner.exit_nodes_of(source_floor, source_partition.partition_id)
        entry_nodes = planner.entry_nodes_of(target_floor, target_partition.partition_id)
        if not exit_nodes:
            raise RoutingError(
                f"partition {source_partition.partition_id} has no traversable door"
            )
        if not entry_nodes:
            raise RoutingError(
                f"partition {target_partition.partition_id} has no traversable door"
            )
        # The augmented-graph shortest path (temporary endpoint nodes wired
        # to the partition's doors) decomposes exactly into
        #   min over (exit u, entry v) of  w(s,u) + dist(u,v) + w(v,t)
        # because the temporary source has only outgoing edges to exits and
        # the temporary target only incoming edges from entries.  dist(u, .)
        # is a pure function of the static graph, so its single-source
        # Dijkstra table can be memoized per node without changing the
        # optimum; w(s,u) and w(v,t) are recomputed exactly per query.
        source_factor = speed * source_partition.speed_factor
        target_factor = speed * target_partition.speed_factor
        best_cost = math.inf
        best_pair: Optional[Tuple] = None
        for exit_node in exit_nodes:
            exit_point = planner.node_location(exit_node)[1]
            leg = source_point.distance_to(exit_point)
            exit_cost = leg if metric == "length" else leg / source_factor
            if exit_cost >= best_cost:
                continue
            distances, _ = self._node_table(exit_node, metric)
            for entry_node in entry_nodes:
                interior = distances.get(entry_node)
                if interior is None:
                    continue
                entry_point = planner.node_location(entry_node)[1]
                leg = entry_point.distance_to(target_point)
                entry_cost = leg if metric == "length" else leg / target_factor
                total = exit_cost + interior + entry_cost
                if total < best_cost:
                    best_cost = total
                    best_pair = (exit_node, entry_node)
        if best_pair is None:
            raise RoutingError(
                f"no walkable path from {source_partition.partition_id} "
                f"(floor {source_floor}) to {target_partition.partition_id} "
                f"(floor {target_floor})"
            )
        _, paths = self._node_table(best_pair[0], metric)
        interior_path = paths[best_pair[1]]
        return self._assemble_route(
            interior_path,
            source_floor, source_point, source_partition,
            target_floor, target_point, target_partition,
            speed,
        )

    def _node_table(self, node: Tuple, metric: str) -> Tuple[Dict, Dict]:
        """Memoized single-source Dijkstra (distances, paths) from *node*."""
        key = (node, metric)
        if self.enabled:
            table = self._node_tables.get(key)
            if table is not None:
                self._stats["table"].hits += 1
                return table
            self._stats["table"].misses += 1
        distances, paths = nx.single_source_dijkstra(
            self.planner.graph, node, weight=metric
        )
        table = (distances, paths)
        if self.enabled:
            self._node_tables[key] = table
        return table

    def _node_partition(self, node: Tuple) -> str:
        """Memoized partition annotation for a door/staircase graph node."""
        if not self.enabled:
            return self.planner.node_partition(node)
        partition_id = self._node_partitions.get(node)
        if partition_id is None:
            partition_id = self.planner.node_partition(node)
            self._node_partitions[node] = partition_id
        return partition_id

    def _assemble_route(
        self,
        interior_path: Sequence[Tuple],
        source_floor: FloorId,
        source_point: Point,
        source_partition,
        target_floor: FloorId,
        target_point: Point,
        target_partition,
        speed: float,
    ) -> Route:
        """Build the Route along ``source -> interior nodes -> target``.

        Mirrors ``RoutePlanner._assemble_route``: interior legs take their
        length/time from the graph edges; the two endpoint legs are computed
        with the query's speed and the endpoint partitions' speed factors
        (exactly the weights the planner puts on its temporary edges).
        """
        planner = self.planner
        waypoints: List[RouteWaypoint] = [
            RouteWaypoint(source_floor, source_partition.partition_id, source_point)
        ]
        doors: List[str] = []
        staircases: List[str] = []
        total_length = 0.0
        total_time = 0.0

        def append_node(node: Tuple) -> Point:
            floor_id, point = planner.node_location(node)
            partition_id = self._node_partition(node)
            if node[0] == "door":
                doors.append(node[1])
            elif node[0] == "stair" and node[1] not in staircases:
                staircases.append(node[1])
            waypoints.append(RouteWaypoint(floor_id, partition_id, point, node[1]))
            return point

        first_point = append_node(interior_path[0])
        leg_length = source_point.distance_to(first_point)
        total_length += leg_length
        total_time += leg_length / (speed * source_partition.speed_factor)

        previous = interior_path[0]
        for node in interior_path[1:]:
            append_node(node)
            edge = planner.graph.get_edge_data(previous, node)
            total_length += edge["length"]
            total_time += edge["time"]
            previous = node

        last_point = planner.node_location(previous)[1]
        leg_length = last_point.distance_to(target_point)
        total_length += leg_length
        total_time += leg_length / (speed * target_partition.speed_factor)
        waypoints.append(
            RouteWaypoint(target_floor, target_partition.partition_id, target_point)
        )
        return Route(
            waypoints=waypoints,
            length=total_length,
            travel_time=total_time,
            doors=doors,
            staircases=staircases,
        )

    # ------------------------------------------------------------------ #
    # (b) Line of sight: grid-bucket pruning + report LRU, and sight fans
    # ------------------------------------------------------------------ #
    def sightline(self, floor_id: FloorId, origin: Point, target: Point) -> SightlineReport:
        """Line-of-sight report between two same-floor points (cached).

        Identical to
        :func:`repro.geometry.line_of_sight.analyze_sightline` over the
        floor's walls and obstacles: the grid buckets only prune candidates
        that cannot intersect the sight line.
        """
        self._check_version()
        exact = (floor_id, origin.x, origin.y, target.x, target.y)
        if self.enabled:
            bucket = (floor_id, self._quantize(origin), self._quantize(target))
            report, hit = self._los_cache.get(bucket, exact)
            if hit:
                return report
        report = self._compute_sightline(floor_id, origin, target)
        if self.enabled:
            self._los_cache.put(bucket, exact, report)
        return report

    def _compute_sightline(
        self, floor_id: FloorId, origin: Point, target: Point
    ) -> SightlineReport:
        sightline = Segment(origin, target)
        floor = self.building.floor(floor_id)
        if self.enabled:
            box = _segment_box(sightline)
            walls = self._wall_index(floor_id).query_box(box)
            obstacles = self._obstacle_index(floor_id).query_box(box)
        else:
            walls = floor.wall_segments()
            obstacles = floor.obstacle_polygons()
        return SightlineReport(
            distance=sightline.length,
            wall_crossings=count_wall_crossings(sightline, walls),
            obstacle_crossings=count_obstacle_crossings(sightline, obstacles),
        )

    def sight_fan(self, floor_id: FloorId, origin: Point, reach: float) -> SightFan:
        """Everything a sight line from *origin* to a target within *reach*
        on *floor_id* can cross, as one :class:`SightFan` (memoized).

        Its counts equal :meth:`sightline`'s: the wall and obstacle grids
        only drop what lies outside the reach box.
        """
        self._check_version()
        key = (floor_id, origin.x, origin.y, reach)
        fan = self._sight_fans.get(key)
        if fan is not None:
            return fan
        if self.enabled:
            box = BoundingBox(
                origin.x - reach, origin.y - reach, origin.x + reach, origin.y + reach
            ).expanded(1e-6)
            walls = self._wall_index(floor_id).query_box(box)
            obstacles = self._obstacle_index(floor_id).query_box(box)
        else:
            floor = self.building.floor(floor_id)
            walls, obstacles = floor.wall_segments(), floor.obstacle_polygons()
        fan = SightFan(origin, walls, obstacles)
        if self.enabled:
            self._sight_fans[key] = fan
        return fan

    def _wall_index(self, floor_id: FloorId) -> GridIndex[Segment]:
        index = self._wall_indices.get(floor_id)
        if index is None:
            segments = self.building.floor(floor_id).wall_segments()
            index = GridIndex(segments, _segment_box)
            self._wall_indices[floor_id] = index
        return index

    def _obstacle_index(self, floor_id: FloorId) -> GridIndex[Polygon]:
        index = self._obstacle_indices.get(floor_id)
        if index is None:
            polygons = self.building.floor(floor_id).obstacle_polygons()
            index = GridIndex(polygons, lambda polygon: polygon.bounding_box)
            self._obstacle_indices[floor_id] = index
        return index

    # ------------------------------------------------------------------ #
    # (c) Nearest-neighbour indices: doors, walls
    # ------------------------------------------------------------------ #
    def nearest_door(self, floor_id: FloorId, point: Point) -> Optional[Door]:
        """The door on *floor_id* closest to *point* (``None`` if doorless)."""
        self._check_version()
        found = self._door_index(floor_id).nearest(
            point, k=1, distance_of=lambda door, query: door.position.distance_to(query)
        )
        return found[0] if found else None

    def nearest_door_distance(self, floor_id: FloorId, point: Point) -> float:
        """Distance to the nearest door (``inf`` on a doorless floor).

        Exactly ``min(door.position.distance_to(point))`` over the floor's
        doors, found through the R-tree instead of an O(doors) scan.
        """
        door = self.nearest_door(floor_id, point)
        if door is None:
            return math.inf
        return door.position.distance_to(point)

    def nearest_wall_distance(self, floor_id: FloorId, point: Point) -> float:
        """Distance to the nearest wall segment (``inf`` on a wall-less floor).

        Exactly ``min(wall.distance_to_point(point))`` over the floor's
        walls; the R-tree prunes with bounding boxes and refines with the
        true segment distance.
        """
        self._check_version()
        index = self._wall_rtree(floor_id)
        found = index.nearest(
            point, k=1,
            distance_of=lambda segment, query: segment.distance_to_point(query),
        )
        if not found:
            return math.inf
        return found[0].distance_to_point(point)

    def _wall_rtree(self, floor_id: FloorId) -> RTreeIndex[Segment]:
        # The wall *grid* serves box queries (LOS pruning); nearest-distance
        # queries want best-first search, which the R-tree provides.
        tree = self._wall_rtrees.get(floor_id)
        if tree is None:
            segments = self.building.floor(floor_id).wall_segments()
            tree = RTreeIndex(segments, _segment_box)
            self._wall_rtrees[floor_id] = tree
        return tree

    def _door_index(self, floor_id: FloorId) -> RTreeIndex[Door]:
        index = self._door_indices.get(floor_id)
        if index is None:
            doors = list(self.building.floor(floor_id).doors.values())
            index = RTreeIndex(doors, lambda door: _point_box(door.position))
            self._door_indices[floor_id] = index
        return index

    # ------------------------------------------------------------------ #
    # Point location and floor extents
    # ------------------------------------------------------------------ #
    def locate(self, floor_id: FloorId, point: Point) -> IndoorLocation:
        """Annotate a coordinate with its partition (cached).

        Identical to :meth:`repro.building.model.Building.locate`; records
        of a stationary object share one (frozen) location instance.
        """
        self._check_version()
        exact = (floor_id, point.x, point.y)
        if self.enabled:
            bucket = (floor_id, self._quantize(point))
            location, hit = self._locate_cache.get(bucket, exact)
            if hit:
                return location
        location = self.building.locate(floor_id, point)
        if self.enabled:
            self._locate_cache.put(bucket, exact, location)
        return location

    def floor_bounds(self, floor_id: FloorId) -> BoundingBox:
        """The floor's bounding box (memoized; used e.g. to clamp estimates)."""
        self._check_version()
        box = self._floor_bounds.get(floor_id)
        if box is None:
            box = self.building.floor(floor_id).bounding_box
            if self.enabled:
                self._floor_bounds[floor_id] = box
        return box

    def floor(self, floor_id: FloorId) -> Floor:
        """Convenience passthrough to :meth:`Building.floor`."""
        return self.building.floor(floor_id)

    # ------------------------------------------------------------------ #
    # Region pruning (used by the live monitor engine)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _region_box(region) -> BoundingBox:
        """Normalise anything exposing min/max corners into a bounding box."""
        return BoundingBox(
            float(region.min_x), float(region.min_y),
            float(region.max_x), float(region.max_y),
        )

    def region_overlaps_floor(self, floor_id: FloorId, region) -> bool:
        """Whether an axis-aligned *region* intersects the floor's bounds.

        *region* is anything exposing ``min_x``/``min_y``/``max_x``/``max_y``
        (a :class:`BoundingBox` or a query-plan ``Region``).  A monitor whose
        region misses its floor entirely is statically empty and skips every
        record.
        """
        return self._region_box(region).intersects(self.floor_bounds(floor_id))

    def partitions_overlapping(self, floor_id: FloorId, region) -> frozenset:
        """Partition ids whose bounding box intersects *region* (memoized).

        A conservative superset of the partitions whose geometry can contain
        a point inside the region: any record annotated with a partition
        outside this set is provably outside the region, so region-targeted
        monitors can discard it on the partition id alone.
        """
        self._check_version()
        box = self._region_box(region)
        key = (floor_id, box.min_x, box.min_y, box.max_x, box.max_y)
        cached = self._region_partitions.get(key)
        if cached is not None:
            return cached
        result = frozenset(
            partition.partition_id
            for partition in self.building.floor(floor_id).partitions.values()
            if partition.polygon.bounding_box.intersects(box)
        )
        if self.enabled:
            self._region_partitions[key] = result
        return result

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"SpatialService({self.building.building_id!r}, caches {state})"


__all__ = ["SpatialService"]
