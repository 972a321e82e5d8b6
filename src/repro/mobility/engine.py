"""Fixed-step simulation engine advancing indoor moving objects.

The engine owns the simulation clock.  On every tick it advances each alive
object along its current route (respecting partition speed factors and the
behaviour's speed multiplier / pauses) and, at the configured trajectory
sampling frequency, records a ground-truth sample ``(o_id, loc, t)`` for every
alive object.  The result is a :class:`~repro.mobility.trajectory.TrajectorySet`.

The tick loop works in plain floats.  Each leg's constants (start, delta,
length, speed) are computed once, when a route starts or a leg completes;
a tick then only advances the leg's progress.  A position is built from
``start + delta * progress`` only where it is read: at sample ticks, for route
planning, snapshots, observers, the crowd model and the final result.

The paper emphasises that the trajectory sampling frequency is independent of
the positioning sampling frequency (Section 2): the engine only produces the
former; the Positioning Layer later samples RSSI at its own rate from the
ground truth.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.building.distance import Route, RoutePlanner
from repro.building.model import Building
from repro.core.errors import MovementError, RoutingError, TopologyError
from repro.core.types import FloorId, IndoorLocation, ObjectId, Timestamp, TrajectoryRecord
from repro.geometry.point import Point
from repro.mobility.behavior import Behavior, WalkStayBehavior
from repro.mobility.crowd import CrowdInteractionModel, NoInteraction
from repro.mobility.intentions import DestinationIntention, Intention
from repro.mobility.objects import MovementState, MovingObject
from repro.mobility.trajectory import TrajectorySet
from repro.spatial import SpatialService


@dataclass
class EngineConfig:
    """Simulation parameters of the Moving Object Layer."""

    duration: float = 600.0
    time_step: float = 0.25
    sampling_period: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise MovementError("duration must be positive")
        if self.time_step <= 0:
            raise MovementError("time_step must be positive")
        if self.sampling_period < self.time_step:
            # Sampling can never be finer than the simulation step.
            self.sampling_period = self.time_step


@dataclass
class SimulationResult:
    """Output of one simulation run."""

    trajectories: TrajectorySet
    duration: float
    objects: List[MovingObject] = field(default_factory=list)
    snapshots: Dict[float, Dict[ObjectId, IndoorLocation]] = field(default_factory=dict)

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def total_samples(self) -> int:
        return self.trajectories.total_records


class _Mover:
    """The tick loop's state of one activated object, in plain floats.

    The constants of the current leg are set by
    :meth:`SimulationEngine._enter_leg`.  Partway along a leg the position is
    not stored: :meth:`position` derives it from the leg's start, delta and
    progress.  The :class:`MovingObject`'s other runtime fields are written
    when they change; :meth:`sync` writes back the progress and the position.
    """

    __slots__ = (
        "obj", "object_id", "rank", "birth", "death",
        "walking", "stay_until", "route", "waypoints", "leg", "last_leg",
        "progress", "partway",
        "start", "end", "dx", "dy", "floor", "next_floor", "stairs",
        "length", "base_speed", "speed",
    )

    def __init__(self, obj: MovingObject, rank: int) -> None:
        self.obj = obj
        self.object_id = obj.object_id
        self.rank = rank
        self.birth = obj.lifespan.birth
        self.death = obj.lifespan.death
        self.walking = False
        self.stay_until = obj.stay_until
        self.route: Optional[Route] = None
        self.progress = 0.0
        self.partway = False

    def position(self) -> Tuple[FloorId, Point]:
        """The object's current floor and position."""
        if not self.partway:
            return self.obj.floor_id, self.obj.position
        progress = self.progress
        if self.stairs:
            # While on the stairs, report the nearer endpoint.
            if progress < 0.5:
                return self.floor, self.start
            return self.next_floor, self.end
        start = self.start
        return self.floor, Point(start.x + self.dx * progress, start.y + self.dy * progress)

    def sync(self) -> None:
        """Write the progress and the derived position to the object."""
        obj = self.obj
        obj.route_leg_progress = self.progress
        obj.floor_id, obj.position = self.position()

    def begin_stay(self, until: Timestamp) -> None:
        self.obj.begin_stay(until)
        self.walking = False
        self.stay_until = until

    def resume(self) -> None:
        self.obj.state = MovementState.WALKING
        self.walking = True


class SimulationEngine:
    """Advances moving objects through a building over simulated time."""

    def __init__(
        self,
        building: Building,
        planner: Optional[RoutePlanner] = None,
        config: Optional[EngineConfig] = None,
        intention: Optional[Intention] = None,
        behavior: Optional[Behavior] = None,
        crowd_model: Optional[CrowdInteractionModel] = None,
        spatial: Optional[SpatialService] = None,
    ) -> None:
        """Routing and point location go through *spatial* (the building-wide
        cached :class:`~repro.spatial.SpatialService`); when omitted, one is
        created around *planner* (or a fresh planner) for this engine."""
        self.building = building
        self.spatial = spatial if spatial is not None else SpatialService(
            building, planner=planner
        )
        self.config = config or EngineConfig()
        self.intention = intention or DestinationIntention()
        self.behavior = behavior or WalkStayBehavior()
        #: Interference between moving objects (Section 4 extension point).
        self.crowd_model = crowd_model or NoInteraction()
        self.rng = random.Random(self.config.seed)
        #: Optional per-tick observers, e.g. for live visualisation.
        self.observers: List[Callable[[float, List[MovingObject]], None]] = []

    @property
    def planner(self) -> RoutePlanner:
        """The underlying door-to-door route planner (owned by the service)."""
        return self.spatial.planner

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        objects: List[MovingObject],
        arrivals: Optional[List[Tuple[Timestamp, MovingObject]]] = None,
        snapshot_times: Optional[List[float]] = None,
        record_sink: Optional[Callable[[TrajectoryRecord], None]] = None,
    ) -> SimulationResult:
        """Simulate *objects* (plus timed *arrivals*) for the configured duration.

        Args:
            objects: objects present from their ``lifespan.birth`` onwards
                (already placed at their initial position).
            arrivals: extra objects entering at given times (already placed at
                their emerging location).
            snapshot_times: times at which a full position snapshot is kept in
                the result (the paper's demo pauses generation to extract a
                snapshot of the moving objects).
            record_sink: called with every trajectory record as it is
                recorded, in emission order — the streaming pipeline's
                progress hook without waiting for the run to finish.
        """
        trajectories = TrajectorySet()
        add_record = trajectories.add_record
        locate = self.spatial.locate
        pending = sorted(arrivals or [], key=lambda pair: pair[0])
        next_arrival = 0
        all_objects: List[MovingObject] = list(objects)
        #: Objects not activated yet, with their ``all_objects`` index.
        waiting: List[Tuple[int, MovingObject]] = list(enumerate(objects))
        #: Activated objects not dead yet, and the alive ones among them,
        #: both in ``all_objects`` order.
        movers: List[_Mover] = []
        candidates: List[_Mover] = []
        active: List[_Mover] = []
        next_birth = next_death = -math.inf
        snapshots: Dict[float, Dict[ObjectId, IndoorLocation]] = {}
        snapshot_queue = sorted(snapshot_times or [])
        next_snapshot = 0
        crowd = None if isinstance(self.crowd_model, NoInteraction) else self.crowd_model

        config = self.config
        time_step = config.time_step
        steps = int(round(config.duration / time_step))
        samples_every = max(1, int(round(config.sampling_period / time_step)))
        # The behaviour's pause rate is a constant; one Bernoulli draw per
        # walking object per tick, as long as it is positive.
        pause_rate = self.behavior.pause_probability_per_second()
        pauses = pause_rate > 0
        pause_threshold = pause_rate * time_step
        pause_duration = self.behavior.pause_duration
        rng = self.rng
        rng_random = rng.random
        t = 0.0
        for step in range(steps + 1):
            # Inject arrivals whose start time has come.
            while next_arrival < len(pending) and pending[next_arrival][0] <= t + 1e-9:
                new_object = pending[next_arrival][1]
                next_arrival += 1
                waiting.append((len(all_objects), new_object))
                all_objects.append(new_object)
            # Activate objects whose birth time has come (assign a first goal).
            activated = False
            if waiting:
                still_waiting = []
                for rank, moving_object in waiting:
                    if moving_object.lifespan.birth <= t + 1e-9:
                        mover = _Mover(moving_object, rank)
                        movers.append(mover)
                        candidates.append(mover)
                        self._activate(mover, t)
                        activated = True
                    else:
                        still_waiting.append((rank, moving_object))
                waiting = still_waiting
            # The alive set changes only when an object is activated, is
            # born or dies: rebuild it then, with the ``birth <= t <= death``
            # test.
            if activated or t >= next_birth or t > next_death:
                if activated:
                    candidates.sort(key=lambda mover: mover.rank)
                candidates = [mover for mover in candidates if t <= mover.death]
                active = [mover for mover in candidates if mover.birth <= t]
                next_birth = min(
                    (mover.birth for mover in candidates if mover.birth > t), default=math.inf
                )
                next_death = min((mover.death for mover in candidates), default=math.inf)
            # Everyone's position before this tick's moves, for the crowd model.
            snapshot = None
            if crowd is not None:
                snapshot = [(mover.object_id, *mover.position()) for mover in active]
            # Advance every active object.
            for mover in active:
                if mover.walking:
                    # Random on-path pause (walk-stay mechanism).
                    if pauses and rng_random() < pause_threshold:
                        mover.begin_stay(t + pause_duration(rng))
                        continue
                    self._advance(mover, t, crowd, snapshot)
                elif t >= mover.stay_until:
                    if mover.route is not None:
                        mover.resume()
                    else:
                        self._assign_new_route(mover, t)
            # Record ground truth at the trajectory sampling frequency.
            if step % samples_every == 0:
                for mover in active:
                    record = TrajectoryRecord(
                        object_id=mover.object_id, location=locate(*mover.position()), t=t
                    )
                    add_record(record)
                    if record_sink is not None:
                        record_sink(record)
            # Snapshots requested by the caller.
            while next_snapshot < len(snapshot_queue) and snapshot_queue[next_snapshot] <= t + 1e-9:
                snapshots[snapshot_queue[next_snapshot]] = {
                    mover.object_id: locate(*mover.position()) for mover in active
                }
                next_snapshot += 1
            if self.observers:
                for mover in active:
                    mover.sync()
                active_objects = [mover.obj for mover in active]
                for observer in self.observers:
                    observer(t, active_objects)
            t += time_step
        for mover in movers:
            mover.sync()
        return SimulationResult(
            trajectories=trajectories,
            duration=config.duration,
            objects=all_objects,
            snapshots=snapshots,
        )

    # ------------------------------------------------------------------ #
    # Routes and legs
    # ------------------------------------------------------------------ #
    def _activate(self, mover: _Mover, now: float) -> None:
        """Give a newly active object its first goal."""
        mover.obj.speed_multiplier = self.behavior.speed_multiplier(self.rng)
        self._assign_new_route(mover, now)

    def _advance(self, mover: _Mover, now: float, crowd, snapshot) -> None:
        """Walk one tick along the route, completing legs as time allows."""
        remaining_time = self.config.time_step
        neighbors = None
        while True:
            leg_length = mover.length
            if leg_length <= 1e-9:
                self._complete_leg(mover)
            else:
                speed = mover.speed
                if crowd is not None:
                    if neighbors is None:
                        neighbors = [
                            (floor_id, position)
                            for object_id, floor_id, position in snapshot
                            if object_id != mover.object_id
                        ]
                    factor = crowd.speed_factor(*mover.position(), neighbors)
                    speed = max(mover.base_speed * factor, 0.05)
                distance_left = leg_length * (1.0 - mover.progress)
                travel = speed * remaining_time
                if not travel >= distance_left:
                    mover.progress += travel / leg_length
                    mover.partway = True
                    return
                remaining_time -= distance_left / speed if speed > 0 else remaining_time
                self._complete_leg(mover)
            if mover.leg == mover.last_leg:
                self._arrive(mover, now)
                return
            if not remaining_time > 0:
                return

    def _enter_leg(self, mover: _Mover) -> None:
        """Compute the constants of the mover's current leg, once per leg."""
        current = mover.waypoints[mover.leg]
        following = mover.waypoints[mover.leg + 1]
        start, end = current.point, following.point
        mover.start, mover.end = start, end
        # The same subtraction as ``Point.__sub__`` and ``Point.lerp``.
        mover.dx, mover.dy = end.x - start.x, end.y - start.y
        mover.floor, mover.next_floor = current.floor_id, following.floor_id
        mover.stairs = following.floor_id != current.floor_id
        if mover.stairs:
            # Staircase leg: use the connector length instead of the
            # planar distance and keep the object at the stair endpoints.
            mover.length = self._staircase_length(mover.route, current, following)
        else:
            mover.length = math.hypot(mover.dx, mover.dy)
        try:
            factor = self.building.partition(
                following.floor_id, following.partition_id
            ).speed_factor
        except TopologyError:
            factor = 0.85
        mover.base_speed = mover.obj.effective_speed * factor
        mover.speed = max(mover.base_speed, 0.05)

    def _complete_leg(self, mover: _Mover) -> None:
        following = mover.waypoints[mover.leg + 1]
        obj = mover.obj
        obj.position = following.point
        obj.floor_id = following.floor_id
        mover.leg += 1
        obj.route_leg_index = mover.leg
        mover.progress = 0.0
        mover.partway = False
        if mover.leg < mover.last_leg:
            self._enter_leg(mover)

    def _arrive(self, mover: _Mover, now: float) -> None:
        obj = mover.obj
        obj.destinations_reached += 1
        obj.route = mover.route = None
        stay = self.behavior.stay_duration_at_destination(self.rng)
        obj.speed_multiplier = self.behavior.speed_multiplier(self.rng)
        if stay > 0:
            mover.begin_stay(now + stay)
        else:
            self._assign_new_route(mover, now)

    def _assign_new_route(self, mover: _Mover, now: float) -> None:
        """Ask the intention for a goal and plan a route to it."""
        mover.sync()
        obj = mover.obj
        for _ in range(5):
            goal_floor, goal_point = self.intention.next_goal(
                self.building, obj.floor_id, obj.position, self.rng
            )
            try:
                route = self.spatial.shortest_route(
                    obj.floor_id,
                    obj.position,
                    goal_floor,
                    goal_point,
                    metric=obj.routing_metric,
                    walking_speed=obj.effective_speed,
                )
            except RoutingError:
                continue
            if route.is_empty or len(route.waypoints) < 2:
                continue
            obj.begin_route(route)
            mover.route = route
            mover.waypoints = route.waypoints
            mover.leg = 0
            mover.last_leg = len(route.waypoints) - 1
            mover.progress = 0.0
            mover.partway = False
            mover.walking = True
            self._enter_leg(mover)
            return
        # No reachable goal found: stay put for a while and try again later.
        mover.begin_stay(now + 5.0)

    def _staircase_length(self, route: Route, current_wp, next_wp) -> float:
        for staircase_id in route.staircases:
            staircase = self.building.staircases.get(staircase_id)
            if staircase is None:
                continue
            if staircase.connects_floor(current_wp.floor_id) and staircase.connects_floor(next_wp.floor_id):
                return staircase.length
        return max(current_wp.point.distance_to(next_wp.point), 3.0)


__all__ = ["EngineConfig", "SimulationResult", "SimulationEngine"]
