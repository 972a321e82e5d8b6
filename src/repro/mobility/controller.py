"""Moving Object Controller.

"The Moving Object Controller allows a user to set object parameters
including number, maximum speed, moving pattern, and lifespan.  In this layer,
users can also tune the sampling frequency in order to set the temporal
granularity for the raw trajectory data to be generated." (Section 2)

The controller translates an :class:`ObjectGenerationConfig` into concrete
:class:`~repro.mobility.objects.MovingObject` instances (initial population
plus Poisson arrivals), runs the simulation engine and returns the raw
trajectory data.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.building.distance import RoutePlanner
from repro.building.model import Building
from repro.core.errors import ConfigurationError
from repro.core.types import Timestamp
from repro.mobility.behavior import Behavior, WalkStayBehavior
from repro.mobility.crowd import CrowdInteractionModel
from repro.mobility.distributions import (
    ArrivalProcess,
    InitialDistribution,
    NoArrivals,
    Placement,
    UniformDistribution,
)
from repro.mobility.engine import EngineConfig, SimulationEngine, SimulationResult
from repro.mobility.intentions import DestinationIntention, Intention
from repro.mobility.objects import Lifespan, MovingObject
from repro.spatial import SpatialService


@dataclass
class ObjectGenerationConfig:
    """User configuration of the Moving Object Layer.

    Attributes:
        count: number of objects in the initial population.
        min_speed / max_speed: an object's maximum walking speed is drawn
            uniformly from this range (metres/second).
        min_lifespan / max_lifespan: each object's lifespan is drawn uniformly
            from this range (seconds), as Section 3.1 specifies.
        duration: total generation period in seconds.
        sampling_period: trajectory sampling period in seconds (the inverse of
            the sampling frequency).
        time_step: simulation step in seconds.
        routing_metric: ``"length"`` (minimum indoor walking distance) or
            ``"time"`` (minimum walking time).
        seed: seed for reproducible generation.
    """

    count: int = 50
    min_speed: float = 0.8
    max_speed: float = 1.8
    min_lifespan: float = 300.0
    max_lifespan: float = 900.0
    duration: float = 600.0
    sampling_period: float = 1.0
    time_step: float = 0.25
    routing_metric: str = "length"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError("count must be non-negative")
        if self.min_speed <= 0 or self.max_speed < self.min_speed:
            raise ConfigurationError("require 0 < min_speed <= max_speed")
        if self.min_lifespan <= 0 or self.max_lifespan < self.min_lifespan:
            raise ConfigurationError("require 0 < min_lifespan <= max_lifespan")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.sampling_period <= 0:
            raise ConfigurationError("sampling_period must be positive")
        if self.time_step <= 0:
            raise ConfigurationError("time_step must be positive")
        if self.routing_metric not in ("length", "time"):
            raise ConfigurationError("routing_metric must be 'length' or 'time'")


class MovingObjectController:
    """Creates moving objects and generates their raw trajectory data."""

    def __init__(
        self,
        building: Building,
        config: Optional[ObjectGenerationConfig] = None,
        distribution: Optional[InitialDistribution] = None,
        arrival_process: Optional[ArrivalProcess] = None,
        intention: Optional[Intention] = None,
        behavior: Optional[Behavior] = None,
        planner: Optional[RoutePlanner] = None,
        crowd_model: Optional[CrowdInteractionModel] = None,
        first_object_index: int = 1,
        arrival_id_prefix: Optional[str] = None,
        engine_seed: Optional[int] = None,
        spatial: Optional[SpatialService] = None,
    ) -> None:
        """*first_object_index*, *arrival_id_prefix* and *engine_seed* exist
        for sharded generation: a shard numbers its initial objects from its
        global offset (so ids match a serial run), namespaces the ids of its
        Poisson arrivals (so shards never collide), and seeds the simulation
        engine independently of the object-creation RNG.  *spatial* shares
        the building-wide cached spatial service with the engine (one is
        created around *planner* when omitted)."""
        if first_object_index < 1:
            raise ConfigurationError("first_object_index must be at least 1")
        self.building = building
        self.config = config or ObjectGenerationConfig()
        self.distribution = distribution or UniformDistribution()
        self.arrival_process = arrival_process or NoArrivals()
        self.intention = intention or DestinationIntention()
        self.behavior = behavior or WalkStayBehavior()
        self.crowd_model = crowd_model
        self.spatial = spatial if spatial is not None else SpatialService(
            building, planner=planner
        )
        self.rng = random.Random(self.config.seed)
        self._id_counter = itertools.count(first_object_index)
        self._arrival_counter = itertools.count(1)
        self.arrival_id_prefix = arrival_id_prefix
        self.engine_seed = engine_seed
        self.objects: List[MovingObject] = []
        self.last_result: Optional[SimulationResult] = None

    @property
    def planner(self) -> RoutePlanner:
        """The door-to-door route planner (owned by the spatial service)."""
        return self.spatial.planner

    # ------------------------------------------------------------------ #
    # Object creation
    # ------------------------------------------------------------------ #
    def create_objects(self) -> List[MovingObject]:
        """Instantiate and place the initial population of objects."""
        placements = self.distribution.place(self.building, self.config.count, self.rng)
        objects = [
            self._new_object(birth=0.0, placement=placement) for placement in placements
        ]
        self.objects = objects
        return objects

    def create_arrivals(self) -> List[Tuple[Timestamp, MovingObject]]:
        """Instantiate objects that emerge during the generation period."""
        arrivals = self.arrival_process.arrivals(
            self.building, self.config.duration, self.rng
        )
        result: List[Tuple[Timestamp, MovingObject]] = []
        for start_time, placement in arrivals:
            result.append(
                (start_time, self._new_object(birth=start_time, placement=placement, arrival=True))
            )
        return result

    def _object_id(self, arrival: bool) -> str:
        if arrival and self.arrival_id_prefix is not None:
            return f"{self.arrival_id_prefix}_{next(self._arrival_counter):04d}"
        return f"obj_{next(self._id_counter):04d}"

    def _new_object(
        self, birth: float, placement: Placement, arrival: bool = False
    ) -> MovingObject:
        floor_id, point = placement
        lifespan_duration = self.rng.uniform(
            self.config.min_lifespan, self.config.max_lifespan
        )
        moving_object = MovingObject(
            object_id=self._object_id(arrival),
            max_speed=self.rng.uniform(self.config.min_speed, self.config.max_speed),
            lifespan=Lifespan(birth=birth, death=birth + lifespan_duration),
            routing_metric=self.config.routing_metric,
        )
        moving_object.place_at(floor_id, point)
        return moving_object

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate(
        self,
        snapshot_times: Optional[List[float]] = None,
        record_sink=None,
    ) -> SimulationResult:
        """Run the full Moving Object Layer and return the simulation result.

        *record_sink* is forwarded to :meth:`SimulationEngine.run` so callers
        (e.g. the streaming pipeline's progress hook) can observe trajectory
        samples as they are recorded.
        """
        engine_seed = self.engine_seed if self.engine_seed is not None else self.config.seed
        engine = SimulationEngine(
            building=self.building,
            spatial=self.spatial,
            config=EngineConfig(
                duration=self.config.duration,
                time_step=self.config.time_step,
                sampling_period=self.config.sampling_period,
                seed=engine_seed,
            ),
            intention=self.intention,
            behavior=self.behavior,
            crowd_model=self.crowd_model,
        )
        objects = self.create_objects() if not self.objects else self.objects
        arrivals = self.create_arrivals()
        result = engine.run(
            objects,
            arrivals=arrivals,
            snapshot_times=snapshot_times,
            record_sink=record_sink,
        )
        self.last_result = result
        return result


__all__ = ["ObjectGenerationConfig", "MovingObjectController"]
