"""Raw RSSI measurement generation.

The RSSI Measurement Controller of the Positioning Layer samples the raw
trajectory data at its own sampling frequency and, for every (object, device)
pair in range, produces a raw RSSI record ``(o_id, d_id, rssi, t)`` according
to the path loss model plus the obstacle and fluctuation noise models
(Section 3.2).

The same machinery also "collects fingerprints": generating repeated
measurements for a stationary reference location is exactly what the
fingerprinting radio-map construction of Section 3.3 (2) requires.

Every entry point (a whole trajectory, one position, one device, one survey
point) goes through one path.  It first finds, per sample, the devices in
range in deployment order.  It then counts the walls and obstacles crossed by
all those sight lines, device by device, in numpy passes
(:class:`~repro.geometry.line_of_sight.SightFan`).  Last, a plain loop draws
the packet loss of every device in range and the fluctuation noise of every
kept packet, in that order, so a seed always yields the same records.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.building.model import Building
from repro.core.errors import ConfigurationError
from repro.core.types import FloorId, RSSIRecord, Timestamp
from repro.devices.base import PositioningDevice
from repro.geometry.point import Point
from repro.mobility.trajectory import TrajectorySet
from repro.rssi.noise import FluctuationNoiseModel, ObstacleNoiseModel
from repro.rssi.pathloss import PathLossModel, default_model_for
from repro.spatial import SpatialService

#: Per floor, ``(device, position, reach)`` in deployment order.
_ReachTable = Dict[FloorId, List[Tuple[PositioningDevice, Point, float]]]


@dataclass
class RSSIGenerationConfig:
    """Parameters of the raw RSSI data generation.

    Attributes:
        sampling_period: seconds between consecutive RSSI sampling rounds
            (independent of the trajectory sampling frequency).
        path_loss: overrides the per-device path loss parameters when given;
            otherwise each device uses its own radio defaults.
        obstacle_noise: the ``Nob`` model.
        fluctuation_noise: the ``Nf`` model.
        range_factor: measurements are produced while the object lies within
            ``detection_range * range_factor`` of the device (signals fade
            rather than cut off exactly at the nominal range).
        detection_probability: probability that a device in range actually
            reports a measurement in a given round (packet loss).
        seed: seed for reproducible noise.
    """

    sampling_period: float = 2.0
    path_loss: Optional[PathLossModel] = None
    obstacle_noise: ObstacleNoiseModel = field(default_factory=ObstacleNoiseModel)
    fluctuation_noise: FluctuationNoiseModel = field(default_factory=FluctuationNoiseModel)
    range_factor: float = 1.0
    detection_probability: float = 0.95
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sampling_period <= 0:
            raise ConfigurationError("sampling_period must be positive")
        if self.range_factor <= 0:
            raise ConfigurationError("range_factor must be positive")
        if not 0.0 < self.detection_probability <= 1.0:
            raise ConfigurationError("detection_probability must be in (0, 1]")


class RSSIGenerator:
    """Generates raw RSSI measurements from trajectories and devices."""

    def __init__(
        self,
        building: Building,
        devices: Sequence[PositioningDevice],
        config: Optional[RSSIGenerationConfig] = None,
        spatial: Optional[SpatialService] = None,
    ) -> None:
        """*spatial* shares a building-wide
        :class:`~repro.spatial.SpatialService` (its sight fans) with the other
        layers; a private one is created when omitted."""
        self.building = building
        self.devices = list(devices)
        self.config = config or RSSIGenerationConfig()
        self.rng = random.Random(self.config.seed)
        self.spatial = spatial if spatial is not None else SpatialService(building)
        self._models: Dict[str, PathLossModel] = {
            device.device_id: (self.config.path_loss or default_model_for(device))
            for device in self.devices
        }
        self._reach = self._reach_table(self.devices)

    def _reach_table(self, devices: Sequence[PositioningDevice]) -> _ReachTable:
        table: _ReachTable = {}
        for device in devices:
            reach = device.detection_range * self.config.range_factor
            table.setdefault(device.floor_id, []).append((device, device.position, reach))
        return table

    # ------------------------------------------------------------------ #
    # The one measurement path
    # ------------------------------------------------------------------ #
    def _noiseless(
        self,
        samples: Sequence[Tuple[FloorId, float, float]],
        table: Optional[_ReachTable] = None,
    ) -> List[List[Tuple[PositioningDevice, float]]]:
        """Per sample ``(floor_id, x, y)``: the devices of *table* (default:
        all of this generator's) in range, in deployment order, each with its
        RSSI before fluctuation noise (path loss plus ``Nob``).  Draws no
        random number."""
        table = self._reach if table is None else table
        pairs: List[tuple] = []  # (reach-table entry, distance)
        xs: List[float] = []
        ys: List[float] = []
        bounds: List[Tuple[int, int]] = []
        by_entry: Dict[int, List[int]] = {}  # id(entry) -> its pairs
        for floor_id, x, y in samples:
            first = len(pairs)
            for entry in table.get(floor_id, ()):
                position = entry[1]
                # Point.distance_to's arithmetic: the same distance as
                # measuring this one pair on its own.
                distance = math.hypot(position.x - x, position.y - y)
                if distance <= entry[2]:
                    by_entry.setdefault(id(entry), []).append(len(pairs))
                    pairs.append((entry, distance))
                    xs.append(x)
                    ys.append(y)
            bounds.append((first, len(pairs)))
        values = [0.0] * len(pairs)
        noise = self.config.obstacle_noise
        for members in by_entry.values():
            device, position, device_reach = pairs[members[0]][0]
            fan = self.spatial.sight_fan(device.floor_id, position, device_reach)
            walls, obstacles = fan.crossings([xs[i] for i in members], [ys[i] for i in members])
            model = self._models[device.device_id]
            for index, wall_count, obstacle_count in zip(members, walls, obstacles):
                values[index] = model.rssi_at(pairs[index][1]) + noise.attenuation_from_counts(
                    wall_count, obstacle_count
                )
        return [
            [(pairs[index][0][0], values[index]) for index in range(first, last)]
            for first, last in bounds
        ]

    def _draw(
        self, noiseless: Sequence[Tuple[PositioningDevice, float]]
    ) -> List[Tuple[PositioningDevice, float]]:
        """One sampling round: packet loss for every device in range, then
        fluctuation noise for every kept packet."""
        kept: List[Tuple[PositioningDevice, float]] = []
        for device, value in noiseless:
            if self.rng.random() > self.config.detection_probability:
                continue
            kept.append((device, value + self.config.fluctuation_noise.sample(self.rng)))
        return kept

    def _records(
        self, noiseless: Sequence[Tuple[PositioningDevice, float]], object_id: str, t: Timestamp
    ) -> List[RSSIRecord]:
        return [
            RSSIRecord(object_id=object_id, device_id=device.device_id, rssi=rssi, t=t)
            for device, rssi in self._draw(noiseless)
        ]

    # ------------------------------------------------------------------ #
    # Single positions
    # ------------------------------------------------------------------ #
    def measure(
        self,
        device: PositioningDevice,
        floor_id: int,
        point: Point,
    ) -> Optional[float]:
        """One RSSI measurement of an object at (*floor_id*, *point*), or ``None``.

        ``None`` is returned when the object is on a different floor, outside
        the device's (extended) range, or the packet is lost.
        """
        [noiseless] = self._noiseless([(floor_id, point.x, point.y)], self._reach_table([device]))
        kept = self._draw(noiseless)
        return kept[0][1] if kept else None

    def measure_all(
        self, floor_id: int, point: Point, object_id: str, t: Timestamp
    ) -> List[RSSIRecord]:
        """RSSI records from every device that observes the given position."""
        [noiseless] = self._noiseless([(floor_id, point.x, point.y)])
        return self._records(noiseless, object_id, t)

    # ------------------------------------------------------------------ #
    # Trajectory-driven generation
    # ------------------------------------------------------------------ #
    def iter_trajectory_records(self, trajectory) -> Iterator[RSSIRecord]:
        """Raw RSSI records of one trajectory, in sampling-time order.

        The building block of both :meth:`generate` (which collects and
        globally sorts) and :meth:`iter_generate` (which streams without
        materialising the full dataset).
        """
        if trajectory.is_empty:
            return
        times: List[Timestamp] = []
        samples: List[Tuple[FloorId, float, float]] = []
        period = self.config.sampling_period
        t = trajectory.start_time
        while t <= trajectory.end_time + 1e-9:
            location = trajectory.location_at(min(t, trajectory.end_time))
            if location is not None and location.has_point:
                x, y = location.point()
                times.append(round(t, 6))
                samples.append((location.floor_id, x, y))
            t += period
        for t, noiseless in zip(times, self._noiseless(samples)):
            yield from self._records(noiseless, trajectory.object_id, t)

    def iter_generate(self, trajectories: TrajectorySet) -> Iterator[RSSIRecord]:
        """Stream raw RSSI records trajectory by trajectory (bounded memory).

        Records arrive trajectory-major (every record of one object before
        the next object), each object's records in time order.  Use
        :meth:`generate` when the globally time-sorted dataset is needed.
        """
        for trajectory in trajectories:
            yield from self.iter_trajectory_records(trajectory)

    def generate(self, trajectories: TrajectorySet) -> List[RSSIRecord]:
        """Raw RSSI data for every object, sampled at the RSSI sampling period."""
        records = list(self.iter_generate(trajectories))
        records.sort(key=attrgetter("t", "object_id", "device_id"))
        return records

    # ------------------------------------------------------------------ #
    # Fingerprint collection (site survey simulation)
    # ------------------------------------------------------------------ #
    def collect_fingerprint(
        self,
        floor_id: int,
        point: Point,
        samples: int = 10,
    ) -> Dict[str, List[float]]:
        """Repeated measurements at a stationary reference location.

        Returns a mapping ``device_id -> list of RSSI samples`` (devices that
        never observe the location are omitted).
        """
        if samples <= 0:
            raise ConfigurationError("samples must be positive")
        # The survey point is stationary: its sight lines are counted once.
        [noiseless] = self._noiseless([(floor_id, point.x, point.y)])
        observations: Dict[str, List[float]] = {}
        for _ in range(samples):
            for device, rssi in self._draw(noiseless):
                observations.setdefault(device.device_id, []).append(rssi)
        return observations


__all__ = ["RSSIGenerationConfig", "RSSIGenerator"]
