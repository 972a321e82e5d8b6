"""Raw RSSI measurement generation.

The RSSI Measurement Controller of the Positioning Layer samples the raw
trajectory data at its own sampling frequency and, for every (object, device)
pair in range, produces a raw RSSI record ``(o_id, d_id, rssi, t)`` according
to the path loss model plus the obstacle and fluctuation noise models
(Section 3.2).

The same machinery also "collects fingerprints": generating repeated
measurements for a stationary reference location is exactly what the
fingerprinting radio-map construction of Section 3.3 (2) requires.

Every entry point (a chunk of trajectories, one position, one device, the
survey points) goes through one path.  The noiseless pass
(:meth:`RSSIGenerator._noiseless`) takes all of a chunk's samples at once.
Floor by floor, and per floor device by device in deployment order, it finds
the samples in the device's range, counts the walls and obstacles their sight
lines cross in one numpy pass
(:class:`~repro.geometry.line_of_sight.SightFan`), and evaluates the path
loss and ``Nob`` as arrays.  It draws no random number.  Then a plain loop,
sample by sample in order, draws the packet loss of every device in range
(in deployment order) and the fluctuation noise of every kept packet, so a
seed always yields the same records, however the samples were chunked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

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

#: One sampled trajectory: its object id, sampling times and ``(floor_id, x, y)``
#: samples.
_Sampled = Tuple[str, List[Timestamp], List[Tuple[FloorId, float, float]]]

#: Samples :meth:`RSSIGenerator.iter_generate` measures in one noiseless pass:
#: a chunk takes whole trajectories until it holds at least this many, so it
#: exceeds the bound by less than one trajectory's samples.
_SAMPLE_CHUNK = 2048


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
        random number.

        Every value is the float the one-sample arithmetic gives: the
        distance is ``math.hypot`` of ``position - sample`` per element, the
        range test ``distance <= reach``, and the sight fan counts each sight
        line on its own, so the batch's composition changes nothing.
        """
        table = self._reach if table is None else table
        found: List[List[Tuple[PositioningDevice, float]]] = [[] for _ in samples]
        by_floor: Dict[FloorId, List[int]] = {}
        for index, sample in enumerate(samples):
            by_floor.setdefault(sample[0], []).append(index)
        noise = self.config.obstacle_noise
        for floor_id, members in by_floor.items():
            entries = table.get(floor_id)
            if not entries:
                continue
            xs = np.array([samples[index][1] for index in members], dtype=float)
            ys = np.array([samples[index][2] for index in members], dtype=float)
            for device, position, reach in entries:
                distances = np.fromiter(
                    map(math.hypot, (position.x - xs).tolist(), (position.y - ys).tolist()),
                    dtype=float,
                    count=len(members),
                )
                in_range = np.flatnonzero(distances <= reach)
                if not len(in_range):
                    continue
                fan = self.spatial.sight_fan(device.floor_id, position, reach)
                walls, obstacles = fan.crossings(xs[in_range], ys[in_range])
                values = self._models[device.device_id].rssi_batch(distances[in_range])
                values += noise.attenuation_batch(walls, obstacles)
                for row, value in zip(in_range.tolist(), values.tolist()):
                    found[members[row]].append((device, value))
        return found

    def _draw(
        self, noiseless: Sequence[Tuple[PositioningDevice, float]]
    ) -> List[Tuple[PositioningDevice, float]]:
        """One sampling round: packet loss for every device in range, then
        fluctuation noise for every kept packet."""
        rng = self.rng
        loss = rng.random
        sample = self.config.fluctuation_noise.sample
        probability = self.config.detection_probability
        # The condition runs before the value, row by row: one loss draw per
        # device, then one fluctuation draw per kept packet, in order.
        return [
            (device, value + sample(rng))
            for device, value in noiseless
            if loss() <= probability
        ]

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
    def _sample(self, trajectory) -> _Sampled:
        """The RSSI sampling rounds of one trajectory: its times and positions."""
        times: List[Timestamp] = []
        samples: List[Tuple[FloorId, float, float]] = []
        if not trajectory.is_empty:
            period = self.config.sampling_period
            t = trajectory.start_time
            while t <= trajectory.end_time + 1e-9:
                location = trajectory.location_at(min(t, trajectory.end_time))
                if location is not None and location.has_point:
                    x, y = location.point()
                    times.append(round(t, 6))
                    samples.append((location.floor_id, x, y))
                t += period
        return trajectory.object_id, times, samples

    def _chunk_records(self, chunk: Sequence[_Sampled]) -> Iterator[RSSIRecord]:
        """The records of a chunk of sampled trajectories, in chunk order: one
        noiseless pass over all their samples, then the draws sample by sample."""
        noiseless = iter(self._noiseless([sample for _, _, samples in chunk for sample in samples]))
        for object_id, times, _ in chunk:
            for t in times:
                yield from self._records(next(noiseless), object_id, t)

    def iter_trajectory_records(self, trajectory) -> Iterator[RSSIRecord]:
        """Raw RSSI records of one trajectory, in sampling-time order (a chunk
        of one trajectory)."""
        yield from self._chunk_records([self._sample(trajectory)])

    def iter_generate(self, trajectories: TrajectorySet) -> Iterator[RSSIRecord]:
        """Stream raw RSSI records trajectory by trajectory (bounded memory).

        Records arrive trajectory-major (every record of one object before
        the next object), each object's records in time order.  Trajectories
        are measured a chunk at a time (about ``_SAMPLE_CHUNK`` samples), so
        each device's sight lines are counted once per chunk; the records and
        the noise stream equal measuring one trajectory at a time.  Use
        :meth:`generate` when the globally time-sorted dataset is needed.
        """
        chunk: List[_Sampled] = []
        size = 0
        for trajectory in trajectories:
            sampled = self._sample(trajectory)
            chunk.append(sampled)
            size += len(sampled[2])
            if size >= _SAMPLE_CHUNK:
                yield from self._chunk_records(chunk)
                chunk, size = [], 0
        yield from self._chunk_records(chunk)

    def generate(self, trajectories: TrajectorySet) -> List[RSSIRecord]:
        """Raw RSSI data for every object, sampled at the RSSI sampling period."""
        records = list(self.iter_generate(trajectories))
        records.sort(key=attrgetter("t", "object_id", "device_id"))
        return records

    # ------------------------------------------------------------------ #
    # Fingerprint collection (site survey simulation)
    # ------------------------------------------------------------------ #
    def collect_fingerprints(
        self,
        points: Sequence[Tuple[int, Point]],
        samples: int = 10,
    ) -> List[Dict[str, List[float]]]:
        """Repeated measurements at stationary reference locations.

        Per ``(floor_id, point)`` of *points*, in order: a mapping
        ``device_id -> list of RSSI samples`` (devices that never observe the
        location are omitted).  The points' sight lines are counted in one
        noiseless pass; then each point draws its *samples* rounds, point by
        point, so the result equals surveying the points one at a time.
        """
        if samples <= 0:
            raise ConfigurationError("samples must be positive")
        located = [(floor_id, point.x, point.y) for floor_id, point in points]
        fingerprints: List[Dict[str, List[float]]] = []
        for noiseless in self._noiseless(located):
            observations: Dict[str, List[float]] = {}
            for _ in range(samples):
                for device, rssi in self._draw(noiseless):
                    observations.setdefault(device.device_id, []).append(rssi)
            fingerprints.append(observations)
        return fingerprints

    def collect_fingerprint(
        self,
        floor_id: int,
        point: Point,
        samples: int = 10,
    ) -> Dict[str, List[float]]:
        """Repeated measurements at one stationary reference location (a
        :meth:`collect_fingerprints` batch of one)."""
        [observations] = self.collect_fingerprints([(floor_id, point)], samples)
        return observations


__all__ = ["RSSIGenerationConfig", "RSSIGenerator"]
