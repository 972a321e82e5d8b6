"""Raw ("ground truth") trajectories.

A trajectory is the sequence of ``(o_id, loc, t)`` samples of one moving
object, recorded at the trajectory sampling frequency configured in the
Moving Object Layer.  Because the generator controls the sampling frequency,
the ground truth can be preserved "to an arbitrarily detailed degree"
(Section 1); this module also offers resampling so the same movement can be
exported at a coarser granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import MovementError
from repro.core.types import IndoorLocation, ObjectId, Timestamp, TrajectoryRecord
from repro.geometry.point import Point


@dataclass
class Trajectory:
    """The ordered ground-truth samples of one moving object."""

    object_id: ObjectId
    records: List[TrajectoryRecord] = field(default_factory=list)

    def append(self, record: TrajectoryRecord) -> None:
        """Append a sample; timestamps must be non-decreasing."""
        if record.object_id != self.object_id:
            raise MovementError(
                f"record for object {record.object_id} appended to trajectory of "
                f"{self.object_id}"
            )
        if self.records and record.t < self.records[-1].t:
            raise MovementError(
                f"trajectory {self.object_id}: timestamps must be non-decreasing"
            )
        self.records.append(record)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def is_empty(self) -> bool:
        return not self.records

    @property
    def start_time(self) -> Timestamp:
        """Timestamp of the first sample."""
        self._require_samples()
        return self.records[0].t

    @property
    def end_time(self) -> Timestamp:
        """Timestamp of the last sample."""
        self._require_samples()
        return self.records[-1].t

    @property
    def duration(self) -> float:
        """Time covered by the trajectory in seconds."""
        if len(self.records) < 2:
            return 0.0
        return self.end_time - self.start_time

    @property
    def length(self) -> float:
        """Total travelled planar distance in metres (same-floor legs only)."""
        total = 0.0
        for previous, current in zip(self.records, self.records[1:]):
            if previous.location.floor_id != current.location.floor_id:
                continue
            if previous.location.has_point and current.location.has_point:
                x0, y0 = previous.location.point()
                x1, y1 = current.location.point()
                total += math.hypot(x1 - x0, y1 - y0)
        return total

    def floors_visited(self) -> List[int]:
        """Distinct floors visited, in visit order."""
        floors: List[int] = []
        for record in self.records:
            if not floors or floors[-1] != record.location.floor_id:
                floors.append(record.location.floor_id)
        return floors

    def partitions_visited(self) -> List[str]:
        """Distinct partitions visited, in visit order (skips unknown ones)."""
        partitions: List[str] = []
        for record in self.records:
            partition_id = record.location.partition_id
            if partition_id is None:
                continue
            if not partitions or partitions[-1] != partition_id:
                partitions.append(partition_id)
        return partitions

    # ------------------------------------------------------------------ #
    # Interpolation and resampling
    # ------------------------------------------------------------------ #
    def location_at(self, t: Timestamp) -> Optional[IndoorLocation]:
        """Ground-truth location at time *t* (linear interpolation).

        Returns ``None`` when *t* falls outside the trajectory's lifespan.
        Interpolation across a floor change keeps the earlier floor until the
        later sample's time.
        """
        if self.is_empty:
            return None
        if t < self.start_time or t > self.end_time:
            # Tolerate float round-off at the lifespan boundaries, e.g. a
            # caller computing ``start + (end - start) * 1.0``.
            if math.isclose(t, self.start_time, rel_tol=1e-9, abs_tol=1e-9):
                t = self.start_time
            elif math.isclose(t, self.end_time, rel_tol=1e-9, abs_tol=1e-9):
                t = self.end_time
            else:
                return None
        # bisect_right over the sample times, searched in place: ``records``
        # is a public list, so no copy of its times is kept.
        records = self.records
        low, high = 0, len(records)
        while low < high:
            middle = (low + high) // 2
            if t < records[middle].t:
                high = middle
            else:
                low = middle + 1
        index = max(0, min(low - 1, len(records) - 1))
        current = records[index]
        if index == len(self.records) - 1 or math.isclose(current.t, t):
            return current.location
        following = self.records[index + 1]
        if (
            current.location.floor_id != following.location.floor_id
            or not current.location.has_point
            or not following.location.has_point
        ):
            return current.location
        span = following.t - current.t
        fraction = 0.0 if span <= 0 else (t - current.t) / span
        x0, y0 = current.location.point()
        x1, y1 = following.location.point()
        return IndoorLocation(
            building_id=current.location.building_id,
            floor_id=current.location.floor_id,
            partition_id=current.location.partition_id,
            x=x0 + (x1 - x0) * fraction,
            y=y0 + (y1 - y0) * fraction,
        )

    def resample(self, period: float) -> "Trajectory":
        """Return a copy sampled every *period* seconds (ground-truth thinning)."""
        if period <= 0:
            raise MovementError("resample period must be positive")
        resampled = Trajectory(self.object_id)
        if self.is_empty:
            return resampled
        t = self.start_time
        while t <= self.end_time + 1e-9:
            location = self.location_at(min(t, self.end_time))
            if location is not None:
                resampled.append(TrajectoryRecord(self.object_id, location, min(t, self.end_time)))
            t += period
        # Always keep the final ground-truth sample so the lifespan end is preserved.
        if resampled.records and resampled.records[-1].t < self.end_time - 1e-9:
            final = self.location_at(self.end_time)
            if final is not None:
                resampled.append(TrajectoryRecord(self.object_id, final, self.end_time))
        return resampled

    def slice(self, t_start: Timestamp, t_end: Timestamp) -> "Trajectory":
        """Samples with ``t_start <= t <= t_end``."""
        result = Trajectory(self.object_id)
        for record in self.records:
            if t_start <= record.t <= t_end:
                result.append(record)
        return result

    def average_speed(self) -> float:
        """Mean planar speed in metres/second over the whole trajectory."""
        if self.duration <= 0:
            return 0.0
        return self.length / self.duration

    def to_records(self) -> List[TrajectoryRecord]:
        """The samples as a plain list (storage format ``(o_id, loc, t)``)."""
        return list(self.records)

    def _require_samples(self) -> None:
        if self.is_empty:
            raise MovementError(f"trajectory {self.object_id} has no samples")


class TrajectorySet:
    """The trajectories of every generated object, keyed by object id."""

    def __init__(self) -> None:
        self._trajectories: Dict[ObjectId, Trajectory] = {}

    def add_record(self, record: TrajectoryRecord) -> None:
        """Route a sample to its object's trajectory (creating it on demand)."""
        trajectory = self._trajectories.get(record.object_id)
        if trajectory is None:
            trajectory = Trajectory(record.object_id)
            self._trajectories[record.object_id] = trajectory
        trajectory.append(record)

    def get(self, object_id: ObjectId) -> Optional[Trajectory]:
        return self._trajectories.get(object_id)

    def __getitem__(self, object_id: ObjectId) -> Trajectory:
        return self._trajectories[object_id]

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._trajectories

    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self):
        return iter(self._trajectories.values())

    @property
    def object_ids(self) -> List[ObjectId]:
        return sorted(self._trajectories)

    @property
    def total_records(self) -> int:
        """Total number of samples across all trajectories."""
        return sum(len(t) for t in self._trajectories.values())

    def all_records(self) -> List[TrajectoryRecord]:
        """Every sample of every trajectory, sorted by time."""
        records: List[TrajectoryRecord] = []
        for trajectory in self._trajectories.values():
            records.extend(trajectory.records)
        records.sort(key=lambda record: (record.t, record.object_id))
        return records

    def snapshot(self, t: Timestamp) -> Dict[ObjectId, IndoorLocation]:
        """Ground-truth locations of every object alive at time *t*."""
        positions: Dict[ObjectId, IndoorLocation] = {}
        for object_id, trajectory in self._trajectories.items():
            location = trajectory.location_at(t)
            if location is not None:
                positions[object_id] = location
        return positions

    def resample(self, period: float) -> "TrajectorySet":
        """Resample every trajectory at *period* seconds."""
        result = TrajectorySet()
        for trajectory in self._trajectories.values():
            result._trajectories[trajectory.object_id] = trajectory.resample(period)
        return result


__all__ = ["Trajectory", "TrajectorySet"]
