"""Shared infrastructure for the indoor positioning methods.

All three methods of Section 3.3 consume the raw RSSI data and produce
positioning data.  The Positioning Method Controller samples the raw RSSI
stream at its own positioning sampling frequency, which is generally lower
than the RSSI sampling frequency: measurements are grouped into *observation
windows* of one positioning period each, and the method estimates one
location per object per window.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.building.model import Building
from repro.core.errors import PositioningError
from repro.core.types import (
    DeviceId,
    IndoorLocation,
    ObjectId,
    RSSIRecord,
    Timestamp,
)
from repro.devices.base import PositioningDevice
from repro.geometry.point import Point
from repro.spatial import SpatialService


@dataclass
class ObservationWindow:
    """All RSSI measurements of one object inside one positioning period."""

    object_id: ObjectId
    t_start: Timestamp
    t_end: Timestamp
    records: List[RSSIRecord] = field(default_factory=list)

    @property
    def t_center(self) -> Timestamp:
        """Representative timestamp of the window (its midpoint)."""
        return (self.t_start + self.t_end) / 2.0

    @property
    def device_ids(self) -> List[DeviceId]:
        """Devices that observed the object in this window."""
        return sorted({record.device_id for record in self.records})

    def mean_rssi_by_device(self) -> Dict[DeviceId, float]:
        """Mean RSSI per device over the window (the method's input vector)."""
        grouped: Dict[DeviceId, List[float]] = defaultdict(list)
        for record in self.records:
            grouped[record.device_id].append(record.rssi)
        return {
            device_id: sum(values) / len(values) for device_id, values in grouped.items()
        }

    def strongest_device(self) -> Optional[Tuple[DeviceId, float]]:
        """The device with the strongest mean RSSI, or ``None`` when empty."""
        means = self.mean_rssi_by_device()
        if not means:
            return None
        device_id = max(means, key=means.get)
        return device_id, means[device_id]


def build_windows(
    records: Sequence[RSSIRecord],
    period: float,
    origin: Optional[float] = None,
) -> List[ObservationWindow]:
    """Group raw RSSI records into per-object windows of *period* seconds."""
    if period <= 0:
        raise PositioningError("positioning sampling period must be positive")
    if not records:
        return []
    start = origin if origin is not None else min(record.t for record in records)
    buckets: Dict[Tuple[ObjectId, int], ObservationWindow] = {}
    for record in records:
        index = int(math.floor((record.t - start) / period + 1e-9))
        key = (record.object_id, index)
        window = buckets.get(key)
        if window is None:
            window = ObservationWindow(
                object_id=record.object_id,
                t_start=start + index * period,
                t_end=start + (index + 1) * period,
            )
            buckets[key] = window
        window.records.append(record)
    windows = list(buckets.values())
    windows.sort(key=lambda w: (w.t_start, w.object_id))
    return windows


class PositioningMethodBase:
    """Base class of the three positioning methods."""

    name = "abstract"

    def __init__(
        self,
        building: Building,
        devices: Sequence[PositioningDevice],
        spatial: Optional[SpatialService] = None,
    ) -> None:
        """*spatial* shares the building-wide cached
        :class:`~repro.spatial.SpatialService` (point-location cache, floor
        extents) with the other layers; a private one is created when
        omitted."""
        self.building = building
        self.spatial = spatial if spatial is not None else SpatialService(building)
        self.devices: Dict[DeviceId, PositioningDevice] = {
            device.device_id: device for device in devices
        }

    # ------------------------------------------------------------------ #
    # Helpers shared by the concrete methods
    # ------------------------------------------------------------------ #
    def device(self, device_id: DeviceId) -> PositioningDevice:
        """The device with id *device_id*."""
        try:
            return self.devices[device_id]
        except KeyError:
            raise PositioningError(f"RSSI record references unknown device {device_id}")

    def locate_point(self, floor_id: int, point: Point) -> IndoorLocation:
        """Annotate a coordinate estimate with its partition (cached)."""
        return self.spatial.locate(floor_id, point)

    def dominant_floor(self, window: ObservationWindow) -> int:
        """The floor where most of the window's observing devices live."""
        counts: Dict[int, int] = defaultdict(int)
        for device_id in window.device_ids:
            counts[self.device(device_id).floor_id] += 1
        if not counts:
            raise PositioningError("observation window contains no measurements")
        return max(counts.items(), key=lambda pair: (pair[1], -pair[0]))[0]

    def estimate_window(self, window: ObservationWindow):
        """Produce one positioning record from one observation window.

        Concrete methods return a :class:`PositioningRecord`,
        :class:`ProbabilisticPositioningRecord` or ``None`` when no estimate
        can be made from the window.
        """
        raise NotImplementedError

    def estimate_windows(self, windows: Sequence[ObservationWindow]) -> List:
        """One :meth:`estimate_window` result per window, in window order.

        A method that can solve many windows at once overrides this.
        """
        return [self.estimate_window(window) for window in windows]

    def estimate(self, windows: Iterable[ObservationWindow]) -> List:
        """Estimate every window, skipping the ones without enough data."""
        return [
            estimate
            for estimate in self.estimate_windows(list(windows))
            if estimate is not None
        ]


__all__ = ["ObservationWindow", "build_windows", "PositioningMethodBase"]
