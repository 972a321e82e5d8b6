"""Positioning Method Controller (PMC).

"The Positioning Method Controller reads objects' raw RSSI data and estimates
the locations according to the chosen positioning method and relevant
configuration.  Note that another sampling frequency can be specified in PMC
for generating the positioning data.  This is different from the one for
generating the trajectory data." (Section 2)

The controller also enforces method/device compatibility ("all three methods
can be applied to Wi-Fi devices, whereas fingerprinting currently does not
apply to RFID and Bluetooth devices", Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.building.model import Building
from repro.core.errors import ConfigurationError, PositioningError
from repro.core.types import (
    PositioningMethod,
    PositioningRecord,
    ProbabilisticPositioningRecord,
    ProximityRecord,
    RSSIRecord,
    method_applies_to,
)
from repro.devices.base import PositioningDevice
from repro.positioning.base import build_windows
from repro.positioning.fingerprinting import (
    KNNFingerprinting,
    NaiveBayesFingerprinting,
    RadioMap,
)
from repro.positioning.proximity import ProximityMethod
from repro.positioning.trilateration import RSSIConversion, TrilaterationMethod

#: Observation windows handed to a method's ``estimate_windows`` at a time,
#: which bounds the arrays of a batched solve.
_WINDOW_CHUNK = 1024

#: The positioning data produced by the controller: deterministic records,
#: probabilistic records, or proximity detection periods.
PositioningOutput = Union[
    List[PositioningRecord],
    List[ProbabilisticPositioningRecord],
    List[ProximityRecord],
]


@dataclass
class PositioningConfig:
    """Configuration consumed by the Positioning Method Controller.

    Attributes:
        method: which of the three positioning methods to run.
        sampling_period: the positioning sampling period (seconds); raw RSSI
            measurements are grouped into windows of this length.
        fingerprinting_algorithm: ``"knn"`` (deterministic) or ``"bayes"``
            (probabilistic).
        knn_k: number of neighbours for the kNN algorithm.
        bayes_top_k: number of candidate locations returned by Naive Bayes.
        min_devices: minimum number of circles for trilateration.
        rssi_threshold: optional explicit proximity threshold (dBm).
        proximity_miss_tolerance: detection operations that may be missed
            before a detection period completes.
    """

    method: PositioningMethod = PositioningMethod.TRILATERATION
    sampling_period: float = 5.0
    fingerprinting_algorithm: str = "knn"
    knn_k: int = 3
    bayes_top_k: int = 5
    min_devices: int = 3
    rssi_threshold: Optional[float] = None
    proximity_miss_tolerance: int = 1

    def __post_init__(self) -> None:
        if self.sampling_period <= 0:
            raise ConfigurationError("positioning sampling_period must be positive")
        if self.fingerprinting_algorithm not in ("knn", "bayes"):
            raise ConfigurationError(
                "fingerprinting_algorithm must be 'knn' or 'bayes'"
            )


class PositioningMethodController:
    """Chooses, configures and runs one of the three positioning methods."""

    def __init__(
        self,
        building: Building,
        devices: Sequence[PositioningDevice],
        config: Optional[PositioningConfig] = None,
        radio_map: Optional[RadioMap] = None,
        rssi_conversion: Optional[RSSIConversion] = None,
        spatial=None,
    ) -> None:
        """*spatial* shares the building-wide cached
        :class:`~repro.spatial.SpatialService` with the constructed method
        (floor extents, point-location cache)."""
        self.building = building
        self.devices = list(devices)
        self.config = config or PositioningConfig()
        self.radio_map = radio_map
        self.rssi_conversion = rssi_conversion
        self.spatial = spatial
        self._validate_compatibility()

    def _validate_compatibility(self) -> None:
        incompatible = [
            device.device_id
            for device in self.devices
            if not method_applies_to(self.config.method, device.device_type)
        ]
        if incompatible:
            raise PositioningError(
                f"method {self.config.method.value} does not apply to devices "
                f"{', '.join(sorted(incompatible))}"
            )

    # ------------------------------------------------------------------ #
    # Method construction
    # ------------------------------------------------------------------ #
    def build_method(self):
        """Instantiate the configured positioning method."""
        method = self.config.method
        if method is PositioningMethod.TRILATERATION:
            return TrilaterationMethod(
                self.building,
                self.devices,
                rssi_conversion=self.rssi_conversion,
                min_devices=self.config.min_devices,
                spatial=self.spatial,
            )
        if method is PositioningMethod.FINGERPRINTING:
            if self.radio_map is None:
                raise PositioningError(
                    "fingerprinting requires a radio map; construct one with "
                    "RadioMap.survey_grid() and pass it to the controller"
                )
            if self.config.fingerprinting_algorithm == "knn":
                return KNNFingerprinting(
                    self.building, self.devices, self.radio_map, k=self.config.knn_k,
                    spatial=self.spatial,
                )
            return NaiveBayesFingerprinting(
                self.building,
                self.devices,
                self.radio_map,
                top_k=self.config.bayes_top_k,
                spatial=self.spatial,
            )
        if method is PositioningMethod.PROXIMITY:
            return ProximityMethod(
                self.building,
                self.devices,
                rssi_threshold=self.config.rssi_threshold,
                miss_tolerance=self.config.proximity_miss_tolerance,
                spatial=self.spatial,
            )
        raise PositioningError(f"unsupported positioning method {method!r}")

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def generate(self, rssi_records: Sequence[RSSIRecord]) -> PositioningOutput:
        """Produce positioning data from raw RSSI data."""
        return list(self.iter_generate(rssi_records))

    def iter_generate(self, rssi_records: Sequence[RSSIRecord]):
        """Yield positioning records in window order, a chunk of windows at a time.

        Streaming counterpart of :meth:`generate`: estimates are produced as
        each chunk of :data:`_WINDOW_CHUNK` windows is solved instead of
        after the whole dataset, so a consumer (e.g. the streaming pipeline's
        bounded-flush writer) never needs the full positioning output in
        memory.  Proximity detection inherently spans the record stream, so
        it yields its detection periods once computed.
        """
        method = self.build_method()
        if isinstance(method, ProximityMethod):
            yield from method.detect(rssi_records)
            return
        windows = build_windows(rssi_records, self.config.sampling_period)
        for start in range(0, len(windows), _WINDOW_CHUNK):
            for estimate in method.estimate_windows(windows[start:start + _WINDOW_CHUNK]):
                if estimate is not None:
                    yield estimate


__all__ = ["PositioningConfig", "PositioningMethodController", "PositioningOutput"]
