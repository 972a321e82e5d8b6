"""Fingerprinting positioning.

Section 3.3 (2): "Fingerprinting associates RSSI fingerprints to locations.
A fingerprint in a location is a vector in which each dimension corresponds to
an RSSI value measured by a certain positioning device.  In the offline phase,
a site-survey is required to collect the fingerprints for a set of reference
locations.  The collected data is stored in radio map as training data.  When
constructing a radio map, Vita first allows users to select a set of reference
locations on a given floor.  After that, Vita simulates some objects to
collect the fingerprints at the selected reference locations ...  Once the
radio map is constructed, in the online phase, users can employ various
classification algorithms such as NaiveBayes or kNN to infer locations."

Two online algorithms are provided:

* :class:`KNNFingerprinting` — deterministic; averages the coordinates of the
  *k* nearest reference locations in signal space;
* :class:`NaiveBayesFingerprinting` — probabilistic; assumes per-device
  Gaussian RSSI distributions at each reference location and returns a set of
  candidate locations with probabilities.

kNN reads the radio map once into a reference × device matrix and scores
every reference against a window in one numpy pass.  The references whose
score lies within a 1e-9 relative slack of the k-th score are re-ranked with
:meth:`ReferenceLocation.signal_distance`, the only exact distance formula,
so the neighbours chosen are those of a full sort by
``(signal_distance, index)``, bit for bit.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.building.model import Building, Partition
from repro.core.errors import RadioMapError
from repro.core.types import (
    DeviceId,
    IndoorLocation,
    PositioningMethod,
    PositioningRecord,
    ProbabilisticPositioningRecord,
)
from repro.devices.base import PositioningDevice
from repro.geometry.point import Point
from repro.positioning.base import ObservationWindow, PositioningMethodBase
from repro.rssi.measurement import RSSIGenerator

#: RSSI assumed for a device that is expected but not heard at a location.
MISSING_RSSI_DBM = -100.0

#: Relative slack above the k-th approximate kNN score within which
#: references are re-ranked exactly.  Summing at most a few hundred
#: non-negative terms in another order moves a score by far less (~1e-14).
_RERANK_SLACK = 1e-9


class SurveyStd(Mapping):
    """Per-device RSSI standard deviation of one reference's survey samples,
    each computed on its first read.

    The value is ``statistics.pstdev`` of the device's samples (0.0 for a
    single sample).  ``pstdev`` is exact and slow (it sums in ``Fraction``
    arithmetic), and only the Naive-Bayes method reads the deviations, so a
    survey does not pay for them up front.
    """

    def __init__(self, samples: Dict[DeviceId, List[float]]) -> None:
        self._samples = samples
        self._values: Dict[DeviceId, float] = {}

    def __getitem__(self, device_id: DeviceId) -> float:
        value = self._values.get(device_id)
        if value is None:
            values = self._samples[device_id]
            value = statistics.pstdev(values) if len(values) > 1 else 0.0
            self._values[device_id] = value
        return value

    def __iter__(self) -> Iterator[DeviceId]:
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return f"SurveyStd({dict(self)!r})"


@dataclass
class ReferenceLocation:
    """One surveyed reference location of the radio map."""

    floor_id: int
    point: Point
    partition_id: Optional[str] = None
    #: Mean RSSI per device observed during the site survey.
    mean_rssi: Dict[DeviceId, float] = field(default_factory=dict)
    #: RSSI standard deviation per device (floored to a minimum by the users);
    #: a surveyed reference holds a :class:`SurveyStd`.
    std_rssi: Mapping = field(default_factory=dict)

    def signal_distance(self, observation: Dict[DeviceId, float]) -> float:
        """Euclidean distance in signal space between this reference and *observation*.

        Devices present in only one of the two vectors contribute with the
        :data:`MISSING_RSSI_DBM` placeholder, penalising mismatched coverage.
        The terms are summed in device-id order, so the last bits of the sum
        do not depend on string hashing.
        """
        device_ids = sorted(set(self.mean_rssi) | set(observation))
        if not device_ids:
            return float("inf")
        total = 0.0
        for device_id in device_ids:
            reference_value = self.mean_rssi.get(device_id, MISSING_RSSI_DBM)
            observed_value = observation.get(device_id, MISSING_RSSI_DBM)
            total += (reference_value - observed_value) ** 2
        return math.sqrt(total / len(device_ids))

    def log_likelihood(self, observation: Dict[DeviceId, float], min_std: float = 2.0) -> float:
        """Naive-Bayes log-likelihood of *observation* at this reference location."""
        if not observation:
            return float("-inf")
        total = 0.0
        for device_id, observed_value in observation.items():
            mean = self.mean_rssi.get(device_id, MISSING_RSSI_DBM)
            std = max(self.std_rssi.get(device_id, min_std), min_std)
            total += -0.5 * ((observed_value - mean) / std) ** 2 - math.log(std)
        return total


class RadioMap:
    """The offline training data of the fingerprinting method."""

    def __init__(self, references: Optional[List[ReferenceLocation]] = None) -> None:
        self.references: List[ReferenceLocation] = references or []

    def __len__(self) -> int:
        return len(self.references)

    def add(self, reference: ReferenceLocation) -> None:
        """Register a surveyed reference location."""
        self.references.append(reference)

    def floors(self) -> List[int]:
        """Floors covered by the radio map."""
        return sorted({reference.floor_id for reference in self.references})

    @classmethod
    def survey(
        cls,
        building: Building,
        generator: RSSIGenerator,
        reference_points: Sequence[Tuple[int, Point]],
        samples_per_location: int = 10,
    ) -> "RadioMap":
        """Simulate the site survey at explicit reference points."""
        radio_map = cls()
        fingerprints = generator.collect_fingerprints(reference_points, samples_per_location)
        for (floor_id, point), observations in zip(reference_points, fingerprints):
            partition = building.floor(floor_id).partition_at(point)
            reference = ReferenceLocation(
                floor_id=floor_id,
                point=point,
                partition_id=partition.partition_id if partition else None,
                mean_rssi={
                    device_id: statistics.fmean(values)
                    for device_id, values in observations.items()
                },
                std_rssi=SurveyStd(observations),
            )
            radio_map.add(reference)
        return radio_map

    @classmethod
    def survey_grid(
        cls,
        building: Building,
        generator: RSSIGenerator,
        floor_ids: Optional[Sequence[int]] = None,
        spacing: float = 4.0,
        samples_per_location: int = 10,
    ) -> "RadioMap":
        """Simulate the site survey on a regular grid of reference locations.

        This is the "select a set of reference locations on a given floor"
        step with a sensible default selection: one reference point every
        *spacing* metres inside every partition.
        """
        reference_points: List[Tuple[int, Point]] = []
        floor_ids = list(floor_ids) if floor_ids is not None else building.floor_ids
        for floor_id in floor_ids:
            floor = building.floor(floor_id)
            for partition in floor.partitions.values():
                reference_points.extend(
                    (floor_id, point) for point in _grid_points(partition, spacing)
                )
        if not reference_points:
            raise RadioMapError("no reference locations could be selected")
        return cls.survey(building, generator, reference_points, samples_per_location)


def _grid_points(partition: Partition, spacing: float) -> List[Point]:
    """Grid points with the given spacing inside a partition (at least its centroid)."""
    box = partition.polygon.bounding_box
    points: List[Point] = []
    y = box.min_y + spacing / 2.0
    while y < box.max_y:
        x = box.min_x + spacing / 2.0
        while x < box.max_x:
            candidate = Point(x, y)
            if partition.contains_point(candidate):
                points.append(candidate)
            x += spacing
        y += spacing
    if not points:
        points.append(partition.centroid)
    return points


class _FingerprintingBase(PositioningMethodBase):
    """Shared constructor for the two online algorithms."""

    def __init__(
        self,
        building: Building,
        devices: Sequence[PositioningDevice],
        radio_map: RadioMap,
        spatial=None,
    ) -> None:
        super().__init__(building, devices, spatial=spatial)
        if not len(radio_map):
            raise RadioMapError("the radio map contains no reference locations")
        self.radio_map = radio_map


class KNNFingerprinting(_FingerprintingBase):
    """Deterministic k-nearest-neighbours in signal space.

    The radio map is read once, at construction, into a reference × device
    matrix; references added to the map afterwards are not seen.
    """

    name = "fingerprinting-knn"

    def __init__(
        self,
        building: Building,
        devices: Sequence[PositioningDevice],
        radio_map: RadioMap,
        k: int = 3,
        spatial=None,
    ) -> None:
        super().__init__(building, devices, radio_map, spatial=spatial)
        if k < 1:
            raise RadioMapError("k must be at least 1")
        self.k = k
        references = radio_map.references
        device_ids = sorted({device_id for ref in references for device_id in ref.mean_rssi})
        self._columns = {device_id: column for column, device_id in enumerate(device_ids)}
        #: Surveyed mean RSSI per (reference, device), MISSING_RSSI_DBM where
        #: the reference did not hear the device, and whether it did.
        self._signal = np.array(
            [[ref.mean_rssi.get(device_id, MISSING_RSSI_DBM) for device_id in device_ids]
             for ref in references],
            dtype=float,
        )
        self._heard = np.array(
            [[device_id in ref.mean_rssi for device_id in device_ids] for ref in references],
            dtype=bool,
        )

    def nearest(self, observation: Dict[DeviceId, float]) -> List[ReferenceLocation]:
        """The *k* references nearest to *observation*, ordered by
        ``(signal_distance, index)`` exactly as a full sort would order them.

        One numpy pass scores every reference with the same terms as
        :meth:`ReferenceLocation.signal_distance`, summed in another order,
        so a score may differ from the exact distance in its last bits.  Every
        reference within :data:`_RERANK_SLACK` of the k-th score is therefore
        re-ranked with the exact distance.
        """
        if not observation:
            return []
        references = self.radio_map.references
        vector = np.full(len(self._columns), MISSING_RSSI_DBM)
        observed = np.zeros(len(self._columns), dtype=bool)
        # Observed devices absent from the radio map add the same term, and
        # one device to the union, for every reference.
        unmapped_total = 0.0
        unmapped = 0
        for device_id, value in observation.items():
            column = self._columns.get(device_id)
            if column is None:
                unmapped_total += (MISSING_RSSI_DBM - value) ** 2
                unmapped += 1
            else:
                vector[column] = value
                observed[column] = True
        # A device heard by neither side has MISSING_RSSI_DBM on both and adds 0.
        totals = np.square(self._signal - vector).sum(axis=1) + unmapped_total
        union = np.count_nonzero(self._heard | observed, axis=1) + unmapped
        scores = np.sqrt(totals / union)
        k = min(self.k, len(references))
        kth = np.partition(scores, k - 1)[k - 1]
        candidates = np.flatnonzero(scores <= kth * (1.0 + _RERANK_SLACK)).tolist()
        ranked = sorted(
            (references[index].signal_distance(observation), index) for index in candidates
        )
        return [references[index] for _, index in ranked[: self.k]]

    def estimate_window(self, window: ObservationWindow) -> Optional[PositioningRecord]:
        nearest = self.nearest(window.mean_rssi_by_device())
        if not nearest:
            return None
        # Average the nearest reference coordinates, restricted to the most
        # common floor among them (coordinates on different floors must not
        # be blended together).
        floor_votes: Dict[int, int] = {}
        for reference in nearest:
            floor_votes[reference.floor_id] = floor_votes.get(reference.floor_id, 0) + 1
        floor_id = max(floor_votes.items(), key=lambda pair: pair[1])[0]
        same_floor = [reference for reference in nearest if reference.floor_id == floor_id]
        x = sum(reference.point.x for reference in same_floor) / len(same_floor)
        y = sum(reference.point.y for reference in same_floor) / len(same_floor)
        location = self.locate_point(floor_id, Point(x, y))
        return PositioningRecord(
            object_id=window.object_id,
            location=location,
            t=window.t_center,
            method=PositioningMethod.FINGERPRINTING,
        )


class NaiveBayesFingerprinting(_FingerprintingBase):
    """Probabilistic Naive-Bayes classification over the reference locations."""

    name = "fingerprinting-bayes"

    def __init__(
        self,
        building: Building,
        devices: Sequence[PositioningDevice],
        radio_map: RadioMap,
        top_k: int = 5,
        min_std: float = 2.0,
        spatial=None,
    ) -> None:
        super().__init__(building, devices, radio_map, spatial=spatial)
        if top_k < 1:
            raise RadioMapError("top_k must be at least 1")
        self.top_k = top_k
        self.min_std = min_std

    def estimate_window(
        self, window: ObservationWindow
    ) -> Optional[ProbabilisticPositioningRecord]:
        observation = window.mean_rssi_by_device()
        if not observation:
            return None
        log_likelihoods = [
            (reference.log_likelihood(observation, self.min_std), index, reference)
            for index, reference in enumerate(self.radio_map.references)
        ]
        log_likelihoods.sort(key=lambda triple: (-triple[0], triple[1]))
        top = log_likelihoods[: self.top_k]
        best_log = top[0][0]
        if not math.isfinite(best_log):
            return None
        weights = [math.exp(value - best_log) for value, _, _ in top]
        total = sum(weights)
        candidates: List[Tuple[IndoorLocation, float]] = []
        for weight, (_, _, reference) in zip(weights, top):
            location = IndoorLocation(
                building_id=self.building.building_id,
                floor_id=reference.floor_id,
                partition_id=reference.partition_id,
                x=reference.point.x,
                y=reference.point.y,
            )
            candidates.append((location, weight / total))
        return ProbabilisticPositioningRecord(
            object_id=window.object_id,
            candidates=tuple(candidates),
            t=window.t_center,
        )


__all__ = [
    "MISSING_RSSI_DBM",
    "SurveyStd",
    "ReferenceLocation",
    "RadioMap",
    "KNNFingerprinting",
    "NaiveBayesFingerprinting",
]
