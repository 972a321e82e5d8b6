"""Typed repositories over a pluggable storage backend.

Section 4.2 lists the storage formats:

* raw trajectory data ``(o_id, loc, t)``;
* raw RSSI measurements ``(o_id, d_id, rssi)``;
* deterministic positioning data ``(o_id, loc, t)``;
* probabilistic positioning data ``(o_id, {(loc_i, prob_i)}, t)``;
* proximity data ``(o_id, d_id, ts, te)``;
* positioning-device data (part of the infrastructure output).

Each repository maps one of those formats onto a dataset of a
:class:`~repro.storage.backends.base.StorageBackend`, converting between the
typed record dataclasses of :mod:`repro.core.types` and plain rows.  The
same repository code runs on the in-memory engine and on SQLite; a
:class:`DataWarehouse` bundles all repositories of one generation run over
one shared backend.

The write path has one row shape: a tuple in the dataset's
:attr:`~repro.storage.backends.base.DatasetSpec.columns` order, made from a
typed record by :func:`record_row`.  The generation chain calls it once per
record inside the shard, so only row tuples cross the process boundary and
reach the engines and the live tap; every ``add_many`` accepts those tuples
as they are and converts typed records with the same function.

Every read is a builder query (:mod:`repro.storage.query`), converted to
typed records through :data:`ROW_CONVERTERS`; ``records_of(o)`` is
``Query(backend, dataset).where(object_id=o).records()``.  So reads follow
the builder's order: time order with ties in insertion order, or insertion
order for the ``device`` dataset, which has no time column.
"""

from __future__ import annotations

import json
from typing import Any, Callable, ContextManager, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.errors import StorageError
from repro.core.types import (
    DeviceRecord,
    DeviceType,
    IndoorLocation,
    ObjectId,
    PositioningMethod,
    PositioningRecord,
    ProbabilisticPositioningRecord,
    ProximityRecord,
    RSSIRecord,
    Timestamp,
    TrajectoryRecord,
)
from repro.mobility.trajectory import Trajectory, TrajectorySet
from repro.storage.backends import StorageBackend, backend_by_name
from repro.storage.backends.memory import MemoryBackend
from repro.storage.query import Query


def _location_from_row(row: Dict) -> IndoorLocation:
    return IndoorLocation(
        building_id=row["building_id"],
        floor_id=row["floor_id"],
        partition_id=row["partition_id"],
        x=row["x"],
        y=row["y"],
    )


def row_to_trajectory_record(row: Dict) -> TrajectoryRecord:
    return TrajectoryRecord(
        object_id=row["object_id"], location=_location_from_row(row), t=row["t"]
    )


def row_to_rssi_record(row: Dict) -> RSSIRecord:
    return RSSIRecord(
        object_id=row["object_id"],
        device_id=row["device_id"],
        rssi=row["rssi"],
        t=row["t"],
    )


def row_to_positioning_record(row: Dict) -> PositioningRecord:
    return PositioningRecord(
        object_id=row["object_id"],
        location=_location_from_row(row),
        t=row["t"],
        method=PositioningMethod(row["method"]),
    )


def row_to_probabilistic_record(row: Dict) -> ProbabilisticPositioningRecord:
    candidates = tuple(
        (IndoorLocation.from_record(candidate["location"]), float(candidate["prob"]))
        for candidate in json.loads(row["candidates"])
    )
    return ProbabilisticPositioningRecord(
        object_id=row["object_id"], candidates=candidates, t=row["t"]
    )


def row_to_proximity_record(row: Dict) -> ProximityRecord:
    return ProximityRecord(
        object_id=row["object_id"],
        device_id=row["device_id"],
        t_start=row["t_start"],
        t_end=row["t_end"],
    )


def row_to_device_record(row: Dict) -> DeviceRecord:
    return DeviceRecord(
        device_id=row["device_id"],
        device_type=DeviceType(row["device_type"]),
        location=_location_from_row(row),
        detection_range=row["detection_range"],
        detection_interval=row["detection_interval"],
    )


#: Dataset name -> plain-row-to-typed-record converter, used by
#: :meth:`repro.storage.query.Query.records`.
ROW_CONVERTERS = {
    "trajectory": row_to_trajectory_record,
    "rssi": row_to_rssi_record,
    "positioning": row_to_positioning_record,
    "probabilistic": row_to_probabilistic_record,
    "proximity": row_to_proximity_record,
    "device": row_to_device_record,
}


def _trajectory_row(record: TrajectoryRecord) -> Tuple:
    location = record.location
    return (record.object_id, record.t, location.building_id, location.floor_id,
            location.partition_id, location.x, location.y)


def _rssi_row(record: RSSIRecord) -> Tuple:
    return (record.object_id, record.device_id, record.rssi, record.t)


def _positioning_row(record: PositioningRecord) -> Tuple:
    location = record.location
    return (record.object_id, record.t, record.method.value, location.building_id,
            location.floor_id, location.partition_id, location.x, location.y)


def _probabilistic_row(record: ProbabilisticPositioningRecord) -> Tuple:
    # The candidate set is one JSON document, so the row stays flat.
    candidates = [
        {"location": location.as_record(), "prob": prob}
        for location, prob in record.candidates
    ]
    return (record.object_id, record.t, json.dumps(candidates))


def _proximity_row(record: ProximityRecord) -> Tuple:
    return (record.object_id, record.device_id, record.t_start, record.t_end)


def _device_row(record: DeviceRecord) -> Tuple:
    location = record.location
    return (record.device_id, record.device_type.value, record.detection_range,
            record.detection_interval, location.building_id, location.floor_id,
            location.partition_id, location.x, location.y)


#: Typed record class -> (its dataset, its row builder).
_ROW_BUILDERS: Dict[type, Tuple[str, Callable[[Any], Tuple]]] = {
    TrajectoryRecord: ("trajectory", _trajectory_row),
    RSSIRecord: ("rssi", _rssi_row),
    PositioningRecord: ("positioning", _positioning_row),
    ProbabilisticPositioningRecord: ("probabilistic", _probabilistic_row),
    ProximityRecord: ("proximity", _proximity_row),
    DeviceRecord: ("device", _device_row),
}


def record_row(record: Any) -> Tuple[str, Tuple]:
    """The dataset a typed record is stored in, and its stored row.

    The row is a tuple in that dataset's ``DatasetSpec.columns`` order,
    holding the values ``record.as_record()`` holds (a probabilistic record's
    candidates as one JSON document).  This is the write path's only
    conversion from a typed record: the shard chain calls it once per record,
    and every repository's ``add_many`` calls it for the typed records it is
    given.
    """
    try:
        dataset, build = _ROW_BUILDERS[type(record)]
    except KeyError:
        raise StorageError(f"cannot store a {type(record).__name__}: not a typed record")
    return dataset, build(record)


class _Repository:
    """Shared plumbing: one dataset of one backend."""

    dataset: str = ""

    def __init__(self, backend: Optional[StorageBackend] = None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()

    def __len__(self) -> int:
        return self.backend.count(self.dataset)

    def _query(self) -> Query:
        """A builder :class:`~repro.storage.query.Query` over this dataset."""
        return Query(self.backend, self.dataset)

    def _insert(self, records: Iterable[Any]) -> int:
        """Store row tuples as they are, and typed records as their rows."""
        rows = [record if type(record) is tuple else self._row(record) for record in records]
        return self.backend.insert_rows(self.dataset, rows)

    def _row(self, record: Any) -> Tuple:
        dataset, row = record_row(record)
        if dataset != self.dataset:
            raise StorageError(
                f"a {type(record).__name__} is stored in {dataset!r}, not {self.dataset!r}"
            )
        return row


class TrajectoryRepository(_Repository):
    """Raw trajectory data ``(o_id, loc, t)``."""

    dataset = "trajectory"

    def add(self, record: TrajectoryRecord) -> None:
        self._insert([record])

    def add_many(self, records: Iterable[Union[TrajectoryRecord, Tuple]]) -> int:
        """Store typed records or row tuples; returns the number stored."""
        return self._insert(records)

    def add_trajectory_set(self, trajectories: TrajectorySet) -> int:
        """Store every sample of a :class:`TrajectorySet`."""
        return self.add_many(trajectories.all_records())

    def object_ids(self) -> List[ObjectId]:
        return self._query().distinct("object_id")

    def records_of(self, object_id: ObjectId) -> List[TrajectoryRecord]:
        return self._query().where(object_id=object_id).records()

    def trajectory_of(self, object_id: ObjectId) -> Trajectory:
        trajectory = Trajectory(object_id)
        for record in self.records_of(object_id):
            trajectory.append(record)
        return trajectory

    def to_trajectory_set(self) -> TrajectorySet:
        trajectories = TrajectorySet()
        for record in self._query().records():
            trajectories.add_record(record)
        return trajectories

    def in_time_range(self, t_start: Timestamp, t_end: Timestamp) -> List[TrajectoryRecord]:
        return self._query().during(t_start, t_end).records()

    def in_partition(self, partition_id: str) -> List[TrajectoryRecord]:
        return self._query().where(partition_id=partition_id).records()


class RSSIRepository(_Repository):
    """Raw RSSI measurement data ``(o_id, d_id, rssi, t)``."""

    dataset = "rssi"

    def add(self, record: RSSIRecord) -> None:
        self._insert([record])

    def add_many(self, records: Iterable[Union[RSSIRecord, Tuple]]) -> int:
        """Store typed records or row tuples; returns the number stored."""
        return self._insert(records)

    def records_of_object(self, object_id: ObjectId) -> List[RSSIRecord]:
        return self._query().where(object_id=object_id).records()

    def records_of_device(self, device_id: str) -> List[RSSIRecord]:
        return self._query().where(device_id=device_id).records()

    def in_time_range(self, t_start: Timestamp, t_end: Timestamp) -> List[RSSIRecord]:
        return self._query().during(t_start, t_end).records()

    def all_records(self) -> List[RSSIRecord]:
        return self._query().records()


class PositioningRepository(_Repository):
    """Deterministic positioning data ``(o_id, loc, t)``."""

    dataset = "positioning"

    def add(self, record: PositioningRecord) -> None:
        self._insert([record])

    def add_many(self, records: Iterable[Union[PositioningRecord, Tuple]]) -> int:
        """Store typed records or row tuples; returns the number stored."""
        return self._insert(records)

    def records_of(self, object_id: ObjectId) -> List[PositioningRecord]:
        return self._query().where(object_id=object_id).records()

    def by_method(self, method: PositioningMethod) -> List[PositioningRecord]:
        return self._query().where(method=method.value).records()

    def in_time_range(self, t_start: Timestamp, t_end: Timestamp) -> List[PositioningRecord]:
        return self._query().during(t_start, t_end).records()

    def all_records(self) -> List[PositioningRecord]:
        return self._query().records()


class ProbabilisticPositioningRepository(_Repository):
    """Probabilistic positioning data ``(o_id, {(loc_i, prob_i)}, t)``.

    The candidate set is stored as one JSON document per row so the dataset
    keeps a flat, backend-independent shape.
    """

    dataset = "probabilistic"

    def add(self, record: ProbabilisticPositioningRecord) -> None:
        self._insert([record])

    def add_many(self, records: Iterable[Union[ProbabilisticPositioningRecord, Tuple]]) -> int:
        """Store typed records or row tuples; returns the number stored."""
        return self._insert(records)

    def records_of(self, object_id: ObjectId) -> List[ProbabilisticPositioningRecord]:
        return self._query().where(object_id=object_id).records()

    def all_records(self) -> List[ProbabilisticPositioningRecord]:
        return self._query().records()

    def best_estimates(self) -> List[PositioningRecord]:
        """Collapse every probabilistic record to its most probable candidate."""
        return [
            PositioningRecord(
                object_id=record.object_id,
                location=record.best,
                t=record.t,
                method=PositioningMethod.FINGERPRINTING,
            )
            for record in self.all_records()
        ]


class ProximityRepository(_Repository):
    """Proximity data ``(o_id, d_id, ts, te)``."""

    dataset = "proximity"

    def add(self, record: ProximityRecord) -> None:
        self._insert([record])

    def add_many(self, records: Iterable[Union[ProximityRecord, Tuple]]) -> int:
        """Store typed records or row tuples; returns the number stored."""
        return self._insert(records)

    def records_of(self, object_id: ObjectId) -> List[ProximityRecord]:
        return self._query().where(object_id=object_id).records()

    def records_of_device(self, device_id: str) -> List[ProximityRecord]:
        return self._query().where(device_id=device_id).records()

    def active_at(self, t: Timestamp) -> List[ProximityRecord]:
        """Detection periods covering time *t*."""
        return self._query().where("t_start", "<=", t).where("t_end", ">=", t).records()

    def all_records(self) -> List[ProximityRecord]:
        return self._query().records()


class DeviceRepository(_Repository):
    """Positioning-device data generated by the Infrastructure Layer."""

    dataset = "device"

    def add(self, record: DeviceRecord) -> None:
        self._insert([record])

    def add_many(self, records: Iterable[Union[DeviceRecord, Tuple]]) -> int:
        """Store typed records or row tuples; returns the number stored."""
        return self._insert(records)

    def by_type(self, device_type: DeviceType) -> List[DeviceRecord]:
        return self._query().where(device_type=device_type.value).records()

    def on_floor(self, floor_id: int) -> List[DeviceRecord]:
        return self._query().where(floor_id=floor_id).records()

    def all_records(self) -> List[DeviceRecord]:
        return self._query().records()


class DataWarehouse:
    """All repositories of one generation run over one shared backend."""

    def __init__(self, backend: Union[StorageBackend, str, None] = None, **options: Any) -> None:
        if isinstance(backend, str):
            backend = backend_by_name(backend, **options)
        elif options:
            raise StorageError("backend options require a backend name, not an instance")
        self.backend: StorageBackend = backend if backend is not None else MemoryBackend()
        self.trajectories = TrajectoryRepository(self.backend)
        self.rssi = RSSIRepository(self.backend)
        self.positioning = PositioningRepository(self.backend)
        self.probabilistic = ProbabilisticPositioningRepository(self.backend)
        self.proximity = ProximityRepository(self.backend)
        self.devices = DeviceRepository(self.backend)

    @classmethod
    def open(
        cls,
        backend: str = "memory",
        path: Optional[str] = None,
        cell_size: Optional[float] = None,
        batch_size: Optional[int] = None,
    ) -> "DataWarehouse":
        """Open a warehouse on the named engine (reopens existing SQLite files)."""
        return cls(backend_by_name(backend, path=path, cell_size=cell_size, batch_size=batch_size))

    @classmethod
    def from_config(cls, storage_config: Any) -> "DataWarehouse":
        """Build a warehouse from a :class:`repro.core.config.StorageConfig`."""
        if storage_config is None or storage_config.backend == "memory":
            return cls()
        return cls.open(
            backend=storage_config.backend,
            path=storage_config.path,
            cell_size=storage_config.grid_cell_size,
            batch_size=storage_config.batch_size,
        )

    def query(self, dataset: str) -> Query:
        """A composable :class:`~repro.storage.query.Query` over *dataset*.

        The entry point of the builder API::

            warehouse.query("trajectory").during(0, 60).on_floor(1).count()
        """
        return Query(self.backend, dataset)

    def attach_metrics(self, registry: Any) -> None:
        """Count backend insert volumes into an :class:`~repro.obs.MetricsRegistry`."""
        self.backend.attach_metrics(registry)

    def flush(self) -> None:
        """Make pending writes durable (no-op on the memory engine)."""
        self.backend.flush()

    def bulk_load(self, tracer: Any = None) -> ContextManager[None]:
        """The backend's bulk-load scope: a span of writes that no read needs
        until it ends (see :meth:`StorageBackend.bulk_load`)."""
        return self.backend.bulk_load(tracer)

    def close(self) -> None:
        """Flush and release the backend's resources."""
        self.backend.close()

    def clear(self) -> None:
        """Remove every stored record from every repository."""
        self.backend.clear_all()

    def __enter__(self) -> "DataWarehouse":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def summary(self) -> Dict[str, int]:
        """Record counts per repository."""
        return {
            "trajectory_records": len(self.trajectories),
            "rssi_records": len(self.rssi),
            "positioning_records": len(self.positioning),
            "probabilistic_records": len(self.probabilistic),
            "proximity_records": len(self.proximity),
            "device_records": len(self.devices),
        }


__all__ = [
    "ROW_CONVERTERS",
    "record_row",
    "row_to_trajectory_record",
    "row_to_rssi_record",
    "row_to_positioning_record",
    "row_to_probabilistic_record",
    "row_to_proximity_record",
    "row_to_device_record",
    "TrajectoryRepository",
    "RSSIRepository",
    "PositioningRepository",
    "ProbabilisticPositioningRepository",
    "ProximityRepository",
    "DeviceRepository",
    "DataWarehouse",
]
