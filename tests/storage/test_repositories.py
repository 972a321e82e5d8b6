"""Unit tests for the typed repositories and the data warehouse."""

import pytest

from repro.core.types import (
    DeviceRecord,
    DeviceType,
    IndoorLocation,
    PositioningMethod,
    PositioningRecord,
    ProbabilisticPositioningRecord,
    ProximityRecord,
    RSSIRecord,
    TrajectoryRecord,
)
from repro.storage.repositories import (
    DataWarehouse,
    DeviceRepository,
    PositioningRepository,
    ProbabilisticPositioningRepository,
    ProximityRepository,
    RSSIRepository,
    TrajectoryRepository,
)


def _loc(x=1.0, y=2.0, floor=0, partition="p1"):
    return IndoorLocation("b", floor, partition_id=partition, x=x, y=y)


class TestTrajectoryRepository:
    def test_add_and_query_by_object(self):
        repo = TrajectoryRepository()
        repo.add_many(
            [
                TrajectoryRecord("a", _loc(), 0.0),
                TrajectoryRecord("a", _loc(x=2.0), 1.0),
                TrajectoryRecord("b", _loc(partition="p2"), 0.5),
            ]
        )
        assert len(repo) == 3
        assert repo.object_ids() == ["a", "b"]
        assert [r.t for r in repo.records_of("a")] == [0.0, 1.0]

    def test_trajectory_reconstruction(self):
        repo = TrajectoryRepository()
        repo.add(TrajectoryRecord("a", _loc(), 1.0))
        repo.add(TrajectoryRecord("a", _loc(x=5.0), 0.0))
        trajectory = repo.trajectory_of("a")
        assert len(trajectory) == 2
        assert trajectory.records[0].t == 0.0  # rebuilt in time order

    def test_time_range_and_partition_queries(self):
        repo = TrajectoryRepository()
        repo.add_many(
            [
                TrajectoryRecord("a", _loc(partition="hall"), t)
                for t in (0.0, 5.0, 10.0, 15.0)
            ]
        )
        assert len(repo.in_time_range(4.0, 11.0)) == 2
        assert len(repo.in_partition("hall")) == 4
        assert repo.in_partition("nowhere") == []

    def test_round_trip_with_trajectory_set(self, office_simulation):
        repo = TrajectoryRepository()
        count = repo.add_trajectory_set(office_simulation.trajectories)
        assert count == office_simulation.trajectories.total_records
        rebuilt = repo.to_trajectory_set()
        assert len(rebuilt) == len(office_simulation.trajectories)
        assert rebuilt.total_records == count


class TestRSSIRepository:
    def test_queries(self):
        repo = RSSIRepository()
        repo.add_many(
            [
                RSSIRecord("a", "ap1", -60.0, 0.0),
                RSSIRecord("a", "ap2", -70.0, 0.0),
                RSSIRecord("b", "ap1", -55.0, 4.0),
            ]
        )
        assert len(repo) == 3
        assert len(repo.records_of_object("a")) == 2
        assert len(repo.records_of_device("ap1")) == 2
        assert len(repo.in_time_range(0.0, 1.0)) == 2
        assert len(repo.all_records()) == 3


class TestPositioningRepositories:
    def test_deterministic_repository(self):
        repo = PositioningRepository()
        repo.add_many(
            [
                PositioningRecord("a", _loc(), 0.0, PositioningMethod.TRILATERATION),
                PositioningRecord("a", _loc(x=3.0), 5.0, PositioningMethod.FINGERPRINTING),
            ]
        )
        assert len(repo.records_of("a")) == 2
        assert len(repo.by_method(PositioningMethod.FINGERPRINTING)) == 1
        assert len(repo.in_time_range(0.0, 1.0)) == 1

    def test_probabilistic_repository_and_best_estimates(self):
        repo = ProbabilisticPositioningRepository()
        record = ProbabilisticPositioningRecord(
            "a", ((_loc(partition="p1"), 0.2), (_loc(partition="p2", x=9.0), 0.8)), 1.0
        )
        repo.add(record)
        assert len(repo) == 1
        assert repo.records_of("a") == [record]
        best = repo.best_estimates()[0]
        assert best.location.partition_id == "p2"
        assert best.method is PositioningMethod.FINGERPRINTING

    def test_proximity_repository(self):
        repo = ProximityRepository()
        repo.add_many(
            [
                ProximityRecord("a", "d1", 0.0, 10.0),
                ProximityRecord("a", "d2", 20.0, 30.0),
                ProximityRecord("b", "d1", 5.0, 8.0),
            ]
        )
        assert len(repo.records_of("a")) == 2
        assert len(repo.records_of_device("d1")) == 2
        active = repo.active_at(6.0)
        assert {(r.object_id, r.device_id) for r in active} == {("a", "d1"), ("b", "d1")}


class TestDeviceRepository:
    def test_queries(self):
        repo = DeviceRepository()
        repo.add_many(
            [
                DeviceRecord("ap1", DeviceType.WIFI, _loc(floor=0), 25.0, 1.0),
                DeviceRecord("ap2", DeviceType.WIFI, _loc(floor=1), 25.0, 1.0),
                DeviceRecord("r1", DeviceType.RFID, _loc(floor=0), 3.0, 0.5),
            ]
        )
        assert len(repo) == 3
        assert len(repo.by_type(DeviceType.WIFI)) == 2
        assert len(repo.on_floor(0)) == 2
        assert repo.all_records()[0].device_id == "ap1"


class TestDataWarehouse:
    def test_summary_counts(self):
        warehouse = DataWarehouse()
        warehouse.trajectories.add(TrajectoryRecord("a", _loc(), 0.0))
        warehouse.rssi.add(RSSIRecord("a", "ap1", -60.0, 0.0))
        warehouse.proximity.add(ProximityRecord("a", "d", 0.0, 1.0))
        summary = warehouse.summary()
        assert summary["trajectory_records"] == 1
        assert summary["rssi_records"] == 1
        assert summary["proximity_records"] == 1
        assert summary["positioning_records"] == 0


def _loaded_warehouse(engine, tmp_path):
    """A warehouse of every dataset, each written out of time order, with
    time ties between objects and devices listed in no sorted order."""
    from repro.storage.backends import MemoryBackend, SQLiteBackend

    backend = MemoryBackend() if engine == "memory" else SQLiteBackend(path=tmp_path / "r.sqlite")
    warehouse = DataWarehouse(backend)
    warehouse.trajectories.add_many(
        TrajectoryRecord(o, _loc(x=t, partition="hall" if t < 3 else "shop"), t)
        for t, o in ((4.0, "b"), (1.0, "a"), (2.0, "b"), (1.0, "b"), (0.0, "a"), (3.0, "a"))
    )
    warehouse.rssi.add_many(
        RSSIRecord(o, d, -60.0 - t, t)
        for t, o, d in ((2.0, "a", "ap2"), (0.0, "b", "ap1"), (2.0, "a", "ap1"), (1.0, "a", "ap1"))
    )
    tri, fp = PositioningMethod.TRILATERATION, PositioningMethod.FINGERPRINTING
    warehouse.positioning.add_many(
        PositioningRecord(o, _loc(x=t), t, m)
        for t, o, m in ((5.0, "a", tri), (1.0, "b", fp), (1.0, "a", tri), (0.0, "a", fp))
    )
    warehouse.probabilistic.add_many(
        ProbabilisticPositioningRecord(o, ((_loc(x=t), 1.0),), t)
        for t, o in ((3.0, "a"), (1.0, "b"), (2.0, "a"))
    )
    warehouse.proximity.add_many(
        ProximityRecord(o, d, start, end)
        for o, d, start, end in (("a", "d2", 6.0, 9.0), ("b", "d1", 0.0, 8.0),
                                 ("a", "d1", 2.0, 7.0), ("b", "d2", 2.0, 3.0))
    )
    warehouse.devices.add_many(
        DeviceRecord(d, kind, _loc(floor=f), 5.0, 1.0)
        for d, kind, f in (("r2", DeviceType.RFID, 1), ("ap1", DeviceType.WIFI, 0),
                           ("r1", DeviceType.RFID, 0))
    )
    return warehouse


#: Repository read -> the builder query it means, as ``(read, query)`` over a
#: warehouse ``w``.
REPOSITORY_READS = {
    "trajectory.object_ids": (
        lambda w: w.trajectories.object_ids(),
        lambda w: w.query("trajectory").distinct("object_id"),
    ),
    "trajectory.records_of": (
        lambda w: w.trajectories.records_of("b"),
        lambda w: w.query("trajectory").where(object_id="b").records(),
    ),
    "trajectory.to_trajectory_set": (
        # Per object, in order of each object's first sample in time.
        lambda w: [r for track in w.trajectories.to_trajectory_set() for r in track.records],
        lambda w: [
            r for o in ("a", "b") for r in w.query("trajectory").where(object_id=o).records()
        ],
    ),
    "trajectory.in_time_range": (
        lambda w: w.trajectories.in_time_range(1.0, 3.0),
        lambda w: w.query("trajectory").during(1.0, 3.0).records(),
    ),
    "trajectory.in_partition": (
        lambda w: w.trajectories.in_partition("hall"),
        lambda w: w.query("trajectory").where(partition_id="hall").records(),
    ),
    "rssi.records_of_object": (
        lambda w: w.rssi.records_of_object("a"),
        lambda w: w.query("rssi").where(object_id="a").records(),
    ),
    "rssi.records_of_device": (
        lambda w: w.rssi.records_of_device("ap1"),
        lambda w: w.query("rssi").where(device_id="ap1").records(),
    ),
    "rssi.in_time_range": (
        lambda w: w.rssi.in_time_range(1.0, 2.0),
        lambda w: w.query("rssi").during(1.0, 2.0).records(),
    ),
    "rssi.all_records": (
        lambda w: w.rssi.all_records(),
        lambda w: w.query("rssi").records(),
    ),
    "positioning.records_of": (
        lambda w: w.positioning.records_of("a"),
        lambda w: w.query("positioning").where(object_id="a").records(),
    ),
    "positioning.by_method": (
        lambda w: w.positioning.by_method(PositioningMethod.TRILATERATION),
        lambda w: w.query("positioning").where(method="trilateration").records(),
    ),
    "positioning.in_time_range": (
        lambda w: w.positioning.in_time_range(0.0, 1.0),
        lambda w: w.query("positioning").during(0.0, 1.0).records(),
    ),
    "positioning.all_records": (
        lambda w: w.positioning.all_records(),
        lambda w: w.query("positioning").records(),
    ),
    "probabilistic.records_of": (
        lambda w: w.probabilistic.records_of("a"),
        lambda w: w.query("probabilistic").where(object_id="a").records(),
    ),
    "probabilistic.all_records": (
        lambda w: w.probabilistic.all_records(),
        lambda w: w.query("probabilistic").records(),
    ),
    "proximity.records_of": (
        lambda w: w.proximity.records_of("a"),
        lambda w: w.query("proximity").where(object_id="a").records(),
    ),
    "proximity.records_of_device": (
        lambda w: w.proximity.records_of_device("d1"),
        lambda w: w.query("proximity").where(device_id="d1").records(),
    ),
    "proximity.active_at": (
        lambda w: w.proximity.active_at(2.5),
        lambda w: w.query("proximity").where("t_start", "<=", 2.5).where("t_end", ">=", 2.5)
        .records(),
    ),
    "proximity.all_records": (
        lambda w: w.proximity.all_records(),
        lambda w: w.query("proximity").records(),
    ),
    "device.by_type": (
        lambda w: w.devices.by_type(DeviceType.RFID),
        lambda w: w.query("device").where(device_type="rfid").records(),
    ),
    "device.on_floor": (
        lambda w: w.devices.on_floor(0),
        lambda w: w.query("device").where(floor_id=0).records(),
    ),
    "device.all_records": (
        lambda w: w.devices.all_records(),
        lambda w: w.query("device").records(),
    ),
}


class TestRepositoryReadsAreBuilderQueries:
    @pytest.mark.parametrize("name", sorted(REPOSITORY_READS))
    @pytest.mark.parametrize("engine", ("memory", "sqlite"))
    def test_read_equals_its_builder_query(self, engine, name, tmp_path):
        warehouse = _loaded_warehouse(engine, tmp_path)
        read, query = REPOSITORY_READS[name]
        assert read(warehouse) == query(warehouse)
        assert read(warehouse)  # the workload gives every read rows to return
        warehouse.close()

    @pytest.mark.parametrize("name", sorted(REPOSITORY_READS))
    def test_read_is_identical_on_both_engines(self, name, tmp_path):
        read, _ = REPOSITORY_READS[name]
        answers = []
        for engine in ("memory", "sqlite"):
            warehouse = _loaded_warehouse(engine, tmp_path)
            answers.append(read(warehouse))
            warehouse.close()
        assert answers[0] == answers[1]

    @pytest.mark.parametrize("engine", ("memory", "sqlite"))
    def test_all_records_are_in_time_order_with_ties_in_insertion_order(self, engine, tmp_path):
        warehouse = _loaded_warehouse(engine, tmp_path)
        assert [(r.t, r.object_id, r.device_id) for r in warehouse.rssi.all_records()] == [
            (0.0, "b", "ap1"), (1.0, "a", "ap1"), (2.0, "a", "ap2"), (2.0, "a", "ap1"),
        ]
        assert [(r.t, r.object_id) for r in warehouse.positioning.all_records()] == [
            (0.0, "a"), (1.0, "b"), (1.0, "a"), (5.0, "a"),
        ]
        assert [r.t for r in warehouse.probabilistic.all_records()] == [1.0, 2.0, 3.0]
        assert [(r.t_start, r.device_id) for r in warehouse.proximity.all_records()] == [
            (0.0, "d1"), (2.0, "d1"), (2.0, "d2"), (6.0, "d2"),
        ]
        assert [(r.t, r.object_id) for r in warehouse.trajectories.in_partition("hall")] == [
            (0.0, "a"), (1.0, "a"), (1.0, "b"), (2.0, "b"),
        ]
        assert [r.object_id for r in warehouse.proximity.active_at(2.5)] == ["b", "a", "b"]
        # The device dataset has no time column: insertion order.
        assert [r.device_id for r in warehouse.devices.all_records()] == ["r2", "ap1", "r1"]
        assert [r.device_id for r in warehouse.devices.by_type(DeviceType.RFID)] == ["r2", "r1"]
        warehouse.close()
