"""The backend contract: every engine answers every query identically.

The same Data Stream API / repository suite runs parametrized over the
in-memory engine and SQLite (on-disk), plus SQLite-only tests for
persistence across a simulated process restart, WAL journalling, write
batching and index-backed query plans.
"""

import pytest

from repro.core.errors import StorageError
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
from repro.geometry.point import Point
from repro.geometry.polygon import BoundingBox
from repro.storage.backends import BACKENDS, MemoryBackend, SQLiteBackend, backend_by_name
from repro.storage.backends.base import DATASETS
from repro.storage.query import Query
from repro.storage.repositories import DataWarehouse, record_row
from repro.storage.stream import DataStreamAPI

BACKEND_PARAMS = ("memory", "sqlite-file", "sqlite-memory")


def _loc(x, y, floor=0, partition="hall"):
    return IndoorLocation("b", floor, partition_id=partition, x=x, y=y)


def _make_backend(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite-file":
        return SQLiteBackend(path=tmp_path / "warehouse.sqlite")
    return SQLiteBackend()


def _populate(warehouse):
    """Two objects: 'a' walks right along y=5, 'b' stays at (50, 5) on floor 1."""
    warehouse.trajectories.add_many(
        [
            record
            for t in range(11)
            for record in (
                TrajectoryRecord("a", _loc(float(t * 2), 5.0), float(t)),
                TrajectoryRecord("b", _loc(50.0, 5.0, floor=1, partition="room9"), float(t)),
            )
        ]
    )
    warehouse.rssi.add_many(
        [
            RSSIRecord("a", "ap1", -60.0, 1.0),
            RSSIRecord("a", "ap1", -64.0, 2.0),
            RSSIRecord("a", "ap2", -70.0, 2.0),
        ]
    )
    warehouse.proximity.add_many(
        [
            ProximityRecord("a", "rfid1", 0.0, 3.0),
            ProximityRecord("b", "rfid1", 1.0, 2.0),
            ProximityRecord("a", "rfid2", 5.0, 6.0),
        ]
    )
    warehouse.positioning.add_many(
        [
            PositioningRecord("a", _loc(1.0, 5.5), 0.0, PositioningMethod.TRILATERATION),
            PositioningRecord("a", _loc(3.0, 5.5), 5.0, PositioningMethod.FINGERPRINTING),
        ]
    )
    warehouse.probabilistic.add(
        ProbabilisticPositioningRecord(
            "a", ((_loc(1.0, 1.0), 0.3), (_loc(2.0, 2.0, partition="p2"), 0.7)), 1.0
        )
    )
    warehouse.devices.add_many(
        [
            DeviceRecord("ap1", DeviceType.WIFI, _loc(0.0, 0.0), 25.0, 1.0),
            DeviceRecord("rfid1", DeviceType.RFID, _loc(9.0, 9.0, floor=1), 3.0, 0.5),
        ]
    )
    return warehouse


@pytest.fixture(params=BACKEND_PARAMS)
def warehouse(request, tmp_path):
    warehouse = _populate(DataWarehouse(_make_backend(request.param, tmp_path)))
    yield warehouse
    warehouse.close()


@pytest.fixture()
def api(warehouse):
    return DataStreamAPI(warehouse)


class TestDataStreamQueriesOnEveryBackend:
    def test_trajectory_window(self, api):
        assert len(api.trajectory_window(2.0, 4.0)) == 6

    def test_trajectory_window_validates_bounds(self, api):
        with pytest.raises(StorageError):
            api.trajectory_window(5.0, 1.0)

    def test_snapshot(self, api):
        snapshot = api.snapshot(5.4, tolerance=1.0)
        assert set(snapshot) == {"a", "b"}
        assert snapshot["a"].point()[0] == pytest.approx(10.0)
        assert api.snapshot(500.0, tolerance=1.0) == {}

    def test_sliding_windows(self, api):
        windows = list(api.sliding_windows(window=5.0))
        assert len(windows) >= 2
        assert sum(len(records) for _, _, records in windows) >= 22
        overlapping = list(api.sliding_windows(window=5.0, step=2.0))
        assert len(overlapping) > len(windows)

    def test_objects_in_region(self, api):
        assert api.objects_in_region(0, BoundingBox(0, 0, 6, 10), 0.0, 10.0) == ["a"]
        assert api.objects_in_region(1, BoundingBox(0, 0, 100, 100), 0.0, 10.0) == ["b"]
        assert api.objects_in_region(0, BoundingBox(200, 200, 300, 300), 0.0, 10.0) == []

    def test_objects_in_partition(self, api):
        assert api.objects_in_partition("hall", 0.0, 10.0) == ["a"]
        assert api.objects_in_partition("room9", 0.0, 10.0) == ["b"]
        assert api.objects_in_partition("hall", 100.0, 200.0) == []

    def test_knn(self, api):
        nearest = api.knn_at(0, Point(0.0, 5.0), t=5.0, k=3)
        assert nearest[0][0] == "a"
        assert len(nearest) == 1  # object b is on another floor
        assert api.knn_at(0, Point(0.0, 5.0), t=5.0, k=0) == []

    def test_aggregations(self, api):
        assert api.partition_visit_counts() == {"hall": 1, "room9": 1}
        assert api.device_detection_counts() == {"rfid1": 2, "rfid2": 1}
        statistics = api.rssi_statistics_by_device()
        assert statistics["ap1"]["count"] == 2.0
        assert statistics["ap1"]["mean"] == pytest.approx(-62.0)
        assert statistics["ap2"]["min"] == -70.0


class TestRepositoriesOnEveryBackend:
    def test_summary(self, warehouse):
        assert warehouse.summary() == {
            "trajectory_records": 22,
            "rssi_records": 3,
            "positioning_records": 2,
            "probabilistic_records": 1,
            "proximity_records": 3,
            "device_records": 2,
        }

    def test_trajectory_queries(self, warehouse):
        assert warehouse.trajectories.object_ids() == ["a", "b"]
        records = warehouse.trajectories.records_of("a")
        assert [record.t for record in records] == [float(t) for t in range(11)]
        assert len(warehouse.trajectories.in_time_range(4.0, 6.0)) == 6
        assert len(warehouse.trajectories.in_partition("room9")) == 11
        rebuilt = warehouse.trajectories.to_trajectory_set()
        assert rebuilt.total_records == 22

    def test_rssi_queries(self, warehouse):
        assert len(warehouse.rssi.records_of_object("a")) == 3
        assert len(warehouse.rssi.records_of_device("ap1")) == 2
        assert len(warehouse.rssi.in_time_range(1.5, 2.5)) == 2

    def test_positioning_queries(self, warehouse):
        assert len(warehouse.positioning.records_of("a")) == 2
        fingerprinting = warehouse.positioning.by_method(PositioningMethod.FINGERPRINTING)
        assert [record.t for record in fingerprinting] == [5.0]

    def test_probabilistic_round_trip(self, warehouse):
        records = warehouse.probabilistic.all_records()
        assert len(records) == 1
        assert records[0].best.partition_id == "p2"
        assert records[0].best_probability == pytest.approx(0.7)
        best = warehouse.probabilistic.best_estimates()[0]
        assert best.method is PositioningMethod.FINGERPRINTING

    def test_proximity_queries(self, warehouse):
        assert len(warehouse.proximity.records_of("a")) == 2
        active = warehouse.proximity.active_at(1.5)
        assert {(r.object_id, r.device_id) for r in active} == {("a", "rfid1"), ("b", "rfid1")}

    def test_device_queries(self, warehouse):
        assert len(warehouse.devices.by_type(DeviceType.WIFI)) == 1
        assert len(warehouse.devices.on_floor(1)) == 1
        assert warehouse.devices.all_records()[0].device_id == "ap1"

    def test_clear(self, warehouse):
        warehouse.clear()
        assert sum(warehouse.summary().values()) == 0


class TestBackendEquivalence:
    def test_backends_agree_on_every_query(self, tmp_path):
        memory = _populate(DataWarehouse(MemoryBackend()))
        sqlite = _populate(DataWarehouse(SQLiteBackend(path=tmp_path / "eq.sqlite")))
        api_a, api_b = DataStreamAPI(memory), DataStreamAPI(sqlite)
        assert api_a.trajectory_window(0.0, 10.0) == api_b.trajectory_window(0.0, 10.0)
        assert api_a.snapshot(5.0) == api_b.snapshot(5.0)
        assert api_a.knn_at(0, Point(0.0, 5.0), 5.0, k=5) == api_b.knn_at(
            0, Point(0.0, 5.0), 5.0, k=5
        )
        assert api_a.partition_visit_counts() == api_b.partition_visit_counts()
        assert api_a.rssi_statistics_by_device() == api_b.rssi_statistics_by_device()
        assert memory.trajectories.to_trajectory_set().all_records() == (
            sqlite.trajectories.to_trajectory_set().all_records()
        )
        sqlite.close()


#: One typed record of every dataset.
TYPED_RECORDS = (
    TrajectoryRecord("a", _loc(1.5, 2.0), 3.0),
    TrajectoryRecord("a", IndoorLocation("b", 2, partition_id="room1"), 4.0),
    RSSIRecord("a", "ap1", -61.5, 3.0),
    PositioningRecord("a", _loc(1.0, 2.5), 3.0, PositioningMethod.FINGERPRINTING),
    ProbabilisticPositioningRecord(
        "a", ((_loc(1.0, 2.0, partition="p1"), 0.25), (_loc(3.0, 4.0, partition="p2"), 0.75)), 3.0
    ),
    ProximityRecord("a", "rfid1", 1.0, 2.5),
    DeviceRecord("ap1", DeviceType.WIFI, _loc(0.0, 0.0), 30.0, 1.0),
)


class TestRowShapes:
    @pytest.mark.parametrize("record", TYPED_RECORDS, ids=lambda r: type(r).__name__)
    def test_record_row_holds_the_as_record_values_in_column_order(self, record):
        dataset, row = record_row(record)
        expected = record.as_record()
        if dataset == "probabilistic":
            import json

            expected["candidates"] = json.dumps(expected["candidates"])
        assert dict(zip(DATASETS[dataset].columns, row)) == {
            column: expected[column] for column in DATASETS[dataset].columns
        }

    @pytest.mark.parametrize("kind", BACKEND_PARAMS)
    def test_a_row_dict_is_rejected(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path)
        _, row = record_row(TYPED_RECORDS[0])
        with pytest.raises(StorageError, match="tuple"):
            backend.insert_rows("trajectory", [row, dict(zip(DATASETS["trajectory"].columns, row))])
        assert backend.count("trajectory") == 0
        backend.close()

    @pytest.mark.parametrize("kind", BACKEND_PARAMS)
    def test_a_row_tuple_of_the_wrong_width_is_rejected(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path)
        _, row = record_row(TYPED_RECORDS[0])
        with pytest.raises(StorageError):
            backend.insert_rows("trajectory", [row, row[:-1]])
        assert backend.count("trajectory") == 0
        backend.close()

    @pytest.mark.parametrize("kind", ("sqlite-file", "sqlite-memory"))
    def test_a_bad_value_in_a_tuple_raises_storage_error(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path)
        _, good = record_row(TYPED_RECORDS[0])
        bad = good[:3] + ("abc",) + good[4:]  # floor_id is an integer column
        with pytest.raises(StorageError, match="floor_id"):
            backend.insert_rows("trajectory", [good, bad])
        assert backend.count("trajectory") == 0  # nothing of the call was queued
        backend.close()

    def test_a_repository_refuses_a_record_of_another_dataset(self):
        warehouse = DataWarehouse()
        # An RSSI row has as many columns as a proximity row.
        with pytest.raises(StorageError):
            warehouse.proximity.add_many([TYPED_RECORDS[2]])
        assert warehouse.summary()["proximity_records"] == 0

    @pytest.mark.parametrize("kind", BACKEND_PARAMS)
    def test_add_many_takes_typed_records_and_row_tuples_alike(self, kind, tmp_path):
        typed = DataWarehouse(_make_backend(kind, tmp_path / "typed"))
        rows = DataWarehouse(_make_backend(kind, tmp_path / "rows"))
        repositories = {"trajectory": "trajectories", "device": "devices"}
        for record in TYPED_RECORDS:
            dataset, row = record_row(record)
            getattr(typed, repositories.get(dataset, dataset)).add_many([record])
            getattr(rows, repositories.get(dataset, dataset)).add_many([row])
        for dataset in DATASETS:
            assert typed.query(dataset).all() == rows.query(dataset).all()
        typed.close()
        rows.close()


def _objects_in_box(backend):
    """Objects on floor 0 inside the box (8, 8)-(12, 12) during [0, 5]: on
    SQLite a grid-bucket read, so stale buckets would drop the row."""
    query = Query(backend, "trajectory").on_floor(0).within((8.0, 8.0, 12.0, 12.0))
    assert "grid-bucket" in " ".join(query.explain("distinct", column="object_id")["pushed"])
    return query.during(0.0, 5.0).distinct("object_id")


class TestSQLitePersistence:
    def test_survives_process_restart(self, tmp_path):
        path = tmp_path / "persisted.sqlite"
        _populate(DataWarehouse(SQLiteBackend(path=path))).close()

        reopened = DataWarehouse.open("sqlite", path=str(path))
        api = DataStreamAPI(reopened)
        assert reopened.summary()["trajectory_records"] == 22
        assert api.snapshot(5.0)["a"].point()[0] == pytest.approx(10.0)
        assert len(api.trajectory_window(0.0, 4.0)) == 10
        assert api.knn_at(0, Point(0.0, 5.0), 5.0, k=1) == [("a", pytest.approx(10.0))]
        reopened.close()

    def test_cell_size_persisted_across_reopen(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        backend = SQLiteBackend(path=path, cell_size=2.0)
        backend.insert_rows(
            "trajectory", [record_row(TrajectoryRecord("o1", _loc(10.0, 10.0), 0.0))[1]]
        )
        backend.close()
        # Reopening without naming a cell size must keep the stored buckets
        # consistent — the grid prefilter would otherwise drop matching rows.
        reopened = SQLiteBackend(path=path)
        assert reopened.cell_size == 2.0
        assert _objects_in_box(reopened) == ["o1"]
        reopened.close()

    def test_explicit_cell_size_change_rebuckets(self, tmp_path):
        path = tmp_path / "rebucket.sqlite"
        backend = SQLiteBackend(path=path, cell_size=2.0)
        backend.insert_rows(
            "trajectory", [record_row(TrajectoryRecord("o1", _loc(10.0, 10.0), 0.0))[1]]
        )
        backend.close()
        resized = SQLiteBackend(path=path, cell_size=5.0)
        assert resized.cell_size == 5.0
        assert _objects_in_box(resized) == ["o1"]
        resized.close()

    def test_opening_non_database_file_raises_storage_error(self, tmp_path):
        path = tmp_path / "notadb.bin"
        path.write_text("garbage")
        with pytest.raises(StorageError):
            SQLiteBackend(path=path)

    def test_toolkit_facade_durable_without_explicit_close(self, tmp_path):
        from repro.core.toolkit import Vita

        path = tmp_path / "facade.sqlite"
        vita = Vita(seed=4, backend="sqlite", db_path=path)
        vita.use_synthetic_building("office", floors=1)
        vita.deploy_devices("wifi", count_per_floor=3)
        vita.generate_objects(count=2, duration=20)
        stored = vita.summary()["trajectory_records"]
        assert stored > 0
        del vita  # simulate the process exiting without close()/flush()

        reopened = DataWarehouse.open("sqlite", path=str(path))
        assert reopened.summary()["trajectory_records"] == stored
        reopened.close()

    def test_wal_journal_mode_on_file_databases(self, tmp_path):
        backend = SQLiteBackend(path=tmp_path / "wal.sqlite")
        assert backend.describe()["journal_mode"] == "wal"
        backend.close()

    def test_batched_writes_drain_on_read(self, tmp_path):
        backend = SQLiteBackend(path=tmp_path / "batch.sqlite", batch_size=5)
        rows = [
            record_row(TrajectoryRecord("o", _loc(float(i), 0.0), float(i)))[1]
            for i in range(12)
        ]
        backend.insert_rows("trajectory", rows)
        # 10 rows were drained by the batch size; 2 are still buffered but
        # must be visible to reads (read-your-writes).
        assert backend.count("trajectory") == 12
        backend.close()

    def test_spatial_query_uses_grid_index(self, tmp_path):
        backend = SQLiteBackend(path=tmp_path / "plan.sqlite")
        backend.insert_rows(
            "trajectory", [record_row(TrajectoryRecord("o", _loc(1.0, 1.0), 0.0))[1]]
        )
        backend.flush()
        plan = backend._connection.execute(
            "EXPLAIN QUERY PLAN SELECT object_id FROM trajectory "
            "WHERE floor_id = 0 AND cell_x BETWEEN 0 AND 2 AND cell_y BETWEEN 0 AND 2"
        ).fetchall()
        assert any("idx_trajectory_grid" in row[-1] for row in plan)
        backend.close()

    def test_time_range_uses_index(self, tmp_path):
        backend = SQLiteBackend(path=tmp_path / "plan2.sqlite")
        backend.insert_rows(
            "trajectory", [record_row(TrajectoryRecord("o", _loc(1.0, 1.0), 0.0))[1]]
        )
        backend.flush()
        plan = backend._connection.execute(
            "EXPLAIN QUERY PLAN SELECT object_id FROM trajectory WHERE t BETWEEN 0 AND 1"
        ).fetchall()
        assert any("idx_trajectory" in row[-1] for row in plan)
        backend.close()

    def test_floor_window_limit_reads_an_index_in_time_order(self, tmp_path):
        warehouse = DataWarehouse(SQLiteBackend(path=tmp_path / "plan3.sqlite"))
        warehouse.backend.insert_rows("trajectory", [
            record_row(TrajectoryRecord(f"o{i % 3}", _loc(1.0, 1.0, floor=i % 2), float(i)))[1]
            for i in range(60)
        ])
        warehouse.flush()
        query = warehouse.query("trajectory").during(10.0, 40.0).on_floor(1).limit(5)
        sql = next(step for step in query.explain()["pushed"] if step.startswith("sql: "))[5:]
        assert "ORDER BY t ASC, rowid LIMIT 5" in sql
        plan = warehouse.backend._connection.execute(
            "EXPLAIN QUERY PLAN " + sql, (1, 10.0, 40.0)
        ).fetchall()
        assert any("idx_trajectory_floor_time" in row[-1] for row in plan)
        assert not any("TEMP B-TREE" in row[-1] for row in plan)
        assert [row["t"] for row in query.all()] == [11.0, 13.0, 15.0, 17.0, 19.0]
        warehouse.close()

    def test_no_index_duplicates_the_unique_key(self, tmp_path):
        backend = SQLiteBackend(path=tmp_path / "indexes.sqlite")
        columns = {}
        for (name,) in backend._connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND name NOT LIKE 'sqlite_%'"
        ).fetchall():
            columns[name] = tuple(
                row[2] for row in backend._connection.execute(f"PRAGMA index_info({name})")
            )
        assert "idx_trajectory_object_time" not in columns
        assert "idx_probabilistic_object_time" not in columns
        assert columns["idx_positioning_object_time"] == ("object_id", "t")
        assert columns["uq_positioning"] == ("object_id", "t", "method")
        assert columns["idx_trajectory_floor_time"] == ("floor_id", "t")
        by_columns = {}
        for name, indexed in columns.items():
            by_columns.setdefault((name.split("_")[1], indexed), []).append(name)
        assert all(len(names) == 1 for names in by_columns.values()), by_columns
        backend.close()

    def test_older_file_gains_the_new_index_and_keeps_its_own(self, tmp_path):
        path = tmp_path / "older.sqlite"
        backend = SQLiteBackend(path=path)
        backend._connection.executescript(
            "DROP INDEX idx_trajectory_floor_time;"
            "CREATE INDEX idx_trajectory_floor_id ON trajectory (floor_id);"
            "CREATE INDEX idx_trajectory_object_time ON trajectory (object_id, t);"
        )
        backend.close()
        reopened = SQLiteBackend(path=path)
        names = {
            name for (name,) in reopened._connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        assert {"idx_trajectory_floor_time", "idx_trajectory_floor_id",
                "idx_trajectory_object_time"} <= names
        reopened.close()


class TestBackendFactory:
    def test_registry(self):
        assert set(BACKENDS) == {"memory", "sqlite"}

    def test_by_name(self, tmp_path):
        assert isinstance(backend_by_name("memory"), MemoryBackend)
        backend = backend_by_name("SQLite", path=tmp_path / "f.sqlite", batch_size=10)
        assert isinstance(backend, SQLiteBackend)
        assert backend.batch_size == 10
        backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError):
            backend_by_name("postgres")

    def test_memory_backend_rejects_sqlite_options(self):
        with pytest.raises(StorageError):
            backend_by_name("memory", path="somewhere.sqlite")
        with pytest.raises(StorageError):
            backend_by_name("memory", cell_size=2.0)
        with pytest.raises(StorageError):
            backend_by_name("memory", batch_size=10)

    def test_sqlite_validates_options(self):
        with pytest.raises(StorageError):
            SQLiteBackend(cell_size=0.0)
        with pytest.raises(StorageError):
            SQLiteBackend(batch_size=0)



class TestOneReadPath:
    """Every read goes through ``execute_plan``; engines add no other read."""

    CONTRACT = {
        "insert_rows", "count", "execute_plan", "time_bounds", "clear", "clear_all",
        "flush", "close", "describe", "attach_metrics",
    }

    @staticmethod
    def _public_methods(cls):
        return {
            name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    def test_the_backend_contract_is_exactly_the_one_read_path(self):
        from repro.storage.backends.base import StorageBackend

        assert self._public_methods(StorageBackend) == self.CONTRACT

    def test_engines_add_no_public_read_method(self):
        assert self._public_methods(SQLiteBackend) == self.CONTRACT
        assert self._public_methods(MemoryBackend) == self.CONTRACT | {"table_handle"}

    def test_the_memory_engine_stores_the_row_tuples_it_is_given(self):
        backend = MemoryBackend()
        _, row = record_row(TYPED_RECORDS[0])
        backend.insert_rows("trajectory", [row])
        [stored] = backend.table_handle("trajectory").all_rows()
        assert stored is row
        assert list(Query(backend, "trajectory").tuples()) == [row]


class TestReadsHandOutFreshRows:
    """A caller that edits the rows it read changes nothing stored."""

    @pytest.mark.parametrize("kind", BACKEND_PARAMS)
    def test_mutating_returned_rows_leaves_the_stored_rows_unchanged(self, kind, tmp_path):
        warehouse = DataWarehouse(_make_backend(kind, tmp_path))
        warehouse.trajectories.add_many(
            [TrajectoryRecord("o1", _loc(1.0, 2.0), 0.0),
             TrajectoryRecord("o1", _loc(3.0, 4.0), 1.0)]
        )
        query = warehouse.query("trajectory")
        before = query.all()
        records_before = warehouse.trajectories.records_of("o1")

        handed_out = [*query.all(), *query.iter(), query.first(), *query.snapshot(0.0).values()]
        for row in handed_out:
            row["object_id"] = "zz"
            row["x"] = 999.0

        assert query.all() == before
        assert query.count() == 2
        assert query.where(object_id="o1").count() == 2
        assert query.where(object_id="zz").count() == 0
        assert warehouse.trajectories.records_of("o1") == records_before
        assert set(query.snapshot(0.0)) == {"o1"}
        warehouse.close()
