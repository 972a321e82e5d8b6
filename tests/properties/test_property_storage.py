"""Property-based tests for storage: index consistency and export round-trips."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import StorageError
from repro.core.types import IndoorLocation, RSSIRecord, TrajectoryRecord
from repro.storage.backends import MemoryBackend, SQLiteBackend
from repro.storage.backends.base import DATASETS
from repro.storage.export import (
    export_rssi_csv,
    export_trajectories_csv,
    import_rssi_csv,
    import_trajectories_csv,
)
from repro.storage.query import Query
from repro.storage.repositories import record_row
from repro.storage.tables import Table, TableSchema

object_ids = st.sampled_from(["a", "b", "c", "d"])
timestamps = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@st.composite
def rssi_records(draw):
    return RSSIRecord(
        object_id=draw(object_ids),
        device_id=draw(st.sampled_from(["ap1", "ap2", "ble1"])),
        rssi=draw(st.floats(min_value=-100.0, max_value=-20.0, allow_nan=False)),
        t=draw(timestamps),
    )


@st.composite
def trajectory_records(draw):
    return TrajectoryRecord(
        object_id=draw(object_ids),
        location=IndoorLocation(
            "b",
            draw(st.integers(min_value=0, max_value=3)),
            partition_id=draw(st.sampled_from(["hall", "room1", None])),
            x=draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
            y=draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        ),
        t=draw(timestamps),
    )


class TestTableProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(rssi_records(), max_size=60))
    def test_hash_index_matches_full_scan(self, records):
        table = Table(
            TableSchema(
                name="rssi",
                columns=("object_id", "device_id", "rssi", "t"),
                hash_indexes=("object_id",),
                ordered_index="t",
            )
        )
        table.insert_many(record_row(record)[1] for record in records)
        for object_id in ("a", "b", "c", "d"):
            indexed = table.lookup("object_id", object_id)
            scanned = [row for row in table.all_rows() if row[0] == object_id]
            assert indexed == scanned

    @settings(max_examples=50, deadline=None)
    @given(st.lists(rssi_records(), max_size=60), timestamps, timestamps)
    def test_range_query_matches_full_scan(self, records, bound_a, bound_b):
        low, high = sorted((bound_a, bound_b))
        table = Table(
            TableSchema(
                name="rssi",
                columns=("object_id", "device_id", "rssi", "t"),
                ordered_index="t",
            )
        )
        table.insert_many(record_row(record)[1] for record in records)
        by_index = table.range(low, high)
        by_scan = [row for row in table.all_rows() if low <= row[3] <= high]
        # A stable sort: time ties keep insertion order, as the index does.
        assert by_index == sorted(by_scan, key=lambda row: row[3])


def _trajectory_table() -> Table:
    spec = DATASETS["trajectory"]
    return Table(
        TableSchema(
            name=spec.name,
            columns=spec.columns,
            hash_indexes=spec.hash_indexes,
            ordered_index=spec.time_column,
            unique_key=spec.unique_key,
        )
    )


#: Hash-indexed columns, and one without an index.
_COLUMNS = ("object_id", "partition_id", "floor_id", "building_id")
#: Column -> its position in a trajectory row tuple.
_AT = {column: index for index, column in enumerate(DATASETS["trajectory"].columns)}


def _table_state(table: Table, low: float, high: float) -> dict:
    """Everything the table answers: rows, every index lookup, range, counts."""
    rows = table.all_rows()
    return {
        "rows": rows,
        "lookups": {
            (column, value): table.lookup(column, value)
            for column in _COLUMNS
            for value in {row[_AT[column]] for row in rows}
        },
        "range": table.range(low, high),
        "ordered": list(table.iter_ordered()),
        "counts": {column: table.count_by(column) for column in _COLUMNS},
    }


def _scanned_state(rows: list, low: float, high: float) -> dict:
    """What :func:`_table_state` must read, computed by full scans of *rows*."""
    t = _AT["t"]
    in_time_order = [row for _, row in sorted(enumerate(rows), key=lambda p: (p[1][t], p[0]))]
    counts = {column: {} for column in _COLUMNS}
    for row in rows:
        for column in _COLUMNS:
            value = row[_AT[column]]
            counts[column][value] = counts[column].get(value, 0) + 1
    return {
        "rows": rows,
        "lookups": {
            (column, value): [row for row in rows if row[_AT[column]] == value]
            for column in _COLUMNS
            for value in {row[_AT[column]] for row in rows}
        },
        "range": [row for row in in_time_order if low <= row[t] <= high],
        "ordered": in_time_order,
        "counts": counts,
    }


@st.composite
def row_batches(draw):
    """Trajectory row tuples with distinct unique keys, cut into batches."""
    rows = {}
    for record in draw(st.lists(trajectory_records(), max_size=40)):
        _, row = record_row(record)
        rows.setdefault((row[0], row[1]), row)
    rows = list(rows.values())
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    bounds = [0, *cuts, len(rows)]
    return [rows[start:end] for start, end in zip(bounds, bounds[1:])]


class TestBatchInsertProperties:
    @settings(max_examples=60, deadline=None)
    @given(row_batches(), timestamps, timestamps)
    def test_batches_equal_rows_inserted_one_at_a_time(self, batches, bound_a, bound_b):
        low, high = sorted((bound_a, bound_b))
        batched, single = _trajectory_table(), _trajectory_table()
        for batch in batches:
            assert batched.insert_many(batch) == len(batch)
            for row in batch:
                single.insert(row)
        state = _table_state(batched, low, high)
        assert state == _table_state(single, low, high)
        rows = [row for batch in batches for row in batch]
        assert state == _scanned_state(rows, low, high)

    @settings(max_examples=60, deadline=None)
    @given(row_batches(), st.data())
    def test_a_duplicate_key_rejects_the_whole_batch(self, batches, data):
        rows = [row for batch in batches for row in batch]
        if not rows:
            return
        table = _trajectory_table()
        stored = data.draw(st.integers(0, len(rows) - 1))
        table.insert_many(rows[:stored])
        fresh = rows[stored:]
        # The duplicate repeats the key of a stored row or of an earlier row
        # of the same batch, with other values.
        source = data.draw(st.integers(0, len(rows) - 1))
        object_id, t = rows[source][:2]
        duplicate = (object_id, t, "other", 9, "elsewhere", -1.0, -1.0)
        earliest = 0 if source < stored else source - stored + 1
        batch = list(fresh)
        batch.insert(data.draw(st.integers(earliest, len(batch))), duplicate)
        before = _table_state(table, 0.0, 1000.0)
        with pytest.raises(StorageError):
            table.insert_many(batch)
        assert _table_state(table, 0.0, 1000.0) == before
        # Nothing of the rejected batch was remembered: its rows still go in.
        assert table.insert_many(fresh) == len(fresh)
        assert len(table) == len(rows)


class TestKnnEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    # Three samples of one object equally far (1.0) from t: both engines
    # must snapshot the earliest one.
    @example(
        batches=[[("a", 2.0, "b", 0, "hall", 0.0, 0.0),
                  ("a", 2.321420628379102e-245, "b", 0, "hall", 0.0, 0.0),
                  ("a", 0.0, "b", 0, "hall", 0.0, 1.0)]],
        floor=0, x=0.0, y=0.0, t=1.0, k=1, tolerance=1.0,
    )
    @given(
        row_batches(),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=-10.0, max_value=110.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=110.0, allow_nan=False),
        timestamps,
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    )
    def test_memory_and_sqlite_knn_are_identical(self, batches, floor, x, y, t, k, tolerance):
        answers = []
        for backend in (MemoryBackend(), SQLiteBackend()):
            for batch in batches:
                backend.insert_rows("trajectory", batch)
            query = Query(backend, "trajectory")
            answers.append((query.on_floor(floor).knn(x, y, t, k, tolerance),
                            query.snapshot(t, tolerance)))
            backend.close()
        assert answers[0] == answers[1]


class TestExportRoundTripProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(rssi_records(), max_size=40))
    def test_rssi_round_trip(self, records):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as directory:
            path = export_rssi_csv(records, Path(directory) / "rssi.csv")
            assert import_rssi_csv(path) == records

    @settings(max_examples=30, deadline=None)
    @given(st.lists(trajectory_records(), max_size=40))
    def test_trajectory_round_trip(self, records):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as directory:
            path = export_trajectories_csv(records, Path(directory) / "traj.csv")
            assert import_trajectories_csv(path) == records
