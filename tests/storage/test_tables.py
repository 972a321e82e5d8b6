"""Unit tests for the in-memory indexed table."""

import bisect
import random
import statistics
import time

import pytest

from repro.core.errors import StorageError
from repro.storage.tables import Table, TableSchema


@pytest.fixture()
def table() -> Table:
    schema = TableSchema(
        name="events",
        columns=("object_id", "kind", "t"),
        hash_indexes=("object_id",),
        ordered_index="t",
    )
    table = Table(schema)
    table.insert_many(
        [
            ("a", "enter", 1.0),
            ("b", "enter", 2.0),
            ("a", "leave", 5.0),
            ("c", "enter", 3.0),
        ]
    )
    return table


class TestSchemaValidation:
    def test_requires_columns(self):
        with pytest.raises(StorageError):
            TableSchema(name="x", columns=())

    def test_indexes_must_reference_known_columns(self):
        with pytest.raises(StorageError):
            TableSchema(name="x", columns=("a",), hash_indexes=("b",))
        with pytest.raises(StorageError):
            TableSchema(name="x", columns=("a",), ordered_index="t")


class TestInsertAndLookup:
    def test_insert_rejects_missing_columns(self, table):
        with pytest.raises(StorageError):
            table.insert(("d",))
        assert len(table) == 4

    def test_insert_rejects_a_row_dict(self, table):
        with pytest.raises(StorageError, match="tuple"):
            table.insert_many([("d", "enter", 9.0), {"object_id": "d", "kind": "enter", "t": 9.0}])
        assert len(table) == 4

    def test_len_and_all_rows_in_insertion_order(self, table):
        assert len(table) == 4
        assert table.all_rows() == [
            ("a", "enter", 1.0), ("b", "enter", 2.0), ("a", "leave", 5.0), ("c", "enter", 3.0),
        ]

    def test_hash_lookup(self, table):
        rows = table.lookup("object_id", "a")
        assert rows == [("a", "enter", 1.0), ("a", "leave", 5.0)]

    def test_lookup_without_index_falls_back_to_scan(self, table):
        rows = table.lookup("kind", "enter")
        assert len(rows) == 3

    def test_lookup_missing_value(self, table):
        assert table.lookup("object_id", "zzz") == []

    def test_lookup_of_an_unknown_column_raises(self, table):
        with pytest.raises(StorageError, match="no column"):
            table.lookup("speed", 3)


class TestRangeAndAggregation:
    def test_range_query_inclusive(self, table):
        rows = table.range(2.0, 5.0)
        assert [t for _, _, t in rows] == [2.0, 3.0, 5.0]

    def test_range_query_requires_ordered_index(self):
        schema = TableSchema(name="plain", columns=("a",))
        with pytest.raises(StorageError):
            Table(schema).range(0, 1)

    def test_range_empty_window(self, table):
        assert table.range(100.0, 200.0) == []

    def test_distinct(self, table):
        assert table.distinct("object_id") == ["a", "b", "c"]
        assert table.distinct("kind") == ["enter", "leave"]

    def test_count_by(self, table):
        assert table.count_by("object_id") == {"a": 2, "b": 1, "c": 1}

    def test_clear(self, table):
        table.clear()
        assert len(table) == 0
        assert table.lookup("object_id", "a") == []
        assert table.range(0.0, 10.0) == []

    def test_ordered_index_stays_consistent_after_interleaved_inserts(self, table):
        table.insert(("z", "enter", 0.5))
        table.insert(("z", "leave", 4.0))
        rows = table.range(0.0, 10.0)
        times = [t for _, _, t in rows]
        assert times == sorted(times)
        assert len(rows) == 6


def _time_table() -> Table:
    return Table(TableSchema(name="events", columns=("object_id", "t"), ordered_index="t"))


class TestOrderedIndexCost:
    """The ordered index is appended to on insert and sorted on the next
    ordered read, so a row costs the same however large the table is."""

    def test_interleaved_writes_and_ordered_reads_match_an_insort_reference(self):
        rng = random.Random(5)
        table = _time_table()
        rows = []
        reference = []  # (t, row id), kept sorted on every insert
        for _ in range(400):
            action = rng.random()
            if action < 0.5:
                batch = [
                    (f"o{rng.randrange(4)}", float(rng.randrange(40)))
                    for _ in range(rng.randrange(1, 9))
                ]
                table.insert_many(batch)
            elif action < 0.6:
                batch = [("single", rng.uniform(0.0, 40.0))]
                table.insert(batch[0])
            elif action < 0.62:
                table.clear()
                rows, reference = [], []
                continue
            else:
                low = float(rng.randrange(45)) - 2.0
                high = low + rng.choice((0.0, 1.0, 5.0, 50.0))
                expected = [rows[i] for t, i in reference if low <= t <= high]
                assert table.range(low, high) == expected
                assert list(table.iter_ordered()) == [rows[i] for _, i in reference]
                bounds = (reference[0][0], reference[-1][0]) if reference else None
                assert table.ordered_bounds() == bounds
                continue
            for row in batch:
                bisect.insort(reference, (row[1], len(rows)))
                rows.append(row)

    def test_insert_cost_per_row_does_not_grow_with_the_table(self):
        # Four time-sorted runs of 50,000 rows that each restart at t = 0 (one
        # per shard of a streaming run), inserted in batches of 5,000.  The
        # median batch that found >= 160k rows in the table is compared with
        # the median one that found < 40k; medians, and the best of three
        # builds, filter out preemption and collector pauses.
        run = [("o", index * 0.5) for index in range(50_000)]

        def late_over_early() -> float:
            table = _time_table()
            early, late = [], []
            for _ in range(4):
                for offset in range(0, len(run), 5000):
                    size = len(table)
                    started = time.perf_counter()
                    table.insert_many(run[offset:offset + 5000])
                    elapsed = time.perf_counter() - started
                    if size < 40_000:
                        early.append(elapsed)
                    elif size >= 160_000:
                        late.append(elapsed)
            assert len(table.range(0.0, 25_000.0)) == 200_000
            return statistics.median(late) / statistics.median(early)

        ratio = min(late_over_early() for _ in range(3))
        assert ratio <= 1.5, ratio
