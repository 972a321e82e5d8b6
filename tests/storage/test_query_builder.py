"""The composable query builder: grammar, planning, push-down, equivalence.

The heart of the suite is the parametrized memory-vs-SQLite equivalence
matrix: one shared workload, a catalogue of builder queries covering every
chainable verb and terminal, and the assertion that both engines return
*identical* results even though they execute completely different plans
(native SQL versus index-backed Python).  The explain tests then pin down
that the plans really are different — SQL push-down on SQLite, index use on
the memory engine — and that residual steps are reported faithfully.
"""

import pytest

from repro.core.errors import StorageError
from repro.core.types import (
    IndoorLocation,
    ProximityRecord,
    RSSIRecord,
    TrajectoryRecord,
)
from repro.geometry.polygon import BoundingBox
from repro.storage.backends import MemoryBackend, SQLiteBackend
from repro.storage.backends.base import dataset_spec
from repro.storage.plan import Filter, QueryPlan
from repro.storage.query import Query
from repro.storage.repositories import DataWarehouse


def _loc(x, y, floor=0, partition="hall"):
    return IndoorLocation("b", floor, partition_id=partition, x=x, y=y)


def _populate(warehouse: DataWarehouse) -> None:
    """Three objects on two floors plus RSSI and proximity side datasets."""
    records = []
    for t in range(12):
        records.append(TrajectoryRecord("a", _loc(float(t * 2), 5.0), float(t)))
        records.append(
            TrajectoryRecord("b", _loc(50.0, 5.0, floor=1, partition="room9"), float(t))
        )
        if t % 2 == 0:
            records.append(
                TrajectoryRecord("c", _loc(10.0 + t, 20.0, partition="shop"), float(t))
            )
    warehouse.trajectories.add_many(records)
    warehouse.rssi.add_many(
        [
            RSSIRecord("a", "ap1", -60.0, 1.0),
            RSSIRecord("a", "ap1", -64.0, 2.0),
            RSSIRecord("a", "ap2", -70.0, 2.0),
            RSSIRecord("b", "ap2", -55.0, 3.0),
        ]
    )
    warehouse.proximity.add_many(
        [
            ProximityRecord("a", "rfid1", 0.0, 3.0),
            ProximityRecord("b", "rfid1", 1.0, 2.0),
            ProximityRecord("a", "rfid2", 5.0, 6.0),
        ]
    )
    warehouse.flush()


@pytest.fixture(params=("memory", "sqlite"))
def warehouse(request, tmp_path):
    backend = (
        MemoryBackend()
        if request.param == "memory"
        else SQLiteBackend(path=tmp_path / "query.sqlite")
    )
    warehouse = DataWarehouse(backend)
    _populate(warehouse)
    yield warehouse
    warehouse.close()


@pytest.fixture()
def both_engines(tmp_path):
    """One identically loaded warehouse per engine, for equivalence checks."""
    memory = DataWarehouse(MemoryBackend())
    sqlite = DataWarehouse(SQLiteBackend(path=tmp_path / "equiv.sqlite"))
    _populate(memory)
    _populate(sqlite)
    yield memory, sqlite
    sqlite.close()


#: The equivalence catalogue: every entry must return identical results on
#: the memory and SQLite engines.
EQUIVALENCE_QUERIES = {
    "plain-scan": lambda q: q("trajectory").all(),
    "during": lambda q: q("trajectory").during(2.0, 8.0).all(),
    "during-empty": lambda q: q("trajectory").during(100.0, 200.0).all(),
    "eq-filter": lambda q: q("trajectory").where(object_id="a").all(),
    "eq-none-partition": lambda q: q("trajectory").where(partition_id="room9").all(),
    "inequality": lambda q: q("rssi").where("rssi", "<", -60.0).all(),
    "not-equal": lambda q: q("rssi").where("device_id", "!=", "ap1").all(),
    "in-list": lambda q: q("trajectory").where("object_id", "in", ("a", "c")).all(),
    "not-in-list": lambda q: q("trajectory").where("object_id", "not_in", ("a",)).all(),
    "between": lambda q: q("rssi").where("rssi", "between", (-65.0, -58.0)).all(),
    "combined": lambda q: (
        q("trajectory").during(0.0, 10.0).on_floor(0).where("x", ">=", 4.0).all()
    ),
    "region": lambda q: (
        q("trajectory").on_floor(0).within((0.0, 0.0, 12.0, 21.0)).during(0.0, 6.0).all()
    ),
    "region-boundingbox": lambda q: (
        q("trajectory").within(BoundingBox(0.0, 0.0, 30.0, 30.0)).all()
    ),
    "select": lambda q: q("trajectory").during(1.0, 4.0).select("object_id", "t").all(),
    "order-desc": lambda q: q("trajectory").order_by("-t", "object_id").limit(5).all(),
    "limit-offset": lambda q: q("trajectory").order_by("t").offset(3).limit(4).all(),
    "first": lambda q: q("trajectory").where(object_id="c").first(),
    "first-empty": lambda q: q("trajectory").where(object_id="zzz").first(),
    "first-limit-zero": lambda q: q("trajectory").limit(0).first(),
    "count": lambda q: q("trajectory").count(),
    "count-filtered": lambda q: q("trajectory").during(0.0, 5.0).on_floor(1).count(),
    "count-by": lambda q: q("trajectory").count_by("partition_id"),
    "count-by-filtered": lambda q: q("trajectory").during(0.0, 5.0).count_by("object_id"),
    "count-distinct-by": lambda q: q("trajectory").count_by("partition_id", distinct="object_id"),
    "distinct": lambda q: q("trajectory").distinct("object_id"),
    "distinct-filtered": lambda q: q("trajectory").on_floor(0).distinct("partition_id"),
    "stats": lambda q: q("rssi").stats("rssi"),
    "stats-grouped": lambda q: q("rssi").stats("rssi", by="device_id"),
    "stats-empty": lambda q: q("positioning").stats("x"),
    "python-filter": lambda q: (
        q("trajectory").filter(lambda row: int(row["t"]) % 3 == 0).order_by("t").all()
    ),
    "python-filter-limit": lambda q: (
        q("rssi").filter(lambda row: row["rssi"] < -58.0).limit(2).all()
    ),
    "python-filter-count": lambda q: (
        q("trajectory").filter(lambda row: row["x"] > 10.0).count()
    ),
    "snapshot": lambda q: q("trajectory").snapshot(5.2, tolerance=1.0),
    "knn": lambda q: q("trajectory").on_floor(0).knn(0.0, 5.0, 5.0, k=2),
    "proximity-count-by": lambda q: q("proximity").count_by("device_id"),
    "no-time-dataset": lambda q: q("device").all(),
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_QUERIES))
    def test_memory_and_sqlite_agree(self, both_engines, name):
        memory, sqlite = both_engines
        run = EQUIVALENCE_QUERIES[name]
        assert run(memory.query) == run(sqlite.query)

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_QUERIES))
    def test_stream_api_shim_agrees_too(self, both_engines, name):
        # The Data Stream API is a shim over the same builder: its entry
        # point must hand back builder queries bound to the same backend.
        memory, sqlite = both_engines
        from repro.storage.stream import DataStreamAPI

        run = EQUIVALENCE_QUERIES[name]
        assert run(DataStreamAPI(memory).query) == run(DataStreamAPI(sqlite).query)


class TestKnnNearTie:
    """Two objects whose distances to the query point differ in the last bit.

    The squared distances are 171.61064296781265 (a) and 171.61064296781268
    (b), but ``math.hypot`` ranks them the other way round, so an engine that
    ranked by ``hypot`` answered ``b`` where SQLite answers ``a``.
    """

    def test_both_engines_answer_the_same_nearest_object(self, tmp_path):
        records = [
            TrajectoryRecord("a", _loc(20.31223259229413, 10.07559800490467), 5.0),
            TrajectoryRecord("b", _loc(39.58389615524125, 21.73130933971452), 5.0),
        ]
        answers = []
        for backend in (MemoryBackend(), SQLiteBackend(path=tmp_path / "tie.sqlite")):
            warehouse = DataWarehouse(backend)
            warehouse.trajectories.add_many(records)
            query = warehouse.query("trajectory").on_floor(0)
            answers.append(
                [query.knn(33.4118695686196, 10.176365342366537, 5.0, k=k) for k in (1, 2)]
            )
            warehouse.close()
        memory, sqlite = answers
        assert memory == sqlite
        assert [object_id for object_id, _ in memory[0]] == ["a"]


class TestTuples:
    """``tuples()`` streams the rows ``iter()`` does, as tuples in column order."""

    QUERIES = {
        "scan": lambda q: q("trajectory"),
        "window-floor": lambda q: q("trajectory").during(2.0, 8.0).on_floor(0),
        "region": lambda q: q("trajectory").on_floor(0).within((0.0, 0.0, 12.0, 21.0)),
        "select-order-limit": lambda q: (
            q("trajectory").select("t", "object_id").order_by("-t", "object_id").limit(5)
        ),
        "select-one-column": lambda q: q("rssi").select("device_id"),
        "python-filter": lambda q: q("rssi").filter(lambda row: row["rssi"] < -58.0),
        "python-filter-select-limit": lambda q: (
            q("trajectory").filter(lambda row: row["x"] > 10.0).select("x", "t").limit(3)
        ),
        "no-time-dataset": lambda q: q("device"),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_tuples_are_the_rows_in_column_order(self, warehouse, name):
        query = self.QUERIES[name](warehouse.query)
        rows = query.all()
        plan = query.plan()
        columns = plan.columns or dataset_spec(plan.dataset).columns
        assert list(query.tuples()) == [tuple(row[c] for c in columns) for row in rows]
        assert all(type(row) is tuple for row in query.tuples())

    def test_tuples_is_lazy(self, warehouse):
        iterator = warehouse.query("trajectory").during(0.0, 2.0).tuples()
        assert next(iterator)[1] == 0.0

    def test_explain_reports_the_iter_plan(self, warehouse):
        query = warehouse.query("trajectory").during(0.0, 5.0).on_floor(0)
        assert query.explain("tuples") == query.explain("iter")
        assert query.profile("tuples")["rows"] == query.profile("iter")["rows"]


class TestBuilderGrammar:
    def test_builders_are_immutable(self, warehouse):
        base = warehouse.query("trajectory")
        narrowed = base.where(object_id="a")
        assert narrowed is not base
        assert len(base.all()) > len(narrowed.all())

    def test_repeated_during_intersects(self, warehouse):
        query = warehouse.query("trajectory").during(0.0, 8.0).during(5.0, 20.0)
        times = {row["t"] for row in query.all()}
        assert times and all(5.0 <= t <= 8.0 for t in times)

    def test_repeated_within_intersects(self, warehouse):
        query = (
            warehouse.query("trajectory")
            .within((0.0, 0.0, 10.0, 10.0))
            .within((4.0, 0.0, 50.0, 50.0))
        )
        for row in query.all():
            assert 4.0 <= row["x"] <= 10.0

    def test_iter_is_lazy_and_iterable(self, warehouse):
        iterator = warehouse.query("trajectory").during(0.0, 2.0).iter()
        assert next(iterator)["t"] == 0.0
        assert len(list(warehouse.query("rssi"))) == 4

    def test_records_returns_typed_records(self, warehouse):
        records = warehouse.query("trajectory").where(object_id="b").records()
        assert all(isinstance(record, TrajectoryRecord) for record in records)
        assert {record.object_id for record in records} == {"b"}

    def test_records_rejects_projection(self, warehouse):
        with pytest.raises(StorageError, match="select"):
            warehouse.query("trajectory").select("object_id").records()

    def test_unknown_column_rejected_at_build_time(self, warehouse):
        with pytest.raises(StorageError, match="no column"):
            warehouse.query("trajectory").where(speed=3)
        with pytest.raises(StorageError, match="no column"):
            warehouse.query("rssi").select("x")
        with pytest.raises(StorageError, match="no column"):
            warehouse.query("rssi").order_by("floor_id")

    def test_unknown_operator_rejected(self, warehouse):
        with pytest.raises(StorageError, match="operator"):
            warehouse.query("rssi").where("rssi", "~=", -60.0)

    def test_untypable_value_rejected_at_build_time(self, warehouse):
        # Identical failure on both engines, instead of a SQLite ValueError
        # crash versus a silent memory no-match.
        with pytest.raises(StorageError, match="not valid"):
            warehouse.query("trajectory").where(floor_id="abc")
        with pytest.raises(StorageError, match="not valid"):
            warehouse.query("rssi").where("rssi", "between", ("low", "high"))

    def test_numeric_strings_coerced_identically(self, warehouse):
        # '1' coerces to 1.0 at build time, so both engines match t == 1.0.
        rows = warehouse.query("trajectory").where("t", ">", "9").all()
        assert rows and all(row["t"] > 9.0 for row in rows)

    def test_numeric_operand_on_text_column_coerced_identically(self, warehouse):
        # SQLite compares a numeric operand on a TEXT column as text; the
        # builder applies the same affinity so memory agrees.
        warehouse.trajectories.add(
            TrajectoryRecord("x", _loc(1.0, 1.0, partition="101"), 99.0)
        )
        assert warehouse.query("trajectory").where(partition_id=101).count() == 1

    def test_count_distinct_by_ignores_none_values(self, warehouse):
        # COUNT(DISTINCT col) ignores NULLs in SQL; the fallback must too —
        # including emitting an all-NULL group with count 0.
        # Columns: object_id, t, method, building_id, floor_id, partition_id, x, y.
        warehouse.positioning.backend.insert_rows(
            "positioning",
            [
                ("a", 1.0, "trilateration", "b", 0, "hall", 1.0, 1.0),
                (None, 2.0, "trilateration", "b", 0, "hall", 1.0, 1.0),
                (None, 3.0, "trilateration", "b", 0, "lobby", 1.0, 1.0),
            ],
        )
        counts = warehouse.query("positioning").count_by(
            "partition_id", distinct="object_id"
        )
        assert counts == {"hall": 1, "lobby": 0}

    def test_hand_built_incomparable_filter_matches_nothing(self, warehouse):
        # Plans built without the Query layer skip build-time coercion; both
        # engines must then treat unrepresentable values as matching nothing.
        plan = QueryPlan(
            dataset="trajectory", filters=(Filter("t", ">", "not-a-number"),)
        )
        from repro.storage.query import run_plan

        assert list(run_plan(warehouse.backend, plan)) == []

    def test_during_validates_window(self, warehouse):
        with pytest.raises(StorageError, match="precede"):
            warehouse.query("trajectory").during(5.0, 1.0)
        with pytest.raises(StorageError, match="time column"):
            warehouse.query("device").during(0.0, 1.0)

    def test_within_requires_spatial_dataset(self, warehouse):
        with pytest.raises(StorageError, match="spatial"):
            warehouse.query("rssi").within((0, 0, 1, 1))

    def test_aggregate_rejects_limit_and_select(self, warehouse):
        with pytest.raises(StorageError, match="limit"):
            warehouse.query("trajectory").limit(3).count()
        with pytest.raises(StorageError, match="select"):
            warehouse.query("trajectory").select("object_id").count_by("object_id")

    def test_snapshot_and_knn_are_bare_operators(self, warehouse):
        with pytest.raises(StorageError, match="on_floor"):
            warehouse.query("trajectory").knn(0.0, 0.0, 5.0)
        with pytest.raises(StorageError, match="built-in operator"):
            warehouse.query("trajectory").during(0.0, 5.0).snapshot(2.0)
        with pytest.raises(StorageError, match="trajectory query"):
            warehouse.query("rssi").snapshot(2.0)

    def test_default_order_is_time_then_insertion(self, warehouse):
        times = [row["t"] for row in warehouse.query("trajectory").all()]
        assert times == sorted(times)


class TestExplain:
    """``explain()`` reports the actual engine strategy without running it."""

    def _engine(self, warehouse):
        return warehouse.backend.name

    def test_time_range_pushdown(self, warehouse):
        report = warehouse.query("trajectory").during(0.0, 5.0).explain()
        assert report["pushdown"] == "full"
        pushed = " ".join(report["pushed"])
        if self._engine(warehouse) == "sqlite":
            assert "BETWEEN" in pushed and "sql:" not in report["residual"]
        else:
            assert "sorted t index" in pushed

    def test_region_strategy_per_engine(self, warehouse):
        report = (
            warehouse.query("trajectory")
            .during(0.0, 5.0)
            .on_floor(0)
            .within((0, 0, 10, 10))
            .explain("distinct", column="object_id")
        )
        pushed = " ".join(report["pushed"])
        if self._engine(warehouse) == "sqlite":
            assert report["pushdown"] == "full"
            assert "grid-bucket" in pushed
        else:
            # Memory answers the box (and the aggregate) in the fallback but
            # still seeks through an index first.
            assert report["pushdown"] == "partial"
            assert "index" in pushed
            assert any("region" in step for step in report["residual"])

    def test_count_by_strategy_per_engine(self, warehouse):
        report = warehouse.query("proximity").explain("count_by", by="device_id")
        assert report["pushdown"] == "full"
        pushed = " ".join(report["pushed"])
        if self._engine(warehouse) == "sqlite":
            assert "GROUP BY device_id" in pushed
        else:
            assert "hash index on device_id" in pushed

    def test_bare_count_is_constant_time_on_memory(self, warehouse):
        if self._engine(warehouse) != "memory":
            pytest.skip("memory-only assertion")
        report = warehouse.query("trajectory").explain("count")
        assert any("O(1)" in line for line in report["pushed"])

    def test_time_window_beats_low_selectivity_equality_on_memory(self, warehouse):
        if warehouse.backend.name != "memory":
            pytest.skip("memory-only access-path assertion")
        # A narrow time window must win over a categorical (floor) equality:
        # bisect into the window, filter the floor residually.
        report = warehouse.query("trajectory").during(2.0, 3.0).on_floor(0).explain()
        assert any("bisect range scan" in line for line in report["pushed"])
        assert any("floor_id" in step for step in report["residual"])
        # A per-object equality is more selective than the window and wins.
        report = (
            warehouse.query("trajectory").during(2.0, 3.0).where(object_id="a").explain()
        )
        assert any("hash index on object_id" in line for line in report["pushed"])

    def test_python_filter_is_residual_everywhere(self, warehouse):
        report = warehouse.query("rssi").filter(lambda row: row["rssi"] < -60).explain()
        assert report["pushdown"] in ("partial", "none")
        assert any("python" in step for step in report["residual"])

    def test_sqlite_reports_the_sql_text(self, warehouse):
        if self._engine(warehouse) != "sqlite":
            pytest.skip("sqlite-only assertion")
        report = (
            warehouse.query("trajectory").where(object_id="a").order_by("t").explain()
        )
        sql_lines = [line for line in report["pushed"] if line.startswith("sql:")]
        assert len(sql_lines) == 1
        assert "SELECT" in sql_lines[0] and "WHERE object_id = ?" in sql_lines[0]

    def test_explain_reads_no_data(self, warehouse):
        # explain() must not flush or scan: pending writes stay pending.
        report = warehouse.query("trajectory").explain("count")
        assert report["dataset"] == "trajectory"
        assert warehouse.query("trajectory").count() == 30


class TestPlanCompilation:
    def test_plan_is_frozen_and_reusable(self, warehouse):
        plan = warehouse.query("trajectory").during(0.0, 5.0).plan()
        assert isinstance(plan, QueryPlan)
        with pytest.raises(Exception):
            plan.dataset = "rssi"

    def test_default_order_not_applied_to_aggregates(self, warehouse):
        plan = warehouse.query("trajectory").plan("count")
        assert plan.order_by == ()
        assert plan.aggregate is not None

    def test_filter_validates_operator(self):
        with pytest.raises(StorageError):
            Filter("x", "LIKE", "%a%")

    def test_python_filter_requires_callable(self):
        with pytest.raises(StorageError):
            Filter("x", "python", "not callable")


class TestWarehouseAndFacadeEntryPoints:
    def test_warehouse_query_binds_backend(self, warehouse):
        query = warehouse.query("trajectory")
        assert isinstance(query, Query)
        assert query.count() == 30

    def test_unknown_dataset_rejected(self, warehouse):
        with pytest.raises(StorageError, match="unknown dataset"):
            warehouse.query("nope")
