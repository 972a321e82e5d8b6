"""The pluggable storage-backend interface.

The paper's prototype persists every generated dataset "in PostgreSQL with
efficient indices" (Section 4.2) and serves query processing through the Data
Stream APIs.  This module defines the contract a storage engine must satisfy
so that the repositories and :class:`~repro.storage.stream.DataStreamAPI`
can run unchanged on top of any engine:

* :class:`MemoryBackend <repro.storage.backends.memory.MemoryBackend>` — the
  original indexed in-memory tables (fast, volatile);
* :class:`SQLiteBackend <repro.storage.backends.sqlite.SQLiteBackend>` — an
  on-disk engine with WAL journalling, batched bulk inserts and composite +
  spatial grid-bucket indices (persistent, larger-than-RAM).

Every dataset is described by a :class:`DatasetSpec`; rows read back are
plain dictionaries with one key per column (or, through
:meth:`~repro.storage.query.Query.tuples`, tuples in column order),
identical across backends, so records serialise the same way everywhere.
Rows written may also be tuples in ``DatasetSpec.columns`` order, the shape
the generation write path produces once per record
(:func:`~repro.storage.repositories.record_row`).
The base class ships portable Python implementations of the higher-level
query operators (snapshot, spatial range, kNN, aggregations) expressed in
terms of the storage primitives; engines override them with native (e.g.
SQL) implementations where profitable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.errors import StorageError
from repro.storage.plan import PlanExecution, QueryPlan, sorted_distinct

Row = Dict[str, Any]

#: Shared location column suffix used by every dataset that embeds a location.
LOCATION_COLUMNS: Tuple[str, ...] = ("building_id", "floor_id", "partition_id", "x", "y")

#: Column type affinities shared by every engine (anything unlisted is text).
REAL_COLUMNS = frozenset(
    {"t", "t_start", "t_end", "x", "y", "rssi", "detection_range", "detection_interval"}
)
INT_COLUMNS = frozenset({"floor_id", "cell_x", "cell_y"})


def _real(value: Any) -> Any:
    return None if value is None else float(value)


def _integer(value: Any) -> Any:
    return None if value is None else int(value)


def _text(value: Any) -> Any:
    # Text affinity, mirroring SQLite: a non-string operand is compared (and
    # stored) as its text form, so both engines see the same value.
    return value if value is None or isinstance(value, str) else str(value)


def column_coercer(column: str) -> Callable[[Any], Any]:
    """The function :func:`coerce_value` applies to *column*'s values.

    It raises ``TypeError``/``ValueError`` for a value the column's type
    cannot represent.  An engine that coerces many rows looks these up once
    per column and lets :func:`coerce_value` word the error.
    """
    if column in REAL_COLUMNS:
        return _real
    if column in INT_COLUMNS:
        return _integer
    return _text


def coerce_value(column: str, value: Any) -> Any:
    """Normalise *value* to *column*'s type affinity (numpy scalars included).

    Raises :class:`StorageError` when the value cannot represent the
    column's type (e.g. ``floor_id = "abc"``), so a bad predicate fails the
    same way on every engine instead of crashing one and no-matching the
    other.
    """
    try:
        return column_coercer(column)(value)
    except (TypeError, ValueError):
        kind = "real" if column in REAL_COLUMNS else "integer"
        raise StorageError(f"value {value!r} is not valid for {kind} column {column!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Schema description of one logical dataset, independent of the engine."""

    name: str
    columns: Tuple[str, ...]
    time_column: Optional[str] = None
    hash_indexes: Tuple[str, ...] = ()
    #: Whether the dataset embeds a coordinate location (enables the spatial
    #: grid-bucket index on SQL engines).
    spatial: bool = False
    #: Columns forming the dataset's natural key.  Both engines reject a
    #: second row with the same key (:class:`StorageError`) instead of
    #: silently storing duplicates.
    unique_key: Tuple[str, ...] = ()


#: The six storage formats of Section 4.2, keyed by dataset name.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec(
            name="trajectory",
            columns=("object_id", "t") + LOCATION_COLUMNS,
            time_column="t",
            hash_indexes=("object_id", "partition_id", "floor_id"),
            spatial=True,
            unique_key=("object_id", "t"),
        ),
        DatasetSpec(
            name="rssi",
            columns=("object_id", "device_id", "rssi", "t"),
            time_column="t",
            hash_indexes=("object_id", "device_id"),
        ),
        DatasetSpec(
            name="positioning",
            columns=("object_id", "t", "method") + LOCATION_COLUMNS,
            time_column="t",
            hash_indexes=("object_id", "method", "partition_id"),
            spatial=True,
            # One estimate per object, timestamp and method; two different
            # methods may legitimately estimate the same (object, t).
            unique_key=("object_id", "t", "method"),
        ),
        # Probabilistic candidates are stored as one JSON document per row so
        # the row shape stays flat and identical across engines.
        DatasetSpec(
            name="probabilistic",
            columns=("object_id", "t", "candidates"),
            time_column="t",
            hash_indexes=("object_id",),
            unique_key=("object_id", "t"),
        ),
        DatasetSpec(
            name="proximity",
            columns=("object_id", "device_id", "t_start", "t_end"),
            time_column="t_start",
            hash_indexes=("object_id", "device_id"),
        ),
        DatasetSpec(
            name="device",
            columns=("device_id", "device_type", "detection_range", "detection_interval")
            + LOCATION_COLUMNS,
            hash_indexes=("device_id", "device_type", "floor_id"),
        ),
    )
}


def dataset_spec(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` called *name* (raises for unknown datasets)."""
    try:
        return DATASETS[name]
    except KeyError:
        raise StorageError(f"unknown dataset {name!r}; expected one of {sorted(DATASETS)}")


class StorageBackend(abc.ABC):
    """Contract between the repositories / Data Stream APIs and an engine.

    Primitives (abstract) cover insertion, scans, equality and time-range
    lookups; the higher-level query operators have portable default
    implementations that engines may override natively.
    """

    #: Registry name of the engine ("memory", "sqlite", ...).
    name: str = "abstract"
    #: Whether data survives the process (an on-disk engine).
    persistent: bool = False
    #: Attached :class:`~repro.obs.MetricsRegistry` (``None`` = uninstrumented;
    #: a class attribute so engines need no ``__init__`` cooperation).
    _metrics = None

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def attach_metrics(self, registry) -> None:
        """Record insert volumes into *registry* (``None`` detaches).

        Engines call :meth:`_observe_insert` from their ``insert_rows``;
        counters are named ``storage.rows_inserted.<dataset>``.  Counting
        happens per inserted batch, so the overhead is one counter increment
        per bulk insert, not per row.
        """
        self._metrics = registry if registry is not None and registry.enabled else None

    def _observe_insert(self, dataset: str, count: int) -> None:
        if self._metrics is not None and count:
            self._metrics.counter(f"storage.rows_inserted.{dataset}").inc(count)

    # ------------------------------------------------------------------ #
    # Storage primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def insert_rows(self, dataset: str, rows: List[Union[Row, Tuple]]) -> int:
        """Bulk-append *rows*; returns the number inserted.

        Each row is a tuple in ``DatasetSpec.columns`` order or a dict; a
        tuple and the dict with the same values store the same row.
        """

    @abc.abstractmethod
    def count(self, dataset: str) -> int:
        """Number of rows stored in *dataset*."""

    @abc.abstractmethod
    def all_rows(self, dataset: str) -> List[Row]:
        """Every row of *dataset* in insertion order."""

    @abc.abstractmethod
    def rows_eq(
        self, dataset: str, column: str, value: Any, order_by: Optional[str] = None
    ) -> List[Row]:
        """Rows with ``row[column] == value`` (index-backed when possible).

        With *order_by*, the result is sorted by that column — engines use
        their composite ``(column, order_by)`` index where one exists.
        """

    @abc.abstractmethod
    def rows_in_time_range(self, dataset: str, low: float, high: float) -> List[Row]:
        """Rows whose time column lies in ``[low, high]``, ordered by time."""

    @abc.abstractmethod
    def iter_time_ordered(self, dataset: str) -> Iterator[Row]:
        """Every row of *dataset*, ordered by its time column (single pass)."""

    @abc.abstractmethod
    def distinct(self, dataset: str, column: str) -> List[Any]:
        """Distinct values of *column* (sorted when the values are sortable)."""

    @abc.abstractmethod
    def count_by(self, dataset: str, column: str) -> Dict[Any, int]:
        """Row count per distinct value of *column*."""

    @abc.abstractmethod
    def clear(self, dataset: str) -> None:
        """Remove every row of *dataset*."""

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Make pending writes durable (no-op for volatile engines)."""

    def close(self) -> None:
        """Flush and release engine resources."""
        self.flush()

    def clear_all(self) -> None:
        """Remove every row of every dataset."""
        for name in DATASETS:
            self.clear(name)

    def describe(self) -> Dict[str, Any]:
        """Engine metadata for summaries and the CLI."""
        return {
            "backend": self.name,
            "persistent": self.persistent,
            "datasets": {name: self.count(name) for name in DATASETS},
        }

    # ------------------------------------------------------------------ #
    # Logical-plan execution (capability negotiation with the planner)
    # ------------------------------------------------------------------ #
    def execute_plan(self, plan: QueryPlan) -> PlanExecution:
        """Push down what this engine can run natively; leave the rest residual.

        The portable default pushes the time window onto the
        :meth:`rows_in_time_range` primitive and the bare aggregates onto
        their primitives (:meth:`count`, :meth:`count_by`, :meth:`distinct`);
        every other plan step is reported residual, and the planner
        (:func:`repro.storage.query.run_plan`) streams it in Python.  Engines
        override this with index- or SQL-backed strategies.
        """
        spec = dataset_spec(plan.dataset)
        pushed: List[Tuple[str, str]] = []
        time_ordered = False
        if plan.time_range is not None and spec.time_column is not None:
            low, high = plan.time_range
            rows = lambda: iter(self.rows_in_time_range(plan.dataset, low, high))
            pushed.append(("during", "rows_in_time_range primitive"))
            time_ordered = True
        else:
            rows = lambda: iter(self.all_rows(plan.dataset))
        residual_order = plan.order_by
        if time_ordered and plan.order_by == ((spec.time_column, False),):
            residual_order = ()
            pushed.append(("order_by", f"time-ordered {spec.time_column} scan"))
        execution = PlanExecution(
            rows=rows,
            pushed=pushed,
            residual_filters=plan.filters,
            residual_region=plan.region,
            residual_order=residual_order,
            needs_projection=plan.columns is not None,
            needs_limit=plan.limit is not None or plan.offset > 0,
        )
        bare = not plan.filters and plan.region is None and plan.time_range is None
        aggregate = plan.aggregate
        if aggregate is not None and bare:
            if aggregate.kind == "count":
                execution.aggregate_thunk = lambda: self.count(plan.dataset)
                pushed.append(("aggregate count(*)", "count primitive"))
            elif aggregate.kind == "count_by":
                execution.aggregate_thunk = lambda: self.count_by(plan.dataset, aggregate.by)
                pushed.append((f"aggregate {aggregate.describe()}", "count_by primitive"))
            elif aggregate.kind == "distinct":
                execution.aggregate_thunk = lambda: sorted_distinct(
                    self.distinct(plan.dataset, aggregate.column)
                )
                pushed.append((f"aggregate {aggregate.describe()}", "distinct primitive"))
        return execution

    # ------------------------------------------------------------------ #
    # Query operators (portable defaults; engines override natively)
    # ------------------------------------------------------------------ #
    def time_bounds(self, dataset: str) -> Optional[Tuple[float, float]]:
        """``(min, max)`` of the dataset's time column, or ``None`` if empty."""
        spec = dataset_spec(dataset)
        if spec.time_column is None:
            raise StorageError(f"dataset {dataset!r} has no time column")
        low = high = None
        for row in self.iter_time_ordered(dataset):
            value = row[spec.time_column]
            if low is None:
                low = value
            high = value
        if low is None:
            return None
        return (low, high)

    def snapshot_rows(self, t: float, tolerance: float) -> Dict[str, Row]:
        """Per object, the trajectory row closest in time to *t* within *tolerance*."""
        best: Dict[str, Row] = {}
        for row in self.rows_in_time_range("trajectory", t - tolerance, t + tolerance):
            current = best.get(row["object_id"])
            if current is None or abs(row["t"] - t) < abs(current["t"] - t):
                best[row["object_id"]] = row
        return best

    def region_object_ids(
        self,
        floor_id: int,
        min_x: float,
        min_y: float,
        max_x: float,
        max_y: float,
        t_start: float,
        t_end: float,
    ) -> List[str]:
        """Objects with >= 1 trajectory sample inside the box during the window."""
        found = set()
        for row in self.rows_in_time_range("trajectory", t_start, t_end):
            if row["floor_id"] != floor_id or row["x"] is None or row["y"] is None:
                continue
            if min_x <= row["x"] <= max_x and min_y <= row["y"] <= max_y:
                found.add(row["object_id"])
        return sorted(found)

    def knn(
        self, floor_id: int, x: float, y: float, t: float, k: int, tolerance: float
    ) -> List[Tuple[str, float]]:
        """The *k* objects closest to ``(x, y)`` on *floor_id* around time *t*.

        Objects rank by the squared distance ``d2``, ties by object id, and
        each distance is ``d2 ** 0.5``.  ``d2`` is computed with the same
        operations in the same order as the SQLite engine's SQL, so both
        engines rank a near-tie alike and return the same bits.
        """
        if k <= 0:
            return []
        scored = []
        for object_id, row in self.snapshot_rows(t, tolerance).items():
            if row["floor_id"] != floor_id or row["x"] is None or row["y"] is None:
                continue
            d2 = (row["x"] - x) * (row["x"] - x) + (row["y"] - y) * (row["y"] - y)
            scored.append((d2, object_id))
        scored.sort()
        return [(object_id, d2 ** 0.5) for d2, object_id in scored[:k]]

    def proximity_active_at(self, t: float) -> List[Row]:
        """Proximity detection periods covering time *t*."""
        return [
            row
            for row in self.all_rows("proximity")
            if row["t_start"] <= t <= row["t_end"]
        ]


__all__ = [
    "Row",
    "LOCATION_COLUMNS",
    "REAL_COLUMNS",
    "INT_COLUMNS",
    "column_coercer",
    "coerce_value",
    "DatasetSpec",
    "DATASETS",
    "dataset_spec",
    "StorageBackend",
]
