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

Every dataset is described by a :class:`DatasetSpec`.  A row has one
shape on both engines: a tuple in ``DatasetSpec.columns`` order, the shape
the write path makes once per record
(:func:`~repro.storage.repositories.record_row`), the shape the engines
store and the shape every read hands to the query planner.  Reads have one
path: the builder (:mod:`repro.storage.query`) compiles a
:class:`~repro.storage.plan.QueryPlan`, the engine's :meth:`execute_plan`
pushes down what it can, and the planner runs the rest in Python, so both
engines return identical rows.  The dict terminals build row dicts at the
edge.
"""

from __future__ import annotations

import abc
import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.storage.plan import PlanExecution, QueryPlan, Row

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
    """Contract between the repositories / query builder and an engine.

    An engine stores row tuples (:meth:`insert_rows`), counts and clears a
    dataset, reports a dataset's time bounds, and answers every read as a
    :class:`~repro.storage.plan.QueryPlan` (:meth:`execute_plan`).
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
    # The engine contract
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def insert_rows(self, dataset: str, rows: List[Tuple]) -> int:
        """Bulk-append *rows*, tuples in ``DatasetSpec.columns`` order;
        returns the number inserted (any other row shape raises
        :class:`StorageError`)."""

    @abc.abstractmethod
    def count(self, dataset: str) -> int:
        """Number of rows stored in *dataset*."""

    @abc.abstractmethod
    def execute_plan(self, plan: QueryPlan) -> PlanExecution:
        """Push down what this engine can run natively; leave the rest residual.

        The planner (:func:`repro.storage.query.run_plan`) streams the
        engine's row tuples through the residual steps in Python.
        """

    @abc.abstractmethod
    def time_bounds(self, dataset: str) -> Optional[Tuple[float, float]]:
        """``(min, max)`` of the dataset's time column, or ``None`` if empty."""

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

    @contextlib.contextmanager
    def bulk_load(self, tracer: Any = None) -> Iterator[None]:
        """A span of writes that no read needs until it ends.

        An engine may defer index upkeep to the end of the scope (SQLite
        builds its secondary indexes once, at the exit); *tracer*, an
        :class:`~repro.obs.Tracer`, records that work as a span.  Reads
        inside the scope stay correct, only slower.  This engine has
        nothing to defer.
        """
        yield

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
