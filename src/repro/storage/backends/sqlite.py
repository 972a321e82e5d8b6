"""The SQLite storage engine.

The paper's prototype stores all generated mobility data in PostgreSQL "with
efficient indices"; this engine is the offline equivalent — a single-file
on-disk database that survives the process, holds datasets far larger than
RAM, and answers the Data Stream API queries with index-backed SQL.

Engine configuration (mirroring the exemplar schema in SNIPPETS.md):

* ``journal_mode=WAL`` — write-ahead logging so readers never block the
  writer (``MEMORY`` journalling for ``:memory:`` databases, where WAL is
  unavailable);
* ``synchronous=NORMAL`` — fsync at checkpoints only; safe under WAL and
  much faster than ``FULL`` for bulk generation;
* ``busy_timeout=30000`` ms and ``temp_store=MEMORY``.

Writes are coerced column by column (each column's coercion looked up once
per dataset, and skipped for a column whose values already have its type),
buffered, and flushed with ``executemany`` in batches (read-your-writes is
preserved: every read first drains the affected buffer).  Each
dataset has a composite index on ``(object_id, <time>)`` for per-object
scans, a time index for range scans, and — for the datasets that embed a
coordinate — a spatial grid-bucket index on ``(floor_id, cell_x, cell_y)``
where ``cell_* = floor(coordinate / cell_size)``, so spatial range queries
prefilter on integer buckets before the exact geometric predicate runs.

Every read is one compiled plan (:meth:`SQLiteBackend.execute_plan`).  The
connection has no row factory, so its cursor yields plain tuples in the order
of the ``SELECT`` list, and a plan hands them to the planner as they are.
"""

from __future__ import annotations

import sqlite3
from itertools import repeat
from operator import floordiv
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.errors import StorageError
from repro.storage.backends.base import (
    DATASETS,
    INT_COLUMNS as _INT_COLUMNS,
    REAL_COLUMNS as _REAL_COLUMNS,
    StorageBackend,
    coerce_value as _coerce,
    column_coercer,
    dataset_spec,
)
from repro.storage.plan import Filter, PlanExecution, QueryPlan

#: Pragmas applied to every connection (WAL is swapped for MEMORY when the
#: database itself is in-memory, where WAL journalling is not supported).
_PRAGMAS = (
    ("synchronous", "NORMAL"),
    ("busy_timeout", "30000"),
    ("temp_store", "MEMORY"),
    ("cache_size", "-16000"),
)


#: Column type -> the Python type its coercion produces.
_NATIVE = {"REAL": float, "INTEGER": int, "TEXT": str}


def _column_type(column: str) -> str:
    if column in _REAL_COLUMNS:
        return "REAL"
    if column in _INT_COLUMNS:
        return "INTEGER"
    return "TEXT"


class SQLiteBackend(StorageBackend):
    """On-disk (or ``:memory:``) SQLite engine with batched writes."""

    name = "sqlite"
    persistent = True

    #: Grid bucket size used when neither the caller nor an existing
    #: database specifies one.
    DEFAULT_CELL_SIZE = 4.0

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        cell_size: Optional[float] = None,
        batch_size: int = 2000,
    ) -> None:
        if cell_size is not None and cell_size <= 0:
            raise StorageError("sqlite backend: cell_size must be positive")
        if batch_size < 1:
            raise StorageError("sqlite backend: batch_size must be at least 1")
        self.path = ":memory:" if path is None else str(path)
        self.batch_size = int(batch_size)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = sqlite3.connect(self.path)
            self._pending: Dict[str, List[Tuple]] = {name: [] for name in DATASETS}
            #: Per dataset, in column order: each column's coercion, and the
            #: value types that need none.
            self._coercers = {
                spec.name: tuple(
                    (column_coercer(column), {_NATIVE[_column_type(column)], type(None)})
                    for column in spec.columns
                )
                for spec in DATASETS.values()
            }
            self._closed = False
            self._configure()
            self._create_schema()
            self.cell_size = self._resolve_cell_size(cell_size)
        except sqlite3.Error as error:
            raise StorageError(f"sqlite backend: cannot open {self.path!r} ({error})")

    # ------------------------------------------------------------------ #
    # Connection / schema setup
    # ------------------------------------------------------------------ #
    def _configure(self) -> None:
        journal = "WAL" if self.path != ":memory:" else "MEMORY"
        self._connection.execute(f"PRAGMA journal_mode={journal}")
        for pragma, value in _PRAGMAS:
            self._connection.execute(f"PRAGMA {pragma}={value}")

    def _physical_columns(self, dataset: str) -> Tuple[str, ...]:
        spec = dataset_spec(dataset)
        if spec.spatial:
            return spec.columns + ("cell_x", "cell_y")
        return spec.columns

    def _create_schema(self) -> None:
        cursor = self._connection.cursor()
        cursor.execute("CREATE TABLE IF NOT EXISTS vita_meta (key TEXT PRIMARY KEY, value TEXT)")
        for spec in DATASETS.values():
            columns = ", ".join(
                f"{column} {_column_type(column)}"
                for column in self._physical_columns(spec.name)
            )
            cursor.execute(f"CREATE TABLE IF NOT EXISTS {spec.name} ({columns})")
            for statement in self._index_statements(spec.name):
                cursor.execute(statement)
            if spec.unique_key:
                try:
                    cursor.execute(
                        f"CREATE UNIQUE INDEX IF NOT EXISTS uq_{spec.name} "
                        f"ON {spec.name} ({', '.join(spec.unique_key)})"
                    )
                except sqlite3.IntegrityError:
                    # A database created before the uniqueness contract may
                    # already hold duplicates; keep it readable rather than
                    # refusing to open (new writes stay unguarded there).
                    pass
        self._connection.commit()

    def _resolve_cell_size(self, requested: Optional[float]) -> float:
        """Reconcile the requested grid cell size with the database's own.

        The cell size the spatial buckets were computed with is persisted in
        ``vita_meta``; reopening a database therefore keeps its buckets
        consistent without the caller having to remember the original value.
        An explicit different request re-buckets every spatial row.
        """
        stored = self._connection.execute(
            "SELECT value FROM vita_meta WHERE key = 'cell_size'"
        ).fetchone()
        stored_size = float(stored[0]) if stored else None
        size = requested if requested is not None else (stored_size or self.DEFAULT_CELL_SIZE)
        size = float(size)
        if stored_size is None or stored_size != size:
            if stored_size is not None:
                self._rebucket(size)
            self._connection.execute(
                "INSERT OR REPLACE INTO vita_meta (key, value) VALUES ('cell_size', ?)",
                (repr(size),),
            )
            self._connection.commit()
        return size

    def _rebucket(self, cell_size: float) -> None:
        """Recompute the grid buckets of every spatial row for *cell_size*."""
        for spec in DATASETS.values():
            if not spec.spatial:
                continue
            # Floor division (correct for negative coordinates too), in SQL.
            self._connection.execute(
                f"""
                UPDATE {spec.name}
                SET cell_x = CAST(x / :c AS INTEGER)
                             - (x < 0 AND CAST(x / :c AS INTEGER) * :c != x),
                    cell_y = CAST(y / :c AS INTEGER)
                             - (y < 0 AND CAST(y / :c AS INTEGER) * :c != y)
                WHERE x IS NOT NULL AND y IS NOT NULL
                """,
                {"c": cell_size},
            )

    def _index_statements(self, dataset: str) -> List[str]:
        spec = dataset_spec(dataset)
        indexes: List[Tuple[str, str]] = []
        time_column = spec.time_column
        if time_column is not None:
            # Per-object time index (unless the unique key is that very index)
            # plus a plain time index.
            if spec.unique_key != ("object_id", time_column):
                indexes.append(("object_time", f"object_id, {time_column}"))
            indexes.append(("time", time_column))
        if spec.spatial:
            indexes.append(("grid", f"floor_id, cell_x, cell_y, {time_column}"))
        for column in spec.hash_indexes:
            if column == "object_id" and time_column is not None:
                continue  # covered by the per-object time or the unique index
            if column == "floor_id" and time_column is not None:
                # Equality on the floor plus a time window, in time order.
                indexes.append(("floor_time", f"floor_id, {time_column}"))
                continue
            indexes.append((column, column))
        if dataset == "proximity":
            indexes.append(("interval_end", "t_end"))
        return [
            f"CREATE INDEX IF NOT EXISTS idx_{dataset}_{label} ON {dataset} ({columns})"
            for label, columns in indexes
        ]

    # ------------------------------------------------------------------ #
    # Write path (buffered executemany batches)
    # ------------------------------------------------------------------ #
    def insert_rows(self, dataset: str, rows: List[Tuple]) -> int:
        """Coerce *rows* column by column and queue them for the next drain.

        The whole call is checked and coerced before any row is queued, so a
        row that is not a tuple of the dataset's width, or a bad value,
        raises :class:`StorageError` and queues nothing.
        """
        spec = dataset_spec(dataset)
        columns = spec.columns
        batch = list(rows)
        if not batch:
            return 0
        if set(map(type, batch)) != {tuple} or set(map(len, batch)) != {len(columns)}:
            raise StorageError(
                f"dataset {dataset!r}: a row is a tuple of {len(columns)} values "
                f"in column order ({', '.join(columns)})"
            )
        # By position: a column whose values all have its type already (the
        # generation path's rows) stays as it is; any other is coerced whole.
        values = list(zip(*batch))
        for position, (coerce, native) in enumerate(self._coercers[spec.name]):
            if not set(map(type, values[position])) <= native:
                try:
                    values[position] = list(map(coerce, values[position]))
                except (TypeError, ValueError):
                    for value in values[position]:
                        _coerce(columns[position], value)  # raises, naming the column
                    raise
        if spec.spatial:
            values.extend(self._grid_cells(values[columns.index("x")], values[columns.index("y")]))
        queued = list(zip(*values))
        pending = self._pending[spec.name]
        start = 0
        while start < len(queued):
            room = self.batch_size - len(pending)
            pending.extend(queued[start:start + room])
            start += room
            if len(pending) >= self.batch_size:
                self._drain(dataset)
        self._observe_insert(dataset, len(queued))
        return len(queued)

    def _grid_cells(self, xs: Sequence[Any], ys: Sequence[Any]) -> Tuple[Sequence, Sequence]:
        """The ``cell_x``/``cell_y`` columns of coerced coordinate columns
        (both NULL where either coordinate is)."""
        size = self.cell_size
        if None in xs or None in ys:
            cells = [
                (None, None) if x is None or y is None else (int(x // size), int(y // size))
                for x, y in zip(xs, ys)
            ]
            return tuple(zip(*cells))
        return (
            list(map(int, map(floordiv, xs, repeat(size)))),
            list(map(int, map(floordiv, ys, repeat(size)))),
        )

    def _drain(self, dataset: str) -> None:
        pending = self._pending[dataset]
        if not pending:
            return
        columns = self._physical_columns(dataset)
        placeholders = ", ".join("?" for _ in columns)
        # A savepoint scopes the rejection to this batch: a duplicate key
        # rolls back the partially applied executemany only, leaving rows
        # other datasets drained earlier in the same transaction intact —
        # the same batch-atomic behaviour as the memory engine.
        self._connection.execute("SAVEPOINT drain_batch")
        try:
            self._connection.executemany(
                f"INSERT INTO {dataset} ({', '.join(columns)}) VALUES ({placeholders})",
                pending,
            )
        except sqlite3.IntegrityError as error:
            self._connection.execute("ROLLBACK TO drain_batch")
            self._connection.execute("RELEASE drain_batch")
            pending.clear()
            unique_key = dataset_spec(dataset).unique_key
            raise StorageError(
                f"dataset {dataset!r}: duplicate row for unique key "
                f"({', '.join(unique_key)}) [{error}]"
            )
        self._connection.execute("RELEASE drain_batch")
        pending.clear()

    def flush(self) -> None:
        if self._closed:
            return
        for dataset in DATASETS:
            self._drain(dataset)
        self._connection.commit()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._connection.close()
        self._closed = True

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def count(self, dataset: str) -> int:
        dataset_spec(dataset)
        self._drain(dataset)
        (total,) = self._connection.execute(f"SELECT COUNT(*) FROM {dataset}").fetchone()
        return int(total)

    def time_bounds(self, dataset: str) -> Optional[Tuple[float, float]]:
        time_column = dataset_spec(dataset).time_column
        if time_column is None:
            raise StorageError(f"dataset {dataset!r} has no time column")
        self._drain(dataset)
        low, high = self._connection.execute(
            f"SELECT MIN({time_column}), MAX({time_column}) FROM {dataset}"
        ).fetchone()
        if low is None:
            return None
        return (low, high)

    def clear(self, dataset: str) -> None:
        dataset_spec(dataset)
        self._pending[dataset].clear()
        self._connection.execute(f"DELETE FROM {dataset}")
        self._connection.commit()

    # ------------------------------------------------------------------ #
    # Logical-plan execution (compilation to parameterized SQL)
    # ------------------------------------------------------------------ #
    def _filter_sql(self, filter_: Filter, params: List[Any]) -> Optional[str]:
        """The SQL clause for one predicate, or ``None`` when not pushable.

        NULL handling intentionally mirrors the Python fallback (missing
        values satisfy ``!=``/``not_in`` and fail everything else), so both
        engines return identical rows.
        """
        column, op, value = filter_.column, filter_.op, filter_.value
        if op == "python":
            return None
        if op in ("in", "not_in"):
            # Members the column type cannot represent can never match a cell
            # (same as the Python fallback), so they just drop out of the set.
            others = []
            for member in value:
                if member is None:
                    continue
                try:
                    others.append(_coerce(column, member))
                except StorageError:
                    pass
            placeholders = ", ".join("?" for _ in others)
            params.extend(others)
            if op == "in":
                if None in value:
                    return f"({column} IS NULL OR {column} IN ({placeholders}))"
                return f"{column} IN ({placeholders})"
            if None in value:
                return f"({column} IS NOT NULL AND {column} NOT IN ({placeholders}))"
            return f"({column} IS NULL OR {column} NOT IN ({placeholders}))"
        if op == "between":
            low, high = value
            try:
                params.extend((_coerce(column, low), _coerce(column, high)))
            except StorageError:
                return "0 = 1"  # an unrepresentable bound matches nothing
            return f"{column} BETWEEN ? AND ?"
        if value is None:
            if op == "==":
                return f"{column} IS NULL"
            if op == "!=":
                return f"{column} IS NOT NULL"
            return "0 = 1"  # inequality against NULL matches nothing
        try:
            params.append(_coerce(column, value))
        except StorageError:
            # No cell can equal or order against an unrepresentable value;
            # only '!=' is satisfied (by every row, NULLs included).
            return "1 = 1" if op == "!=" else "0 = 1"
        if op == "==":
            return f"{column} = ?"
        if op == "!=":
            return f"({column} IS NULL OR {column} != ?)"
        return f"{column} {op} ?"

    def execute_plan(self, plan: QueryPlan) -> PlanExecution:
        """Compile *plan* to one parameterized SQL statement.

        Everything except callable (``python``) predicates is pushed down:
        filters and the time window become WHERE clauses over the engine's
        indices, a region becomes a grid-bucket prefilter plus the exact box,
        projections/ordering/limits compile directly, and the aggregate verbs
        become SQL aggregates.  When a callable predicate is present, the
        engine still pushes the WHERE/ORDER BY work but leaves limiting,
        projection and aggregation to the planner (they must run after the
        Python predicate).
        """
        spec = dataset_spec(plan.dataset)
        pushed: List[Tuple[str, str]] = []
        where: List[str] = []
        params: List[Any] = []
        residual: List[Filter] = []

        for filter_ in plan.filters:
            clause = self._filter_sql(filter_, params)
            if clause is None:
                residual.append(filter_)
            else:
                where.append(clause)
                pushed.append((f"where {filter_.describe()}", f"SQL predicate {clause}"))
        if plan.time_range is not None:
            low, high = plan.time_range
            where.append(f"{spec.time_column} BETWEEN ? AND ?")
            params.extend((float(low), float(high)))
            pushed.append(
                ("during", f"SQL {spec.time_column} BETWEEN ? AND ? (time index)")
            )
        if plan.region is not None:
            region = plan.region
            where.append(
                "cell_x BETWEEN ? AND ? AND cell_y BETWEEN ? AND ? "
                "AND x BETWEEN ? AND ? AND y BETWEEN ? AND ?"
            )
            params.extend(
                (
                    int(region.min_x // self.cell_size),
                    int(region.max_x // self.cell_size),
                    int(region.min_y // self.cell_size),
                    int(region.max_y // self.cell_size),
                    region.min_x,
                    region.max_x,
                    region.min_y,
                    region.max_y,
                )
            )
            pushed.append(
                ("within", "spatial grid-bucket index prefilter + exact box")
            )

        where_sql = f" WHERE {' AND '.join(where)}" if where else ""
        fully_filtered = not residual

        order_sql = " ORDER BY rowid"  # deterministic insertion order
        if plan.order_by:
            terms = ", ".join(
                f"{column} {'DESC' if descending else 'ASC'}"
                for column, descending in plan.order_by
            )
            order_sql = f" ORDER BY {terms}, rowid"
            pushed.append(("order_by", f"SQL ORDER BY {terms}"))

        aggregate = plan.aggregate
        if aggregate is not None and fully_filtered:
            sql, finish = self._aggregate_sql(plan.dataset, aggregate, where_sql)
            pushed.append((f"aggregate {aggregate.describe()}", "SQL aggregate"))
            pushed.append(("sql", sql))
            bound = tuple(params)

            def aggregate_thunk() -> Any:
                self._drain(plan.dataset)
                return finish(self._connection.execute(sql, bound))

            return PlanExecution(rows=lambda: iter(()), pushed=pushed,
                                 aggregate_thunk=aggregate_thunk)

        if fully_filtered and plan.columns is not None:
            columns = plan.columns
            pushed.append(("select", f"SQL projection ({', '.join(columns)})"))
        else:
            columns = spec.columns

        limit_sql = ""
        needs_limit = plan.limit is not None or plan.offset > 0
        if fully_filtered and (plan.limit is not None or plan.offset):
            limit = plan.limit if plan.limit is not None else -1
            limit_sql = f" LIMIT {int(limit)} OFFSET {int(plan.offset)}"
            pushed.append(("limit", f"SQL LIMIT {limit} OFFSET {plan.offset}"))
            needs_limit = False

        sql = (
            f"SELECT {', '.join(columns)} FROM {plan.dataset}"
            f"{where_sql}{order_sql}{limit_sql}"
        )
        pushed.append(("sql", sql))
        bound = tuple(params)

        def rows() -> Iterator[Tuple]:
            self._drain(plan.dataset)
            return self._connection.execute(sql, bound)

        return PlanExecution(
            rows=rows,
            columns=columns,
            pushed=pushed,
            residual_filters=tuple(residual),
            needs_projection=not fully_filtered and plan.columns is not None,
            needs_limit=needs_limit,
        )

    def _aggregate_sql(self, dataset: str, aggregate, where_sql: str):
        """``(sql, cursor -> value)`` for a fully pushed aggregate."""
        if aggregate.kind == "count":
            sql = f"SELECT COUNT(*) FROM {dataset}{where_sql}"
            return sql, lambda cursor: int(cursor.fetchone()[0])
        if aggregate.kind == "count_by":
            sql = (
                f"SELECT {aggregate.by}, COUNT(*) FROM {dataset}{where_sql} "
                f"GROUP BY {aggregate.by}"
            )
            return sql, lambda cursor: {row[0]: int(row[1]) for row in cursor.fetchall()}
        if aggregate.kind == "count_distinct_by":
            sql = (
                f"SELECT {aggregate.by}, COUNT(DISTINCT {aggregate.column}) "
                f"FROM {dataset}{where_sql} GROUP BY {aggregate.by}"
            )
            return sql, lambda cursor: {row[0]: int(row[1]) for row in cursor.fetchall()}
        if aggregate.kind == "distinct":
            sql = (
                f"SELECT DISTINCT {aggregate.column} FROM {dataset}{where_sql} "
                f"ORDER BY {aggregate.column}"
            )
            return sql, lambda cursor: [row[0] for row in cursor.fetchall()]
        # stats
        selected = (
            f"COUNT({aggregate.column}), AVG({aggregate.column}), "
            f"MIN({aggregate.column}), MAX({aggregate.column}), SUM({aggregate.column})"
        )

        def to_stats(values) -> Optional[Dict[str, float]]:
            count, mean, low, high, total = values
            if not count:
                return None
            return {
                "count": float(count),
                "mean": float(mean),
                "min": low,
                "max": high,
                "sum": float(total),
            }

        if aggregate.by is None:
            sql = f"SELECT {selected} FROM {dataset}{where_sql}"
            return sql, lambda cursor: to_stats(cursor.fetchone())
        sql = (
            f"SELECT {aggregate.by}, {selected} FROM {dataset}{where_sql} "
            f"GROUP BY {aggregate.by}"
        )
        return sql, lambda cursor: {row[0]: to_stats(row[1:]) for row in cursor.fetchall()}

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update(
            {
                "path": self.path,
                "cell_size": self.cell_size,
                "batch_size": self.batch_size,
                "journal_mode": self._connection.execute(
                    "PRAGMA journal_mode"
                ).fetchone()[0],
            }
        )
        return info


__all__ = ["SQLiteBackend"]
