"""The in-memory storage engine.

This is the original storage layer of the reproduction, refactored behind the
:class:`~repro.storage.backends.base.StorageBackend` interface: one indexed
:class:`~repro.storage.tables.Table` per dataset, holding the row tuples it
is given, with hash indexes on the equality-queried columns and a sorted
index on the time column.  Data lives for the duration of the process; the
engine is the default because it needs no configuration and is fastest for
small and medium runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.storage.backends.base import DATASETS, StorageBackend, dataset_spec
from repro.storage.plan import Filter, PlanExecution, QueryPlan, sorted_distinct
from repro.storage.tables import Table, TableSchema


class MemoryBackend(StorageBackend):
    """Indexed in-memory tables (volatile, zero-configuration)."""

    name = "memory"
    persistent = False

    #: Columns whose hash index is worth preferring over a time window:
    #: per-entity identifiers keep a small row count per key, whereas
    #: categorical columns (floor_id, partition_id, method, ...) each cover a
    #: large slice of the table and would demote a narrow time window to a
    #: Python residual filter.
    HIGH_SELECTIVITY_COLUMNS = frozenset({"object_id", "device_id"})

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {
            spec.name: Table(
                TableSchema(
                    name=spec.name,
                    columns=spec.columns,
                    hash_indexes=spec.hash_indexes,
                    ordered_index=spec.time_column,
                    unique_key=spec.unique_key,
                )
            )
            for spec in DATASETS.values()
        }

    def table_handle(self, dataset: str) -> Table:
        """The underlying :class:`Table` of row tuples (memory-engine escape
        hatch: the stored rows as they are, in insertion order)."""
        dataset_spec(dataset)
        return self._tables[dataset]

    # ------------------------------------------------------------------ #
    # Storage primitives
    # ------------------------------------------------------------------ #
    def insert_rows(self, dataset: str, rows: List[Tuple]) -> int:
        inserted = self.table_handle(dataset).insert_many(rows)
        self._observe_insert(dataset, inserted)
        return inserted

    def count(self, dataset: str) -> int:
        return len(self.table_handle(dataset))

    def time_bounds(self, dataset: str) -> Optional[Tuple[float, float]]:
        if dataset_spec(dataset).time_column is None:
            raise StorageError(f"dataset {dataset!r} has no time column")
        return self.table_handle(dataset).ordered_bounds()

    def clear(self, dataset: str) -> None:
        self.table_handle(dataset).clear()

    # ------------------------------------------------------------------ #
    # Logical-plan execution (index-aware push-down)
    # ------------------------------------------------------------------ #
    def execute_plan(self, plan: QueryPlan) -> PlanExecution:
        """Choose the best in-memory access path for *plan*.

        Access-path order of preference: a hash index on a high-selectivity
        equality filter (per-entity ids), else the sorted time index for a
        time window or a time-ordered scan, else any remaining hash-indexed
        equality, else a full table scan.  Whatever the chosen path does not
        answer stays residual for the planner's Python fallback; aggregates
        are absorbed when nothing residual is left in front of them.
        """
        spec = dataset_spec(plan.dataset)
        table = self.table_handle(plan.dataset)
        pushed: List[Tuple[str, str]] = []
        residual = list(plan.filters)
        time_ordered = False

        hash_candidates = [
            f for f in residual if f.op == "==" and f.column in spec.hash_indexes
        ]
        hash_eq = next(
            (f for f in hash_candidates if f.column in self.HIGH_SELECTIVITY_COLUMNS),
            None,
        )
        if hash_eq is None and plan.time_range is None:
            # Without a time window any indexed equality beats a full scan.
            hash_eq = next(iter(hash_candidates), None)
        if hash_eq is not None:
            residual.remove(hash_eq)
            rows = lambda: iter(table.lookup(hash_eq.column, hash_eq.value))
            pushed.append((f"where {hash_eq.describe()}", f"hash index on {hash_eq.column}"))
            if plan.time_range is not None:
                residual.append(Filter(spec.time_column, "between", plan.time_range))
        elif plan.time_range is not None and spec.time_column is not None:
            low, high = plan.time_range
            rows = lambda: iter(table.range(low, high))
            pushed.append(
                ("during", f"sorted {spec.time_column} index (bisect range scan)")
            )
            time_ordered = True
        elif (
            spec.time_column is not None
            and plan.order_by == ((spec.time_column, False),)
        ):
            rows = table.iter_ordered
            pushed.append(("order_by", f"sorted {spec.time_column} index scan"))
            time_ordered = True
        else:
            rows = lambda: iter(table.all_rows())

        residual_order = plan.order_by
        if time_ordered and plan.order_by == ((spec.time_column, False),):
            residual_order = ()
            if plan.time_range is not None:
                pushed.append(("order_by", f"sorted {spec.time_column} index"))

        execution = PlanExecution(
            rows=rows,
            columns=spec.columns,
            pushed=pushed,
            residual_filters=tuple(residual),
            residual_region=plan.region,
            residual_order=residual_order,
            needs_projection=plan.columns is not None,
            needs_limit=plan.limit is not None or plan.offset > 0,
        )

        aggregate = plan.aggregate
        if aggregate is None:
            return execution
        fully_answered = not residual and plan.region is None
        if fully_answered and aggregate.kind == "count":
            if hash_eq is None and plan.time_range is None:
                execution.aggregate_thunk = lambda: len(table)
                pushed.append(("aggregate count(*)", "table length (O(1))"))
            else:
                execution.aggregate_thunk = lambda: sum(1 for _ in rows())
                pushed.append(("aggregate count(*)", "chosen access path row count"))
        elif aggregate.kind == "count_by" and fully_answered and hash_eq is None \
                and plan.time_range is None:
            execution.aggregate_thunk = lambda: table.count_by(aggregate.by)
            how = (
                f"hash index on {aggregate.by}"
                if aggregate.by in spec.hash_indexes
                else "single table scan"
            )
            pushed.append((f"aggregate {aggregate.describe()}", how))
        elif aggregate.kind == "distinct" and fully_answered and hash_eq is None \
                and plan.time_range is None:
            execution.aggregate_thunk = lambda: sorted_distinct(
                table.distinct(aggregate.column)
            )
            how = (
                f"hash index on {aggregate.column}"
                if aggregate.column in spec.hash_indexes
                else "single table scan"
            )
            pushed.append((f"aggregate {aggregate.describe()}", how))
        return execution


__all__ = ["MemoryBackend"]
