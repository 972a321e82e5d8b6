"""The logical query plan shared by the builder and the storage engines.

The composable query layer splits a query into three stages:

1. the fluent builder (:mod:`repro.storage.query`) accumulates predicates and
   compiles them into one immutable :class:`QueryPlan`;
2. the storage engine inspects the plan and *pushes down* whatever it can
   execute natively — parameterized SQL on SQLite, the hash/time indices on
   the memory engine — returning a :class:`PlanExecution` that pairs a lazy
   source of row tuples with a record of what was pushed and what remains;
3. the planner (:func:`repro.storage.query.run_plan`) applies the
   *residual* steps (un-pushed filters, ordering, projection, limits,
   aggregation) as a streaming Python fallback over those tuples.

Everything in this module is engine-independent: plain dataclasses plus the
portable Python evaluators the fallback path uses.  Keeping the datatypes
here (rather than in :mod:`repro.storage.query`) lets the backend base class
import them without a circular dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import StorageError

#: A result row as the builder's dict terminals return it.
Row = Dict[str, Any]

#: Comparison operators a :class:`Filter` may carry.  ``python`` marks an
#: arbitrary callable predicate, which no engine can push down.
FILTER_OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "not_in", "between", "python")


@dataclass(frozen=True)
class Filter:
    """One column predicate: ``column <op> value``.

    For ``in``/``not_in`` the value is a tuple of candidates; for ``between``
    a ``(low, high)`` pair; for ``python`` a callable ``Row -> bool`` (the
    column is then purely informational and may be ``"*"``).
    """

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise StorageError(
                f"unknown filter operator {self.op!r}; expected one of {FILTER_OPS}"
            )
        if self.op in ("in", "not_in") and not isinstance(self.value, tuple):
            object.__setattr__(self, "value", tuple(self.value))
        if self.op == "between":
            low, high = self.value  # raises early on malformed pairs
            object.__setattr__(self, "value", (low, high))
        if self.op == "python" and not callable(self.value):
            raise StorageError("a 'python' filter requires a callable predicate")

    def describe(self) -> str:
        if self.op == "python":
            name = getattr(self.value, "__name__", "<lambda>")
            return f"python:{name}"
        if self.op == "between":
            return f"{self.column} between {self.value[0]!r} and {self.value[1]!r}"
        return f"{self.column} {self.op} {self.value!r}"

    def matches(self, row: Row) -> bool:
        """Evaluate this predicate against a row (the portable fallback)."""
        if self.op == "python":
            return bool(self.value(row))
        return self.matches_cell(row.get(self.column))

    def matches_cell(self, cell: Any) -> bool:
        """Evaluate a column predicate against one cell of its column."""
        if self.op == "==":
            return cell == self.value
        if self.op == "!=":
            return cell != self.value
        if self.op == "in":
            return cell in self.value
        if self.op == "not_in":
            return cell not in self.value
        if cell is None:
            return False  # SQL semantics: NULL never satisfies an inequality
        try:
            if self.op == "<":
                return cell < self.value
            if self.op == "<=":
                return cell <= self.value
            if self.op == ">":
                return cell > self.value
            if self.op == ">=":
                return cell >= self.value
            return self.value[0] <= cell <= self.value[1]  # between
        except TypeError:
            return False  # incomparable value types can never match a cell


@dataclass(frozen=True)
class Region:
    """An axis-aligned floor rectangle over the ``x``/``y`` columns."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def describe(self) -> str:
        return (
            f"x in [{self.min_x:g}, {self.max_x:g}], "
            f"y in [{self.min_y:g}, {self.max_y:g}]"
        )

    def matches(self, row: Row) -> bool:
        return self.contains(row.get("x"), row.get("y"))

    def contains(self, x: Any, y: Any) -> bool:
        """Whether the point ``(x, y)`` lies in the box (never a missing one)."""
        if x is None or y is None:
            return False
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y


@dataclass(frozen=True)
class Aggregate:
    """A terminal aggregation verb.

    ``kind`` is one of ``count`` (rows), ``count_by`` (rows per group),
    ``count_distinct_by`` (distinct *column* values per group), ``distinct``
    (sorted distinct values of *column*) or ``stats`` (count/mean/min/max/sum
    of *column*, optionally grouped by *by*).
    """

    kind: str
    column: Optional[str] = None
    by: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "count":
            return "count(*)"
        if self.kind == "count_by":
            return f"count(*) by {self.by}"
        if self.kind == "count_distinct_by":
            return f"count(distinct {self.column}) by {self.by}"
        if self.kind == "distinct":
            return f"distinct {self.column}"
        return f"stats({self.column})" + (f" by {self.by}" if self.by else "")


@dataclass(frozen=True)
class QueryPlan:
    """The immutable logical plan one builder query compiles to."""

    dataset: str
    filters: Tuple[Filter, ...] = ()
    time_range: Optional[Tuple[float, float]] = None
    region: Optional[Region] = None
    columns: Optional[Tuple[str, ...]] = None
    #: ``(column, descending)`` pairs, applied left to right.
    order_by: Tuple[Tuple[str, bool], ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    aggregate: Optional[Aggregate] = None

    def extend(self, **changes: Any) -> "QueryPlan":
        """A copy of this plan with *changes* applied (builders are immutable)."""
        return replace(self, **changes)


@dataclass
class PlanExecution:
    """What an engine hands back for one plan: a lazy source of row tuples
    plus a faithful record of the work it took on versus the work it left
    over.

    ``rows`` and ``aggregate_thunk`` are zero-argument thunks so that
    ``explain()`` can inspect the push-down decision without touching any
    data.  The rows are tuples in ``columns`` order: ``select()``'s columns
    when the engine pushed the projection, else the dataset's.  The residual
    fields name exactly the steps the planner must still run in Python; each
    ``pushed`` entry is a ``(step, how)`` pair naming a plan step and the
    native mechanism that executed it (index, SQL clause, ...).
    """

    rows: Callable[[], Iterator[Tuple]]
    columns: Tuple[str, ...] = ()
    pushed: List[Tuple[str, str]] = field(default_factory=list)
    residual_filters: Tuple[Filter, ...] = ()
    residual_region: Optional[Region] = None
    residual_order: Tuple[Tuple[str, bool], ...] = ()
    needs_projection: bool = False
    needs_limit: bool = False
    #: Engine-native aggregate execution; ``None`` when the aggregate (if
    #: any) is left to the portable fallback.
    aggregate_thunk: Optional[Callable[[], Any]] = None

    def residual_steps(self) -> List[str]:
        """Human-readable names of the Python-fallback steps."""
        steps = [f"filter {f.describe()}" for f in self.residual_filters]
        if self.residual_region is not None:
            steps.append(f"region {self.residual_region.describe()}")
        for column, descending in self.residual_order:
            steps.append(f"order by {column}{' desc' if descending else ''}")
        if self.needs_limit:
            steps.append("limit/offset")
        if self.needs_projection:
            steps.append("project columns")
        return steps


# --------------------------------------------------------------------------- #
# Portable evaluators used by the streaming Python fallback.  They read row
# tuples by column position, looked up once per plan.
# --------------------------------------------------------------------------- #
def apply_filters(
    rows: Iterable[Tuple],
    columns: Tuple[str, ...],
    filters: Tuple[Filter, ...],
    region: Optional[Region] = None,
) -> Iterator[Tuple]:
    """Stream row tuples in *columns* order through the residual predicates.

    The region and the column filters run first, then callable predicates,
    as on SQLite, where only the callables stay residual.  A callable gets a
    fresh ``dict(zip(columns, row))``, built only for the rows that reach it.
    """
    position = {column: index for index, column in enumerate(columns)}
    tests: List[Callable[[Tuple], bool]] = []
    if region is not None:
        x, y, contains = position["x"], position["y"], region.contains
        tests.append(lambda row: contains(row[x], row[y]))
    for f in sorted(filters, key=lambda f: f.op == "python"):
        if f.op == "python":
            tests.append(lambda row, test=f.value: bool(test(dict(zip(columns, row)))))
        else:
            tests.append(lambda row, at=position[f.column], test=f.matches_cell: test(row[at]))
    if not tests:
        return iter(rows)
    if len(tests) == 1:
        return filter(tests[0], rows)
    return filter(lambda row: all(test(row) for test in tests), rows)


def apply_order(
    rows: Iterable[Tuple], columns: Tuple[str, ...], order_by: Tuple[Tuple[str, bool], ...]
) -> List[Tuple]:
    """Stable multi-key sort (applied right-to-left, like SQL ORDER BY)."""
    ordered = list(rows)
    for column, descending in reversed(order_by):
        at = columns.index(column)
        # None sorts before any value, mirroring SQLite's NULLS-first default.
        ordered.sort(key=lambda row: ((cell := row[at]) is not None, cell), reverse=descending)
    return ordered


def apply_projection(
    rows: Iterable[Tuple], columns: Tuple[str, ...], selected: Tuple[str, ...]
) -> Iterator[Tuple]:
    """Stream row tuples in *columns* order as tuples of their *selected* values."""
    positions = [columns.index(column) for column in selected]
    if len(positions) == 1:  # itemgetter of one key returns the bare value
        at = positions[0]
        return map(lambda row: (row[at],), rows)
    return map(itemgetter(*positions), rows)


def compute_aggregate(rows: Iterable[Tuple], columns: Tuple[str, ...], aggregate: Aggregate) -> Any:
    """The portable fallback for every aggregate kind."""
    if aggregate.kind == "count":
        return sum(1 for _ in rows)
    value = itemgetter(columns.index(aggregate.column)) if aggregate.column is not None else None
    group = itemgetter(columns.index(aggregate.by)) if aggregate.by is not None else None
    if aggregate.kind == "count_by":
        counts: Dict[Any, int] = {}
        for key in map(group, rows):
            counts[key] = counts.get(key, 0) + 1
        return counts
    if aggregate.kind == "count_distinct_by":
        groups: Dict[Any, set] = {}
        for row in rows:
            values = groups.setdefault(group(row), set())
            cell = value(row)
            if cell is not None:  # COUNT(DISTINCT col) ignores NULLs in SQL
                values.add(cell)
        return {key: len(values) for key, values in groups.items()}
    if aggregate.kind == "distinct":
        return sorted_distinct(map(value, rows))
    if aggregate.kind == "stats":
        if group is None:
            return _stats(list(map(value, rows)))
        grouped: Dict[Any, List[float]] = {}
        for row in rows:
            grouped.setdefault(group(row), []).append(value(row))
        return {key: _stats(values) for key, values in grouped.items()}
    raise StorageError(f"unknown aggregate kind {aggregate.kind!r}")


def sorted_distinct(values: Iterable[Any]) -> List[Any]:
    """Distinct *values*, ``None`` first then sorted (SQL ``DISTINCT`` order)."""
    unique = set(values)
    has_none = None in unique
    unique.discard(None)
    return ([None] if has_none else []) + sorted(unique)


def _stats(values: List[Any]) -> Optional[Dict[str, float]]:
    values = [value for value in values if value is not None]
    if not values:
        return None
    return {
        "count": float(len(values)),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "sum": float(sum(values)),
    }


__all__ = [
    "Row",
    "FILTER_OPS",
    "Filter",
    "Region",
    "Aggregate",
    "QueryPlan",
    "PlanExecution",
    "apply_filters",
    "apply_order",
    "apply_projection",
    "compute_aggregate",
    "sorted_distinct",
]
