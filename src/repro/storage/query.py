"""The composable query builder over the pluggable storage backends.

The paper's Data Stream APIs "encapsulate commonly used functions and query
processing algorithms"; this module generalises them from a fixed method set
into a small declarative query language:

>>> (warehouse.query("trajectory")
...     .during(0.0, 120.0)
...     .on_floor(2)
...     .within(box)
...     .where(object_id="o12")
...     .select("object_id", "t")
...     .order_by("t")
...     .limit(100)
...     .all())

A :class:`Query` is immutable and lazy: every chained call returns a new
builder, and nothing touches the storage engine until a terminal verb runs
(``all``/``iter``/``tuples``/``first``/``records``/``count``/``count_by``/
``distinct``/``stats``/``snapshot``/``knn``).  The terminal compiles the builder state into
a :class:`~repro.storage.plan.QueryPlan` and hands it to the engine, which
pushes down whatever it can execute natively — parameterized SQL on SQLite,
the hash/time indices on the memory engine.  The planner then streams the
engine's row tuples through the *residual* steps in Python, so every query
returns identical results on every engine, differing only in how much work
the engine absorbed.  :meth:`Query.explain` reports that split without
reading any data.  Every read runs this one pipeline over row tuples: the
dict terminals build a fresh dict per row at the edge, and
:meth:`Query.tuples` streams the tuples themselves for bulk consumers such as
replay.
"""

from __future__ import annotations

import time
from itertools import islice, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.storage.backends.base import StorageBackend, coerce_value, dataset_spec
from repro.storage.plan import (
    Aggregate,
    Filter,
    PlanExecution,
    QueryPlan,
    Region,
    Row,
    apply_filters,
    apply_order,
    apply_projection,
    compute_aggregate,
)

#: Operator spellings accepted by :meth:`Query.where` (``=`` is an alias).
_WHERE_OPS = {
    "=": "==",
    **{op: op for op in ("==", "!=", "<", "<=", ">", ">=", "in", "not_in", "between")},
}


# --------------------------------------------------------------------------- #
# The planner: engine push-down plus streaming Python residual execution
# --------------------------------------------------------------------------- #
def run_plan(backend: StorageBackend, plan: QueryPlan) -> Any:
    """Execute *plan* on *backend*: push down, then stream the residual steps.

    Returns an iterator of row dicts for row plans, or the computed value for
    aggregate plans.
    """
    if plan.aggregate is not None:
        execution = backend.execute_plan(plan)
        if execution.aggregate_thunk is not None:
            return execution.aggregate_thunk()
        return _fallback_aggregate(execution, plan, execution.rows())
    columns, rows = _run_rows(backend, plan)
    return map(dict, map(zip, repeat(columns), rows))


def _run_rows(backend: StorageBackend, plan: QueryPlan) -> Tuple[Tuple[str, ...], Iterator[Tuple]]:
    """Execute row plan *plan* on *backend*: the result's column order, and
    its rows as tuples in that order (the one pipeline every row read runs)."""
    execution = backend.execute_plan(plan)
    return _residual(execution, plan, execution.rows())


def _residual(
    execution: PlanExecution, plan: QueryPlan, rows: Iterator[Tuple]
) -> Tuple[Tuple[str, ...], Iterator[Tuple]]:
    """Stream the engine's row tuples through the residual steps of *execution*."""
    columns = execution.columns
    rows = apply_filters(rows, columns, execution.residual_filters, execution.residual_region)
    if execution.residual_order:
        rows = iter(apply_order(rows, columns, execution.residual_order))
    if execution.needs_limit and (plan.limit is not None or plan.offset):
        stop = None if plan.limit is None else plan.offset + plan.limit
        rows = islice(rows, plan.offset, stop)
    if execution.needs_projection and plan.columns is not None:
        rows = apply_projection(rows, columns, plan.columns)
        columns = plan.columns
    return columns, rows


def _fallback_aggregate(execution: PlanExecution, plan: QueryPlan, rows: Iterator[Tuple]) -> Any:
    """The aggregate of *plan* over the engine's rows, in Python."""
    columns = execution.columns
    rows = apply_filters(rows, columns, execution.residual_filters, execution.residual_region)
    return compute_aggregate(rows, columns, plan.aggregate)


def explain_plan(backend: StorageBackend, plan: QueryPlan) -> Dict[str, Any]:
    """What *backend* would do for *plan*, without executing it."""
    return _describe_execution(backend, plan, backend.execute_plan(plan))


def _describe_execution(backend: StorageBackend, plan: QueryPlan, execution) -> Dict[str, Any]:
    residual = execution.residual_steps()
    if plan.aggregate is not None and execution.aggregate_thunk is None:
        residual.append(f"aggregate {plan.aggregate.describe()}")
    pushed = [f"{step}: {how}" for step, how in execution.pushed]
    if not pushed:
        pushdown = "none"
    elif residual:
        pushdown = "partial"
    else:
        pushdown = "full"
    return {
        "backend": backend.name,
        "dataset": plan.dataset,
        "plan": _describe_plan(plan),
        "pushed": pushed,
        "residual": residual,
        "pushdown": pushdown,
    }


def profile_plan(backend: StorageBackend, plan: QueryPlan) -> Dict[str, Any]:
    """Execute *plan* and report where the time went.

    :func:`explain_plan` extended with measurements: per-stage wall time
    (plan compilation / push-down, engine execution, residual Python steps),
    rows scanned (what the engine handed back) versus rows returned (after
    the residual pipeline), and — on SQLite — the pushed statement with its
    wall time (the engine compiles one statement per plan, so the backend
    stage *is* the statement timing).

    A measurement run, not a lazy one: the engine's row tuples are
    materialised to separate engine time from residual time, so profile a
    representative query, not an unbounded scan.  Results are identical to
    :func:`run_plan` — the same execution pipeline runs, with counting in
    between, and no row dict is built except for a callable predicate.
    """
    total_start = time.perf_counter()
    execution = backend.execute_plan(plan)
    compile_seconds = time.perf_counter() - total_start
    report = _describe_execution(backend, plan, execution)

    rows_scanned: Optional[int] = None
    rows_returned: Optional[int] = None
    result: Dict[str, Any]
    if plan.aggregate is not None and execution.aggregate_thunk is not None:
        # Engine-side aggregate: the engine scans internally, so only its
        # wall time is observable, not a row count.
        backend_start = time.perf_counter()
        value = execution.aggregate_thunk()
        backend_seconds = time.perf_counter() - backend_start
        residual_seconds = 0.0
        result = {"kind": "aggregate", "value": value}
    else:
        backend_start = time.perf_counter()
        scanned = list(execution.rows())
        backend_seconds = time.perf_counter() - backend_start
        rows_scanned = len(scanned)
        residual_start = time.perf_counter()
        if plan.aggregate is not None:
            value = _fallback_aggregate(execution, plan, iter(scanned))
            result = {"kind": "aggregate", "value": value}
        else:
            rows_returned = sum(1 for _ in _residual(execution, plan, iter(scanned))[1])
            result = {"kind": "rows", "count": rows_returned}
        residual_seconds = time.perf_counter() - residual_start

    report["stages"] = {
        "compile_seconds": compile_seconds,
        "backend_seconds": backend_seconds,
        "residual_seconds": residual_seconds,
        "total_seconds": time.perf_counter() - total_start,
    }
    report["rows"] = {"scanned": rows_scanned, "returned": rows_returned}
    report["statements"] = [
        {"sql": how, "seconds": backend_seconds}
        for step, how in execution.pushed
        if step == "sql"
    ]
    report["result"] = result
    return report


def _describe_plan(plan: QueryPlan) -> Dict[str, Any]:
    described: Dict[str, Any] = {"dataset": plan.dataset}
    if plan.time_range is not None:
        described["during"] = list(plan.time_range)
    if plan.region is not None:
        described["within"] = plan.region.describe()
    if plan.filters:
        described["where"] = [f.describe() for f in plan.filters]
    if plan.columns is not None:
        described["select"] = list(plan.columns)
    if plan.order_by:
        described["order_by"] = [
            f"{column}{' desc' if descending else ''}" for column, descending in plan.order_by
        ]
    if plan.limit is not None:
        described["limit"] = plan.limit
    if plan.offset:
        described["offset"] = plan.offset
    if plan.aggregate is not None:
        described["aggregate"] = plan.aggregate.describe()
    return described


# --------------------------------------------------------------------------- #
# The fluent builder
# --------------------------------------------------------------------------- #
class Query:
    """An immutable, lazily evaluated query over one dataset of one backend."""

    def __init__(self, backend: StorageBackend, dataset: str, _plan: Optional[QueryPlan] = None):
        self._spec = dataset_spec(dataset)
        self._backend = backend
        self._plan = _plan if _plan is not None else QueryPlan(dataset=dataset)

    def _derive(self, **changes: Any) -> "Query":
        return Query(self._backend, self._plan.dataset, self._plan.extend(**changes))

    def _check_column(self, column: str) -> str:
        if column not in self._spec.columns:
            raise StorageError(
                f"dataset {self._plan.dataset!r} has no column {column!r}; "
                f"columns are {list(self._spec.columns)}"
            )
        return column

    def _coerced(self, column: str, op: str, value: Any) -> Any:
        """Normalise *value* to the column's type at build time, so a bad
        predicate fails immediately and identically on every engine."""
        if op in ("in", "not_in"):
            return tuple(
                member if member is None else coerce_value(column, member)
                for member in value
            )
        if op == "between":
            low, high = value
            return (coerce_value(column, low), coerce_value(column, high))
        return coerce_value(column, value)

    # ------------------------------------------------------------------ #
    # Chainable predicate / shaping verbs
    # ------------------------------------------------------------------ #
    def where(self, *condition: Any, **equalities: Any) -> "Query":
        """Add predicates.

        Three spellings::

            .where(object_id="o12", floor_id=2)   # keyword equalities
            .where("rssi", "<", -60.0)            # explicit operator
            .where(lambda row: row["x"] > row["y"])  # arbitrary predicate

        Operators: ``==``/``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``, ``in``,
        ``not_in``, ``between``.  Callable predicates can never be pushed down
        and always run in the streaming Python fallback.
        """
        filters = list(self._plan.filters)
        if condition:
            if len(condition) == 1 and callable(condition[0]):
                filters.append(Filter("*", "python", condition[0]))
            elif len(condition) == 3:
                column, op, value = condition
                if op not in _WHERE_OPS:
                    raise StorageError(
                        f"unknown operator {op!r}; expected one of {sorted(set(_WHERE_OPS.values()))}"
                    )
                op = _WHERE_OPS[op]
                column = self._check_column(column)
                filters.append(Filter(column, op, self._coerced(column, op, value)))
            else:
                raise StorageError(
                    "where() takes keyword equalities, a (column, op, value) "
                    "triple, or a single callable predicate"
                )
        for column, value in equalities.items():
            column = self._check_column(column)
            filters.append(Filter(column, "==", self._coerced(column, "==", value)))
        return self._derive(filters=tuple(filters))

    def filter(self, predicate: Callable[[Row], bool]) -> "Query":
        """Alias for ``where(predicate)`` — an explicit Python-fallback filter."""
        return self.where(predicate)

    def during(self, t_start: float, t_end: float) -> "Query":
        """Restrict to rows whose time column lies in ``[t_start, t_end]``."""
        if self._spec.time_column is None:
            raise StorageError(f"dataset {self._plan.dataset!r} has no time column")
        if t_end < t_start:
            raise StorageError("time window end must not precede its start")
        low, high = float(t_start), float(t_end)
        if self._plan.time_range is not None:  # intersect repeated windows
            low = max(low, self._plan.time_range[0])
            high = min(high, self._plan.time_range[1])
        return self._derive(time_range=(low, high))

    def on_floor(self, floor_id: int) -> "Query":
        """Restrict to rows on *floor_id* (datasets with a location)."""
        return self.where(floor_id=int(floor_id))

    def within(self, box: Any) -> "Query":
        """Restrict to rows inside an axis-aligned box over ``(x, y)``.

        Accepts a :class:`~repro.geometry.polygon.BoundingBox` or a
        ``(min_x, min_y, max_x, max_y)`` sequence.  Only spatial datasets
        (trajectory, positioning) support it; on SQLite the box is answered
        with the grid-bucket index.
        """
        if not self._spec.spatial:
            raise StorageError(
                f"dataset {self._plan.dataset!r} has no coordinates; "
                "within() applies to spatial datasets only"
            )
        if hasattr(box, "min_x"):
            region = Region(float(box.min_x), float(box.min_y), float(box.max_x), float(box.max_y))
        else:
            min_x, min_y, max_x, max_y = box
            region = Region(float(min_x), float(min_y), float(max_x), float(max_y))
        if region.min_x > region.max_x or region.min_y > region.max_y:
            raise StorageError("within() box must have min <= max on both axes")
        if self._plan.region is not None:  # intersect repeated boxes
            region = Region(
                max(region.min_x, self._plan.region.min_x),
                max(region.min_y, self._plan.region.min_y),
                min(region.max_x, self._plan.region.max_x),
                min(region.max_y, self._plan.region.max_y),
            )
        return self._derive(region=region)

    def select(self, *columns: str) -> "Query":
        """Project the result rows down to *columns*."""
        if not columns:
            raise StorageError("select() needs at least one column")
        return self._derive(columns=tuple(self._check_column(c) for c in columns))

    def order_by(self, *columns: str) -> "Query":
        """Sort by *columns*; prefix a name with ``-`` for descending."""
        if not columns:
            raise StorageError("order_by() needs at least one column")
        keys = []
        for column in columns:
            descending = column.startswith("-")
            keys.append((self._check_column(column.lstrip("-")), descending))
        return self._derive(order_by=tuple(keys))

    def limit(self, n: int) -> "Query":
        """Keep at most *n* result rows."""
        if n < 0:
            raise StorageError("limit() must be non-negative")
        return self._derive(limit=int(n))

    def offset(self, n: int) -> "Query":
        """Skip the first *n* result rows."""
        if n < 0:
            raise StorageError("offset() must be non-negative")
        return self._derive(offset=int(n))

    # ------------------------------------------------------------------ #
    # Plan compilation
    # ------------------------------------------------------------------ #
    def plan(self, verb: str = "all", column: Optional[str] = None,
             by: Optional[str] = None) -> QueryPlan:
        """Compile the builder state into the :class:`QueryPlan` *verb* runs."""
        plan = self._plan
        aggregate = self._aggregate_for(verb, column, by)
        if aggregate is not None:
            if plan.limit is not None or plan.offset:
                raise StorageError(
                    f"{verb}() cannot be combined with limit()/offset()"
                )
            if plan.columns is not None:
                raise StorageError(f"{verb}() cannot be combined with select()")
            return plan.extend(aggregate=aggregate, order_by=())
        if not plan.order_by and self._spec.time_column is not None:
            # Deterministic default: time order (ties keep insertion order on
            # every engine), so results match across backends byte-for-byte.
            plan = plan.extend(order_by=((self._spec.time_column, False),))
        return plan

    def _aggregate_for(self, verb: str, column: Optional[str], by: Optional[str]) -> Optional[Aggregate]:
        if verb in ("all", "iter", "first", "tuples"):
            return None
        if verb == "count":
            return Aggregate("count")
        if verb == "count_by":
            if column is not None:
                return Aggregate("count_distinct_by", column=self._check_column(column), by=by)
            return Aggregate("count_by", by=by)
        if verb == "distinct":
            return Aggregate("distinct", column=column)
        if verb == "stats":
            return Aggregate("stats", column=column, by=by)
        raise StorageError(f"unknown query verb {verb!r}")

    # ------------------------------------------------------------------ #
    # Terminal verbs
    # ------------------------------------------------------------------ #
    def iter(self) -> Iterator[Row]:
        """Stream the result rows as fresh dicts (lazy on both engines)."""
        return run_plan(self._backend, self.plan("iter"))

    __iter__ = iter

    def tuples(self) -> Iterator[Tuple]:
        """Stream the result rows as tuples, in column order.

        The order is the ``select()`` columns', else the dataset's
        ``DatasetSpec.columns``.  Same plan, push-down, pipeline and rows as
        :meth:`iter`, without the dict per row that :meth:`iter` builds at
        the edge.
        """
        return _run_rows(self._backend, self.plan("tuples"))[1]

    def all(self) -> List[Row]:
        """Every result row, as plain dictionaries."""
        return list(self.iter())

    def first(self) -> Optional[Row]:
        """The first result row, or ``None`` when the result is empty."""
        if self._plan.limit == 0:
            return None
        return next(run_plan(self._backend, self.limit(1).plan("first")), None)

    def records(self) -> List[Any]:
        """Every result row converted to its typed record dataclass."""
        if self._plan.columns is not None:
            raise StorageError("records() needs full rows; drop the select() projection")
        from repro.storage.repositories import ROW_CONVERTERS

        converter = ROW_CONVERTERS[self._plan.dataset]
        return [converter(row) for row in self.iter()]

    def count(self) -> int:
        """Number of result rows."""
        return run_plan(self._backend, self.plan("count"))

    def count_by(self, by: str, distinct: Optional[str] = None) -> Dict[Any, int]:
        """Rows per distinct value of *by* (or distinct *distinct* values per group)."""
        return run_plan(self._backend, self.plan("count_by", column=distinct, by=self._check_column(by)))

    def distinct(self, column: str) -> List[Any]:
        """Sorted distinct values of *column* over the result rows."""
        return run_plan(self._backend, self.plan("distinct", column=self._check_column(column)))

    def stats(self, column: str, by: Optional[str] = None) -> Any:
        """count/mean/min/max/sum of *column*, optionally grouped by *by*."""
        return run_plan(
            self._backend,
            self.plan(
                "stats",
                column=self._check_column(column),
                by=self._check_column(by) if by is not None else None,
            ),
        )

    # Specialised trajectory terminals (the paper's snapshot and kNN query
    # processing algorithms), composed from one pushed time-window scan.
    def snapshot(self, t: float, tolerance: float = 1.0) -> Dict[str, Row]:
        """Per object, the trajectory row closest in time to *t* (± *tolerance*)."""
        self._require_bare("snapshot", allow_floor=False)
        columns = self._spec.columns
        return {
            object_id: dict(zip(columns, row))
            for object_id, row in self._closest_samples(float(t), float(tolerance)).items()
        }

    def knn(self, x: float, y: float, t: float, k: int = 5,
            tolerance: float = 1.0) -> List[Tuple[str, float]]:
        """The *k* objects closest to ``(x, y)`` around time *t*.

        The floor comes from a preceding :meth:`on_floor` call.  Each object
        is placed at its :meth:`snapshot` sample, and only then is the floor
        tested.  Objects rank by the squared distance
        ``d2 = (x' - x) * (x' - x) + (y' - y) * (y' - y)``, ties by object id,
        and each distance is ``d2 ** 0.5``.
        """
        floor_filters = [
            f for f in self._plan.filters if f.column == "floor_id" and f.op == "=="
        ]
        if len(floor_filters) != 1:
            raise StorageError("knn() needs exactly one on_floor() restriction")
        self._require_bare("knn", allow_floor=True)
        if k <= 0:
            return []
        floor_id, x, y = int(floor_filters[0].value), float(x), float(y)
        at_floor, at_x, at_y = map(self._spec.columns.index, ("floor_id", "x", "y"))
        scored = []
        for object_id, row in self._closest_samples(float(t), float(tolerance)).items():
            px, py = row[at_x], row[at_y]
            if row[at_floor] != floor_id or px is None or py is None:
                continue
            scored.append(((px - x) * (px - x) + (py - y) * (py - y), object_id))
        scored.sort()
        return [(object_id, d2 ** 0.5) for d2, object_id in scored[:int(k)]]

    def _closest_samples(self, t: float, tolerance: float) -> Dict[str, Tuple]:
        """Per object, the trajectory row tuple closest in time to *t* within
        *tolerance*.

        One time-ordered scan of the pushed window ``[t - tolerance,
        t + tolerance]``; the strict ``<`` keeps the earlier of two equally
        close samples.
        """
        if tolerance < 0:
            return {}
        at_object, at_t = map(self._spec.columns.index, ("object_id", "t"))
        window = Query(self._backend, "trajectory").during(t - tolerance, t + tolerance)
        closest: Dict[str, Tuple[float, Tuple]] = {}
        for row in window.tuples():
            object_id, gap = row[at_object], abs(row[at_t] - t)
            current = closest.get(object_id)
            if current is None or gap < current[0]:
                closest[object_id] = (gap, row)
        return {object_id: row for object_id, (_, row) in closest.items()}

    def _require_bare(self, verb: str, allow_floor: bool) -> None:
        plan = self._plan
        extra = [
            f for f in plan.filters
            if not (allow_floor and f.column == "floor_id" and f.op == "==")
        ]
        if plan.dataset != "trajectory":
            raise StorageError(f"{verb}() is a trajectory query")
        if extra or plan.region or plan.time_range or plan.columns or \
                plan.order_by or plan.limit is not None or plan.offset:
            raise StorageError(
                f"{verb}() is a built-in operator and takes no other query steps"
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def explain(self, verb: str = "all", column: Optional[str] = None,
                by: Optional[str] = None) -> Dict[str, Any]:
        """Report what the engine pushes down for this query, without running it.

        *verb* selects the terminal the report is for (``all`` by default;
        ``count``/``count_by``/``distinct``/``stats`` take the same *column*
        / *by* arguments as the corresponding terminal verbs).
        """
        return explain_plan(self._backend, self.plan(verb, column=column, by=by))

    def profile(self, verb: str = "all", column: Optional[str] = None,
                by: Optional[str] = None) -> Dict[str, Any]:
        """Execute this query and report per-stage wall time and row counts.

        The :meth:`explain` report plus ``stages`` (compile / backend /
        residual / total seconds), ``rows`` (scanned by the engine vs
        returned after residual steps), ``statements`` (the pushed SQL and
        its timing, SQLite only) and the ``result`` summary.  Same *verb* /
        *column* / *by* selection as :meth:`explain`.
        """
        return profile_plan(self._backend, self.plan(verb, column=column, by=by))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({self._backend.name}:{_describe_plan(self._plan)!r})"


__all__ = ["Query", "run_plan", "explain_plan", "profile_plan"]
