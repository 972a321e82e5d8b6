"""The incremental evaluator behind the standing monitors.

The engine turns the streaming generation pipeline into a serving surface:
records flow through once, each record touches only the sliding windows it
overlaps, and every monitor's per-window aggregate is maintained in O(delta)
— no window is ever recomputed from its raw records, and no raw record is
retained after its aggregates absorbed it.

Four structural ideas keep this both fast and deterministic:

* **One intake shape, evaluated by column** — the engine's input is the
  stored row tuple, the shape the streaming tap
  (:meth:`LiveEngine.writer_hook`) and ``replay()`` both hand over as it is
  (row dicts and typed records are converted to it once).  ``feed`` turns
  each bounded chunk of rows into columns, and every monitor folds the
  chunk in with one loop over only the columns it reads.
* **Shared window assignment** — monitors are grouped by
  ``(dataset, window, slide)``; each record's set of overlapping windows
  (its *pane*) is found once per group and shared by every monitor in it.
* **Per-shard partials** — window aggregates accumulate in a
  :class:`ShardPartial` (sets, counts, minima — all commutative merges) that
  folds into the global window states *in shard order*, making ``workers=N``
  emission identical to serial by construction.  The per-object state
  machines flow and geofence monitors need live on the monitor runtime:
  feeding is strictly sequential in shard order and no object spans two
  shards (the PR 3 partition is by object), so the machines see each
  object's samples contiguously in time order in every drive mode.
* **Bounded backpressure** — alerts drain through the ``on_alert`` callback
  at every shard merge; without a callback the *undrained* queue is a
  bounded deque (budget defaults to the storage layer's ``flush_every``),
  dropping the oldest and counting the drops.  The finalized
  :class:`MonitorResult` still reports every alert (it is part of the
  replay-equivalence contract), so the report itself scales with the alert
  count — the bound protects the live queue, not the final report.

Results are only *finalized* at the end of the stream (records arrive
shard-ordered, not time-ordered, so no window can close early); the
finalized sequence per monitor is the replay-equivalence contract's subject:
identical between attached streaming, ``replay()`` over the stored
warehouse, and the equivalent offline builder query.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import and_, eq, sub
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import MonitorError, StorageError
from repro.live.monitors import Monitor, MonitorPlan
from repro.obs import MetricsRegistry, Tracer
from repro.storage.backends.base import dataset_spec
from repro.storage.repositories import record_row

#: Shared no-op instrumentation for unobserved engines (module-level so an
#: uninstrumented engine allocates nothing per instance).
_NULL_METRICS = MetricsRegistry(enabled=False)
_NULL_TRACER = Tracer(enabled=False)

#: Rows :meth:`LiveEngine.feed` turns into columns and evaluates at a time:
#: the writer's default ``flush_every`` and replay's default batch, so a
#: flush or a replay batch is one chunk, and a longer feed holds at most
#: this many converted rows.
_FEED_CHUNK = 5000

#: Map from warehouse repository attribute names (the StreamingWriter's
#: vocabulary) to logical dataset names (the monitor grammar's vocabulary).
REPO_DATASETS = {
    "trajectories": "trajectory",
    "rssi": "rssi",
    "positioning": "positioning",
    "probabilistic": "probabilistic",
    "proximity": "proximity",
    "devices": "device",
}


@dataclass(frozen=True)
class GeofenceAlert:
    """One geofence transition: *object_id* crossed *monitor*'s region at *t*."""

    monitor: str
    t: float
    object_id: str
    kind: str  # "enter" | "exit"

    def to_json(self) -> Dict[str, Any]:
        return {"monitor": self.monitor, "t": self.t,
                "object_id": self.object_id, "event": self.kind}


@dataclass(frozen=True)
class WindowResult:
    """One finalized window of one monitor."""

    index: int
    t_start: float
    t_end: float
    value: Any

    def to_json(self) -> Dict[str, Any]:
        return {"window": self.index, "t_start": self.t_start,
                "t_end": self.t_end, "value": _value_to_json(self.value)}


def _value_to_json(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_value_to_json(item) for item in value]
    return value


@dataclass
class MonitorResult:
    """Everything one monitor produced over the whole stream."""

    name: str
    plan: MonitorPlan
    windows: List[WindowResult] = field(default_factory=list)
    alerts: List[GeofenceAlert] = field(default_factory=list)
    records_matched: int = 0
    dropped_alerts: int = 0

    def values(self) -> List[Any]:
        """The per-window values alone (the emitted result sequence)."""
        return [window.value for window in self.windows]

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.plan.kind,
            "window": self.plan.window,
            "slide": self.plan.slide_seconds,
            "records_matched": self.records_matched,
            "dropped_alerts": self.dropped_alerts,
            "alerts": [alert.to_json() for alert in self.alerts],
            "windows": [window.to_json() for window in self.windows],
        }


@dataclass
class LiveReport:
    """The finalized output of one engine run (attached or replayed)."""

    results: Dict[str, MonitorResult]
    records_seen: int = 0
    shards_merged: int = 0

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-monitor counters for streaming reports and CLI summaries."""
        return {
            name: {
                "windows": len(result.windows),
                "alerts": len(result.alerts),
                "records_matched": result.records_matched,
                "dropped_alerts": result.dropped_alerts,
            }
            for name, result in self.results.items()
        }

    def to_json(self) -> Dict[str, Any]:
        return {
            "records_seen": self.records_seen,
            "shards_merged": self.shards_merged,
            "monitors": {name: result.to_json() for name, result in self.results.items()},
        }


# --------------------------------------------------------------------------- #
# Per-monitor incremental aggregates
# --------------------------------------------------------------------------- #
class _MonitorState:
    """The per-shard incremental window state of one monitor.

    ``windows`` maps a window index to the monitor-kind-specific partial
    aggregate.  Every aggregate merges commutatively, so the shard-ordered
    merge gives the same totals as any other order — shard order is kept
    anyway so *alert* sequences are deterministic too.
    """

    __slots__ = ("windows", "events", "matched")

    def __init__(self) -> None:
        self.windows: Dict[int, Any] = {}
        self.events: List[GeofenceAlert] = []
        self.matched = 0


class _Batch:
    """One chunk of fed rows of one dataset, held as columns.

    ``rows`` are the row tuples in the dataset's column order (``names``);
    :meth:`column` is one column's values.  A column the dataset lacks reads
    as all ``None``, as a missing key of a row dict does.
    """

    __slots__ = ("rows", "names", "size", "_columns")

    def __init__(self, names: Sequence[str], rows: List[Tuple]) -> None:
        self.rows = rows
        self.names = names
        self.size = len(rows)
        self._columns: Dict[str, Tuple] = dict(zip(names, zip(*rows)))

    def column(self, name: str) -> Tuple:
        values = self._columns.get(name)
        return values if values is not None else (None,) * self.size


class _Panes(dict):
    """Timestamp -> pane number, for one ``(window, slide)`` group.

    A pane is one distinct set of window indices: every record whose time
    falls in exactly those windows belongs to it.  ``indices[pane]`` is the
    set, computed once per distinct timestamp.  The generation clock samples
    on a fixed grid, so the distinct timestamps are few next to the records,
    and a batch's pane column is one dict lookup per record.  Pane numbers
    are small ints, so they key the per-monitor gates cheaply.
    """

    def __init__(self, window: float, slide: float) -> None:
        super().__init__()
        self.window = window
        self.slide = slide
        self.indices: List[Tuple[int, ...]] = []
        self._numbers: Dict[Tuple[int, ...], int] = {}

    def __missing__(self, t: float) -> int:
        indices = _window_indices(t, self.window, self.slide)
        pane = self._numbers.get(indices)
        if pane is None:
            pane = self._numbers[indices] = len(self.indices)
            self.indices.append(indices)
        self[t] = pane
        return pane


def _equal(mask: Optional[List], column: Sequence[Any], value: Any) -> List:
    """*mask* (``None``: all rows) narrowed to the rows whose cell == *value*."""
    matches = map(eq, column, repeat(value))
    return list(matches) if mask is None else list(map(and_, mask, matches))


def _narrow(mask: Optional[List], test: Callable[..., Any], *columns: Sequence[Any]) -> List:
    """*mask* (``None``: all rows) narrowed to the rows whose cells of
    *columns* pass *test*; *test* runs only on rows the mask still keeps."""
    if mask is None:
        return list(map(test, *columns))
    if len(columns) == 1:
        return [keep and test(cell) for keep, cell in zip(mask, columns[0])]
    xs, ys = columns
    return [keep and test(x, y) for keep, x, y in zip(mask, xs, ys)]


def _has_point(x: Any, y: Any) -> bool:
    return x is not None and y is not None


class _Runtime:
    """One subscribed monitor: its plan plus the evaluation strategy."""

    def __init__(self, name: str, plan: MonitorPlan, spatial: Any = None) -> None:
        self.name = name
        self.plan = plan
        self.records_matched = 0
        self.dropped_alerts = 0
        self.global_windows: Dict[int, Any] = {}
        self.global_events: List[GeofenceAlert] = []
        #: Per-object state machine (flow's previous partition, geofence's
        #: inside flag).  Feeding is strictly sequential in shard order and
        #: no object spans two shards, so this state can live globally —
        #: which also lets replay drain alerts mid-scan without losing it.
        self.object_state: Dict[str, Any] = {}
        #: The pane gate: the (pane, object[, partition]) keys whose
        #: contribution the windows already hold.  A contribution is
        #: idempotent (a distinct set already holds the object) or monotone
        #: (kNN keeps the key's best distance; only a smaller one can change
        #: a window's min), so a key's second and later records skip the
        #: per-window updates — the aggregates are touched once per key, not
        #: once per record, in any record order.
        self.pane_gate: Any = {} if plan.kind == "knn" else set()
        self._column_filters = tuple(f for f in plan.filters if f.op != "python")
        self._python_filters = tuple(f for f in plan.filters if f.op == "python")
        #: Statically empty: the monitor's region cannot intersect its floor
        #: (SpatialService-backed pruning), so no record can ever match.
        self.static_empty = False
        #: Partition ids whose geometry can overlap the region (a conservative
        #: superset from the spatial service); ``None`` means "no prefilter".
        self.partition_prefilter: Optional[frozenset] = None
        if spatial is not None and plan.region is not None and plan.floor_id is not None:
            from repro.core.errors import TopologyError

            region = plan.region
            try:
                if not spatial.region_overlaps_floor(plan.floor_id, region):
                    self.static_empty = True
                elif plan.kind != "geofence":
                    self.partition_prefilter = spatial.partitions_overlapping(
                        plan.floor_id, region
                    )
            except TopologyError:
                # The building has no such floor: nothing will ever match.
                self.static_empty = True

    # ------------------------------------------------------------------ #
    # Record intake (shard-local)
    # ------------------------------------------------------------------ #
    def selection(self, batch: _Batch) -> Optional[List]:
        """Per row of *batch*, whether it passes the monitor's target and
        predicate filters; ``None`` when every row does.

        Cheap column tests run first, so the costlier ones (the region, a
        callable predicate, which needs a row dict) only see the rows still
        selected.
        """
        plan = self.plan
        if self.static_empty:
            return [False] * batch.size
        mask = None
        if plan.floor_id is not None:
            mask = _equal(mask, batch.column("floor_id"), plan.floor_id)
        if plan.partition_id is not None:
            mask = _equal(mask, batch.column("partition_id"), plan.partition_id)
        if plan.region is not None and plan.kind != "geofence":
            # A geofence must also see out-of-region records (they are what
            # exits look like), so only non-geofence monitors may prune here.
            prefilter = self.partition_prefilter
            if prefilter is not None:
                mask = _narrow(
                    mask, lambda partition: not partition or partition in prefilter,
                    batch.column("partition_id"),
                )
            mask = _narrow(mask, plan.region.contains, batch.column("x"), batch.column("y"))
        if plan.kind == "knn":
            mask = _narrow(mask, _has_point, batch.column("x"), batch.column("y"))
        for predicate in self._column_filters:
            mask = _narrow(mask, predicate.matches_cell, batch.column(predicate.column))
        if self._python_filters:
            names, predicates = batch.names, self._python_filters

            def passes(row: Tuple) -> bool:
                record = dict(zip(names, row))
                return all(predicate.matches(record) for predicate in predicates)

            mask = _narrow(mask, passes, batch.rows)
        return mask

    def absorb(self, state: _MonitorState, batch: _Batch, panes: List[int],
               pane_indices: List[Tuple[int, ...]]) -> None:
        """Fold a batch into the shard-local aggregates, one column loop.

        *panes* is the batch's pane column and *pane_indices* maps a pane to
        its window indices.  Rows are visited in batch order, which the
        per-object state machines (flow, geofence) rely on.
        """
        mask = self.selection(batch)

        def column(values: Sequence[Any]) -> Sequence[Any]:
            return values if mask is None else list(compress(values, mask))

        objects = column(batch.column("object_id"))
        if not objects:
            return
        panes = column(panes)
        state.matched += len(objects)
        kind = self.plan.kind
        windows = state.windows
        if kind == "density":
            fresh = set(zip(panes, objects)).difference(self.pane_gate)
            self.pane_gate |= fresh
            for pane, object_id in fresh:
                for index in pane_indices[pane]:
                    windows.setdefault(index, set()).add(object_id)
        elif kind == "visit_counts":
            partitions = column(batch.column("partition_id"))
            keys = compress(zip(panes, objects, partitions), partitions)
            fresh = set(keys).difference(self.pane_gate)
            self.pane_gate |= fresh
            for pane, object_id, partition in fresh:
                for index in pane_indices[pane]:
                    windows.setdefault(index, {}).setdefault(partition, set()).add(object_id)
        elif kind == "knn":
            self._absorb_knn(windows, objects, panes, pane_indices,
                             column(batch.column("x")), column(batch.column("y")))
        elif kind == "flow":
            self._absorb_flow(windows, objects, panes, pane_indices,
                              column(batch.column("partition_id")))
        elif kind == "geofence":
            self._absorb_geofence(state, objects, panes, pane_indices,
                                  column(batch.column("x")), column(batch.column("y")),
                                  column(batch.column("t")))

    def _absorb_knn(self, windows, objects, panes, pane_indices, xs, ys) -> None:
        gate = self.pane_gate
        distances = map(math.hypot, map(sub, xs, repeat(self.plan.x)),
                        map(sub, ys, repeat(self.plan.y)))
        for pane, object_id, distance in zip(panes, objects, distances):
            key = (pane, object_id)
            best = gate.get(key)
            if best is not None and distance >= best:
                continue  # every one of these windows already holds a better min
            gate[key] = distance
            for index in pane_indices[pane]:
                window = windows.setdefault(index, {})
                previous = window.get(object_id)
                if previous is None or distance < previous:
                    window[object_id] = distance

    def _absorb_flow(self, windows, objects, panes, pane_indices, partitions) -> None:
        last = self.object_state
        source, target = self.plan.from_partition, self.plan.to_partition
        for object_id, partition, pane in zip(objects, partitions, panes):
            previous = last.get(object_id)
            last[object_id] = partition
            if partition == target and previous == source:
                for index in pane_indices[pane]:
                    windows[index] = windows.get(index, 0) + 1

    def _absorb_geofence(self, state, objects, panes, pane_indices, xs, ys, times) -> None:
        last = self.object_state
        windows, events = state.windows, state.events
        alert_on = self.plan.alert_on
        for object_id, inside, t, pane in zip(
            objects, map(self.plan.region.contains, xs, ys), times, panes
        ):
            if inside == last.get(object_id, False):
                continue
            last[object_id] = inside
            kind = "enter" if inside else "exit"
            event = GeofenceAlert(self.name, t, object_id, kind)
            for index in pane_indices[pane]:
                windows.setdefault(index, []).append(event)
            if kind in alert_on:
                events.append(event)

    # ------------------------------------------------------------------ #
    # Shard merge and finalization
    # ------------------------------------------------------------------ #
    def merge(self, state: _MonitorState) -> List[GeofenceAlert]:
        """Fold a shard partial into the global state; returns its alerts."""
        kind = self.plan.kind
        self.records_matched += state.matched
        for index, partial in state.windows.items():
            current = self.global_windows.get(index)
            if kind == "density":
                if current is None:
                    self.global_windows[index] = set(partial)
                else:
                    current |= partial
            elif kind == "visit_counts":
                if current is None:
                    current = self.global_windows[index] = {}
                for partition, objects in partial.items():
                    current.setdefault(partition, set()).update(objects)
            elif kind == "knn":
                if current is None:
                    current = self.global_windows[index] = {}
                for object_id, distance in partial.items():
                    previous = current.get(object_id)
                    if previous is None or distance < previous:
                        current[object_id] = distance
            elif kind == "flow":
                self.global_windows[index] = (current or 0) + partial
            elif kind == "geofence":
                if current is None:
                    current = self.global_windows[index] = []
                current.extend(partial)
        self.global_events.extend(state.events)
        return state.events

    def window_value(self, index: int) -> Any:
        """The finalized, deterministic value of window *index*."""
        kind = self.plan.kind
        partial = self.global_windows.get(index)
        if kind == "density":
            return len(partial) if partial else 0
        if kind == "flow":
            return partial or 0
        if kind == "visit_counts":
            if not partial:
                return ()
            ranked = sorted(
                ((partition, len(objects)) for partition, objects in partial.items()),
                key=lambda item: (-item[1], item[0]),
            )
            return tuple(ranked[: self.plan.top_k])
        if kind == "knn":
            if not partial:
                return ()
            ranked = sorted(partial.items(), key=lambda item: (item[1], item[0]))
            return tuple(ranked[: self.plan.k])
        # geofence: the window's events, deterministically ordered.  Sorting
        # at finalization makes the value independent of arrival order (which
        # differs between attached mode and time-ordered replay).
        if not partial:
            return ()
        ordered = sorted(partial, key=lambda e: (e.t, e.object_id, e.kind))
        return tuple((e.t, e.object_id, e.kind) for e in ordered)


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class ShardPartial:
    """All monitor state accumulated from one shard's records."""

    __slots__ = ("shard_id", "states", "records")

    def __init__(self, shard_id: Optional[int], names: Iterable[str]) -> None:
        self.shard_id = shard_id
        self.states: Dict[str, _MonitorState] = {name: _MonitorState() for name in names}
        self.records = 0


class LiveEngine:
    """Evaluates standing monitors incrementally over a record stream.

    Drive protocol (both drive modes use exactly this sequence)::

        engine = LiveEngine([monitor, ...], spatial=service, on_alert=print)
        engine.begin_shard(0)
        engine.feed("trajectory", records)   # any number of feeds
        engine.end_shard()                   # merge + drain alerts
        ...                                  # further shards, in shard order
        report = engine.finalize()

    ``feed`` takes row tuples in the dataset's column order (the stored
    row shape the streaming writer and replay hand over), row dicts or
    typed records.  Subscribing after the first record has been fed raises
    — a late subscriber would silently miss windows.
    """

    def __init__(
        self,
        monitors: Iterable[Monitor] = (),
        *,
        spatial: Any = None,
        on_alert: Optional[Callable[[GeofenceAlert], None]] = None,
        max_pending_alerts: int = 5000,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_pending_alerts < 1:
            raise MonitorError("max_pending_alerts must be at least 1")
        self._spatial = spatial
        self.on_alert = on_alert
        #: Live-engine instruments (records/sec, window-finalize latency,
        #: alert-queue depth and drops); no-op unless a registry is attached.
        self.metrics = metrics if metrics is not None else _NULL_METRICS
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        self._first_feed: Optional[float] = None
        #: Undrained alerts (no ``on_alert`` callback): bounded so a chatty
        #: geofence cannot grow memory without bound; overflow drops the
        #: oldest alert and counts it on the owning monitor.
        self.pending_alerts: deque = deque(maxlen=int(max_pending_alerts))
        self.records_seen = 0
        self.shards_merged = 0
        self._runtimes: Dict[str, _Runtime] = {}
        self._groups: Dict[Tuple[str, float, float], List[_Runtime]] = {}
        #: Per (window, slide) group: its panes, shared by every monitor of
        #: the group (and by datasets with the same window shape).
        self._panes: Dict[Tuple[float, float], _Panes] = {}
        self._t_max: Dict[str, float] = {}
        self._partial: Optional[ShardPartial] = None
        self._started = False
        self._finalized = False
        for monitor in monitors:
            self.subscribe(monitor)

    # ------------------------------------------------------------------ #
    # Subscription registry
    # ------------------------------------------------------------------ #
    def subscribe(self, monitor: Monitor) -> str:
        """Register *monitor*; returns its unique subscription name."""
        if self._started or self._partial is not None:
            raise MonitorError(
                "cannot subscribe once a shard is open or records have been "
                "fed; a late monitor would silently miss windows"
            )
        plan = monitor.plan()
        base = plan.name or plan.describe()
        name = base
        serial = 2
        while name in self._runtimes:
            name = f"{base}#{serial}"
            serial += 1
        runtime = _Runtime(name, plan, spatial=self._spatial)
        self._runtimes[name] = runtime
        window, slide = plan.window, plan.slide_seconds
        self._groups.setdefault((plan.dataset, window, slide), []).append(runtime)
        if (window, slide) not in self._panes:
            self._panes[(window, slide)] = _Panes(window, slide)
        return name

    @property
    def names(self) -> List[str]:
        """The registered subscription names, in subscription order."""
        return list(self._runtimes)

    @property
    def datasets(self) -> List[str]:
        """The datasets at least one monitor consumes."""
        return sorted({runtime.plan.dataset for runtime in self._runtimes.values()})

    def __len__(self) -> int:
        return len(self._runtimes)

    # ------------------------------------------------------------------ #
    # Record intake
    # ------------------------------------------------------------------ #
    def begin_shard(self, shard_id: Optional[int] = None) -> None:
        """Open a shard partial; subsequent feeds accumulate into it."""
        self._check_not_finalized()
        if self._partial is not None:
            self.end_shard()
        self._partial = ShardPartial(shard_id, self._runtimes)

    def feed(self, dataset: str, records: Iterable[Any]) -> int:
        """Stream *records* of *dataset* into the monitors; returns the count.

        Each record is a row tuple in the dataset's column order, a row dict
        (a missing key reads as ``None``) or a typed record.  They are taken
        ``_FEED_CHUNK`` at a time and made columns once per chunk; then each
        ``(window, slide)`` group assigns every record its windows once, and
        each monitor folds the chunk in with one loop over the columns it
        reads, touching only the windows each record overlaps (O(delta)).
        """
        self._check_not_finalized()
        groups = [
            (self._panes[(window, slide)], runtimes)
            for (ds, window, slide), runtimes in self._groups.items()
            if ds == dataset
        ]
        if not groups:
            return 0
        if self._partial is None:
            self.begin_shard(None)
        self._started = True
        partial = self._partial
        names = dataset_spec(dataset).columns
        records = iter(records)
        count = 0
        while True:
            rows = _rows(dataset, names, islice(records, _FEED_CHUNK))
            if not rows:
                break
            count += len(rows)
            batch = _Batch(names, rows)
            times = batch.column("t")
            if None in times:
                raise MonitorError(f"every fed {dataset} record needs a time 't'")
            t_max = max(times)
            if dataset not in self._t_max or t_max > self._t_max[dataset]:
                self._t_max[dataset] = t_max
            for panes, runtimes in groups:
                pane_column = list(map(panes.__getitem__, times))
                for runtime in runtimes:
                    runtime.absorb(partial.states[runtime.name], batch, pane_column,
                                   panes.indices)
        partial.records += count
        self.records_seen += count
        if count and self._first_feed is None:
            self._first_feed = time.perf_counter()
        self.metrics.counter("live.records_fed").inc(count)
        return count

    def writer_hook(self) -> Callable[[str, Sequence[Any]], None]:
        """An adapter for :class:`~repro.core.streaming.StreamingWriter`.

        The writer calls it with ``(repo_name, rows)`` at every flush, so
        monitors consume the stream at exactly the flush-bounded cadence the
        memory budget already pays for.  The rows, tuples in the dataset's
        column order, go to :meth:`feed` as they are: no dict is built.
        """

        def hook(repo_name: str, rows: Sequence[Any]) -> None:
            self.feed(REPO_DATASETS.get(repo_name, repo_name), rows)

        return hook

    def end_shard(self) -> None:
        """Merge the open shard partial into the global state, drain alerts."""
        self._check_not_finalized()
        partial = self._partial
        self._partial = None
        if partial is None:
            return
        self.shards_merged += 1
        for name, runtime in self._runtimes.items():
            alerts = runtime.merge(partial.states[name])
            for alert in alerts:
                self.metrics.counter("live.alerts_emitted").inc()
                if self.on_alert is not None:
                    self.on_alert(alert)
                else:
                    if len(self.pending_alerts) == self.pending_alerts.maxlen:
                        # The deque evicts its oldest entry; charge the drop
                        # to the monitor that owned the evicted alert.
                        evicted = self.pending_alerts[0]
                        self._runtimes[evicted.monitor].dropped_alerts += 1
                        self.metrics.counter("live.alerts_dropped").inc()
                    self.pending_alerts.append(alert)
        self.metrics.gauge("live.alert_queue_depth").set(len(self.pending_alerts))
        if self._first_feed is not None:
            elapsed = time.perf_counter() - self._first_feed
            if elapsed > 0:
                self.metrics.gauge("live.records_per_second").set(
                    self.records_seen / elapsed
                )

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #
    def finalize(self) -> LiveReport:
        """Close the stream and emit every monitor's window-result sequence.

        Windows are enumerated per monitor from 0 while their start does not
        exceed the dataset's maximum observed record time — exactly the
        windows the equivalent offline queries would produce from the stored
        data's time bounds.  Idempotent: a second call raises.
        """
        self._check_not_finalized()
        if self._partial is not None:
            self.end_shard()
        self._finalized = True
        results: Dict[str, MonitorResult] = {}
        for name, runtime in self._runtimes.items():
            plan = runtime.plan
            windows: List[WindowResult] = []
            t_max = self._t_max.get(plan.dataset)
            finalize_start = time.perf_counter()
            with self.tracer.span("monitor.window-finalize", monitor=name):
                if t_max is not None:
                    slide = plan.slide_seconds
                    index = 0
                    while index * slide <= t_max:
                        start = index * slide
                        windows.append(
                            WindowResult(index, start, start + plan.window,
                                         runtime.window_value(index))
                        )
                        index += 1
            self.metrics.histogram("live.window_finalize_seconds").observe(
                time.perf_counter() - finalize_start
            )
            results[name] = MonitorResult(
                name=name,
                plan=plan,
                windows=windows,
                alerts=list(runtime.global_events),
                records_matched=runtime.records_matched,
                dropped_alerts=runtime.dropped_alerts,
            )
        return LiveReport(
            results=results,
            records_seen=self.records_seen,
            shards_merged=self.shards_merged,
        )

    def _check_not_finalized(self) -> None:
        if self._finalized:
            raise MonitorError("this engine has been finalized; build a new one")


def _rows(dataset: str, names: Tuple[str, ...], records: Iterable[Any]) -> List[Tuple]:
    """*records* as row tuples in *names* order (tuples pass as they are)."""
    rows = [record if type(record) is tuple else _row(dataset, names, record)
            for record in records]
    if rows and set(map(len, rows)) != {len(names)}:
        raise MonitorError(
            f"a {dataset} row tuple needs {len(names)} values ({', '.join(names)})"
        )
    return rows


def _row(dataset: str, names: Tuple[str, ...], record: Any) -> Tuple:
    if isinstance(record, dict):
        return tuple(map(record.get, names))
    try:
        stored, row = record_row(record)
    except StorageError:
        stored = None
    if stored != dataset:
        raise MonitorError(
            f"cannot feed a {type(record).__name__} as a {dataset} record; "
            "feed() takes row tuples, row dicts or typed records"
        )
    return row


def _window_indices(t: float, window: float, slide: float) -> Tuple[int, ...]:
    """The sliding-window indices whose ``[i*slide, i*slide + window]`` span
    (inclusive on both ends, like ``Query.during``) contains *t*.

    The candidate range comes from float division, but membership itself is
    decided by direct comparison against the window bounds — the exact
    comparisons the offline ``during`` filter performs — so a boundary record
    lands in the same windows live and replayed.
    """
    if t < 0:
        return ()
    first = max(0, math.ceil((t - window) / slide) - 1)
    last = math.floor(t / slide) + 1
    return tuple(
        index
        for index in range(first, last + 1)
        if index * slide <= t <= index * slide + window
    )


__all__ = [
    "GeofenceAlert",
    "LiveEngine",
    "LiveReport",
    "MonitorResult",
    "REPO_DATASETS",
    "ShardPartial",
    "WindowResult",
]
