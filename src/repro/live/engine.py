"""The incremental evaluator behind the standing monitors.

The engine turns the streaming generation pipeline into a serving surface:
records flow through once, each record touches only the sliding windows it
overlaps, and every monitor's per-window aggregate is maintained in O(delta)
— no window is ever recomputed from its raw records, and no raw record is
retained after its aggregates absorbed it.

Three structural ideas keep this both fast and deterministic:

* **Shared window assignment** — monitors are grouped by
  ``(dataset, window, slide)``; the overlapping-window computation happens
  once per record per group, shared by every monitor in the group.  The
  streaming tap (:meth:`LiveEngine.writer_hook`) receives the stored row
  tuples and makes each a row dict once, only for the datasets some monitor
  consumes.
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
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import MonitorError
from repro.live.monitors import Monitor, MonitorPlan
from repro.obs import MetricsRegistry, Tracer
from repro.storage.backends.base import dataset_spec
from repro.storage.plan import Row

#: Shared no-op instrumentation for unobserved engines (module-level so an
#: uninstrumented engine allocates nothing per instance).
_NULL_METRICS = MetricsRegistry(enabled=False)
_NULL_TRACER = Tracer(enabled=False)

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
        #: The per-slide dedup gate: records of one object falling in the
        #: same window-index set carry idempotent contributions (a distinct
        #: set already holds the object; a min can only improve), so the
        #: second and later ones skip the per-window updates entirely.  This
        #: is what makes maintenance O(delta): per (windows, object[, key])
        #: combination the aggregates are touched once, not once per record.
        self.pane_gate: Dict[Tuple, Any] = {}
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
    def accept(self, row: Row) -> bool:
        """Whether *row* passes the monitor's target and predicate filters."""
        plan = self.plan
        if self.static_empty:
            return False
        if plan.floor_id is not None and row.get("floor_id") != plan.floor_id:
            return False
        if plan.partition_id is not None and row.get("partition_id") != plan.partition_id:
            return False
        if plan.region is not None and plan.kind != "geofence":
            # A geofence must also see out-of-region records (they are what
            # exits look like), so only non-geofence monitors may prune here.
            partition = row.get("partition_id")
            if (
                self.partition_prefilter is not None
                and partition
                and partition not in self.partition_prefilter
            ):
                return False
            if not plan.region.matches(row):
                return False
        if plan.kind == "knn" and (row.get("x") is None or row.get("y") is None):
            return False
        for predicate in plan.filters:
            if not predicate.matches(row):
                return False
        return True

    def absorb(self, state: _MonitorState, row: Row, indices: Sequence[int]) -> None:
        """Fold one accepted record into the shard-local aggregates."""
        kind = self.plan.kind
        state.matched += 1
        if kind == "density":
            gate = (indices, row["object_id"])
            if gate in self.pane_gate:
                return  # these windows already count this object
            self.pane_gate[gate] = True
            for index in indices:
                state.windows.setdefault(index, set()).add(row["object_id"])
        elif kind == "visit_counts":
            partition = row.get("partition_id")
            if partition:
                gate = (indices, row["object_id"], partition)
                if gate in self.pane_gate:
                    return
                self.pane_gate[gate] = True
                for index in indices:
                    state.windows.setdefault(index, {}).setdefault(
                        partition, set()
                    ).add(row["object_id"])
        elif kind == "knn":
            distance = math.hypot(row["x"] - self.plan.x, row["y"] - self.plan.y)
            gate = (indices, row["object_id"])
            best = self.pane_gate.get(gate)
            if best is not None and distance >= best:
                return  # every one of these windows already holds a better min
            self.pane_gate[gate] = distance
            for index in indices:
                window = state.windows.setdefault(index, {})
                previous = window.get(row["object_id"])
                if previous is None or distance < previous:
                    window[row["object_id"]] = distance
        elif kind == "flow":
            self._absorb_flow(state, row, indices)
        elif kind == "geofence":
            self._absorb_geofence(state, row, indices)

    def _absorb_flow(self, state: _MonitorState, row: Row, indices: Sequence[int]) -> None:
        object_id = row["object_id"]
        partition = row.get("partition_id")
        previous = self.object_state.get(object_id)
        self.object_state[object_id] = partition
        if (
            previous == self.plan.from_partition
            and partition == self.plan.to_partition
        ):
            for index in indices:
                state.windows[index] = state.windows.get(index, 0) + 1

    def _absorb_geofence(self, state: _MonitorState, row: Row, indices: Sequence[int]) -> None:
        object_id = row["object_id"]
        inside = self.plan.region.matches(row)
        was_inside = self.object_state.get(object_id, False)
        self.object_state[object_id] = inside
        if inside == was_inside:
            return
        kind = "enter" if inside else "exit"
        event = GeofenceAlert(self.name, row["t"], object_id, kind)
        for index in indices:
            state.windows.setdefault(index, []).append(event)
        if kind in self.plan.alert_on:
            state.events.append(event)

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

    ``feed`` accepts typed records (anything with ``as_record()``) or plain
    row dicts; :meth:`writer_hook` adapts the streaming writer's row tuples.
    Subscribing after the first record has been fed raises — a late
    subscriber would silently miss windows.
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
        #: Per (window, slide) group: timestamp -> window-index tuple.  The
        #: generation clock samples on a fixed grid, so the distinct t count
        #: is tiny next to the record count and the shared assignment is a
        #: dict hit for almost every record.
        self._index_memo: Dict[Tuple[float, float], Dict[float, Tuple[int, ...]]] = {}
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
        key = (plan.dataset, plan.window, plan.slide_seconds)
        self._groups.setdefault(key, []).append(runtime)
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

        Typed records are converted to row dicts once and shared across every
        monitor; each row touches only the windows it overlaps (O(delta)).
        """
        self._check_not_finalized()
        groups = [
            (window, slide, runtimes,
             self._index_memo.setdefault((window, slide), {}))
            for (ds, window, slide), runtimes in self._groups.items()
            if ds == dataset
        ]
        if not groups:
            return 0
        count = 0
        if self._partial is None:
            self.begin_shard(None)
        self._started = True
        partial = self._partial
        for record in records:
            row = record.as_record() if hasattr(record, "as_record") else record
            count += 1
            t = row["t"]
            t_max = self._t_max.get(dataset)
            if t_max is None or t > t_max:
                self._t_max[dataset] = t
            for window, slide, runtimes, memo in groups:
                indices = memo.get(t)
                if indices is None:
                    indices = memo[t] = _window_indices(t, window, slide)
                for runtime in runtimes:
                    if runtime.accept(row):
                        runtime.absorb(partial.states[runtime.name], row, indices)
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
        memory budget already pays for.  Rows are tuples in the dataset's
        column order; each becomes a row dict as :meth:`feed` reaches it,
        which it does only for a dataset some monitor consumes.
        """

        def hook(repo_name: str, rows: Sequence[Any]) -> None:
            dataset = REPO_DATASETS.get(repo_name, repo_name)
            if rows and type(rows[0]) is tuple:
                columns = dataset_spec(dataset).columns
                rows = map(dict, map(zip, repeat(columns), rows))
            self.feed(dataset, rows)

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
