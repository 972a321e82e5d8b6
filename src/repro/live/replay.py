"""Replay: drive standing monitors over an already-stored warehouse.

The second drive mode of the continuous-query engine.  Where attached mode
consumes records as the streaming pipeline writes them, ``replay`` scans the
stored datasets back out *through the query planner* — a single time-ordered
builder query per dataset, pushed down to indexed SQL on SQLite and the time
index on the memory engine, read with :meth:`~repro.storage.query.Query.tuples`
— and feeds the row tuples to the very same :class:`LiveEngine`.

Because both modes run identical evaluation code over the same record
multiset (the stream is what was stored), every monitor's finalized window
sequence is identical between a generation run with monitors attached and a
later replay over its warehouse.  That replay-equivalence contract is what
makes monitors *testable*: any monitor can be validated offline against the
warehouse it would have watched live (``tests/properties/test_property_live``
pins it down across random buildings, seeds and window shapes).
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Optional

from repro.core.errors import MonitorError
from repro.live.engine import GeofenceAlert, LiveEngine, LiveReport
from repro.live.monitors import Monitor


def replay(
    warehouse: Any,
    monitors: Iterable[Monitor],
    *,
    spatial: Any = None,
    on_alert: Optional[Callable[[GeofenceAlert], None]] = None,
    batch_size: int = 5000,
    telemetry: Any = None,
) -> LiveReport:
    """Evaluate *monitors* over everything *warehouse* already stores.

    Args:
        warehouse: a :class:`~repro.storage.repositories.DataWarehouse` (or
            anything whose ``query(dataset)`` returns a
            :class:`~repro.storage.query.Query`).
        monitors: the standing monitors to evaluate.
        spatial: optional :class:`~repro.spatial.SpatialService` used for
            region/kNN pruning (results are identical without it).
        on_alert: geofence alert callback; alerts fire in time order here
            (the scan order), once per ``batch_size`` records.
        batch_size: how many rows to feed between alert drains — replay's
            analogue of the streaming path's ``flush_every`` cadence.
        telemetry: optional :class:`~repro.obs.Telemetry`; the engine records
            its live gauges/counters (records fed, queue depth, finalize
            latency) into it.  Instrumentation never changes emission.

    Returns:
        The :class:`LiveReport` with every monitor's finalized windows.
    """
    if batch_size < 1:
        raise MonitorError("replay batch_size must be at least 1")
    engine = LiveEngine(
        monitors,
        spatial=spatial,
        on_alert=on_alert,
        metrics=telemetry.metrics if telemetry is not None else None,
        tracer=telemetry.tracer if telemetry is not None else None,
    )
    for dataset in engine.datasets:
        # One streaming, time-ordered scan per dataset: the planner pushes
        # the order-by into the engine's index, and per-object time order
        # (all the per-object state machines need) follows from the global
        # one.  The scan yields row tuples, the engine's intake shape.
        # Feeding in bounded batches keeps the alert queue drained at the
        # same cadence a streaming run's flushes would.
        rows = warehouse.query(dataset).order_by("t").tuples()
        engine.begin_shard(None)
        batch = list(islice(rows, batch_size))
        while len(batch) == batch_size:
            engine.feed(dataset, batch)
            engine.end_shard()
            engine.begin_shard(None)
            batch = list(islice(rows, batch_size))
        engine.feed(dataset, batch)
        engine.end_shard()
    return engine.finalize()


__all__ = ["replay"]
