"""LIVE MONITORS: incremental evaluation versus naive per-window re-query.

The continuous-query engine's claim: a standing monitor costs one pass over
the record stream with O(delta) updates per record, while the offline way to
answer the same question — one builder query per slide — re-scans the
warehouse once per window.  This bench evaluates an identical monitor set
both ways over the same generated workload, asserts the incremental side is
at least 2x faster, and spot-checks that both sides produce identical
per-window answers (the replay-equivalence contract, held exhaustively by
``tests/properties/test_property_live.py``).  It also times ``replay()`` of
the same monitors over the stored warehouse, the scan plus the engine, and
checks that replay emits the incremental windows.  Each side is timed as the
best of ``REPEATS`` runs, each with a fresh engine or fresh queries, and the
sides take turns, so a slow spell of a shared host does not decide the
floor.

Run with ``pytest benchmarks/test_bench_live_monitors.py -s`` to see the
table; with sliding windows (slide < window) the naive side re-reads every
record ``window/slide`` times and the gap widens well past the floor.
"""

import time

import pytest

from conftest import print_table, record_bench

from repro.live import LiveEngine, Monitor, replay
from repro.storage.repositories import DataWarehouse

#: The acceptance floor: incremental must be at least this much faster.
MIN_SPEEDUP = 2.0

WINDOW = 30.0
SLIDE = 3.0
TOP_K = 5
#: Clones of the base simulation (distinct object ids): a bigger stream
#: stabilises the timing without paying for a bigger simulation.
CLONES = 3
#: Timed runs per side; the fastest one counts.
REPEATS = 3


@pytest.fixture(scope="module")
def live_workload(office_workload):
    """The shared office ground truth, stored once for the naive side."""
    from dataclasses import replace

    _, _, simulation, _ = office_workload
    records = []
    for clone in range(CLONES):
        for record in simulation.trajectories.all_records():
            records.append(
                replace(record, object_id=f"c{clone}_{record.object_id}")
            )
    warehouse = DataWarehouse()
    warehouse.trajectories.add_many(records)
    return records, warehouse


def _monitors():
    return [
        Monitor.density(floor=1).window(WINDOW).slide(SLIDE).named("occ"),
        Monitor.visit_counts(top_k=TOP_K).window(WINDOW).slide(SLIDE).named("pois"),
    ]


def _incremental(records):
    engine = LiveEngine(_monitors())
    engine.begin_shard(0)
    engine.feed("trajectory", records)
    engine.end_shard()
    return engine.finalize()


def _naive(warehouse, window_bounds):
    """One builder query per monitor per window: the pre-live answer."""
    density = []
    visits = []
    for t_start, t_end in window_bounds:
        density.append(
            len(
                warehouse.query("trajectory")
                .during(t_start, t_end)
                .on_floor(1)
                .distinct("object_id")
            )
        )
        counts = (
            warehouse.query("trajectory")
            .during(t_start, t_end)
            .where("partition_id", "not_in", (None, ""))
            .count_by("partition_id", distinct="object_id")
        )
        visits.append(
            tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:TOP_K])
        )
    return density, visits


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def test_incremental_monitors_beat_naive_per_window_requery(live_workload):
    records, warehouse = live_workload

    incremental_seconds = naive_seconds = replay_seconds = float("inf")
    for _ in range(REPEATS):
        report, seconds = _timed(lambda: _incremental(records))
        incremental_seconds = min(incremental_seconds, seconds)
        bounds = [(w.t_start, w.t_end) for w in report.results["occ"].windows]
        (naive_density, naive_visits), seconds = _timed(lambda: _naive(warehouse, bounds))
        naive_seconds = min(naive_seconds, seconds)
        replayed, seconds = _timed(lambda: replay(warehouse, _monitors()))
        replay_seconds = min(replay_seconds, seconds)

    # Identical answers first: speed without the contract is worthless.
    assert report.results["occ"].values() == naive_density
    assert report.results["pois"].values() == naive_visits
    for name in ("occ", "pois"):
        assert replayed.results[name].windows == report.results[name].windows
    assert replayed.records_seen == len(records)

    speedup = naive_seconds / incremental_seconds if incremental_seconds else float("inf")
    print_table(
        f"Standing monitors over {len(records)} records, "
        f"{len(bounds)} windows (window={WINDOW:g}s, slide={SLIDE:g}s)",
        ["strategy", "seconds", "speedup"],
        [
            ["naive per-window re-query", f"{naive_seconds:.3f}", "1.0x"],
            ["incremental engine", f"{incremental_seconds:.3f}", f"{speedup:.1f}x"],
            ["replay (scan + engine)", f"{replay_seconds:.3f}",
             f"{naive_seconds / replay_seconds:.1f}x"],
        ],
    )
    record_bench(
        "live_monitors",
        incremental_seconds=round(incremental_seconds, 4),
        naive_seconds=round(naive_seconds, 4),
        speedup=round(speedup, 2),
        records=len(records),
        windows=len(bounds),
        monitor_overhead_us_per_record=round(
            1e6 * incremental_seconds / max(len(records), 1), 2
        ),
        replay_seconds=round(replay_seconds, 4),
        replay_records_per_second=round(len(records) / replay_seconds),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental evaluation is only {speedup:.1f}x faster than naive "
        f"per-window re-querying (floor: {MIN_SPEEDUP}x)"
    )
