"""Property-based tests for the continuous-query engine.

The replay-equivalence contract, quantified: for random buildings, seeds and
window shapes, every monitor's finalized window sequence is identical between

* the monitors attached to a streaming generation run,
* a ``replay()`` over the warehouse that run produced, and
* the equivalent offline computation over the same warehouse (builder
  ``distinct``/``count_by`` queries for density and visit counts);

and ``workers=2`` streaming emission equals serial emission.  The engine's
intake is pinned down too: the same rows give the same report whatever the
batch splits and chunk size, whether they arrive as row tuples, row dicts or
typed records, and whether replay scans the memory or the SQLite engine.
Pipeline runs are expensive, so the examples are few and tiny — the breadth
comes from the randomised buildings, seeds, windows and slides.
"""

from functools import lru_cache
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import config_from_dict
from repro.core.pipeline import VitaPipeline
from repro.live import LiveEngine, Monitor, replay
from repro.live import engine as engine_module
from repro.storage.backends import SQLiteBackend
from repro.storage.backends.base import dataset_spec
from repro.storage.repositories import DataWarehouse, row_to_trajectory_record


def _south(row):
    """A callable ``where`` predicate (it needs the row dict)."""
    return row["y"] is not None and row["y"] < 8.0


def _coded_monitors(window, slide):
    """The kinds, targets and predicates the JSON section below leaves out,
    among them a callable predicate, which JSON cannot spell."""
    return [
        monitor.window(window).slide(slide)
        for monitor in (
            Monitor.flow("f0_hall", "f0_room_s0").named("flow_in"),
            Monitor.flow("f0_room_s0", "f0_hall").named("flow_out"),
            Monitor.knn((8.0, 6.0), k=3, floor=0).named("near"),
            Monitor.density((0, 0, 14, 10), floor=0).named("occ_region"),
            Monitor.density(partition="f0_hall").named("occ_hall"),
            Monitor.density(floor=0).where("x", ">=", 10.0).named("occ_east"),
            Monitor.visit_counts(top_k=3).where(_south).named("pois_south"),
        )
    ]


def _all_monitors(config, window, slide):
    return [mc.build() for mc in config.monitors] + _coded_monitors(window, slide)


@lru_cache(maxsize=None)
def _monitored_run(building, seed, window, slide):
    """One monitored streaming run (cached: hypothesis revisits examples)."""
    config = config_from_dict(
        {
            "environment": {"building": building, "floors": 1},
            "devices": [{"type": "wifi", "count_per_floor": 3}],
            "objects": {"count": 8, "duration": 60, "time_step": 0.5, "seed": seed},
            "monitors": [
                {"monitor": "density", "floor": 0, "window": window, "slide": slide,
                 "name": "occ"},
                {"monitor": "visit_counts", "top_k": 3, "window": window,
                 "slide": slide, "name": "pois"},
                {"monitor": "geofence", "floor": 0, "region": [0, 0, 14, 10],
                 "window": window, "slide": slide, "name": "fence"},
            ],
            "seed": seed,
        }
    )
    return config, VitaPipeline(config).run_streaming(monitors=_coded_monitors(window, slide))


def _stored_rows(result):
    """The run's trajectory rows as tuples, in time order."""
    return list(result.warehouse.query("trajectory").tuples())


def _fed(monitors, pieces, shard_per_piece=True):
    """The report of a fresh engine fed *pieces* of rows in turn."""
    engine = LiveEngine(monitors)
    for piece in pieces:
        if shard_per_piece:
            engine.begin_shard()
        engine.feed("trajectory", piece)
        if shard_per_piece:
            engine.end_shard()
    return engine.finalize()


def _emission(report):
    """Per monitor: window values, alerts in firing order, matched records."""
    return {
        name: (result.values(), [(a.t, a.object_id, a.kind) for a in result.alerts],
               result.records_matched)
        for name, result in report.results.items()
    }


run_parameters = {
    "building": st.sampled_from(("office", "clinic")),
    "seed": st.integers(0, 10_000),
    "window": st.sampled_from((7.0, 15.0, 30.0, 60.0)),
    "slide": st.sampled_from((5.0, 10.0, 30.0)),
}

few_examples = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)


class TestReplayEquivalence:
    @given(**run_parameters)
    @few_examples
    def test_replay_matches_attached_emission(self, building, seed, window, slide):
        config, result = _monitored_run(building, seed, window, slide)
        replayed = replay(result.warehouse, _all_monitors(config, window, slide))
        assert set(replayed.results) == set(result.live.results)
        for name, live_result in result.live.results.items():
            assert replayed.results[name].values() == live_result.values(), name

    @given(**run_parameters)
    @few_examples
    def test_replay_is_identical_on_memory_and_sqlite(self, building, seed, window, slide):
        config, result = _monitored_run(building, seed, window, slide)
        monitors = _all_monitors(config, window, slide)
        sqlite = DataWarehouse(SQLiteBackend())
        stored = result.warehouse.backend.table_handle("trajectory").all_rows()
        sqlite.backend.insert_rows("trajectory", stored)
        on_sqlite = replay(sqlite, monitors)
        sqlite.close()
        assert _emission(on_sqlite) == _emission(replay(result.warehouse, monitors))


    @given(**run_parameters)
    @few_examples
    def test_attached_emission_matches_offline_builder_queries(
        self, building, seed, window, slide
    ):
        _, result = _monitored_run(building, seed, window, slide)
        warehouse = result.warehouse
        for w in result.live.results["occ"].windows:
            expected = len(
                warehouse.query("trajectory")
                .during(w.t_start, w.t_end)
                .on_floor(0)
                .distinct("object_id")
            )
            assert w.value == expected
        for w in result.live.results["pois"].windows:
            counts = (
                warehouse.query("trajectory")
                .during(w.t_start, w.t_end)
                .where("partition_id", "not_in", (None, ""))
                .count_by("partition_id", distinct="object_id")
            )
            expected = tuple(
                sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:3]
            )
            assert w.value == expected

    @given(**run_parameters)
    @few_examples
    def test_windows_cover_the_data_span(self, building, seed, window, slide):
        _, result = _monitored_run(building, seed, window, slide)
        bounds = result.warehouse.backend.time_bounds("trajectory")
        occ = result.live.results["occ"].windows
        if bounds is None:
            assert occ == []
            return
        _, t_max = bounds
        assert occ[0].t_start == 0.0
        assert occ[-1].t_start <= t_max
        assert occ[-1].t_start + slide > t_max
        indices = [w.index for w in occ]
        assert indices == list(range(len(occ)))


class TestIntake:
    @given(**run_parameters, data=st.data())
    @few_examples
    def test_batch_splits_and_chunks_do_not_change_the_report(
        self, building, seed, window, slide, data
    ):
        config, result = _monitored_run(building, seed, window, slide)
        monitors = _all_monitors(config, window, slide)
        rows = _stored_rows(result)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=6)))
        bounds = [0, *cuts, len(rows)]
        pieces = [rows[start:end] for start, end in zip(bounds, bounds[1:])]
        with mock.patch.object(engine_module, "_FEED_CHUNK", data.draw(st.integers(1, 50))):
            split = _fed(monitors, pieces, shard_per_piece=data.draw(st.booleans()))
        assert _emission(split) == _emission(_fed(monitors, [rows]))

    @given(**run_parameters)
    @few_examples
    def test_tuples_dicts_and_typed_records_give_one_report(
        self, building, seed, window, slide
    ):
        config, result = _monitored_run(building, seed, window, slide)
        monitors = _all_monitors(config, window, slide)
        rows = _stored_rows(result)
        columns = dataset_spec("trajectory").columns
        dicts = [dict(zip(columns, row)) for row in rows]
        records = [row_to_trajectory_record(row) for row in dicts]
        expected = _emission(_fed(monitors, [rows]))
        assert _emission(_fed(monitors, [dicts])) == expected
        assert _emission(_fed(monitors, [records])) == expected


class TestWorkerEquivalence:
    @given(seed=st.integers(0, 10_000), shards=st.integers(2, 4))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    def test_workers_2_equals_serial(self, seed, shards):
        config = config_from_dict(
            {
                "environment": {"building": "clinic", "floors": 1},
                "devices": [{"type": "wifi", "count_per_floor": 3}],
                "objects": {"count": 4, "duration": 30, "time_step": 0.5, "seed": seed},
                "monitors": [
                    {"monitor": "density", "floor": 0, "window": 10, "slide": 5,
                     "name": "occ"},
                    {"monitor": "geofence", "floor": 0, "region": [0, 0, 12, 12],
                     "name": "fence"},
                ],
                "seed": seed,
            }
        )
        coded = _coded_monitors(10.0, 5.0)
        serial = VitaPipeline(config).run_streaming(shards=shards, workers=1, monitors=coded)
        parallel = VitaPipeline(config).run_streaming(shards=shards, workers=2, monitors=coded)
        for name, serial_result in serial.live.results.items():
            parallel_result = parallel.live.results[name]
            assert parallel_result.values() == serial_result.values(), name
            assert [
                (a.t, a.object_id, a.kind) for a in parallel_result.alerts
            ] == [(a.t, a.object_id, a.kind) for a in serial_result.alerts], name
