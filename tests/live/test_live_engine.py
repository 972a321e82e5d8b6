"""Unit tests for the incremental monitor engine, on hand-fed records."""

import pytest

from repro.core.errors import MonitorError
from repro.core.types import IndoorLocation, RSSIRecord, TrajectoryRecord
from repro.live.engine import LiveEngine, _window_indices
from repro.live.monitors import Monitor
from repro.storage.repositories import record_row


def rec(object_id, x, y, t, floor=0, partition="hall"):
    return TrajectoryRecord(
        object_id, IndoorLocation("b", floor, partition_id=partition, x=x, y=y), t
    )


def run(monitors, records, shards=None, **engine_kwargs):
    """Feed *records* (one shard, or a list of per-shard lists) and finalize."""
    engine = LiveEngine(monitors, **engine_kwargs)
    batches = records if shards else [records]
    for shard_id, batch in enumerate(batches):
        engine.begin_shard(shard_id)
        engine.feed("trajectory", batch)
        engine.end_shard()
    return engine.finalize()


class TestWindowAssignment:
    def test_tumbling_windows_partition_the_time_axis(self):
        assert _window_indices(5.0, 10.0, 10.0) == (0,)
        assert _window_indices(15.0, 10.0, 10.0) == (1,)

    def test_boundary_record_lands_in_both_adjacent_windows(self):
        # t = 10 is the inclusive end of window 0 and start of window 1.
        assert _window_indices(10.0, 10.0, 10.0) == (0, 1)

    def test_sliding_overlap(self):
        # window 20, slide 5: t = 12 is inside windows starting at 0, 5, 10.
        assert _window_indices(12.0, 20.0, 5.0) == (0, 1, 2)

    def test_slide_larger_than_window_leaves_gaps(self):
        # window 5, slide 10: t = 7 falls between [0, 5] and [10, 15].
        assert _window_indices(7.0, 5.0, 10.0) == ()

    def test_negative_time_matches_nothing(self):
        assert _window_indices(-1.0, 10.0, 10.0) == ()


class TestDensity:
    def test_counts_distinct_objects_per_window(self):
        monitors = [Monitor.density(floor=0).window(10).slide(10).named("occ")]
        records = [rec("a", 1, 1, 2.0), rec("a", 2, 2, 4.0), rec("b", 3, 3, 12.0)]
        report = run(monitors, records)
        assert report.results["occ"].values() == [1, 1]

    def test_region_target_excludes_outside_samples(self):
        monitors = [Monitor.density((0, 0, 5, 5), floor=0).window(10).named("inbox")]
        records = [rec("a", 1, 1, 0.0), rec("b", 50, 50, 1.0)]
        assert run(monitors, records).results["inbox"].values() == [1]

    def test_partition_target(self):
        monitors = [Monitor.density(partition="room").window(10).named("room")]
        records = [rec("a", 1, 1, 0.0, partition="room"), rec("b", 1, 1, 0.0)]
        assert run(monitors, records).results["room"].values() == [1]

    def test_floor_mismatch_excluded(self):
        monitors = [Monitor.density(floor=1).window(10).named("f1")]
        assert run(monitors, [rec("a", 1, 1, 0.0, floor=0)]).results["f1"].values() == [0]

    def test_predicate_filters_the_stream(self):
        monitors = [
            Monitor.density(floor=0).where("object_id", "!=", "a").window(10).named("rest")
        ]
        records = [rec("a", 1, 1, 0.0), rec("b", 1, 1, 1.0)]
        assert run(monitors, records).results["rest"].values() == [1]


class TestFlow:
    def test_counts_transitions_between_partitions(self):
        monitors = [Monitor.flow("hall", "room").window(100).named("in")]
        records = [
            rec("a", 1, 1, 0.0, partition="hall"),
            rec("a", 2, 2, 5.0, partition="room"),   # hall -> room: counts
            rec("a", 3, 3, 10.0, partition="hall"),  # room -> hall: not this monitor
            rec("a", 4, 4, 15.0, partition="room"),  # counts again
            rec("b", 9, 9, 2.0, partition="room"),   # first sample: no transition
        ]
        assert run(monitors, records).results["in"].values() == [2]

    def test_transition_requires_immediately_preceding_sample(self):
        monitors = [Monitor.flow("hall", "room").window(100).named("in")]
        records = [
            rec("a", 1, 1, 0.0, partition="hall"),
            rec("a", 2, 2, 5.0, partition="lobby"),
            rec("a", 3, 3, 10.0, partition="room"),  # lobby -> room: no count
        ]
        assert run(monitors, records).results["in"].values() == [0]


class TestGeofence:
    def test_enter_and_exit_events_and_alerts(self):
        monitors = [Monitor.geofence((0, 0, 5, 5), floor=0).window(100).named("fence")]
        records = [
            rec("a", 1, 1, 0.0),    # first sample inside: enter
            rec("a", 2, 2, 5.0),    # still inside: no event
            rec("a", 9, 9, 10.0),   # exit
            rec("a", 1, 1, 15.0),   # enter again
        ]
        report = run(monitors, records)
        result = report.results["fence"]
        assert result.values() == [
            ((0.0, "a", "enter"), (10.0, "a", "exit"), (15.0, "a", "enter"))
        ]
        assert [(a.t, a.kind) for a in result.alerts] == [
            (0.0, "enter"), (10.0, "exit"), (15.0, "enter"),
        ]

    def test_alert_on_restricts_alerts_but_not_window_events(self):
        monitors = [
            Monitor.geofence((0, 0, 5, 5), floor=0, on=("exit",)).window(100).named("f")
        ]
        records = [rec("a", 1, 1, 0.0), rec("a", 9, 9, 10.0)]
        result = run(monitors, records).results["f"]
        assert [a.kind for a in result.alerts] == ["exit"]
        assert result.values() == [((0.0, "a", "enter"), (10.0, "a", "exit"))]

    def test_on_alert_callback_fires_at_shard_merge(self):
        seen = []
        monitors = [Monitor.geofence((0, 0, 5, 5), floor=0).window(100).named("f")]
        run(monitors, [rec("a", 1, 1, 0.0)], on_alert=seen.append)
        assert [(a.monitor, a.kind) for a in seen] == [("f", "enter")]

    def test_pending_alert_queue_is_bounded(self):
        monitors = [Monitor.geofence((0, 0, 5, 5), floor=0).window(1000).named("f")]
        records = []
        for i in range(6):  # alternate inside/outside: 6 alerts
            records.append(rec("a", 1 if i % 2 == 0 else 9, 1, float(i)))
        report = run(monitors, records, max_pending_alerts=4)
        assert report.results["f"].dropped_alerts == 2
        # The finalized window still carries every event: backpressure bounds
        # the undrained alert queue, never the aggregates.
        assert len(report.results["f"].windows[0].value) == 6


class TestKnn:
    def test_ranks_objects_by_closest_approach(self):
        monitors = [Monitor.knn((0.0, 0.0), k=2, floor=0).window(100).named("near")]
        records = [
            rec("far", 30, 40, 0.0),    # distance 50
            rec("mid", 3, 4, 1.0),      # distance 5
            rec("close", 0, 1, 2.0),    # distance 1
            rec("mid", 0.6, 0.8, 3.0),  # improves mid to 1.0: ties with close
        ]
        result = run(monitors, records).results["near"]
        assert result.values() == [(("close", 1.0), ("mid", 1.0))]


class TestVisitCounts:
    def test_top_k_partitions_by_distinct_objects(self):
        monitors = [Monitor.visit_counts(top_k=2).window(100).named("pois")]
        records = [
            rec("a", 1, 1, 0.0, partition="hall"),
            rec("b", 1, 1, 1.0, partition="hall"),
            rec("a", 2, 2, 2.0, partition="room"),
            rec("c", 3, 3, 3.0, partition="lobby"),
        ]
        result = run(monitors, records).results["pois"]
        assert result.values() == [(("hall", 2), ("lobby", 1))]


class TestEngineProtocol:
    def test_shared_groups_and_unique_names(self):
        engine = LiveEngine()
        first = engine.subscribe(Monitor.density(floor=0))
        second = engine.subscribe(Monitor.density(floor=0))
        assert first != second and second.endswith("#2")

    def test_subscribe_after_feed_rejected(self):
        engine = LiveEngine([Monitor.density(floor=0)])
        engine.feed("trajectory", [rec("a", 1, 1, 0.0)])
        with pytest.raises(MonitorError):
            engine.subscribe(Monitor.visit_counts())

    def test_finalize_twice_rejected(self):
        engine = LiveEngine([Monitor.density(floor=0)])
        engine.finalize()
        with pytest.raises(MonitorError):
            engine.finalize()

    def test_unmonitored_datasets_are_ignored(self):
        engine = LiveEngine([Monitor.density(floor=0)])
        assert engine.feed("rssi", [object()]) == 0

    def test_empty_stream_emits_no_windows(self):
        report = run([Monitor.density(floor=0).named("occ")], [])
        assert report.results["occ"].windows == []

    def test_shard_split_is_invisible_in_results(self):
        monitors = [Monitor.density(floor=0).window(10).slide(5).named("occ")]
        records_a = [rec("a", 1, 1, float(t)) for t in range(0, 20, 2)]
        records_b = [rec("b", 2, 2, float(t)) for t in range(0, 20, 2)]
        merged = run(monitors, records_a + records_b)
        sharded = run(monitors, [records_a, records_b], shards=True)
        assert merged.results["occ"].values() == sharded.results["occ"].values()
        assert sharded.shards_merged == 2

    def test_accepts_plain_row_dicts(self):
        monitors = [Monitor.density(floor=0).window(10).named("occ"),
                    Monitor.visit_counts().window(10).named("pois")]
        # A missing key reads as None: "b" has no partition to visit.
        rows = [rec("a", 1, 1, 0.0).as_record(), {"object_id": "b", "t": 1.0, "floor_id": 0}]
        report = run(monitors, rows)
        assert report.results["occ"].values() == [2]
        assert report.results["pois"].values() == [(("hall", 1),)]
        assert report.results["pois"].records_matched == 2

    def test_accepts_row_tuples_in_column_order(self):
        monitors = [Monitor.density(floor=0).window(10).named("occ"),
                    Monitor.visit_counts().window(10).named("pois")]
        records = [rec("a", 1, 1, 0.0), rec("b", 2, 2, 1.0, partition="room")]
        tuples = [record_row(record)[1] for record in records]
        expected = run(monitors, records).to_json()
        assert run(monitors, tuples).to_json() == expected
        assert expected["monitors"]["pois"]["windows"][0]["value"] == [["hall", 1], ["room", 1]]

    @pytest.mark.parametrize("bad", [
        ("a", 0.0, "b", 0),                        # too few values
        RSSIRecord("a", "ap1", -60.0, 0.0),        # another dataset's record
        object(),                                  # not a record at all
        {"object_id": "a", "floor_id": 0},         # no time
    ])
    def test_unusable_records_are_rejected(self, bad):
        engine = LiveEngine([Monitor.density(floor=0)])
        with pytest.raises(MonitorError):
            engine.feed("trajectory", [bad])


class TestSpatialPruning:
    def test_region_off_the_floor_is_statically_empty(self, office):
        from repro.spatial import SpatialService

        spatial = SpatialService(office)
        monitors = [
            Monitor.density((1e6, 1e6, 1e6 + 1, 1e6 + 1), floor=1).window(10).named("off")
        ]
        report = run(monitors, [rec("a", 1, 1, 0.0, floor=1)], spatial=spatial)
        assert report.results["off"].values() == [0]

    def test_unknown_floor_is_statically_empty(self, office):
        from repro.spatial import SpatialService

        spatial = SpatialService(office)
        monitors = [Monitor.density((0, 0, 5, 5), floor=99).window(10).named("ghost")]
        report = run(monitors, [rec("a", 1, 1, 0.0, floor=99)], spatial=spatial)
        assert report.results["ghost"].values() == [0]

    def test_pruned_results_match_unpruned(self, office):
        from repro.spatial import SpatialService

        spatial = SpatialService(office)
        bounds = spatial.floor_bounds(1)
        region = (bounds.min_x, bounds.min_y,
                  bounds.min_x + bounds.width / 2, bounds.min_y + bounds.height / 2)
        monitors = [Monitor.density(region, floor=1).window(10).named("half")]
        records = [
            rec("a", bounds.min_x + 1, bounds.min_y + 1, 0.0, floor=1, partition=None),
            rec("b", bounds.max_x - 1, bounds.max_y - 1, 1.0, floor=1, partition=None),
        ]
        pruned = run(monitors, records, spatial=spatial)
        unpruned = run(monitors, records)
        assert pruned.results["half"].values() == unpruned.results["half"].values()
