"""The replay-equivalence contract, end to end.

A monitored streaming run, a replay over the warehouse it produced, and the
equivalent offline builder queries must all tell the same story — on both
storage engines, and for any ``workers`` value.
"""

import pytest

from repro.core.config import config_from_dict
from repro.core.errors import MonitorError
from repro.core.pipeline import VitaPipeline
from repro.live import Monitor, replay
from repro.storage.stream import DataStreamAPI


def small_config(backend="memory", path=None, monitors=()):
    payload = {
        "environment": {"building": "clinic", "floors": 1},
        "devices": [{"type": "wifi", "count_per_floor": 4}],
        "objects": {"count": 6, "duration": 60, "time_step": 0.5, "seed": 11},
        "monitors": list(monitors),
        "seed": 11,
    }
    if backend == "sqlite":
        payload["storage"] = {"backend": "sqlite", "path": str(path)}
    return config_from_dict(payload)


MONITOR_SECTION = (
    {"monitor": "density", "floor": 0, "window": 20, "slide": 10, "name": "occ"},
    {"monitor": "visit_counts", "top_k": 3, "window": 30, "name": "pois"},
    {"monitor": "geofence", "floor": 0, "region": [0, 0, 12, 12], "name": "fence"},
    {"monitor": "knn", "floor": 0, "x": 8.0, "y": 6.0, "k": 3, "window": 30,
     "name": "near"},
)


@pytest.fixture(scope="module", params=("memory", "sqlite"))
def monitored_run(request, tmp_path_factory):
    """One monitored streaming run per backend, shared by the suite."""
    path = tmp_path_factory.mktemp("live") / "run.sqlite"
    config = small_config(request.param, path, MONITOR_SECTION)
    result = VitaPipeline(config).run_streaming()
    yield config, result
    result.warehouse.close()


class TestAttachedVersusReplay:
    def test_every_monitor_replays_identically(self, monitored_run):
        config, result = monitored_run
        monitors = [mc.build() for mc in config.monitors]
        replayed = replay(result.warehouse, monitors)
        assert set(replayed.results) == set(result.live.results)
        for name, live_result in result.live.results.items():
            assert replayed.results[name].values() == live_result.values(), name

    def test_replay_through_stream_api(self, monitored_run):
        config, result = monitored_run
        monitors = [mc.build() for mc in config.monitors]
        replayed = DataStreamAPI(result.warehouse).replay_monitors(monitors)
        assert replayed.results["occ"].values() == result.live.results["occ"].values()

    def test_batch_size_must_be_positive(self, monitored_run):
        config, result = monitored_run
        with pytest.raises(MonitorError):
            replay(result.warehouse, [mc.build() for mc in config.monitors], batch_size=0)

    def test_alert_multiset_matches_across_modes(self, monitored_run):
        config, result = monitored_run
        monitors = [mc.build() for mc in config.monitors]
        replayed = replay(result.warehouse, monitors)
        live_alerts = {(a.t, a.object_id, a.kind) for a in result.live.results["fence"].alerts}
        replay_alerts = {(a.t, a.object_id, a.kind) for a in replayed.results["fence"].alerts}
        assert live_alerts == replay_alerts


class TestOfflineBuilderEquivalence:
    def test_density_windows_match_distinct_queries(self, monitored_run):
        _, result = monitored_run
        warehouse = result.warehouse
        for window in result.live.results["occ"].windows:
            expected = len(
                warehouse.query("trajectory")
                .during(window.t_start, window.t_end)
                .on_floor(0)
                .distinct("object_id")
            )
            assert window.value == expected

    def test_visit_counts_match_count_by_queries(self, monitored_run):
        _, result = monitored_run
        warehouse = result.warehouse
        for window in result.live.results["pois"].windows:
            counts = (
                warehouse.query("trajectory")
                .during(window.t_start, window.t_end)
                .where("partition_id", "not_in", (None, ""))
                .count_by("partition_id", distinct="object_id")
            )
            expected = tuple(
                sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:3]
            )
            assert window.value == expected

    def test_knn_windows_match_min_distance_scan(self, monitored_run):
        import math

        _, result = monitored_run
        warehouse = result.warehouse
        for window in result.live.results["near"].windows:
            best = {}
            rows = (
                warehouse.query("trajectory")
                .during(window.t_start, window.t_end)
                .on_floor(0)
                .iter()
            )
            for row in rows:
                distance = math.hypot(row["x"] - 8.0, row["y"] - 6.0)
                if row["object_id"] not in best or distance < best[row["object_id"]]:
                    best[row["object_id"]] = distance
            expected = tuple(sorted(best.items(), key=lambda item: (item[1], item[0]))[:3])
            assert window.value == expected

    def test_geofence_windows_match_state_machine_scan(self, monitored_run):
        _, result = monitored_run
        warehouse = result.warehouse
        region = result.config.monitors[2].build().plan().region
        inside_state = {}
        events = []
        rows = warehouse.query("trajectory").order_by("object_id", "t").iter()
        for row in rows:
            if row["floor_id"] != 0:
                continue
            inside = region.matches(row)
            was = inside_state.get(row["object_id"], False)
            inside_state[row["object_id"]] = inside
            if inside != was:
                events.append((row["t"], row["object_id"], "enter" if inside else "exit"))
        for window in result.live.results["fence"].windows:
            expected = tuple(
                sorted(e for e in events if window.t_start <= e[0] <= window.t_end)
            )
            assert window.value == expected


class TestWorkerEquivalence:
    def test_workers_do_not_change_emission(self):
        config = small_config(monitors=MONITOR_SECTION)
        serial = VitaPipeline(config).run_streaming(shards=3, workers=1)
        parallel = VitaPipeline(config).run_streaming(shards=3, workers=2)
        for name, serial_result in serial.live.results.items():
            parallel_result = parallel.live.results[name]
            assert parallel_result.values() == serial_result.values(), name
            assert [
                (a.t, a.object_id, a.kind) for a in parallel_result.alerts
            ] == [(a.t, a.object_id, a.kind) for a in serial_result.alerts], name


class TestExplicitMonitorsArgument:
    def test_monitors_passed_to_run_streaming_combine_with_config(self):
        config = small_config(monitors=MONITOR_SECTION[:1])
        extra = Monitor.visit_counts(top_k=2).window(30).named("extra")
        result = VitaPipeline(config).run_streaming(monitors=[extra])
        assert set(result.live.results) == {"occ", "extra"}
        assert result.report.monitors["extra"]["windows"] > 0
