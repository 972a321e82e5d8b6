"""Cross-process safety of the SpatialService.

The service's caches — like ``Floor``'s lambda caches — must be dropped on
pickle and rebuilt lazily in the receiving process, and a parallel streaming
run (which ships the service inside each worker's ``ShardContext``) must
store records identical to a serial run.
"""

import pickle

import pytest

from repro.core.config import (
    DeviceConfig,
    EnvironmentConfig,
    ObjectConfig,
    PositioningLayerConfig,
    RSSIConfig,
    VitaConfig,
)
from repro.core.streaming import ShardContext
from repro.core.toolkit import Vita
from repro.geometry.point import Point
from repro.spatial import SpatialService

DATASETS = ("trajectory", "rssi", "positioning", "device")


class TestPickleDropsCaches:
    def test_round_trip_rebuilds_lazily_and_answers_identically(self, office):
        service = SpatialService(office)
        warm_route = service.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        warm_sight = service.sightline(0, Point(2.0, 2.0), Point(30.0, 9.0))
        assert service.cache_stats()["route_misses"] > 0

        clone = pickle.loads(pickle.dumps(service))
        # Caches and counters start empty in the receiving process...
        assert all(value == 0 for value in clone.cache_stats().values())
        # ...and rebuild lazily to the same answers.
        route = clone.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))
        assert route.waypoints == warm_route.waypoints
        assert route.length == warm_route.length
        assert clone.sightline(0, Point(2.0, 2.0), Point(30.0, 9.0)) == warm_sight

    def test_pickle_keeps_configuration_and_drops_sight_fans(self, office):
        service = SpatialService(office)
        fan = service.sight_fan(0, Point(2.0, 2.0), 30.0)
        clone = pickle.loads(pickle.dumps(service))
        assert clone.config == service.config
        assert not clone._sight_fans
        assert clone.sight_fan(0, Point(2.0, 2.0), 30.0).crossings([30.0], [9.0]) == (
            fan.crossings([30.0], [9.0])
        )

    def test_shard_context_with_spatial_service_is_picklable(self, office, office_wifi):
        config = VitaConfig(seed=5)
        spatial = SpatialService(office, config=config.spatial)
        spatial.shortest_route(0, Point(4.0, 3.0), 1, Point(35.0, 3.0))  # warm
        context = ShardContext(
            config=config,
            building=office,
            devices=list(office_wifi),
            master_seed=5,
            spatial=spatial,
        )
        clone = pickle.loads(pickle.dumps(context))
        assert clone.spatial is not None
        assert all(value == 0 for value in clone.spatial.cache_stats().values())


def _config():
    return VitaConfig(
        environment=EnvironmentConfig(building="clinic", floors=1),
        devices=[DeviceConfig(count_per_floor=4)],
        objects=ObjectConfig(
            count=6, duration=30.0, time_step=0.5, min_lifespan=15.0, max_lifespan=30.0
        ),
        rssi=RSSIConfig(sampling_period=2.0),
        positioning=PositioningLayerConfig(sampling_period=5.0),
        seed=23,
        shards=2,
    )


class TestWorkersRegression:
    def test_workers_2_matches_serial_with_rebuilt_worker_caches(self):
        """Satellite regression: caches rebuilt inside workers change nothing."""
        snapshots = []
        for workers in (1, 2):
            with Vita() as vita:
                report = vita.generate(_config(), workers=workers).report
                snapshots.append(
                    (report, {name: vita.query(name).all() for name in DATASETS})
                )
        serial_report, serial = snapshots[0]
        parallel_report, parallel = snapshots[1]
        assert serial["trajectory"], "vacuous comparison: no records generated"
        for dataset in DATASETS:
            assert serial[dataset] == parallel[dataset], (
                f"{dataset}: workers=2 diverged from workers=1"
            )
        # Both runs exercised the spatial caches and reported counters.
        assert sum(serial_report.cache_stats.values()) > 0
        assert sum(parallel_report.cache_stats.values()) > 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_cache_toggle_never_changes_streamed_records(self, enabled):
        config = _config()
        config.spatial.enabled = enabled
        with Vita() as vita:
            vita.generate(config, workers=1)
            snapshot = {name: vita.query(name).all() for name in DATASETS}
        reference_config = _config()
        with Vita() as vita:
            vita.generate(reference_config, workers=1)
            reference = {name: vita.query(name).all() for name in DATASETS}
        for dataset in DATASETS:
            assert snapshot[dataset] == reference[dataset]
