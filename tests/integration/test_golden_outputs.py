"""Golden digests: the stored output of three fixed runs, pinned across commits.

The equivalence suites compare two runs of the *same* code (workers=N against
serial, cached against uncached).  These tests compare against constants, so
a refactor of the generation chain that changes any stored record fails
here.  Each digest covers every dataset's rows in query order, with floats
rounded to 1e-6 so the constants do not depend on last-bit arithmetic.
"""

import hashlib
from collections import defaultdict
from dataclasses import astuple

from repro.core.config import (
    DeviceConfig,
    EnvironmentConfig,
    ObjectConfig,
    PositioningLayerConfig,
    RSSIConfig,
    VitaConfig,
)
from repro.core.pipeline import VitaPipeline
from repro.core.toolkit import Vita
from repro.core.types import PositioningMethod
from repro.geometry.polygon import Polygon

DATASETS = ("device", "trajectory", "rssi", "positioning", "probabilistic", "proximity")


def _rounded(value):
    if isinstance(value, float):
        return round(value, 6) + 0.0  # + 0.0 folds -0.0 into 0.0
    if isinstance(value, dict):
        return tuple(sorted((key, _rounded(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_rounded(item) for item in value)
    return value


def warehouse_digest(warehouse):
    """``{dataset: (row count, sha256 of the rounded rows in query order)}``."""
    result = {}
    for dataset in DATASETS:
        rows = warehouse.query(dataset).all()
        hasher = hashlib.sha256()
        for row in rows:
            hasher.update(repr(_rounded(row)).encode("utf-8"))
        result[dataset] = (len(rows), hasher.hexdigest()[:16])
    return result


def snapshots_digest(snapshots):
    """sha256 of the rounded ``{t: {object_id: location}}`` snapshots."""
    rounded = _rounded({
        t: {object_id: astuple(location) for object_id, location in positions.items()}
        for t, positions in snapshots.items()
    })
    return hashlib.sha256(repr(rounded).encode("utf-8")).hexdigest()[:16]


#: Both constants were computed while the materialising ``VitaPipeline.run()``
#: still existed; change them only with a change meant to alter the data.
STREAMING_GOLDEN = {
    "device": (5, "7226f38a937ba460"),
    "trajectory": (507, "1344cde7efdaa4af"),
    "rssi": (942, "3053dcfd09369627"),
    "positioning": (108, "a724ae2331ce4f14"),
    "probabilistic": (0, "e3b0c44298fc1c14"),
    "proximity": (0, "e3b0c44298fc1c14"),
}

STEP_PATH_GOLDEN = {
    "device": (5, "7226f38a937ba460"),
    "trajectory": (343, "a0cf3835a9ec36d9"),
    "rssi": (665, "79bf7eb5456240b2"),
    "positioning": (72, "ec951bdfccad6f7e"),
    "probabilistic": (0, "e3b0c44298fc1c14"),
    "proximity": (0, "e3b0c44298fc1c14"),
}

#: The step path on a floor with two deployed obstacles that sight lines
#: cross, so the obstacle term of ``Nob`` is pinned too.
OBSTACLE_GOLDEN = {
    "device": (5, "7226f38a937ba460"),
    "trajectory": (289, "053352dd161525c1"),
    "rssi": (593, "db05c02f4b1b69a6"),
    "positioning": (59, "8e78faae7147d2cd"),
    "probabilistic": (0, "e3b0c44298fc1c14"),
    "proximity": (0, "e3b0c44298fc1c14"),
}


def test_streaming_run_matches_its_golden_digest():
    config = VitaConfig(
        environment=EnvironmentConfig(building="office", floors=1),
        devices=[DeviceConfig(count_per_floor=5)],
        objects=ObjectConfig(
            count=7,
            duration=60.0,
            time_step=0.5,
            min_lifespan=30.0,
            max_lifespan=60.0,
            distribution="crowd-outliers",
            crowd_count=2,
            crowd_fraction=0.6,
            arrival_rate_per_minute=6.0,
        ),
        rssi=RSSIConfig(sampling_period=2.0),
        positioning=PositioningLayerConfig(
            method=PositioningMethod.FINGERPRINTING,
            algorithm="knn",
            sampling_period=5.0,
            radio_map_spacing=6.0,
            radio_map_samples=3,
        ),
        seed=23,
        shards=2,
    )
    result = VitaPipeline(config).run_streaming(workers=1)
    assert warehouse_digest(result.warehouse) == STREAMING_GOLDEN


def test_step_path_matches_its_golden_digest():
    vita = Vita(seed=19)
    vita.use_synthetic_building("office", floors=1)
    vita.deploy_devices("wifi", count_per_floor=5)
    vita.generate_objects(
        count=6,
        duration=60.0,
        time_step=0.5,
        min_lifespan=30.0,
        max_lifespan=60.0,
        distribution="crowd-outliers",
        arrival_rate_per_minute=6.0,
    )
    vita.generate_rssi(sampling_period=2.0)
    vita.generate_positioning(
        "fingerprinting", sampling_period=5.0, radio_map_spacing=6.0, radio_map_samples=3
    )
    assert warehouse_digest(vita.warehouse) == STEP_PATH_GOLDEN


def test_obstacle_floor_matches_its_golden_digest():
    vita = Vita(seed=29)
    vita.use_synthetic_building("office", floors=1)
    vita.environment.deploy_obstacle(0, Polygon.rectangle(10, 2, 12, 4))
    vita.environment.deploy_obstacle(0, Polygon.rectangle(20, 6, 23, 8))
    vita.deploy_devices("wifi", count_per_floor=5)
    vita.generate_objects(
        count=6, duration=60.0, time_step=0.5, min_lifespan=30.0, max_lifespan=60.0
    )
    vita.generate_rssi(sampling_period=2.0)
    vita.generate_positioning(
        "fingerprinting", sampling_period=5.0, radio_map_spacing=6.0, radio_map_samples=3
    )
    assert warehouse_digest(vita.warehouse) == OBSTACLE_GOLDEN


#: A two-floor streaming trilateration run.  Most objects change floor, so
#: staircase legs of the tick loop and two-floor windows of the batched
#: trilateration solve are pinned.
TWO_FLOOR_TRILATERATION_GOLDEN = {
    "device": (12, "f225b894494f8002"),
    "trajectory": (968, "77379fb0e3dcd898"),
    "rssi": (2045, "7c86d11f43caaa47"),
    "positioning": (200, "4f50f6fc1035d005"),
    "probabilistic": (0, "e3b0c44298fc1c14"),
    "proximity": (0, "e3b0c44298fc1c14"),
}

#: A two-floor step run with every non-default mobility strategy (random-way
#: intention, variable speed, time routing, density slowdown), position
#: snapshots and Naive-Bayes fingerprinting, which reads ``std_rssi``.
CROWD_BAYES_GOLDEN = {
    "device": (10, "69dd9642d108158c"),
    "trajectory": (327, "cc51a06e1880d69e"),
    "rssi": (625, "e1291cb1dafda01c"),
    "positioning": (0, "e3b0c44298fc1c14"),
    "probabilistic": (67, "c148f10d620aeac4"),
    "proximity": (0, "e3b0c44298fc1c14"),
}
CROWD_BAYES_SNAPSHOTS = "d8a0e133c5dc198e"


def test_two_floor_trilateration_run_matches_its_golden_digest():
    config = VitaConfig(
        environment=EnvironmentConfig(building="office", floors=2),
        devices=[DeviceConfig(count_per_floor=6)],
        objects=ObjectConfig(
            count=8, duration=120.0, min_lifespan=120.0, max_lifespan=120.0
        ),
        rssi=RSSIConfig(sampling_period=2.0),
        positioning=PositioningLayerConfig(
            method=PositioningMethod.TRILATERATION, sampling_period=5.0
        ),
        seed=37,
        shards=2,
    )
    result = VitaPipeline(config).run_streaming(workers=1)
    floors = defaultdict(set)
    for row in result.warehouse.query("trajectory").all():
        floors[row["object_id"]].add(row["floor_id"])
    assert any(len(visited) > 1 for visited in floors.values())
    assert warehouse_digest(result.warehouse) == TWO_FLOOR_TRILATERATION_GOLDEN


def test_crowd_step_run_with_bayes_matches_its_golden_digest():
    vita = Vita(seed=43)
    vita.use_synthetic_building("office", floors=2)
    vita.deploy_devices("wifi", count_per_floor=5)
    simulation = vita.generate_objects(
        count=8,
        duration=60.0,
        time_step=0.5,
        min_lifespan=30.0,
        max_lifespan=60.0,
        distribution="crowd-outliers",
        intention="random-way",
        behavior="variable-speed",
        routing="time",
        crowd_interaction="density-slowdown",
        snapshot_times=[15, 45],
    )
    vita.generate_rssi(sampling_period=2.0)
    vita.generate_positioning(
        "fingerprinting",
        algorithm="bayes",
        sampling_period=5.0,
        radio_map_spacing=6.0,
        radio_map_samples=3,
    )
    assert warehouse_digest(vita.warehouse) == CROWD_BAYES_GOLDEN
    assert sorted(simulation.snapshots) == [15, 45]
    assert snapshots_digest(simulation.snapshots) == CROWD_BAYES_SNAPSHOTS
