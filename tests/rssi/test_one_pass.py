"""The chunked RSSI pass equals measuring one trajectory at a time, bit for bit.

``RSSIGenerator`` measures a chunk of trajectories (or every survey point) in
one noiseless pass, device by device, with the path loss and ``Nob`` as
arrays.  The reference below is the per-trajectory loop the generator ran
before: per sample, the devices in range in deployment order, the scalar
path-loss and obstacle-noise formulas, one sight-fan count per device per
trajectory, then the packet-loss and fluctuation draws in that order.
"""

import math

import pytest

from repro.building.model import Obstacle
from repro.core.types import IndoorLocation, RSSIRecord
from repro.devices.wifi import WiFiAccessPoint
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.rssi import measurement
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator
from repro.rssi.pathloss import default_model_for


def _scalar_rssi(model, distance):
    distance = max(distance, 0.1)
    return -10.0 * model.exponent * math.log10(distance) + model.calibration_rssi


def _scalar_nob(noise, walls, obstacles):
    total = walls * noise.wall_attenuation_db + obstacles * noise.obstacle_attenuation_db
    if walls + obstacles > 0:
        total += noise.non_line_of_sight_extra_db
    return -min(total, noise.max_attenuation_db)


def reference_noiseless(generator, samples):
    """Per sample ``(floor_id, x, y)``: ``(device, value)`` of each device in
    range, in deployment order, counted in one pass over *samples*."""
    config = generator.config
    pairs, xs, ys, bounds, by_device = [], [], [], [], {}
    for floor_id, x, y in samples:
        first = len(pairs)
        for device in generator.devices:
            if device.floor_id != floor_id:
                continue
            position = device.position
            distance = math.hypot(position.x - x, position.y - y)
            if distance <= device.detection_range * config.range_factor:
                by_device.setdefault(device.device_id, []).append(len(pairs))
                pairs.append((device, distance))
                xs.append(x)
                ys.append(y)
        bounds.append((first, len(pairs)))
    values = [0.0] * len(pairs)
    for members in by_device.values():
        device = pairs[members[0]][0]
        fan = generator.spatial.sight_fan(
            device.floor_id, device.position, device.detection_range * config.range_factor
        )
        walls, obstacles = fan.crossings([xs[i] for i in members], [ys[i] for i in members])
        model = config.path_loss or default_model_for(device)
        for index, wall_count, obstacle_count in zip(members, walls, obstacles):
            values[index] = _scalar_rssi(model, pairs[index][1]) + _scalar_nob(
                config.obstacle_noise, wall_count, obstacle_count
            )
    return [[(pairs[i][0], values[i]) for i in range(first, last)] for first, last in bounds]


def _reference_draw(generator, noiseless):
    config = generator.config
    kept = []
    for device, value in noiseless:
        if generator.rng.random() > config.detection_probability:
            continue
        kept.append((device, value + config.fluctuation_noise.sample(generator.rng)))
    return kept


def reference_records(generator, trajectory):
    """The records of one trajectory, as the per-trajectory loop made them."""
    if trajectory.is_empty:
        return []
    times, samples = [], []
    t = trajectory.start_time
    while t <= trajectory.end_time + 1e-9:
        location = trajectory.location_at(min(t, trajectory.end_time))
        if location is not None and location.has_point:
            times.append(round(t, 6))
            samples.append((location.floor_id, *location.point()))
        t += generator.config.sampling_period
    return [
        RSSIRecord(trajectory.object_id, device.device_id, rssi, t)
        for t, noiseless in zip(times, reference_noiseless(generator, samples))
        for device, rssi in _reference_draw(generator, noiseless)
    ]


def _bits(records):
    return [(r.object_id, r.device_id, r.rssi.hex(), r.t) for r in records]


def _value_bits(noiseless):
    return [[(device.device_id, value.hex()) for device, value in row] for row in noiseless]


def _pair(building, devices, seed=12, **config):
    return tuple(
        RSSIGenerator(building, devices, RSSIGenerationConfig(seed=seed, **config))
        for _ in range(2)
    )


class TestChunkedTrajectories:
    @pytest.mark.parametrize("chunk", [1, 7, 100, measurement._SAMPLE_CHUNK])
    def test_chunks_equal_the_per_trajectory_loop(
        self, monkeypatch, office, office_wifi, office_simulation, chunk
    ):
        monkeypatch.setattr(measurement, "_SAMPLE_CHUNK", chunk)
        chunked, reference = _pair(office, office_wifi)
        expected = [
            record
            for trajectory in office_simulation.trajectories
            for record in reference_records(reference, trajectory)
        ]
        assert expected, "vacuous comparison: no records generated"
        assert _bits(chunked.iter_generate(office_simulation.trajectories)) == _bits(expected)
        assert chunked.rng.getstate() == reference.rng.getstate()

    def test_a_chunk_of_one_trajectory(self, office, office_wifi, office_simulation):
        one, reference = _pair(office, office_wifi, seed=3)
        for trajectory in office_simulation.trajectories:
            assert _bits(one.iter_trajectory_records(trajectory)) == _bits(
                reference_records(reference, trajectory)
            )

    def test_floors_without_devices(self, office, office_wifi, office_simulation):
        ground = [device for device in office_wifi if device.floor_id == 0]
        chunked, reference = _pair(office, ground, seed=4)
        records = office_simulation.trajectories.all_records()
        floors = {record.location.floor_id for record in records}
        assert floors == {0, 1}
        expected = [
            record
            for trajectory in office_simulation.trajectories
            for record in reference_records(reference, trajectory)
        ]
        assert _bits(chunked.generate(office_simulation.trajectories)) == _bits(
            sorted(expected, key=lambda r: (r.t, r.object_id, r.device_id))
        )

    def test_walls_and_obstacles(self, fresh_office, office_wifi, office_simulation):
        for index, box in enumerate([(5.0, 2.5, 6.0, 3.5), (12.0, 4.0, 14.0, 8.0),
                                     (20.0, 6.0, 24.0, 7.0), (30.0, 2.0, 31.0, 12.0)]):
            fresh_office.floor(0).add_obstacle(
                Obstacle(f"cabinet{index}", 0, Polygon.rectangle(*box))
            )
        chunked, reference = _pair(fresh_office, office_wifi, seed=5)
        samples = [
            (record.location.floor_id, record.location.x, record.location.y)
            for record in office_simulation.trajectories.all_records()
            if record.location.floor_id == 0
        ]
        fans = [
            reference.spatial.sight_fan(device.floor_id, device.position, device.detection_range)
            for device in office_wifi if device.floor_id == 0
        ]
        xs, ys = [x for _, x, _ in samples], [y for _, _, y in samples]
        assert any(any(fan.crossings(xs, ys)[0]) for fan in fans), "no wall crossed"
        assert any(any(fan.crossings(xs, ys)[1]) for fan in fans), "no obstacle crossed"
        expected = [
            record
            for trajectory in office_simulation.trajectories
            for record in reference_records(reference, trajectory)
        ]
        assert _bits(chunked.iter_generate(office_simulation.trajectories)) == _bits(expected)


class TestNoiselessEdges:
    @pytest.fixture
    def devices(self):
        return [
            WiFiAccessPoint("ap_a", IndoorLocation("b", 0, x=10.0, y=5.0), detection_range=20.0),
            WiFiAccessPoint("ap_b", IndoorLocation("b", 0, x=14.0, y=5.0), detection_range=8.0),
            WiFiAccessPoint("ap_c", IndoorLocation("b", 1, x=10.0, y=5.0), detection_range=20.0),
        ]

    def test_reach_short_distances_and_empty_floors(self, office, devices):
        samples = [
            (0, 30.0, 5.0),            # exactly ap_a's reach
            (0, 30.000000000000004, 5.0),  # just beyond it
            (0, 22.0, 5.0),            # exactly ap_b's reach, inside ap_a's
            (0, 10.05, 5.0),           # closer than the 0.1 m clamp
            (0, 10.0, 5.0),            # on the device
            (1, 10.0, 25.0),           # exactly ap_c's reach on floor 1
            (2, 10.0, 5.0),            # a floor without devices
            (0, 14.0, 5.0),
        ]
        generator, reference = _pair(office, devices)
        noiseless = generator._noiseless(samples)
        assert _value_bits(noiseless) == _value_bits(reference_noiseless(reference, samples))
        in_range = [[device.device_id for device, _ in row] for row in noiseless]
        assert in_range == [
            ["ap_a"], [], ["ap_a", "ap_b"], ["ap_a", "ap_b"], ["ap_a", "ap_b"],
            ["ap_c"], [], ["ap_a", "ap_b"],
        ]
        # The clamp: closer than 0.1 m reads as 0.1 m.
        assert noiseless[3][0][1] == noiseless[4][0][1]

    def test_a_batch_equals_each_sample_alone(self, office, office_wifi, office_simulation):
        generator = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=6))
        samples = [
            (record.location.floor_id, record.location.x, record.location.y)
            for record in office_simulation.trajectories.all_records()[:300]
        ]
        alone = [row for sample in samples for row in generator._noiseless([sample])]
        assert _value_bits(generator._noiseless(samples)) == _value_bits(alone)


class TestSurveyBatch:
    def test_collect_fingerprints_equals_one_point_at_a_time(self, office, office_wifi):
        points = [(0, Point(4.0, 3.0)), (1, Point(20.0, 9.0)), (0, Point(35.0, 15.0)),
                  (0, Point(20.0, 9.0)), (1, Point(2.0, 2.0))]
        batch, single = _pair(office, office_wifi, seed=14)
        expected = [single.collect_fingerprint(floor_id, point, samples=4)
                    for floor_id, point in points]
        assert any(expected)
        assert batch.collect_fingerprints(points, samples=4) == expected
        assert batch.rng.getstate() == single.rng.getstate()

    def test_the_survey_draws_in_todays_order(self, office, office_wifi):
        points = [(0, Point(4.0, 3.0)), (1, Point(20.0, 9.0)), (0, Point(35.0, 15.0))]
        batch, reference = _pair(office, office_wifi, seed=15)
        expected = []
        for floor_id, point in points:
            [noiseless] = reference_noiseless(reference, [(floor_id, point.x, point.y)])
            observations = {}
            for _ in range(3):
                for device, rssi in _reference_draw(reference, noiseless):
                    observations.setdefault(device.device_id, []).append(rssi.hex())
            expected.append(observations)
        assert [
            {device_id: [value.hex() for value in values] for device_id, values in found.items()}
            for found in batch.collect_fingerprints(points, samples=3)
        ] == expected
