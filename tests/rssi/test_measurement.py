"""Unit tests for raw RSSI measurement generation (Section 3.2)."""

import statistics

import pytest

from repro.building.model import Building, Partition
from repro.core.errors import ConfigurationError
from repro.core.types import IndoorLocation
from repro.devices.wifi import WiFiAccessPoint
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator
from repro.rssi.noise import FluctuationNoiseModel, ObstacleNoiseModel


@pytest.fixture()
def open_hall_building():
    """A single 30x20 open hall with an internal wall stub in the middle.

    The wall separates the hall into a left and a right half only between
    y=0 and y=14, leaving a gap at the top, so the hall remains one partition
    while giving the path loss model something to block sight lines.
    """
    building = Building("hall")
    floor = building.new_floor(0)
    floor.add_partition(Partition("hall", 0, Polygon.rectangle(0, 0, 30, 20)))
    return building


def _device(device_id, x, y, floor=0, **kwargs):
    return WiFiAccessPoint(
        device_id, IndoorLocation("hall", floor, x=x, y=y), **kwargs
    )


class TestMeasurePrimitive:
    def test_rssi_decreases_with_distance(self, open_hall_building):
        device = _device("ap", 1.0, 10.0)
        generator = RSSIGenerator(
            open_hall_building, [device],
            RSSIGenerationConfig(
                fluctuation_noise=FluctuationNoiseModel(0.0),
                detection_probability=1.0,
                seed=1,
            ),
        )
        near = generator.measure(device, 0, Point(3.0, 10.0))
        far = generator.measure(device, 0, Point(20.0, 10.0))
        assert near is not None and far is not None
        assert near > far

    def test_out_of_range_returns_none(self, open_hall_building):
        device = _device("ap", 1.0, 10.0, detection_range=5.0)
        generator = RSSIGenerator(
            open_hall_building, [device], RSSIGenerationConfig(seed=1)
        )
        assert generator.measure(device, 0, Point(20.0, 10.0)) is None

    def test_wrong_floor_returns_none(self, open_hall_building):
        device = _device("ap", 1.0, 10.0)
        generator = RSSIGenerator(open_hall_building, [device], RSSIGenerationConfig(seed=1))
        assert generator.measure(device, 1, Point(2.0, 10.0)) is None

    def test_packet_loss_drops_measurements(self, open_hall_building):
        device = _device("ap", 1.0, 10.0)
        generator = RSSIGenerator(
            open_hall_building, [device],
            RSSIGenerationConfig(detection_probability=0.5, seed=2),
        )
        outcomes = [generator.measure(device, 0, Point(3.0, 10.0)) for _ in range(300)]
        missing = sum(1 for value in outcomes if value is None)
        assert 100 <= missing <= 200

    def test_fluctuation_noise_spreads_measurements(self, open_hall_building):
        device = _device("ap", 1.0, 10.0)
        generator = RSSIGenerator(
            open_hall_building, [device],
            RSSIGenerationConfig(
                fluctuation_noise=FluctuationNoiseModel(3.0),
                detection_probability=1.0,
                seed=3,
            ),
        )
        values = [generator.measure(device, 0, Point(10.0, 10.0)) for _ in range(200)]
        assert statistics.pstdev(values) > 1.0

    def test_figure3_wall_asymmetry(self):
        """Figure 3(a): equal distance, but the wall-blocked device reads lower RSSI."""
        building = Building("fig3")
        floor = building.new_floor(0)
        # Two rooms separated by a wall at x=10 with no door: the shared edge
        # stays a solid wall.
        floor.add_partition(Partition("left", 0, Polygon.rectangle(0, 0, 10, 10)))
        floor.add_partition(Partition("right", 0, Polygon.rectangle(10, 0, 30, 10)))
        d1 = _device("d1", 5.0, 5.0)    # in the left room, behind the wall
        d2 = _device("d2", 15.0, 5.0)   # in the right room, clear line of sight
        generator = RSSIGenerator(
            building, [d1, d2],
            RSSIGenerationConfig(
                fluctuation_noise=FluctuationNoiseModel(0.0),
                detection_probability=1.0,
                seed=4,
            ),
        )
        # Object p stands in the right room, 4 m from both devices... the same
        # transmission distance to d1 and d2.
        p = Point(11.0, 5.0)
        rssi_d1 = generator.measure(d1, 0, p)
        rssi_d2_at_same_distance = generator.measure(d2, 0, Point(d2.position.x + 6.0, 5.0))
        assert d1.distance_to(p) == pytest.approx(6.0)
        assert rssi_d1 is not None and rssi_d2_at_same_distance is not None
        assert rssi_d1 < rssi_d2_at_same_distance


class TestTrajectoryDrivenGeneration:
    def test_records_follow_sampling_period(self, office, office_wifi, office_simulation):
        sparse = RSSIGenerator(
            office, office_wifi, RSSIGenerationConfig(sampling_period=10.0, seed=5)
        ).generate(office_simulation.trajectories)
        dense = RSSIGenerator(
            office, office_wifi, RSSIGenerationConfig(sampling_period=2.0, seed=5)
        ).generate(office_simulation.trajectories)
        assert len(dense) > len(sparse)

    def test_records_are_sorted_and_reference_known_ids(self, office_rssi, office_wifi, office_simulation):
        device_ids = {device.device_id for device in office_wifi}
        object_ids = set(office_simulation.trajectories.object_ids)
        times = [record.t for record in office_rssi]
        assert times == sorted(times)
        assert all(record.device_id in device_ids for record in office_rssi)
        assert all(record.object_id in object_ids for record in office_rssi)

    def test_rssi_values_are_plausible_dbm(self, office_rssi):
        assert all(-120.0 < record.rssi < -10.0 for record in office_rssi)

    def test_empty_trajectories_produce_no_records(self, office, office_wifi):
        from repro.mobility.trajectory import TrajectorySet

        generator = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=6))
        assert generator.generate(TrajectorySet()) == []


class TestOnePath:
    """Every entry point makes the same measurements from the same noise stream."""

    def test_trajectory_records_equal_per_sample_measure_all(
        self, office, office_wifi, office_simulation
    ):
        batched = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=12))
        single = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=12))
        for trajectory in office_simulation.trajectories:
            expected = []
            t = trajectory.start_time
            while t <= trajectory.end_time + 1e-9:
                location = trajectory.location_at(min(t, trajectory.end_time))
                if location is not None and location.has_point:
                    expected.extend(single.measure_all(
                        location.floor_id, Point(*location.point()),
                        trajectory.object_id, round(t, 6),
                    ))
                t += batched.config.sampling_period
            assert list(batched.iter_trajectory_records(trajectory)) == expected
        assert expected, "vacuous comparison: no records generated"

    def test_measure_all_equals_measure_per_device(self, office, office_wifi):
        together = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=13))
        apart = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=13))
        for point in (Point(4.0, 3.0), Point(20.0, 9.0), Point(35.0, 15.0)):
            records = together.measure_all(0, point, "o1", 0.0)
            values = [apart.measure(device, 0, point) for device in office_wifi]
            assert [(r.device_id, r.rssi) for r in records] == [
                (device.device_id, value)
                for device, value in zip(office_wifi, values) if value is not None
            ]

    def test_collect_fingerprint_equals_repeated_measure_all(self, office, office_wifi):
        survey = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=14))
        repeated = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=14))
        point = Point(20.0, 9.0)
        expected = {}
        for _ in range(5):
            for record in repeated.measure_all(0, point, "o1", 0.0):
                expected.setdefault(record.device_id, []).append(record.rssi)
        assert survey.collect_fingerprint(0, point, samples=5) == expected


class TestFingerprintCollection:
    def test_collect_fingerprint_returns_samples_per_device(self, office, office_wifi):
        generator = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=7))
        observations = generator.collect_fingerprint(0, Point(20.0, 9.0), samples=6)
        assert observations
        for values in observations.values():
            assert 1 <= len(values) <= 6

    def test_collect_fingerprint_only_includes_same_floor_devices(self, office, office_wifi):
        generator = RSSIGenerator(
            office, office_wifi, RSSIGenerationConfig(detection_probability=1.0, seed=8)
        )
        observations = generator.collect_fingerprint(1, Point(20.0, 9.0), samples=3)
        floor1_devices = {d.device_id for d in office_wifi if d.floor_id == 1}
        assert set(observations) <= floor1_devices

    def test_invalid_sample_count_rejected(self, office, office_wifi):
        generator = RSSIGenerator(office, office_wifi, RSSIGenerationConfig(seed=9))
        with pytest.raises(ConfigurationError):
            generator.collect_fingerprint(0, Point(5.0, 5.0), samples=0)


class TestConfigValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RSSIGenerationConfig(sampling_period=0)
        with pytest.raises(ConfigurationError):
            RSSIGenerationConfig(range_factor=0)
        with pytest.raises(ConfigurationError):
            RSSIGenerationConfig(detection_probability=0.0)
