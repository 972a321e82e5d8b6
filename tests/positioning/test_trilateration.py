"""Unit tests for trilateration (Section 3.3 (1))."""

import pytest

from repro.building.model import Building, Partition
from repro.core.types import IndoorLocation, PositioningMethod, RSSIRecord
from repro.devices.wifi import WiFiAccessPoint
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.positioning.base import ObservationWindow, build_windows
from repro.positioning.trilateration import (
    TrilaterationMethod,
    default_rssi_conversion,
)
from repro.rssi.pathloss import PathLossModel, default_model_for


@pytest.fixture()
def open_hall():
    """One large 40x40 open hall — ideal, wall-free trilateration conditions."""
    building = Building("hall")
    floor = building.new_floor(0)
    floor.add_partition(Partition("hall", 0, Polygon.rectangle(0, 0, 40, 40)))
    return building


@pytest.fixture()
def corner_devices(open_hall):
    """Four access points near the hall corners."""
    positions = [(2.0, 2.0), (38.0, 2.0), (38.0, 38.0), (2.0, 38.0)]
    return [
        WiFiAccessPoint(
            f"ap_{index}", IndoorLocation("hall", 0, x=x, y=y), detection_range=80.0
        )
        for index, (x, y) in enumerate(positions)
    ]


def _noise_free_window(devices, true_point: Point, object_id="o1", t=5.0):
    """An observation window with exact (noise-free) path-loss RSSI values."""
    records = []
    for device in devices:
        model = default_model_for(device)
        rssi = model.rssi_at(device.position.distance_to(true_point))
        records.append(RSSIRecord(object_id, device.device_id, rssi, t))
    return ObservationWindow(object_id, t - 2.5, t + 2.5, records=records)


class TestNoiseFreeAccuracy:
    @pytest.mark.parametrize("true_point", [Point(20, 20), Point(10, 30), Point(5, 5), Point(33, 12)])
    def test_recovers_position_exactly_without_noise(self, open_hall, corner_devices, true_point):
        method = TrilaterationMethod(open_hall, corner_devices)
        window = _noise_free_window(corner_devices, true_point)
        estimate = method.estimate_window(window)
        assert estimate is not None
        assert estimate.method is PositioningMethod.TRILATERATION
        x, y = estimate.location.point()
        assert Point(x, y).distance_to(true_point) < 0.5

    def test_estimate_is_annotated_with_partition_and_time(self, open_hall, corner_devices):
        method = TrilaterationMethod(open_hall, corner_devices)
        estimate = method.estimate_window(_noise_free_window(corner_devices, Point(20, 20), t=42.0))
        assert estimate.location.partition_id == "hall"
        assert estimate.t == pytest.approx(42.0)


class TestRequirements:
    def test_needs_at_least_three_devices(self, open_hall, corner_devices):
        method = TrilaterationMethod(open_hall, corner_devices)
        window = _noise_free_window(corner_devices[:2], Point(20, 20))
        assert method.estimate_window(window) is None

    def test_constructor_validates_min_devices(self, open_hall, corner_devices):
        with pytest.raises(ValueError):
            TrilaterationMethod(open_hall, corner_devices, min_devices=2)
        with pytest.raises(ValueError):
            TrilaterationMethod(open_hall, corner_devices, min_devices=4, max_devices=3)

    def test_devices_on_other_floors_are_ignored(self, open_hall, corner_devices):
        upstairs = WiFiAccessPoint(
            "up", IndoorLocation("hall", 1, x=20.0, y=20.0), detection_range=80.0
        )
        method = TrilaterationMethod(open_hall, corner_devices + [upstairs])
        window = _noise_free_window(corner_devices[:3], Point(20, 20))
        window.records.append(RSSIRecord("o1", "up", -40.0, 5.0))
        estimate = method.estimate_window(window)
        assert estimate is not None
        assert estimate.location.floor_id == 0

    def test_collinear_devices_rejected(self, open_hall):
        collinear = [
            WiFiAccessPoint(f"c_{i}", IndoorLocation("hall", 0, x=float(10 * i + 5), y=20.0),
                            detection_range=80.0)
            for i in range(3)
        ]
        method = TrilaterationMethod(open_hall, collinear)
        window = _noise_free_window(collinear, Point(20, 10))
        # Degenerate geometry: either None or a finite estimate, never an exception.
        estimate = method.estimate_window(window)
        if estimate is not None:
            assert estimate.location.has_point


class TestCustomConversion:
    def test_default_conversion_inverts_path_loss(self, corner_devices):
        device = corner_devices[0]
        model = default_model_for(device)
        assert default_rssi_conversion(device, model.rssi_at(7.0)) == pytest.approx(7.0, rel=1e-6)

    def test_user_defined_conversion_function_is_used(self, open_hall, corner_devices):
        """Section 3.3: users can define their own RSSI conversion functions."""
        calls = []

        def biased_conversion(device, rssi):
            calls.append(device.device_id)
            return default_rssi_conversion(device, rssi) * 2.0

        method = TrilaterationMethod(open_hall, corner_devices, rssi_conversion=biased_conversion)
        method.estimate_window(_noise_free_window(corner_devices, Point(20, 20)))
        assert calls  # the custom function was invoked

    def test_explicit_path_loss_model_conversion(self, open_hall, corner_devices):
        path_loss = PathLossModel(exponent=2.0, calibration_rssi=-40.0)
        method = TrilaterationMethod(open_hall, corner_devices, path_loss=path_loss)
        estimate = method.estimate_window(_noise_free_window(corner_devices, Point(20, 20)))
        assert estimate is not None


class TestClamping:
    def test_estimates_clamped_into_floor_extent(self, open_hall, corner_devices):
        method = TrilaterationMethod(open_hall, corner_devices, clamp_to_floor=True)
        # Wildly inconsistent radii: pretend every device hears a very weak signal.
        records = [
            RSSIRecord("o1", device.device_id, -95.0, 0.0) for device in corner_devices
        ]
        window = ObservationWindow("o1", 0.0, 5.0, records=records)
        estimate = method.estimate_window(window)
        assert estimate is not None
        x, y = estimate.location.point()
        assert 0.0 <= x <= 40.0 and 0.0 <= y <= 40.0


class TestEndToEnd:
    def test_accuracy_on_generated_office_data(self, office, office_wifi, office_rssi, office_simulation):
        from repro.analysis.accuracy import evaluate_positioning

        method = TrilaterationMethod(office, office_wifi)
        estimates = method.estimate(build_windows(office_rssi, period=5.0))
        assert len(estimates) > 50
        report = evaluate_positioning(estimates, office_simulation.trajectories)
        assert report.mean_error < 15.0
        assert report.floor_accuracy > 0.9

    def test_damped_refinement_accuracy_guard(self, office, office_wifi, office_rssi, office_simulation):
        # The undamped Gauss–Newton refinement this replaced scored 7.76 m
        # mean and 13.25 m p90 on this data; the damped solve about 6.0 / 9.5.
        from repro.analysis.accuracy import evaluate_positioning

        method = TrilaterationMethod(office, office_wifi)
        estimates = method.estimate(build_windows(office_rssi, period=5.0))
        report = evaluate_positioning(estimates, office_simulation.trajectories)
        assert report.mean_error < 7.0
        assert report.p90_error < 11.0
