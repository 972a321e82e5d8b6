"""ACC-METHODS: positioning accuracy of the three methods vs ground truth.

The paper motivates Vita with the need for ground truth to run effectiveness
evaluations.  This bench does exactly such an evaluation on Vita's own output:
it generates one shared workload and measures, for each positioning method,
the error against the preserved raw trajectories, while sweeping the device
density and the fluctuation noise (the knobs a user of the toolkit would turn).

Expected shape (matching the indoor-positioning literature the paper builds
on): fingerprinting < trilateration in coordinate error; proximity provides
only symbolic collocation; more devices and less noise help every method.
"""

import pytest

from conftest import make_building, deploy_wifi, print_table, record_bench, simulate

from repro.analysis.accuracy import evaluate_positioning, evaluate_proximity
from repro.positioning.base import build_windows
from repro.positioning.fingerprinting import KNNFingerprinting, RadioMap
from repro.positioning.proximity import ProximityMethod
from repro.positioning.trilateration import TrilaterationMethod
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator
from repro.rssi.noise import FluctuationNoiseModel

POSITIONING_PERIOD = 5.0
AREA = "positioning_accuracy"


def _record_report(method: str, report) -> None:
    """Publish one method's accuracy figures to BENCH_positioning_accuracy.json."""
    record_bench(AREA, **{
        f"{method}_mean_error_m": round(report.mean_error, 3),
        f"{method}_median_error_m": round(report.median_error, 3),
        f"{method}_p90_error_m": round(report.p90_error, 3),
        f"{method}_room_hit_rate": round(report.partition_hit_rate, 4),
        f"{method}_floor_accuracy": round(report.floor_accuracy, 4),
        f"{method}_estimates": report.matched,
    })


@pytest.fixture(scope="module")
def workload():
    building = make_building("office", floors=2)
    simulation = simulate(building, count=20, duration=240.0, seed=71)
    return building, simulation


def _wifi(building, per_floor, seed=7):
    return deploy_wifi(building, count_per_floor=per_floor, seed=seed)


def _rssi(building, devices, trajectories, sigma=2.0, seed=73):
    generator = RSSIGenerator(
        building,
        devices,
        RSSIGenerationConfig(
            sampling_period=2.0,
            fluctuation_noise=FluctuationNoiseModel(sigma_db=sigma),
            seed=seed,
        ),
    )
    return generator.generate(trajectories)


def _radio_map(building, devices, seed=74):
    generator = RSSIGenerator(
        building, devices, RSSIGenerationConfig(detection_probability=1.0, seed=seed)
    )
    return RadioMap.survey_grid(building, generator, spacing=4.0, samples_per_location=6)


class TestMethodComparison:
    def test_three_methods_on_the_same_workload(self, benchmark, workload):
        building, simulation = workload
        devices = _wifi(building, 8)
        rssi = _rssi(building, devices, simulation.trajectories)
        radio_map = _radio_map(building, devices)

        def run_all():
            windows = build_windows(rssi, POSITIONING_PERIOD)
            trilateration = TrilaterationMethod(building, devices).estimate(windows)
            fingerprinting = KNNFingerprinting(building, devices, radio_map, k=3).estimate(windows)
            proximity = ProximityMethod(building, devices).detect(rssi)
            return trilateration, fingerprinting, proximity

        trilateration, fingerprinting, proximity = benchmark.pedantic(
            run_all, rounds=1, iterations=1
        )
        trilateration_report = evaluate_positioning(trilateration, simulation.trajectories)
        fingerprinting_report = evaluate_positioning(fingerprinting, simulation.trajectories)
        proximity_report = evaluate_proximity(proximity, simulation.trajectories, devices)
        _record_report("trilateration", trilateration_report)
        _record_report("knn", fingerprinting_report)
        record_bench(AREA, proximity_in_range_fraction=round(
            proximity_report.in_range_fraction, 4))
        print_table(
            "ACC-METHODS: positioning accuracy (office, 16 Wi-Fi APs, sigma=2 dB)",
            ["method", "estimates", "mean err (m)", "median err (m)", "room hit rate",
             "floor accuracy"],
            [
                ["trilateration", trilateration_report.matched,
                 f"{trilateration_report.mean_error:.2f}",
                 f"{trilateration_report.median_error:.2f}",
                 f"{trilateration_report.partition_hit_rate:.2f}",
                 f"{trilateration_report.floor_accuracy:.2f}"],
                ["fingerprinting (kNN)", fingerprinting_report.matched,
                 f"{fingerprinting_report.mean_error:.2f}",
                 f"{fingerprinting_report.median_error:.2f}",
                 f"{fingerprinting_report.partition_hit_rate:.2f}",
                 f"{fingerprinting_report.floor_accuracy:.2f}"],
                ["proximity", proximity_report.periods, "symbolic", "symbolic",
                 f"in-range {proximity_report.in_range_fraction:.2f}", "-"],
            ],
        )
        # Expected ordering: fingerprinting beats trilateration on coordinates.
        assert fingerprinting_report.mean_error < trilateration_report.mean_error
        assert fingerprinting_report.mean_error < 6.0
        assert trilateration_report.mean_error < 15.0
        assert proximity_report.in_range_fraction > 0.6


class TestDeviceDensitySweep:
    def test_more_devices_improve_trilateration(self, benchmark, workload):
        building, simulation = workload

        def sweep():
            errors = {}
            for per_floor, seed in ((4, 11), (8, 12), (12, 13)):
                devices = _wifi(building, per_floor, seed=seed)
                rssi = _rssi(building, devices, simulation.trajectories, seed=80 + per_floor)
                estimates = TrilaterationMethod(building, devices).estimate(
                    build_windows(rssi, POSITIONING_PERIOD)
                )
                errors[per_floor] = evaluate_positioning(
                    estimates, simulation.trajectories
                ).mean_error
            return errors

        errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
        record_bench(AREA, **{
            f"trilateration_mean_error_m_{count}_aps_per_floor": round(error, 3)
            for count, error in errors.items()
        })
        print_table(
            "ACC-METHODS: trilateration error vs device density",
            ["APs per floor", "mean error (m)"],
            [[count, f"{error:.2f}"] for count, error in sorted(errors.items())],
        )
        assert errors[12] < errors[4]


class TestNoiseSweep:
    def test_noise_degrades_fingerprinting(self, benchmark, workload):
        building, simulation = workload
        devices = _wifi(building, 8)
        radio_map = _radio_map(building, devices)

        def sweep():
            errors = {}
            for sigma in (0.5, 2.0, 6.0):
                rssi = _rssi(building, devices, simulation.trajectories, sigma=sigma, seed=91)
                estimates = KNNFingerprinting(building, devices, radio_map, k=3).estimate(
                    build_windows(rssi, POSITIONING_PERIOD)
                )
                errors[sigma] = evaluate_positioning(
                    estimates, simulation.trajectories
                ).mean_error
            return errors

        errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
        record_bench(AREA, **{
            f"knn_mean_error_m_sigma_{sigma}_db": round(error, 3)
            for sigma, error in errors.items()
        })
        print_table(
            "ACC-METHODS: fingerprinting error vs fluctuation noise",
            ["sigma (dB)", "mean error (m)"],
            [[sigma, f"{error:.2f}"] for sigma, error in sorted(errors.items())],
        )
        assert errors[0.5] < errors[6.0]
