"""Integration tests: the declarative three-layer pipeline (``run_streaming``)."""

import pytest

from repro.core.config import config_from_dict
from repro.core.pipeline import VitaPipeline
from repro.analysis.accuracy import evaluate_positioning


def _base_config(**overrides):
    payload = {
        "environment": {"building": "office", "floors": 2},
        "devices": [{"type": "wifi", "count_per_floor": 6, "deployment": "coverage"}],
        "objects": {"count": 8, "duration": 120, "time_step": 0.5, "seed": 13},
        "rssi": {"sampling_period": 2.0},
        "positioning": {"method": "trilateration", "sampling_period": 5.0},
        "seed": 13,
    }
    payload.update(overrides)
    return config_from_dict(payload)


@pytest.fixture(scope="module")
def trilateration_result():
    return VitaPipeline(_base_config()).run_streaming()


class TestFullRun:
    def test_all_layers_produce_data(self, trilateration_result):
        summary = trilateration_result.warehouse.summary()
        assert summary["device_records"] == 12
        assert summary["trajectory_records"] > 500
        assert summary["rssi_records"] > summary["trajectory_records"] / 4
        assert summary["positioning_records"] > 20

    def test_timings_recorded_per_layer(self, trilateration_result):
        timings = trilateration_result.report.timings
        assert set(timings) == {
            "infrastructure", "generation",
            "moving_objects_cpu", "rssi_cpu", "positioning_cpu",
        }
        assert all(value >= 0 for value in timings.values())

    def test_positioning_is_consistent_with_ground_truth(self, trilateration_result):
        warehouse = trilateration_result.warehouse
        report = evaluate_positioning(
            warehouse.positioning.all_records(),
            warehouse.trajectories.to_trajectory_set(),
        )
        assert report.matched > 0
        assert report.mean_error < 15.0

    def test_report_counts_match_the_warehouse(self, trilateration_result):
        written = trilateration_result.report.records_written
        summary = trilateration_result.warehouse.summary()
        assert written["trajectories"] == summary["trajectory_records"] > 0
        assert written["rssi"] == summary["rssi_records"]
        assert written["positioning"] == summary["positioning_records"]


class TestMethodVariants:
    def test_fingerprinting_bayes_pipeline(self):
        config = _base_config(
            positioning={"method": "fingerprinting", "algorithm": "bayes",
                         "sampling_period": 5.0, "radio_map_spacing": 6.0,
                         "radio_map_samples": 4},
        )
        result = VitaPipeline(config).run_streaming()
        assert result.radio_map is not None and len(result.radio_map) > 0
        assert len(result.warehouse.probabilistic) > 0
        assert len(result.warehouse.positioning) == 0

    def test_proximity_pipeline_with_rfid(self):
        config = _base_config(
            devices=[{"type": "rfid", "count_per_floor": 5, "deployment": "check-point"}],
            positioning={"method": "proximity"},
        )
        result = VitaPipeline(config).run_streaming()
        assert len(result.warehouse.proximity) > 0
        assert len(result.warehouse.positioning) == 0
        assert len(result.warehouse.probabilistic) == 0

    def test_crowd_outliers_and_decomposition(self):
        config = _base_config(
            environment={"building": "mall", "floors": 2, "decompose": True},
            objects={"count": 10, "duration": 60, "time_step": 0.5,
                     "distribution": "crowd-outliers", "seed": 3},
        )
        result = VitaPipeline(config).run_streaming()
        assert result.building.partition_count > 26  # decomposition split the atrium
        assert result.warehouse.summary()["trajectory_records"] > 0

    def test_reproducible_runs(self):
        first = VitaPipeline(_base_config()).run_streaming()
        second = VitaPipeline(_base_config()).run_streaming()
        assert first.warehouse.summary() == {
            key: value for key, value in second.warehouse.summary().items()
        }
