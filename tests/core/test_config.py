"""Unit tests for repro.core.config (Configuration Loader)."""

import json

import pytest

from repro.core.config import (
    DeviceConfig,
    EnvironmentConfig,
    ObjectConfig,
    PositioningLayerConfig,
    RSSIConfig,
    VitaConfig,
    config_from_dict,
    config_from_json,
)
from repro.core.errors import ConfigurationError
from repro.core.pipeline import VitaPipeline
from repro.core.toolkit import Vita
from repro.core.types import DeviceType, PositioningMethod
from repro.storage.repositories import DataWarehouse


def _trajectory_rows(db_path) -> int:
    warehouse = DataWarehouse.open("sqlite", path=str(db_path))
    try:
        return warehouse.query("trajectory").count()
    finally:
        warehouse.close()


class TestSectionValidation:
    def test_environment_rejects_zero_floors(self):
        with pytest.raises(ConfigurationError):
            EnvironmentConfig(floors=0)

    def test_device_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            DeviceConfig(count_per_floor=0)

    def test_device_rejects_unknown_deployment(self):
        with pytest.raises(ConfigurationError):
            DeviceConfig(deployment="random")

    def test_device_overrides(self):
        config = DeviceConfig(detection_range=5.0)
        assert config.overrides() == {"detection_range": 5.0}
        assert DeviceConfig().overrides() == {}

    def test_objects_rejects_bad_routing(self):
        with pytest.raises(ConfigurationError):
            ObjectConfig(routing="fastest")

    def test_objects_rejects_negative_arrivals(self):
        with pytest.raises(ConfigurationError):
            ObjectConfig(arrival_rate_per_minute=-1)

    def test_rssi_rejects_zero_period(self):
        with pytest.raises(ConfigurationError):
            RSSIConfig(sampling_period=0)

    def test_positioning_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            PositioningLayerConfig(algorithm="svm")

    def test_vita_config_requires_devices(self):
        with pytest.raises(ConfigurationError):
            VitaConfig(devices=[])

    def test_unknown_distribution_is_rejected_on_both_entry_points(self):
        with pytest.raises(ConfigurationError, match="gaussian"):
            config_from_dict({"objects": {"distribution": "gaussian"}})
        vita = Vita(seed=1)
        vita.use_synthetic_building("clinic", floors=1)
        with pytest.raises(ConfigurationError, match="gaussian"):
            vita.generate_objects(count=2, duration=10, distribution="gaussian")
        assert vita.simulation is None

    @pytest.mark.parametrize(
        "objects",
        [
            {"time_step": 0},
            {"time_step": -0.25},
            {"min_speed": 0},
            {"min_speed": -1.0},
            {"min_speed": 2.0, "max_speed": 1.0},
            {"min_lifespan": 0},
            {"min_lifespan": -5.0},
            {"min_lifespan": 90.0, "max_lifespan": 60.0},
            {"behavior": "sprint"},
            {"intention": "teleport"},
            {"crowd_interaction": "social-force"},
        ],
    )
    def test_invalid_objects_fail_before_a_run_clears_its_warehouse(self, objects, tmp_path):
        db_path = tmp_path / "run.sqlite"
        payload = {
            "environment": {"building": "office", "floors": 1},
            "devices": [{"count_per_floor": 4}],
            "objects": {"count": 3, "duration": 20, "time_step": 0.5},
            "positioning": {"method": "trilateration"},
            "storage": {"backend": "sqlite", "path": str(db_path)},
            "seed": 4,
        }
        VitaPipeline(config_from_dict(payload)).run_streaming().warehouse.close()
        stored = _trajectory_rows(db_path)
        assert stored > 0
        payload["objects"] = {**payload["objects"], **objects}
        with pytest.raises(ConfigurationError):
            VitaPipeline(config_from_dict(payload)).run_streaming()
        assert _trajectory_rows(db_path) == stored

    @pytest.mark.parametrize(
        "options",
        [
            {"time_step": 0},
            {"max_speed": 0},
            {"max_speed": 0.5},  # below the default min_speed
            {"min_lifespan": 0},
            {"min_lifespan": 90.0, "max_lifespan": 60.0},
            {"behavior": "sprint"},
        ],
    )
    def test_invalid_objects_are_rejected_by_the_step_path(self, options):
        vita = Vita(seed=1)
        vita.use_synthetic_building("clinic", floors=1)
        with pytest.raises(ConfigurationError):
            vita.generate_objects(count=2, duration=10, **options)
        assert vita.simulation is None

    def test_top_level_seed_propagates(self):
        config = VitaConfig(seed=42)
        assert config.objects.seed == 42
        assert config.rssi.seed == 43


class TestConfigFromDict:
    def test_defaults_from_empty_sections(self):
        config = config_from_dict({"devices": [{}]})
        assert config.environment.building == "office"
        assert config.devices[0].device_type is DeviceType.WIFI
        assert config.positioning.method is PositioningMethod.TRILATERATION

    def test_full_configuration(self):
        config = config_from_dict(
            {
                "environment": {"building": "mall", "floors": 3, "decompose": True},
                "devices": [
                    {"type": "wifi", "count_per_floor": 4, "deployment": "coverage"},
                    {"type": "rfid", "count_per_floor": 6, "deployment": "check-point",
                     "detection_range": 2.0},
                ],
                "objects": {"count": 25, "duration": 120, "distribution": "crowd-outliers"},
                "rssi": {"sampling_period": 1.5, "fluctuation_sigma_db": 3.0},
                "positioning": {"method": "fingerprinting", "algorithm": "bayes"},
                "seed": 9,
            }
        )
        assert config.environment.building == "mall"
        assert config.environment.floors == 3
        assert len(config.devices) == 2
        assert config.devices[1].device_type is DeviceType.RFID
        assert config.devices[1].overrides() == {"detection_range": 2.0}
        assert config.objects.count == 25
        assert config.rssi.fluctuation_sigma_db == 3.0
        assert config.positioning.method is PositioningMethod.FINGERPRINTING
        assert config.positioning.algorithm == "bayes"
        assert config.seed == 9

    def test_single_device_dict_is_accepted(self):
        config = config_from_dict({"devices": {"type": "bluetooth"}})
        assert config.devices[0].device_type is DeviceType.BLUETOOTH

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"device": [{}]})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"objects": {"num_objects": 10}})

    def test_unknown_device_type_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"devices": [{"type": "uwb"}]})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"positioning": {"method": "dead-reckoning"}})

    def test_device_type_aliases(self):
        config = config_from_dict({"devices": [{"type": "ble"}, {"type": "wi-fi"}]})
        assert config.devices[0].device_type is DeviceType.BLUETOOTH
        assert config.devices[1].device_type is DeviceType.WIFI


class TestConfigFromJson:
    def test_round_trip_through_file(self, tmp_path):
        payload = {
            "environment": {"building": "clinic", "floors": 1},
            "devices": [{"type": "rfid", "count_per_floor": 3, "deployment": "check-point"}],
            "objects": {"count": 5, "duration": 60},
            "positioning": {"method": "proximity"},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = config_from_json(path)
        assert config.environment.building == "clinic"
        assert config.positioning.method is PositioningMethod.PROXIMITY

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            config_from_json(path)

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            config_from_json(path)


class TestStorageConfig:
    def test_defaults_to_memory(self):
        config = config_from_dict({})
        assert config.storage.backend == "memory"
        assert config.storage.path is None

    def test_sqlite_section_parsed(self):
        config = config_from_dict(
            {
                "storage": {
                    "backend": "sqlite",
                    "path": "out/run.sqlite",
                    "grid_cell_size": 2.0,
                    "batch_size": 500,
                }
            }
        )
        assert config.storage.backend == "sqlite"
        assert config.storage.path == "out/run.sqlite"
        assert config.storage.grid_cell_size == 2.0
        assert config.storage.batch_size == 500

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"storage": {"backend": "postgres"}})

    def test_memory_backend_rejects_path(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"storage": {"backend": "memory", "path": "x.sqlite"}})

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"storage": {"grid_cell_size": 0}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"storage": {"batch_size": 0}})

    def test_unknown_storage_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"storage": {"wal": True}})


class TestSpatialConfig:
    def test_defaults_enable_the_caches(self):
        config = config_from_dict({})
        assert config.spatial.enabled
        assert config.spatial.route_cache_size == 4096
        assert config.spatial.quantum == 1e-6

    def test_spatial_section_parsed(self):
        config = config_from_dict(
            {
                "spatial": {
                    "enabled": False,
                    "route_cache_size": 128,
                    "los_cache_size": 256,
                    "locate_cache_size": 64,
                    "quantum": 0.001,
                }
            }
        )
        assert not config.spatial.enabled
        assert config.spatial.route_cache_size == 128
        assert config.spatial.los_cache_size == 256
        assert config.spatial.locate_cache_size == 64
        assert config.spatial.quantum == 0.001

    def test_invalid_spatial_options_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"spatial": {"route_cache_size": -1}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"spatial": {"quantum": 0}})

    def test_unknown_spatial_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"spatial": {"warmup": True}})
