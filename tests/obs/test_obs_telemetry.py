"""Integration tests for the telemetry surface.

The :class:`~repro.obs.Telemetry` bundle, its ``telemetry:`` configuration
section, the pipeline/live wiring (spans, counters, gauges, dropped-alert
accounting) and the CLI flags (``--metrics-json`` / ``--trace-json`` /
``query --profile``).  The determinism contracts live in
``tests/properties/test_property_telemetry.py``.
"""

import json

import pytest

from repro.core.config import (
    ConfigurationError,
    DeviceConfig,
    EnvironmentConfig,
    MonitorConfig,
    ObjectConfig,
    TelemetryConfig,
    VitaConfig,
    config_from_dict,
)
from repro.core.pipeline import VitaPipeline
from repro.core.toolkit import Vita
from repro.obs import Telemetry
from repro.rssi.measurement import RSSIGenerator


def _config(**overrides):
    defaults = dict(
        environment=EnvironmentConfig(building="clinic", floors=1),
        devices=[DeviceConfig(count_per_floor=4)],
        objects=ObjectConfig(
            count=5, duration=40.0, time_step=0.5, min_lifespan=20.0, max_lifespan=40.0
        ),
        seed=11,
        shards=2,
    )
    defaults.update(overrides)
    return VitaConfig(**defaults)


class TestTelemetryBundle:
    def test_disabled_is_the_default_everywhere(self):
        assert Telemetry.disabled().snapshot() == {"enabled": False}
        assert Telemetry.from_config(None).enabled is False
        assert Telemetry.from_config(TelemetryConfig()).enabled is False
        assert VitaConfig().telemetry.enabled is False

    def test_from_config_honours_trace_settings(self):
        telemetry = Telemetry.from_config(
            TelemetryConfig(enabled=True, trace=False), id_prefix="p:"
        )
        assert telemetry.enabled and telemetry.metrics.enabled
        assert telemetry.tracer.enabled is False
        capped = Telemetry.from_config(TelemetryConfig(enabled=True, trace_capacity=7))
        assert capped.tracer.capacity == 7

    def test_write_json_files(self, tmp_path):
        telemetry = Telemetry()
        telemetry.metrics.counter("n").inc(3)
        with telemetry.tracer.span("s"):
            pass
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        telemetry.write_metrics_json(metrics_path)
        telemetry.write_trace_json(trace_path)
        assert json.loads(metrics_path.read_text())["counters"] == {"n": 3}
        assert len(json.loads(trace_path.read_text())["spans"]) == 1


class TestTelemetryConfig:
    def test_parses_from_dict(self):
        config = config_from_dict(
            {"telemetry": {"enabled": True, "trace": False, "trace_capacity": 128,
                           "metrics_json": "m.json", "trace_json": "t.json"}}
        )
        telemetry = config.telemetry
        assert telemetry.enabled is True
        assert telemetry.trace is False
        assert telemetry.trace_capacity == 128
        assert telemetry.metrics_json == "m.json"
        assert telemetry.trace_json == "t.json"

    def test_rejects_unknown_keys_and_bad_capacity(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            config_from_dict({"telemetry": {"enable": True}})
        with pytest.raises(ConfigurationError, match="trace_capacity"):
            TelemetryConfig(trace_capacity=0)


class TestPipelineTelemetry:
    def test_streaming_report_carries_the_snapshot(self):
        config = _config(telemetry=TelemetryConfig(enabled=True))
        result = VitaPipeline(config).run_streaming(workers=1)
        telemetry = result.report.telemetry
        assert telemetry["enabled"] is True
        counters = telemetry["metrics"]["counters"]
        assert counters["generated.shards"] == 2
        assert counters["generated.records.trajectory"] > 0
        assert counters["storage.flushes"] > 0
        assert telemetry["trace"]["spans"] > 0
        gauges = telemetry["metrics"]["gauges"]
        assert gauges["pipeline.records_per_second"] > 0

    def test_disabled_telemetry_reports_disabled(self):
        result = VitaPipeline(_config()).run_streaming(workers=1)
        assert result.report.telemetry == {"enabled": False}

    def test_failing_run_closes_its_spans(self, monkeypatch):
        def fail(self, *args, **kwargs):
            raise RuntimeError("rssi layer failed")

        monkeypatch.setattr(RSSIGenerator, "generate", fail)
        telemetry = Telemetry()
        with pytest.raises(RuntimeError, match="rssi layer failed"):
            VitaPipeline(_config()).run_streaming(workers=1, telemetry=telemetry)
        assert telemetry.tracer.current is None
        roots = [
            span for span in telemetry.tracer.export()
            if span["name"] == "pipeline.run_streaming"
        ]
        assert len(roots) == 1
        assert roots[0]["attrs"]["error"] == "RuntimeError"

    def test_config_paths_write_the_json_files(self, tmp_path):
        config = _config(
            telemetry=TelemetryConfig(
                enabled=True,
                metrics_json=str(tmp_path / "m.json"),
                trace_json=str(tmp_path / "t.json"),
            )
        )
        VitaPipeline(config).run_streaming(workers=1)
        metrics = json.loads((tmp_path / "m.json").read_text())
        trace = json.loads((tmp_path / "t.json").read_text())
        assert metrics["counters"]["generated.shards"] == 2
        span_names = {span["name"] for span in trace["spans"]}
        assert {"pipeline.run_streaming", "shard", "phase.rssi", "finalize"} <= span_names

    def test_worker_spans_are_adopted_under_the_root(self, tmp_path):
        config = _config(
            telemetry=TelemetryConfig(enabled=True, trace_json=str(tmp_path / "t.json"))
        )
        VitaPipeline(config).run_streaming(workers=2)
        spans = json.loads((tmp_path / "t.json").read_text())["spans"]
        by_id = {span["span_id"]: span for span in spans}
        shard_spans = [span for span in spans if span["name"] == "shard"]
        assert len(shard_spans) == 2
        for span in shard_spans:
            assert span["span_id"].startswith("s")  # worker prefix survived
            assert by_id[span["parent_id"]]["name"] == "pipeline.run_streaming"

    def test_vita_facade_exposes_the_last_snapshot(self):
        with Vita(seed=11) as vita:
            assert vita.telemetry == {"enabled": False}
            vita.generate(_config(telemetry=TelemetryConfig(enabled=True)), workers=1)
            assert vita.telemetry["enabled"] is True


class TestLiveTelemetry:
    def test_monitored_run_records_live_instruments(self):
        config = _config(
            telemetry=TelemetryConfig(enabled=True),
            monitors=[MonitorConfig(name="occ", monitor="density", floor=0, window=20.0)],
        )
        result = VitaPipeline(config).run_streaming(workers=1)
        metrics = result.report.telemetry["metrics"]
        assert metrics["counters"]["live.records_fed"] > 0
        assert "live.records_per_second" in metrics["gauges"]
        assert "live.alert_queue_depth" in metrics["gauges"]
        assert metrics["histograms"]["live.window_finalize_seconds"]["count"] >= 1

    def test_monitor_summaries_surface_dropped_alerts(self):
        config = _config(
            monitors=[MonitorConfig(name="occ", monitor="density", floor=0, window=20.0)],
        )
        result = VitaPipeline(config).run_streaming(workers=1)
        assert result.report.monitors["occ"]["dropped_alerts"] == 0
        assert result.live.results["occ"].to_json()["dropped_alerts"] == 0


class TestQueryProfile:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_profile_reports_stages_rows_and_statements(self, backend, tmp_path):
        from repro.core.config import StorageConfig

        storage = StorageConfig(backend=backend)
        if backend == "sqlite":
            storage.path = str(tmp_path / "wh.sqlite")
        result = VitaPipeline(_config(storage=storage)).run_streaming(workers=1)
        warehouse = result.warehouse

        profile = warehouse.query("trajectory").during(0.0, 20.0).profile()
        stages = profile["stages"]
        assert set(stages) == {
            "compile_seconds", "backend_seconds", "residual_seconds", "total_seconds"
        }
        assert stages["total_seconds"] >= 0.0
        assert profile["result"]["kind"] == "rows"
        assert profile["rows"]["returned"] == profile["result"]["count"]
        # The profiled count must equal the unprofiled execution.
        assert profile["result"]["count"] == (
            warehouse.query("trajectory").during(0.0, 20.0).count()
        )
        if backend == "sqlite":
            assert profile["statements"], "SQLite pushes the scan as one statement"
            assert all("SELECT" in s["sql"] for s in profile["statements"])
        else:
            assert profile["rows"]["scanned"] >= profile["rows"]["returned"]

        aggregate = warehouse.query("trajectory").profile(verb="count")
        assert aggregate["result"] == {
            "kind": "aggregate", "value": warehouse.query("trajectory").count()
        }
        warehouse.close()
