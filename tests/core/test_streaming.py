"""Unit tests for the streaming, sharded generation pipeline."""

import json
import pickle
import pickletools
from collections import Counter

import pytest

from repro.cli import main
from repro.core.config import (
    DeviceConfig,
    EnvironmentConfig,
    ObjectConfig,
    PositioningLayerConfig,
    RSSIConfig,
    StorageConfig,
    VitaConfig,
    config_from_dict,
)
from repro.core.errors import ConfigurationError
from repro.core.pipeline import VitaPipeline
from repro.core.streaming import StreamingWriter, run_shard, ShardContext, plan_shards
from repro.core.toolkit import Vita
from repro.core import streaming
from repro.core.types import (
    DeviceRecord,
    IndoorLocation,
    PositioningRecord,
    ProbabilisticPositioningRecord,
    ProximityRecord,
    RSSIRecord,
    TrajectoryRecord,
)
from repro.live import Monitor
from repro.storage import repositories
from repro.storage.backends.base import DATASETS
from repro.storage.repositories import DataWarehouse


def small_config(**overrides):
    """A fast clinic run: one floor, six objects, forty simulated seconds."""
    defaults = dict(
        environment=EnvironmentConfig(building="clinic", floors=1),
        devices=[DeviceConfig(count_per_floor=4)],
        objects=ObjectConfig(
            count=6, duration=40.0, time_step=0.5, min_lifespan=20.0, max_lifespan=40.0
        ),
        rssi=RSSIConfig(sampling_period=2.0),
        positioning=PositioningLayerConfig(sampling_period=5.0),
        seed=11,
        shards=3,
    )
    defaults.update(overrides)
    return VitaConfig(**defaults)


# --------------------------------------------------------------------------- #
# Configuration knobs
# --------------------------------------------------------------------------- #
class TestStreamingKnobs:
    def test_knobs_parse_from_dict(self):
        config = config_from_dict(
            {"workers": 2, "shards": 3, "storage": {"flush_every": 100}}
        )
        assert config.workers == 2
        assert config.shards == 3
        assert config.storage.flush_every == 100

    def test_knob_defaults(self):
        config = VitaConfig()
        assert config.workers == 1
        assert config.shards is None
        assert config.storage.flush_every == 5000

    @pytest.mark.parametrize(
        "kwargs",
        [dict(workers=0), dict(shards=0)],
    )
    def test_invalid_knobs_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            VitaConfig(**kwargs)

    def test_invalid_flush_every_is_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageConfig(flush_every=0)

    @pytest.mark.parametrize(
        "overrides",
        [dict(workers=0), dict(shards=0), dict(flush_every=0)],
    )
    def test_run_streaming_rejects_bad_overrides(self, overrides):
        with pytest.raises(ConfigurationError):
            VitaPipeline(small_config()).run_streaming(**overrides)


# --------------------------------------------------------------------------- #
# The streaming writer
# --------------------------------------------------------------------------- #
def _trajectory_records(n, object_id="a"):
    return [
        TrajectoryRecord(object_id, IndoorLocation("b", 0, "hall", 1.0, 2.0), float(t))
        for t in range(n)
    ]


class TestStreamingWriter:
    def test_flushes_in_bounded_batches(self):
        warehouse = DataWarehouse()
        events = []
        writer = StreamingWriter(warehouse, flush_every=10, progress=events.append)
        writer.write("trajectories", _trajectory_records(35))
        assert len(warehouse.trajectories) == 35
        assert writer.max_pending == 10
        assert writer.flushes == 4  # 10 + 10 + 10 + 5
        flushes = [e for e in events if e.phase == "flush"]
        assert [e.records_written for e in flushes] == [10, 20, 30, 35]
        assert all(e.pending_records == 0 for e in flushes)

    def test_writer_requires_positive_flush_every(self):
        with pytest.raises(ConfigurationError):
            StreamingWriter(DataWarehouse(), flush_every=0)

    def test_progress_rates_are_non_negative(self):
        events = []
        writer = StreamingWriter(DataWarehouse(), flush_every=5, progress=events.append)
        writer.set_context(0, 1, 3)
        writer.write("trajectories", _trajectory_records(7))
        assert events
        for event in events:
            assert event.records_per_second >= 0.0
            assert event.objects_per_second >= 0.0
            assert event.shard_id == 0 and event.shard_count == 1


# --------------------------------------------------------------------------- #
# The streaming pipeline run
# --------------------------------------------------------------------------- #
class TestRunStreaming:
    def test_populates_the_warehouse_and_reports_counts(self):
        result = VitaPipeline(small_config()).run_streaming()
        summary = result.warehouse.summary()
        assert summary["trajectory_records"] > 0
        assert summary["rssi_records"] > 0
        assert summary["positioning_records"] > 0
        assert summary["device_records"] == 4
        assert result.report.total_records == sum(summary.values())
        assert result.report.objects >= 6
        assert result.report.shard_count == 3
        assert result.report.master_seed == 11
        assert set(result.report.timings) >= {
            "infrastructure", "moving_objects_cpu", "rssi_cpu", "positioning_cpu",
            "generation",
        }

    def test_memory_bound_pending_records_never_exceed_flush_budget(self):
        # The memory-bound regression of the streaming refactor: with a tiny
        # flush_every the pipeline must never buffer more than the flush
        # budget, observed through the progress hook.
        flush_every = 16
        config = small_config()
        events = []
        result = VitaPipeline(config).run_streaming(
            flush_every=flush_every, progress=events.append
        )
        shard_count = result.report.shard_count
        observed = max(event.pending_records for event in events)
        assert result.report.total_records > flush_every  # the bound was exercised
        assert observed <= flush_every * shard_count
        # The writer's actual invariant is stronger than the required bound.
        assert result.report.max_pending <= flush_every

    def test_progress_phases_cover_the_run(self):
        events = []
        VitaPipeline(small_config()).run_streaming(flush_every=32, progress=events.append)
        phases = {event.phase for event in events}
        assert {"devices", "shard-start", "flush", "shard-done", "done"} <= phases
        written = [event.records_written for event in events]
        assert written == sorted(written)  # monotone
        assert events[-1].phase == "done"
        assert events[-1].pending_records == 0

    def test_unseeded_runs_report_their_master_seed(self):
        config = small_config(seed=None)
        config.objects.seed = None
        config.rssi.seed = None
        result = VitaPipeline(config).run_streaming()
        assert result.report.master_seed >= 0
        # Replaying with the reported seed reproduces the dataset.
        replay = small_config(seed=result.report.master_seed)
        replayed = VitaPipeline(replay).run_streaming()
        assert replayed.report.master_seed == result.report.master_seed


# --------------------------------------------------------------------------- #
# The per-shard chain
# --------------------------------------------------------------------------- #
def _shard_context(config):
    pipeline = VitaPipeline(config)
    building = pipeline.build_environment()
    devices = list(pipeline.deploy_devices(building).devices.values())
    return ShardContext(config=config, building=building, devices=devices, master_seed=11)


class TestRunShard:
    def test_shards_number_objects_globally(self):
        config = small_config()
        context = _shard_context(config)
        plan = plan_shards(config.objects.count, 3, 11)
        seen = []
        for shard in plan:
            output = run_shard(context, shard)
            ids = sorted({row[0] for row in output.rows["trajectory"]})
            seen.extend(ids)
        assert seen == [f"obj_{i:04d}" for i in range(1, config.objects.count + 1)]

    def test_shard_output_pickles_without_typed_records(self):
        config = small_config()
        output = run_shard(_shard_context(config), plan_shards(config.objects.count, 3, 11)[0])
        assert {"trajectory", "rssi", "positioning"} <= set(output.rows)
        for dataset, rows in output.rows.items():
            assert rows and all(
                type(row) is tuple and len(row) == len(DATASETS[dataset].columns)
                for row in rows
            )
        payload = pickle.dumps(output)
        # Every name the unpickler resolves (protocol 4+ pushes a global's
        # module and name as the two strings before STACK_GLOBAL).
        strings = [arg for _, arg, _ in pickletools.genops(payload) if isinstance(arg, str)]
        assert not [name for name in strings if name.startswith("repro.core.types")]
        assert b"repro.core.types" not in payload
        assert pickle.loads(payload).total_records == output.total_records


class TestHandOff:
    def test_each_stored_record_is_converted_at_most_once(self, monkeypatch):
        # Every conversion of a typed record into a row: ``as_record`` on any
        # typed record class, and ``record_row`` wherever it is looked up.
        converted = []  # the records themselves, so their ids stay unique

        def counting(original):
            def convert(record, *args, **kwargs):
                converted.append(record)
                return original(record, *args, **kwargs)
            return convert

        for cls in (TrajectoryRecord, RSSIRecord, PositioningRecord,
                    ProbabilisticPositioningRecord, ProximityRecord, DeviceRecord):
            monkeypatch.setattr(cls, "as_record", counting(cls.as_record))
        for module in (streaming, repositories):
            if hasattr(module, "record_row"):
                monkeypatch.setattr(module, "record_row", counting(module.record_row))
        monitors = [Monitor.density(floor=0).window(20).slide(10).named("density")]
        result = VitaPipeline(small_config()).run_streaming(workers=1, monitors=monitors)
        assert result.live.results["density"].records_matched > 0
        conversions = Counter(map(id, converted))
        assert max(conversions.values()) == 1
        assert len(conversions) == result.report.total_records


# --------------------------------------------------------------------------- #
# The run as one bulk load
# --------------------------------------------------------------------------- #
class _RecordingConnection:
    """A connection that keeps every SELECT it runs, with its parameters."""

    def __init__(self, connection):
        self.connection = connection
        self.selects = []

    def execute(self, sql, parameters=()):
        if sql.lstrip().upper().startswith("SELECT"):
            self.selects.append((sql, tuple(parameters)))
        return self.connection.execute(sql, parameters)

    def __getattr__(self, name):
        return getattr(self.connection, name)


#: The builder query shapes of the benchmark's read mix, over a clinic run.
READ_MIX_SHAPES = {
    "object_track": lambda w: w.query("trajectory").where(object_id="obj_0001").all(),
    "time_window_count": lambda w: w.query("trajectory").during(5.0, 25.0).count(),
    "floor_window_limit": lambda w: (
        w.query("trajectory").during(5.0, 35.0).on_floor(0).limit(50).all()
    ),
    "region_window": lambda w: (
        w.query("trajectory").on_floor(0).within((2.0, 2.0, 12.0, 12.0)).during(5.0, 25.0).all()
    ),
    "device_rssi_stats": lambda w: w.query("rssi").where(device_id="ap_001").stats("rssi"),
    "partition_count_by": lambda w: (
        w.query("trajectory").during(5.0, 35.0).count_by("partition_id", distinct="object_id")
    ),
    "snapshot": lambda w: w.query("trajectory").snapshot(20.0, tolerance=1.0),
    "knn": lambda w: w.query("trajectory").on_floor(0).knn(8.0, 6.0, 20.0, k=5),
}


def _query_plans(path, monkeypatch):
    """Per read-mix shape, its answer and the ``EXPLAIN QUERY PLAN`` of each
    SELECT it runs on the SQLite file at *path*."""
    plans = {}
    with DataWarehouse.open("sqlite", path=str(path)) as warehouse:
        connection = warehouse.backend._connection
        for kind, run in READ_MIX_SHAPES.items():
            recording = _RecordingConnection(connection)
            monkeypatch.setattr(warehouse.backend, "_connection", recording)
            answer = run(warehouse)
            monkeypatch.setattr(warehouse.backend, "_connection", connection)
            assert recording.selects, kind
            plans[kind] = (answer, [
                connection.execute(f"EXPLAIN QUERY PLAN {sql}", parameters).fetchall()
                for sql, parameters in recording.selects
            ])
    return plans


class TestBulkLoadRun:
    def _config(self, path):
        return small_config(storage=StorageConfig(backend="sqlite", path=str(path)))

    def test_a_failing_run_leaves_every_index_built(
        self, tmp_path, monkeypatch, index_layout
    ):
        from repro.core import pipeline

        fresh = tmp_path / "fresh.sqlite"
        DataWarehouse.open("sqlite", path=str(fresh)).close()
        outputs = pipeline.iter_shard_outputs

        def failing(*args, **kwargs):
            for output in outputs(*args, **kwargs):
                yield output
                raise RuntimeError("shard 1 failed")

        monkeypatch.setattr(pipeline, "iter_shard_outputs", failing)
        path = tmp_path / "failed.sqlite"
        with DataWarehouse.open("sqlite", path=str(path)) as warehouse:
            with pytest.raises(RuntimeError, match="shard 1 failed"):
                VitaPipeline(self._config(path)).run_streaming(warehouse=warehouse, flush_every=16)
            # Shard 0's rows were loaded (several flushes) before the failure.
            assert len(warehouse.trajectories) > 16
        assert index_layout(path) == index_layout(fresh)

    def test_a_run_builds_the_indexes_of_a_fresh_file_and_its_query_plans(
        self, tmp_path, monkeypatch, index_layout
    ):
        fresh = tmp_path / "fresh.sqlite"
        DataWarehouse.open("sqlite", path=str(fresh)).close()
        from repro.storage.backends.base import StorageBackend
        from repro.storage.backends.sqlite import SQLiteBackend

        path = tmp_path / "run.sqlite"
        VitaPipeline(self._config(path)).run_streaming().warehouse.close()
        # The same run into a file with every index live all along.
        live = tmp_path / "live.sqlite"
        with monkeypatch.context() as patched:
            patched.setattr(SQLiteBackend, "bulk_load", StorageBackend.bulk_load)
            VitaPipeline(self._config(live)).run_streaming().warehouse.close()
        assert index_layout(path) == index_layout(fresh) == index_layout(live)
        loaded, built_live = _query_plans(path, monkeypatch), _query_plans(live, monkeypatch)
        assert loaded == built_live
        assert all(answer for answer, _ in loaded.values())

    def test_the_index_build_is_a_span_of_the_run(self, tmp_path):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        VitaPipeline(self._config(tmp_path / "traced.sqlite")).run_streaming(
            telemetry=telemetry
        ).warehouse.close()
        spans = {span["name"]: span for span in telemetry.tracer.export()}
        root = spans["pipeline.run_streaming"]
        assert spans["storage.build_indexes"]["parent_id"] == root["span_id"]
        assert telemetry.metrics.histogram("storage.build_indexes_seconds").count == 1

    def test_a_memory_run_builds_no_index(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        VitaPipeline(small_config()).run_streaming(telemetry=telemetry)
        assert "storage.build_indexes" not in {span["name"] for span in telemetry.tracer.export()}


# --------------------------------------------------------------------------- #
# Facade and CLI
# --------------------------------------------------------------------------- #
class TestVitaGenerate:
    def test_generate_fills_the_session_warehouse(self):
        with Vita(seed=11) as vita:
            result = vita.generate(small_config())
            assert vita.summary()["trajectory_records"] > 0
            assert vita.building is result.building
            assert len(vita.devices) == 4
            assert vita.query("trajectory").count() == result.report.records_written["trajectories"]

    def test_generate_replaces_previous_session_data(self):
        with Vita(seed=11) as vita:
            first = vita.generate(small_config())
            second = vita.generate(small_config())
            assert second.report.total_records == first.report.total_records
            assert vita.summary()["trajectory_records"] == (
                second.report.records_written["trajectories"]
            )


    def test_generate_refuses_persistent_config_on_a_memory_session(self):
        from repro.core.errors import VitaError

        config = small_config(storage=StorageConfig(backend="sqlite"))
        with Vita() as vita:  # memory session cannot satisfy a sqlite target
            with pytest.raises(VitaError):
                vita.generate(config)


class TestGenerateCLI:
    @pytest.fixture()
    def config_path(self, tmp_path):
        payload = {
            "environment": {"building": "clinic", "floors": 1},
            "devices": [{"type": "wifi", "count_per_floor": 4}],
            "objects": {"count": 4, "duration": 30, "time_step": 0.5},
            "seed": 3,
            "shards": 2,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        return path

    def test_generate_with_streaming_flags(self, config_path, tmp_path, capsys):
        output = tmp_path / "out"
        exit_code = main(
            ["generate", "--config", str(config_path), "--output", str(output),
             "--workers", "2", "--flush-every", "64", "--progress"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        summary = json.loads((output / "summary.json").read_text())
        generation = summary["generation"]
        assert generation["workers"] == 2
        assert generation["shards"] == 2
        assert generation["flush_every"] == 64
        assert generation["max_pending_records"] <= 64
        assert summary["records"]["trajectory_records"] > 0
        assert "rec/s" in captured.err  # --progress reports throughput
