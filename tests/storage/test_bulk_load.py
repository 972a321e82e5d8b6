"""The bulk-load scope: a load keeps only the unique indexes up to date.

Inside ``StorageBackend.bulk_load`` the SQLite engine drops every secondary
index and builds them again once, when the scope ends (normally or by an
exception).  A load that never reaches its end leaves a file without them,
and the next open builds them.  The memory engine's scope does nothing.
"""

import os
import sqlite3
import subprocess
import sys

import pytest

from repro.core.errors import StorageError
from repro.obs import MetricsRegistry, Tracer
from repro.storage.backends.memory import MemoryBackend
from repro.storage.backends.sqlite import SQLiteBackend
from repro.storage.repositories import DataWarehouse


def _trajectory_rows(object_id, count, start=0.0):
    return [
        (object_id, start + step, "b", 0, "hall", 1.0 + step, 2.0)
        for step in range(count)
    ]


def _rssi_rows(object_id, count):
    return [(object_id, "ap_1", -60.0 - step, float(step)) for step in range(count)]


@pytest.fixture
def fresh_layout(tmp_path, index_layout):
    path = tmp_path / "fresh.sqlite"
    DataWarehouse.open("sqlite", path=str(path)).close()
    return index_layout(path)


class TestSQLiteScope:
    def test_the_load_runs_with_only_the_unique_indexes(
        self, tmp_path, fresh_layout, index_layout
    ):
        path = tmp_path / "load.sqlite"
        with DataWarehouse.open("sqlite", path=str(path)) as warehouse:
            with warehouse.bulk_load():
                warehouse.trajectories.add_many(_trajectory_rows("a", 5))
                warehouse.flush()
                during = index_layout(path)
                # Reads inside the scope still see every write.
                assert warehouse.query("trajectory").where(object_id="a").count() == 5
            after = index_layout(path)
        secondary = {name for name in fresh_layout if name.startswith("idx_")}
        assert secondary and not secondary & set(during)
        assert {name for name in during if name.startswith("uq_")} == {
            name for name in fresh_layout if name.startswith("uq_")
        }
        assert after == fresh_layout

    def test_an_exception_in_the_scope_still_builds_the_indexes(
        self, tmp_path, fresh_layout, index_layout
    ):
        path = tmp_path / "failed.sqlite"
        with DataWarehouse.open("sqlite", path=str(path)) as warehouse:
            with pytest.raises(RuntimeError, match="shard failed"):
                with warehouse.bulk_load():
                    warehouse.trajectories.add_many(_trajectory_rows("a", 3))
                    raise RuntimeError("shard failed")
            # The queued rows drained at the exit.
            assert len(warehouse.trajectories) == 3
        assert index_layout(path) == fresh_layout

    def test_a_duplicate_key_batch_fails_alone_during_the_load(self, tmp_path):
        with DataWarehouse.open("sqlite", path=str(tmp_path / "dup.sqlite")) as warehouse:
            with warehouse.bulk_load():
                warehouse.trajectories.add_many(_trajectory_rows("a", 4))
                warehouse.flush()
                # Queued but not drained when the trajectory batch fails.
                warehouse.rssi.add_many(_rssi_rows("a", 3))
                with pytest.raises(StorageError, match="duplicate"):
                    warehouse.trajectories.add_many(
                        _trajectory_rows("b", 2) + _trajectory_rows("a", 1, start=2.0)
                    )
                    warehouse.flush()
                warehouse.trajectories.add_many(_trajectory_rows("c", 2))
            assert warehouse.query("trajectory").distinct("object_id") == ["a", "c"]
            assert len(warehouse.trajectories) == 6
            assert len(warehouse.rssi) == 3

    def test_a_killed_load_leaves_a_file_the_next_open_repairs(
        self, tmp_path, fresh_layout, index_layout
    ):
        path = tmp_path / "killed.sqlite"
        script = (
            "import os, sys\n"
            "from repro.storage.backends.sqlite import SQLiteBackend\n"
            "backend = SQLiteBackend(sys.argv[1])\n"
            "scope = backend.bulk_load()\n"
            "scope.__enter__()\n"
            "backend.insert_rows('trajectory', "
            "[('a', 1.0, 'b', 0, 'hall', 1.0, 2.0), ('a', 2.0, 'b', 0, 'hall', 1.5, 2.0)])\n"
            "backend.flush()\n"
            "os._exit(0)  # killed before the scope's end\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run(
            [sys.executable, "-c", script, str(path)], check=True, env=env, timeout=120
        )
        killed = index_layout(path)
        assert not any(name.startswith("idx_") for name in killed)
        assert any(name.startswith("uq_") for name in killed)
        with DataWarehouse.open("sqlite", path=str(path)) as warehouse:
            assert len(warehouse.trajectories) == 2
        assert index_layout(path) == fresh_layout

    def test_the_index_build_is_traced_and_timed(self, tmp_path):
        tracer, metrics = Tracer(), MetricsRegistry()
        backend = SQLiteBackend(tmp_path / "traced.sqlite")
        backend.attach_metrics(metrics)
        with backend.bulk_load(tracer):
            backend.insert_rows("trajectory", _trajectory_rows("a", 2))
        backend.close()
        assert [span["name"] for span in tracer.export()] == ["storage.build_indexes"]
        assert metrics.histogram("storage.build_indexes_seconds").count == 1

    def test_indexes_the_schema_no_longer_declares_are_left_alone(self, tmp_path, index_layout):
        path = tmp_path / "legacy.sqlite"
        DataWarehouse.open("sqlite", path=str(path)).close()
        connection = sqlite3.connect(str(path))
        connection.execute("CREATE INDEX idx_trajectory_legacy ON trajectory (building_id)")
        connection.commit()
        connection.close()
        with DataWarehouse.open("sqlite", path=str(path)) as warehouse:
            with warehouse.bulk_load():
                assert "idx_trajectory_legacy" in index_layout(path)
        assert index_layout(path)["idx_trajectory_legacy"] == ("trajectory", ["building_id"])


class TestMemoryScope:
    def test_the_memory_scope_does_nothing(self):
        backend = MemoryBackend()
        with backend.bulk_load(Tracer()):
            backend.insert_rows("trajectory", _trajectory_rows("a", 3))
            assert backend.count("trajectory") == 3
        assert backend.count("trajectory") == 3
