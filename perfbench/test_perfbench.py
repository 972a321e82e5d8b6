"""The benchmark's own tests: every workload at a tiny size finishes, prints
every metric ``BENCHMARK.json`` names with its unit and passes its checks,
and a corrupted output is caught and counted as a failed op."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*arguments, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *arguments], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    completed = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "read_mix", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_spread_report(tmp_path):
    completed = _run("--workload", "gen_serial_sqlite", "--seed", "5", "--seconds", "0.1",
                     "--size", "tiny", "--spread", "2")
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["runs"] == 2 and report["all_correct"]
    assert set(report["host"]) == {"nproc", "python", "platform"}
    spread = report["metrics"]["records_per_s"]
    assert spread["min"] <= spread["median"] <= spread["max"]
    assert spread["q1"] <= spread["median"] <= spread["q3"]
    assert {"iqr_share", "odd_even_share"} <= set(spread)


def test_dropped_row_fails_the_generation_op(tmp_path, monkeypatch):
    from repro.core.pipeline import VitaPipeline
    from repro.storage.repositories import TrajectoryRepository

    run_streaming, add_many = VitaPipeline.run_streaming, TrajectoryRepository.add_many
    state = {"runs": 0, "dropped": False}

    def counting_run(self, **kwargs):
        state["runs"] += 1
        return run_streaming(self, **kwargs)

    def dropping_add(self, records):
        records = list(records)
        if state["runs"] == 2 and not state["dropped"]:  # the first timed op
            state["dropped"] = True
            records = records[:-1]
        return add_many(self, records)

    monkeypatch.setattr(VitaPipeline, "run_streaming", counting_run)
    monkeypatch.setattr(TrajectoryRepository, "add_many", dropping_add)
    part = workloads.measure_generation("gen_serial_sqlite", 3, 0.1, "tiny", tmp_path)
    workloads.verify_generation("gen_serial_sqlite", 3, "tiny", [part])
    outcome = workloads.Outcome.of([part])
    assert state["dropped"]
    assert outcome.failed == 1 and not outcome.correct
    assert outcome.attempted >= 2


def test_dropped_answer_row_fails_the_query(tmp_path, monkeypatch):
    from repro.storage.backends import SQLiteBackend

    make_pool = workloads.query_pool

    def corrupted_pool(*args):
        pool = make_pool(*args)
        for index, query in enumerate(pool["object_track"]):
            def corrupted(warehouse, query=query):
                rows = query(warehouse)
                return rows[:-1] if isinstance(warehouse.backend, SQLiteBackend) else rows
            pool["object_track"][index] = corrupted
        return pool

    monkeypatch.setattr(workloads, "query_pool", corrupted_pool)
    part = workloads.measure_read_mix(3, 0.1, "tiny", tmp_path)
    workloads.verify_read_mix(3, "tiny", [part])
    outcome = workloads.Outcome.of([part])
    assert outcome.failed >= 1 and not outcome.correct
    assert any("object_track" in problem for problem in outcome.problems)


def test_changed_replay_fails_the_replay_op(tmp_path, monkeypatch):
    module = importlib.import_module("repro.live.replay")
    replay, state = module.replay, {"changed": False}

    def changed_replay(warehouse, monitors, **kwargs):
        report = replay(warehouse, monitors, **kwargs)
        if not state["changed"]:
            state["changed"] = True
            next(iter(report.results.values())).windows.pop()
        return report

    monkeypatch.setattr(module, "replay", changed_replay)
    part = workloads.measure_read_mix(3, 0.1, "tiny", tmp_path)
    assert part.failed == 1 and part.problems


class TestTracer:
    def test_self_time_excludes_children_and_wrappers_are_restored(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        tracer = Tracer()
        original = Layer.__dict__["inner"]
        tracer.wrap(Layer, "outer", "outer", "a")
        tracer.wrap(Layer, "inner", "inner", "b")
        tracer.op = 0
        assert tracer.call("op", "op", Layer().outer) == 2
        tracer.restore()
        assert Layer.__dict__["inner"] is original
        root, outer, inner = tracer.spans
        assert outer.parent == 0 and inner.parent == 1
        assert root.child_time == pytest.approx(outer.duration)
        assert outer.self_time == pytest.approx(outer.duration - inner.duration)
        times = tracer.self_times(0)
        assert sum(times.values()) == pytest.approx(root.duration)

    def test_iterate_sums_the_time_blocked_in_next(self):
        tracer = Tracer()
        tracer.op = 0

        def consume():
            return sum(tracer.iterate("scan", "scan", iter(range(5))))

        assert tracer.call("op", "op", consume) == 10
        root, scan = tracer.spans
        assert scan.calls == 5 and scan.busy <= root.duration
        assert root.self_time == pytest.approx(root.duration - scan.busy)
