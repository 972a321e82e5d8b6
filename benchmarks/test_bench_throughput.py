"""THROUGHPUT: generator scalability.

A data generator is only useful if it can produce datasets much faster than
real time.  This bench measures the wall-clock cost of each pipeline layer as
the number of moving objects grows, and reports the trajectory-point and RSSI
throughput (records generated per second of wall-clock time).

Expected shape: cost grows roughly linearly with the object count, and the
generator stays one to two orders of magnitude faster than real time for
laptop-scale workloads.
"""

import statistics
import time

import pytest

from conftest import (
    deploy_wifi,
    generate_rssi,
    make_building,
    print_table,
    record_bench,
    simulate,
)

DURATION = 120.0
#: Runs whose median rates are recorded (the largest summary workload and
#: each streaming run): one run cannot tell a change smaller than the host's
#: run-to-run spread.
REPEATS = 5


@pytest.fixture(scope="module")
def office():
    return make_building("office", floors=2)


@pytest.fixture(scope="module")
def office_devices(office):
    return deploy_wifi(office, count_per_floor=6)


class TestMovingObjectThroughput:
    @pytest.mark.parametrize("count", [10, 50, 150])
    def test_trajectory_generation_scales_with_objects(self, benchmark, office, count):
        result = benchmark.pedantic(
            lambda: simulate(office, count=count, duration=DURATION, seed=count),
            rounds=1, iterations=1,
        )
        assert result.object_count == count
        assert result.total_samples >= count * DURATION * 0.8


class TestRSSIThroughput:
    @pytest.mark.parametrize("count", [10, 50])
    def test_rssi_generation_scales_with_objects(self, benchmark, office, office_devices, count):
        simulation = simulate(office, count=count, duration=DURATION, seed=200 + count)
        records = benchmark.pedantic(
            lambda: generate_rssi(office, office_devices, simulation.trajectories),
            rounds=1, iterations=1,
        )
        assert len(records) > 0


class TestEndToEndThroughput:
    def test_throughput_summary(self, benchmark, office, office_devices):
        def run(count):
            start = time.perf_counter()
            simulation = simulate(office, count=count, duration=DURATION, seed=300 + count)
            trajectory_seconds = time.perf_counter() - start
            start = time.perf_counter()
            rssi = generate_rssi(office, office_devices, simulation.trajectories)
            rssi_seconds = time.perf_counter() - start
            return {
                "count": count,
                "trajectory_records": simulation.total_samples,
                "trajectory_seconds": trajectory_seconds,
                "rssi_records": len(rssi),
                "rssi_seconds": rssi_seconds,
            }

        def sweep():
            return [run(count) for count in (10, 50, 150)]

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print_table(
            "THROUGHPUT: generation cost vs object count (120 s simulated)",
            ["objects", "trajectory records", "traj records/s", "rssi records", "rssi records/s",
             "speed-up vs real time"],
            [
                [
                    row["count"],
                    row["trajectory_records"],
                    f"{row['trajectory_records'] / max(row['trajectory_seconds'], 1e-9):,.0f}",
                    row["rssi_records"],
                    f"{row['rssi_records'] / max(row['rssi_seconds'], 1e-9):,.0f}",
                    f"{DURATION / max(row['trajectory_seconds'] + row['rssi_seconds'], 1e-9):.1f}x",
                ]
                for row in rows
            ],
        )
        largest = rows[-1]
        repeats = [largest] + [run(largest["count"]) for _ in range(REPEATS - 1)]

        def median_rate(records, seconds):
            return statistics.median(
                row[records] / max(row[seconds], 1e-9) for row in repeats
            )

        record_bench(
            "throughput",
            trajectory_records_per_second=round(
                median_rate("trajectory_records", "trajectory_seconds"), 1
            ),
            rssi_records_per_second=round(median_rate("rssi_records", "rssi_seconds"), 1),
            objects=largest["count"],
            repeats=REPEATS,
            simulated_duration_seconds=DURATION,
        )
        # Roughly linear scaling: 15x the objects should cost far less than 60x the time.
        small, large = rows[0], rows[-1]
        small_total = small["trajectory_seconds"] + small["rssi_seconds"]
        large_total = large["trajectory_seconds"] + large["rssi_seconds"]
        assert large_total < small_total * 60
        # Faster than real time even at 150 objects.
        assert large_total < DURATION


class TestStreamingThroughput:
    """Streaming mode: datasets larger than the flush buffer, O(flush) pending.

    The streaming pipeline must generate a dataset larger than the configured
    flush buffer while never buffering more than that flush budget — the
    memory contract that makes dataset size independent of RAM.
    """

    def test_streaming_generates_beyond_the_flush_buffer(self, benchmark, tmp_path):
        from repro.core.config import (
            DeviceConfig,
            EnvironmentConfig,
            ObjectConfig,
            StorageConfig,
            VitaConfig,
        )
        from repro.core.pipeline import VitaPipeline

        flush_every = 256

        def config(run):
            return VitaConfig(
                environment=EnvironmentConfig(building="office", floors=2),
                devices=[DeviceConfig(count_per_floor=6)],
                objects=ObjectConfig(count=30, duration=DURATION, time_step=0.5),
                storage=StorageConfig(
                    backend="sqlite", path=str(tmp_path / f"stream{run}.sqlite"),
                    flush_every=flush_every,
                ),
                seed=7,
                shards=4,
            )

        def run(index):
            # Each run loads a fresh file, as a first run does.
            result = VitaPipeline(config(index)).run_streaming(progress=events.append)
            result.warehouse.close()
            return result.report

        events = []
        report = benchmark.pedantic(lambda: run(0), rounds=1, iterations=1)
        rates = [report.records_per_second]
        rates.extend(run(index).records_per_second for index in range(1, REPEATS))
        print_table(
            "THROUGHPUT: streaming generation (flush buffer vs dataset size)",
            ["records", "flush buffer", "max pending", "flushes", "records/s", "workers"],
            [[
                report.total_records,
                report.flush_every,
                report.max_pending,
                report.flushes,
                f"{statistics.median(rates):,.0f}",
                report.workers,
            ]],
        )
        record_bench(
            "throughput",
            streaming_records_per_second=round(statistics.median(rates), 1),
            streaming_total_records=report.total_records,
            streaming_max_pending=report.max_pending,
        )
        # The dataset outgrew the flush buffer many times over...
        assert report.total_records > flush_every * 4
        # ...yet the pipeline never held more than the flush budget pending.
        assert report.max_pending <= flush_every
        assert max(event.pending_records for event in events) <= flush_every

    def test_parallel_streaming_matches_serial(self, benchmark, monkeypatch):
        """workers=2 over 4 shards into memory: the shard outputs cross the
        process boundary as row tuples, and the stored rows equal a serial
        run's.  Also reports the pickled hand-off size per record."""
        import pickle

        from repro.core import pipeline
        from repro.core.config import DeviceConfig, EnvironmentConfig, ObjectConfig, VitaConfig
        from repro.core.pipeline import VitaPipeline
        from repro.storage.backends.base import DATASETS

        config = VitaConfig(
            environment=EnvironmentConfig(building="office", floors=2),
            devices=[DeviceConfig(count_per_floor=6)],
            objects=ObjectConfig(count=30, duration=DURATION, time_step=0.5),
            seed=7,
            shards=4,
        )
        result = benchmark.pedantic(
            lambda: VitaPipeline(config).run_streaming(workers=2),
            rounds=1, iterations=1,
        )
        report = result.report
        rates = [report.records_per_second]
        rates.extend(
            VitaPipeline(config).run_streaming(workers=2).report.records_per_second
            for _ in range(REPEATS - 1)
        )

        # The serial reference, observing the shard outputs the parent writes
        # (workers=N ships exactly these, so their pickled size is the
        # hand-off's).
        outputs = []
        iter_shard_outputs = pipeline.iter_shard_outputs

        def observed(*args, **kwargs):
            for output in iter_shard_outputs(*args, **kwargs):
                outputs.append(output)
                yield output

        monkeypatch.setattr(pipeline, "iter_shard_outputs", observed)
        serial = VitaPipeline(config).run_streaming(workers=1)
        for dataset in DATASETS:
            assert result.warehouse.query(dataset).all() == serial.warehouse.query(dataset).all()
        shipped = sum(output.total_records for output in outputs)
        bytes_per_record = sum(len(pickle.dumps(output)) for output in outputs) / shipped

        print_table(
            "THROUGHPUT: parallel streaming (workers=2, 4 shards, memory engine)",
            ["records", "records/s", "shard output B/record", "workers"],
            [[report.total_records, f"{statistics.median(rates):,.0f}",
              f"{bytes_per_record:.1f}", report.workers]],
        )
        record_bench(
            "throughput",
            streaming_parallel_records_per_second=round(statistics.median(rates), 1),
            shard_output_bytes_per_record=round(bytes_per_record, 1),
        )
        assert report.workers == 2 and report.shard_count == 4
        assert report.total_records == serial.report.total_records > 0
