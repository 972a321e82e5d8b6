"""The benchmark's three workloads, driven through the program's public API.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Every input derives from the ``--seed``
argument.  A measuring process (:func:`measure`) sets up once, runs timed
ops back to back for its seconds (digesting each op's output outside its
timing) and reads its peak RSS; :func:`combine` then computes the references
and checks every digest against them, and reports medians over the
processes.

A traced run (:func:`traced_run`) is one process in which every other op
runs with the timing wrappers of :mod:`perfbench.layers` installed; the
per-layer metrics come from those ops and ``trace.overhead_ratio`` compares
them with the untraced ones.
"""

from __future__ import annotations

import gc
import importlib
import os
import pickle
import random
import resource
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.checks import DATASETS, close, digest, live_digest, warehouse_digest
from perfbench.tracing import Tracer

_clock = time.perf_counter

#: Input sizes.  ``full`` is what ``BENCHMARK.json`` runs; ``tiny`` keeps the
#: benchmark's own tests fast.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "gen_duration": 300.0, "serial_objects": 16, "parallel_objects": 32,
        "read_duration": 600.0, "read_objects": 40,
        "min_ops": 3, "query_pool": 32, "rounds_per_replay": 50,
    },
    "tiny": {
        "gen_duration": 60.0, "serial_objects": 2, "parallel_objects": 4,
        "read_duration": 60.0, "read_objects": 4,
        "min_ops": 2, "query_pool": 3, "rounds_per_replay": 4,
    },
}

#: Worker processes and shards of the parallel generation (the host's 2 vCPUs).
PARALLEL_WORKERS = 2
PARALLEL_SHARDS = 4

#: The builder query kinds of ``read_mix``.
QUERY_KINDS = (
    "object_track", "time_window_count", "floor_window_limit", "region_window",
    "device_rssi_stats", "partition_count_by", "snapshot", "knn",
)
#: Kinds whose plan streams rows back, so ``Query.profile`` can count the
#: rows the engine scanned (aggregates pushed into SQL report no scan count).
PROFILED_KINDS = ("object_track", "floor_window_limit", "region_window")
#: Kinds whose answers hold floats the engine computes (stats sum and mean,
#: kNN distance): checked against the memory engine with :func:`close`, and
#: counted in ``query.inexact_answers`` when not bit-identical.
COMPUTED_KINDS = ("device_rssi_stats", "knn")

#: The repository each stored dataset is written through.
_REPOSITORIES = {
    "device": "devices", "trajectory": "trajectories", "rssi": "rssi",
    "positioning": "positioning", "probabilistic": "probabilistic", "proximity": "proximity",
}


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @classmethod
    def of(cls, parts: List["Part"]) -> "Outcome":
        return cls(attempted=sum(part.attempted for part in parts),
                   failed=sum(part.failed for part in parts),
                   problems=[problem for part in parts for problem in part.problems])

    @property
    def correct(self) -> bool:
        return not self.problems


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def master_seed(workload: str, seed: int) -> int:
    """The program's master seed for a workload and benchmark seed."""
    return random.Random(f"{workload}:{seed}").getrandbits(31)


def generation_config(workload: str, seed: int, size: str, db_path: Optional[Path]):
    """The :class:`VitaConfig` of a workload: a synthetic 2-floor office with
    8 Wi-Fi APs per floor, objects present for the whole run."""
    from repro import config_from_dict

    sizes = SIZES[size]
    duration = sizes["read_duration" if workload == "read_mix" else "gen_duration"]
    objects = {
        "gen_serial_sqlite": sizes["serial_objects"],
        "gen_parallel_live": sizes["parallel_objects"],
        "read_mix": sizes["read_objects"],
    }[workload]
    positioning = {"method": "trilateration", "sampling_period": 5.0}
    if workload == "gen_parallel_live":
        positioning = {"method": "fingerprinting", "algorithm": "knn", "sampling_period": 5.0}
    storage: Dict[str, Any] = {"backend": "memory"}
    if db_path is not None:
        storage = {"backend": "sqlite", "path": str(db_path)}
    return config_from_dict({
        "environment": {"building": "office", "floors": 2},
        "devices": [{"type": "wifi", "count_per_floor": 8, "deployment": "coverage"}],
        "objects": {
            "count": objects, "duration": duration, "sampling_period": 1.0,
            "min_lifespan": duration, "max_lifespan": duration,
        },
        "rssi": {"sampling_period": 2.0},
        "positioning": positioning,
        "storage": storage,
        "seed": master_seed(workload, seed),
    })


def standing_monitors() -> list:
    """Density per floor, one flow, one geofence and the popular places."""
    from repro.live import Monitor

    return [
        Monitor.density(floor=0).window(60).slide(30).named("density_f0"),
        Monitor.density(floor=1).window(60).slide(30).named("density_f1"),
        Monitor.flow("f0_hall", "f0_room_s0").window(120).named("flow_hall_room"),
        Monitor.geofence((0.0, 0.0, 14.0, 10.0), floor=0).named("fence_f0"),
        Monitor.visit_counts(top_k=5).window(300).slide(60).named("visits"),
    ]


@dataclass(frozen=True)
class PoolQuery:
    """One parameterised query: ``build`` makes the builder query over a
    warehouse, ``run`` applies its terminal."""

    build: Callable[[Any], Any]
    run: Callable[[Any], Any]

    def __call__(self, warehouse) -> Any:
        return self.run(self.build(warehouse))


def query_pool(seed: int, size: str, config, device_ids: List[str]) -> Dict[str, list]:
    """For every query kind, the size's ``query_pool`` seeded parameterisations."""
    from repro.building.synthetic import building_by_name

    rng = random.Random(f"read_mix:{seed}:queries")
    duration = config.objects.duration
    building = building_by_name(config.environment.building, floors=config.environment.floors)
    boxes = {floor_id: building.floor(floor_id).bounding_box for floor_id in building.floor_ids}
    objects = [f"obj_{index:04d}" for index in range(1, config.objects.count + 1)]

    def point(floor_id: int) -> Tuple[float, float]:
        box = boxes[floor_id]
        return rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y)

    def start(span: float) -> float:
        return round(rng.uniform(0.0, max(duration - span, 0.0)), 3)

    def rows(q):
        return q.all()

    def make(kind: str) -> PoolQuery:
        floor_id = rng.choice(sorted(boxes))
        if kind == "object_track":
            oid = rng.choice(objects)
            return PoolQuery(lambda w: w.query("trajectory").where(object_id=oid), rows)
        if kind == "time_window_count":
            t0 = start(60.0)
            return PoolQuery(lambda w: w.query("trajectory").during(t0, t0 + 60.0),
                             lambda q: q.count())
        if kind == "floor_window_limit":
            t0 = start(120.0)
            return PoolQuery(lambda w: (
                w.query("trajectory").during(t0, t0 + 120.0).on_floor(floor_id).limit(50)
            ), rows)
        if kind == "region_window":
            x, y = point(floor_id)
            box, t0 = (x - 5.0, y - 5.0, x + 5.0, y + 5.0), start(60.0)
            return PoolQuery(lambda w: (
                w.query("trajectory").on_floor(floor_id).within(box).during(t0, t0 + 60.0)
            ), rows)
        if kind == "device_rssi_stats":
            device = rng.choice(device_ids)
            return PoolQuery(lambda w: w.query("rssi").where(device_id=device),
                             lambda q: q.stats("rssi"))
        if kind == "partition_count_by":
            t0 = start(120.0)
            return PoolQuery(lambda w: w.query("trajectory").during(t0, t0 + 120.0),
                             lambda q: q.count_by("partition_id", distinct="object_id"))
        if kind == "snapshot":
            t = start(0.0)
            return PoolQuery(lambda w: w.query("trajectory"),
                             lambda q: q.snapshot(t, tolerance=1.0))
        x, y = point(floor_id)
        t = start(0.0)
        return PoolQuery(lambda w: w.query("trajectory").on_floor(floor_id),
                         lambda q: q.knn(x, y, t, k=5))

    count = SIZES[size]["query_pool"]
    return {kind: [make(kind) for _ in range(count)] for kind in QUERY_KINDS}


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _sqlite_bytes_per_row(path: Path, rows: int) -> float:
    """Bytes of live pages (tables and indexes) per stored row."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        pages = connection.execute("PRAGMA page_count").fetchone()[0]
        free = connection.execute("PRAGMA freelist_count").fetchone()[0]
        page_size = connection.execute("PRAGMA page_size").fetchone()[0]
    finally:
        connection.close()
    return (pages - free) * page_size / rows if rows else 0.0


def _remove_database(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def _traced(tracer: Optional[Tracer], op: int, name: str, function: Callable) -> Any:
    """Run one op, under a root span when *tracer* is given."""
    if tracer is None:
        return function()
    tracer.op = op
    return tracer.call(name, "op", function)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class _GenOp:
    """What the per-layer metrics keep of one traced generation op."""

    index: int
    wall: float
    report: Any
    live: Any
    survey_points: int
    #: Pickled bytes and records of the shard outputs that crossed from the
    #: pool workers (zero when the shards ran in this process).
    transfer: Tuple[int, int]

    @classmethod
    def of(cls, index: int, wall: float, result, outputs: List[Any],
           transferred: bool) -> "_GenOp":
        transfer = (0, 0)
        if transferred:
            transfer = (sum(len(pickle.dumps(output)) for output in outputs),
                        sum(output.total_records for output in outputs))
        survey = len(result.radio_map.references) if result.radio_map is not None else 0
        return cls(index, wall, result.report, result.live, survey, transfer)


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
@dataclass
class Part:
    """What one measuring process saw.

    JSON-serialisable, so an untraced run spreads its measurement over
    several processes (each with its own hash seed and memory layout) and
    checks and combines the parts afterwards.
    """

    setup_s: float = 0.0
    #: Timed ops: generation ops, or rounds of the eight query kinds.
    walls: List[float] = field(default_factory=list)
    records: List[int] = field(default_factory=list)
    #: Every timed query, with its kind.
    query_walls: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    replay_walls: List[float] = field(default_factory=list)
    replay_records: List[int] = field(default_factory=list)
    #: Generation: op label -> output digest.  Queries: ``kind/slot`` -> the
    #: first answer (computed kinds) or its digest.
    outputs: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    db_path: Optional[str] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class TraceData:
    """What a traced run keeps for the per-layer metrics."""

    tracer: Tracer
    gen_ops: List["_GenOp"] = field(default_factory=list)
    #: Traced ops (generation ops, queries and replays), whose root spans
    #: count for ``trace.unattributed_share``.
    root_ops: List[int] = field(default_factory=list)
    root_walls: List[float] = field(default_factory=list)
    #: Traced and untraced walls of the same op type, for the overhead ratio.
    traced_walls: List[float] = field(default_factory=list)
    untraced_walls: List[float] = field(default_factory=list)
    replay_ops: List[Tuple[int, float, Any]] = field(default_factory=list)
    bytes_per_row: float = 0.0
    worker_rss_mb: float = 0.0
    scanned: Dict[str, List[int]] = field(
        default_factory=lambda: {kind: [0, 0] for kind in PROFILED_KINDS})


def measure_generation(workload: str, seed: int, seconds: float, size: str, workdir: Path,
                       trace: Optional[TraceData] = None) -> Part:
    """Set up, then run timed ``run_streaming`` ops for *seconds*; with
    *trace*, every other op runs with the wrappers on."""
    from repro import VitaPipeline

    parallel = workload == "gen_parallel_live"
    db_path = None if parallel else workdir / f"{workload}.sqlite"
    config = generation_config(workload, seed, size, db_path)
    workers, shards = (PARALLEL_WORKERS, PARALLEL_SHARDS) if parallel else (1, None)
    monitors = standing_monitors() if parallel else None
    part = Part()

    def generate():
        # No warehouse is passed: the run opens its own from the storage
        # section (a fresh SQLite file and schema), as a CLI generate does.
        return VitaPipeline(config).run_streaming(
            workers=workers, shards=shards, monitors=monitors
        )

    def fresh_output() -> None:
        if db_path is not None:
            _remove_database(db_path)
        gc.collect()

    # Set-up: one untimed warm-up op, which builds building, devices, spatial
    # service, radio map and SQLite schema, cold in a fresh process.
    fresh_output()
    started = _clock()
    result = generate()
    part.setup_s = _clock() - started
    part.outputs["warm-up"] = generation_digest(result)
    result.warehouse.close()

    tracer = trace.tracer if trace is not None else None
    deadline = _clock() + seconds
    index = 0
    while _clock() < deadline or part.attempted < SIZES[size]["min_ops"]:
        traced = tracer is not None and index % 2 == 1
        outputs: List[Any] = []
        fresh_output()
        part.attempted += 1
        try:
            if traced:
                layers.install_generation(tracer, in_process=not parallel,
                                          on_shard_output=outputs.append)
            started = _clock()
            result = _traced(tracer if traced else None, index, "run_streaming", generate)
            wall = _clock() - started
        except Exception as error:  # an op that raises is a failed op
            part.fail(f"op {index} raised {error!r}")
            continue
        finally:
            if traced:
                tracer.restore()
            index += 1
        part.walls.append(wall)
        part.records.append(result.report.total_records)
        part.outputs[f"op {index - 1}"] = generation_digest(result)
        if trace is not None:
            if db_path is not None:
                trace.bytes_per_row = _sqlite_bytes_per_row(db_path, result.report.total_records)
            if traced:
                trace.gen_ops.append(_GenOp.of(index - 1, wall, result, outputs,
                                               transferred=parallel))
                trace.root_ops.append(index - 1)
                trace.root_walls.append(wall)
                trace.traced_walls.append(wall)
            else:
                trace.untraced_walls.append(wall)
        result.warehouse.close()
        result = outputs = None  # the next op starts without this one's data
    part.peak_rss_mb = _peak_rss_mb()
    if trace is not None and parallel:
        trace.worker_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    return part


def generation_digest(result) -> str:
    """The digest of everything a generation op stored and emitted."""
    live = live_digest(result.live) if result.live is not None else None
    return digest([warehouse_digest(result.warehouse), live])


def verify_generation(workload: str, seed: int, size: str, parts: List[Part]) -> None:
    """Compare every op's output with a serial memory-engine run of the same
    seed and shard count (the workers=N ≡ serial and memory ≡ SQLite
    contracts)."""
    from repro import VitaPipeline

    parallel = workload == "gen_parallel_live"
    reference = VitaPipeline(generation_config(workload, seed, size, None)).run_streaming(
        workers=1, shards=PARALLEL_SHARDS if parallel else None,
        monitors=standing_monitors() if parallel else None,
    )
    expected = generation_digest(reference)
    for part in parts:
        for label, actual in part.outputs.items():
            if actual == expected:
                continue
            message = f"{label}: output differs from the serial memory-engine reference"
            if label == "warm-up":
                part.problems.append(message)
            else:
                part.fail(message)


def measure_read_mix(seed: int, seconds: float, size: str, workdir: Path,
                     trace: Optional[TraceData] = None) -> Part:
    """Set up a warehouse, then run rounds of the eight query kinds with a
    replay every ``rounds_per_replay`` rounds for *seconds*; with *trace*,
    every other block of rounds and its replay run with the wrappers on."""
    from repro import VitaPipeline
    from repro.storage.repositories import DataWarehouse

    # Resolved per call, so the traced run's wrapper is the one called.
    replay_module = importlib.import_module("repro.live.replay")
    sizes = SIZES[size]
    monitors = standing_monitors()
    tracer = trace.tracer if trace is not None else None
    part = Part()

    # Set-up: generate (monitors attached), persist, close and reopen the
    # warehouse, then one untimed pass over every query kind.
    db_path = workdir / f"read_mix_{os.getpid()}.sqlite"
    config = generation_config("read_mix", seed, size, db_path)
    outputs: List[Any] = []

    def set_up():
        generated = DataWarehouse.from_config(config.storage)
        result = VitaPipeline(config).run_streaming(
            warehouse=generated, workers=PARALLEL_WORKERS, shards=PARALLEL_SHARDS,
            monitors=monitors,
        )
        generated.close()
        return result

    gc.collect()
    try:
        if tracer is not None:
            layers.install_generation(tracer, in_process=False, on_shard_output=outputs.append)
        started = _clock()
        result = _traced(tracer, -1, "run_streaming", set_up)
        generated = _clock() - started
    finally:
        if tracer is not None:
            tracer.restore()
    started = _clock()
    warehouse = DataWarehouse.open("sqlite", path=str(db_path))
    devices = warehouse.query("device").distinct("device_id")
    pool = query_pool(seed, size, config, devices)
    for kind in QUERY_KINDS:
        pool[kind][0](warehouse)
    part.setup_s = generated + _clock() - started
    part.db_path = str(db_path)
    if trace is not None:
        trace.gen_ops = [_GenOp.of(-1, generated, result, outputs, transferred=True)]
    attached = live_digest(result.live, alert_order=False)
    rows_stored = result.report.total_records
    result = None

    rng = random.Random(f"read_mix:{seed}:mix")
    op = block = 0

    def timed(name: str, function: Callable) -> Tuple[Any, float]:
        nonlocal op
        op += 1
        started = _clock()
        result = _traced(tracer if traced else None, op, name, function)
        return result, _clock() - started

    def check(kind: str, slot: int, answer: Any) -> None:
        key = f"{kind}/{slot}"
        kept = answer if kind in COMPUTED_KINDS else digest(answer)
        if key not in part.outputs:
            part.outputs[key] = kept
        elif digest(kept) != digest(part.outputs[key]):
            part.fail(f"{key}: a repeat changed the answer")

    deadline = _clock() + seconds
    # At least two blocks, so a traced run has an untraced one to compare.
    while _clock() < deadline or block < 2:
        traced = tracer is not None and block % 2 == 1
        block += 1
        try:
            if traced:
                layers.install_queries(tracer)
                layers.install_live(tracer)
            for _ in range(sizes["rounds_per_replay"]):
                # One round: every kind once, in seeded order, each with a
                # seeded parameterisation from its pool.
                round_wall: Optional[float] = 0.0
                for kind in rng.sample(QUERY_KINDS, len(QUERY_KINDS)):
                    slot = rng.randrange(len(pool[kind]))
                    part.attempted += 1
                    try:
                        answer, wall = timed(kind, lambda: pool[kind][slot](warehouse))
                    except Exception as error:
                        part.fail(f"{kind}/{slot} raised {error!r}")
                        round_wall = None
                        break
                    round_wall += wall
                    part.query_walls.append(wall)
                    part.kinds.append(kind)
                    if traced:
                        trace.root_ops.append(op)
                        trace.root_walls.append(wall)
                        trace.traced_walls.append(wall)
                    elif trace is not None:
                        trace.untraced_walls.append(wall)
                    check(kind, slot, answer)
                if round_wall is not None:
                    part.walls.append(round_wall)
            part.attempted += 1
            try:
                report, wall = timed("replay",
                                     lambda: replay_module.replay(warehouse, monitors))
            except Exception as error:
                part.fail(f"replay raised {error!r}")
                continue
            part.replay_walls.append(wall)
            part.replay_records.append(report.records_seen)
            if traced:
                trace.replay_ops.append((op, wall, report))
                trace.root_ops.append(op)
                trace.root_walls.append(wall)
            if live_digest(report, alert_order=False) != attached:
                part.fail(f"replay {len(part.replay_walls)} differs from the attached report")
        finally:
            if traced:
                tracer.restore()

    part.peak_rss_mb = _peak_rss_mb()
    if trace is not None:
        trace.worker_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        trace.bytes_per_row = _sqlite_bytes_per_row(db_path, rows_stored)
        trace.scanned = rows_scanned(warehouse, pool)
    warehouse.close()
    return part


def verify_read_mix(seed: int, size: str, parts: List[Part]) -> int:
    """Compare every query's first answer with the memory engine's answer
    over the same rows; returns how many computed answers matched only to
    the float tolerance."""
    from repro.storage.repositories import DataWarehouse

    stored = DataWarehouse.open("sqlite", path=parts[-1].db_path)
    reference = DataWarehouse()
    for dataset in DATASETS:
        getattr(reference, _REPOSITORIES[dataset]).add_many(stored.query(dataset).records())
    devices = stored.query("device").distinct("device_id")
    stored.close()
    pool = query_pool(seed, size, generation_config("read_mix", seed, size, None), devices)
    expected: Dict[str, Any] = {}
    inexact = 0
    for part in parts:
        for key, kept in sorted(part.outputs.items()):
            kind, slot = key.split("/")
            if key not in expected:
                expected[key] = pool[kind][int(slot)](reference)
            if kind in COMPUTED_KINDS:
                matches = close(kept, expected[key])
                inexact += matches and digest(kept) != digest(expected[key])
            else:
                matches = kept == digest(expected[key])
            if not matches:
                part.fail(f"{key} differs from the memory engine's answer")
    return inexact


def rows_scanned(warehouse, pool: Dict[str, list]) -> Dict[str, List[int]]:
    """Rows the engine scanned and rows returned, summed over each profiled
    kind's pool (``Query.profile`` of the very queries the mix runs)."""
    totals: Dict[str, List[int]] = {}
    for kind in PROFILED_KINDS:
        scanned = returned = 0
        for query in pool[kind]:
            rows = query.build(warehouse).profile("all")["rows"]
            scanned += rows["scanned"]
            returned += rows["returned"]
        totals[kind] = [scanned, returned]
    return totals


def measure(workload: str, seed: int, seconds: float, size: str, workdir: Path) -> Part:
    """One untraced measuring process's share of a run."""
    if workload == "read_mix":
        return measure_read_mix(seed, seconds, size, workdir)
    return measure_generation(workload, seed, seconds, size, workdir)


def combine(workload: str, seed: int, size: str, parts: List[Part]) -> Outcome:
    """Check the parts of an untraced run and report its end-to-end metrics.

    Rates are each part's summed work over its summed wall time, and the
    run reports the median part; ``op_p50_ms`` pools every op.
    """
    if workload == "read_mix":
        verify_read_mix(seed, size, parts)
        records = [sum(p.replay_records) / sum(p.replay_walls) for p in parts]
        ops = [len(p.query_walls) / sum(p.query_walls) for p in parts]
    else:
        verify_generation(workload, seed, size, parts)
        records = [sum(p.records) / sum(p.walls) for p in parts]
        ops = [len(p.walls) / sum(p.walls) for p in parts]
    outcome = Outcome.of(parts)
    outcome.metrics.update({
        "records_per_s": (statistics.median(records), "1/s"),
        "op_p50_ms": (statistics.median(w for p in parts for w in p.walls) * 1000.0, "ms"),
        "ops_per_s": (statistics.median(ops), "1/s"),
        "setup_s": (statistics.median(p.setup_s for p in parts), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in parts), "MB"),
    })
    return outcome


def traced_run(workload: str, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
    """One process, one set-up, ops alternating untraced and traced; reports
    the per-layer metrics."""
    trace = TraceData(Tracer())
    if workload == "read_mix":
        part = measure_read_mix(seed, seconds, size, workdir, trace)
        inexact = verify_read_mix(seed, size, [part])
    else:
        part = measure_generation(workload, seed, seconds, size, workdir, trace)
        verify_generation(workload, seed, size, [part])
    outcome = Outcome.of([part])
    tracer = trace.tracer
    outcome.metrics.update(empty_layer_metrics())
    outcome.metrics.update(generation_layer_metrics(
        tracer, trace.gen_ops, in_process=workload == "gen_serial_sqlite",
        worker_rss=trace.worker_rss_mb, bytes_per_row=trace.bytes_per_row,
    ))
    if workload == "gen_parallel_live":
        outcome.metrics.update(live_layer_metrics(
            tracer, [op.index for op in trace.gen_ops], [op.wall for op in trace.gen_ops],
            [op.live for op in trace.gen_ops],
        ))
    if workload == "read_mix":
        outcome.metrics.update(live_layer_metrics(
            tracer, [index for index, _, _ in trace.replay_ops],
            [wall for _, wall, _ in trace.replay_ops],
            [report for _, _, report in trace.replay_ops],
        ))
        latencies: Dict[str, List[float]] = {kind: [] for kind in QUERY_KINDS}
        for kind, wall in zip(part.kinds, part.query_walls):
            latencies[kind].append(wall)
        outcome.metrics.update(query_layer_metrics(
            tracer, latencies, part.query_walls, [index for index, _, _ in trace.replay_ops],
            trace.scanned,
        ))
        outcome.metrics.update([_m("query.inexact_answers", inexact)])
    outcome.metrics.update(trace_metrics(trace))
    return outcome


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: Every per-layer metric with its unit; a layer a workload never calls
#: reports 0.
LAYER_METRICS: Dict[str, str] = {
    "infra.build_s": "s", "infra.survey_s": "s", "infra.survey_points": "count",
    "spatial.route_hit_ratio": "ratio", "spatial.los_hit_ratio": "ratio",
    "spatial.locate_hit_ratio": "ratio",
    **{f"{layer}.{suffix}": unit for layer in ("mobility", "rssi", "positioning")
       for suffix, unit in (("busy_s", "s"), ("share", "ratio"), ("records", "count"))},
    "streaming.shards": "count", "streaming.wait_s": "s", "streaming.wait_share": "ratio",
    "streaming.shard_self_s": "s", "streaming.writer_self_s": "s", "streaming.transfer_bytes_per_record": "B",
    "streaming.worker_peak_rss_mb": "MB",
    "storage.insert_s": "s", "storage.flush_s": "s", "storage.share": "ratio",
    "storage.rows_written": "count", "storage.flushes": "count",
    "storage.bytes_per_row": "B", "storage.failed_batches": "count",
    "live.feed_s": "s", "live.merge_s": "s", "live.finalize_s": "s", "live.share": "ratio",
    "live.records_fed": "count", "live.windows": "count", "live.alerts": "count",
    "live.dropped_alerts": "count",
    **{f"query.{kind}.p50_ms": "ms" for kind in QUERY_KINDS},
    **{f"query.{kind}.rows_scanned_per_returned": "ratio" for kind in PROFILED_KINDS},
    "query.p99_ms": "ms", "query.beyond_p99": "count", "query.inexact_answers": "count",
    "replay.scan_s": "s",
    "trace.unattributed_share": "ratio", "trace.overhead_ratio": "ratio",
}


def empty_layer_metrics() -> Dict[str, Tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in LAYER_METRICS.items()}


def _m(name: str, value: float) -> Tuple[str, Tuple[float, str]]:
    return name, (float(value), LAYER_METRICS[name])


def _per_op(tracer: Tracer, indices: List[int]) -> Dict[str, float]:
    """Mean self seconds per op, per layer key, over the given ops."""
    totals: Dict[str, float] = {}
    for index in indices:
        for layer, seconds in tracer.self_times(index).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return {layer: seconds / len(indices) for layer, seconds in totals.items()}


def _ratio(stats: Dict[str, int], cache: str) -> float:
    hits, misses = stats.get(f"{cache}_hits", 0), stats.get(f"{cache}_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def generation_layer_metrics(tracer: Tracer, ops: List[_GenOp], in_process: bool,
                             worker_rss: float, bytes_per_row: float) -> Dict:
    if not ops:
        return {}
    busy = _per_op(tracer, [op.index for op in ops])
    wall = statistics.fmean(op.wall for op in ops)
    report = ops[-1].report
    written = report.records_written
    payload, shipped = ops[-1].transfer
    metrics = dict([
        _m("infra.build_s", busy.get("infra.build", 0.0)),
        _m("infra.survey_s", busy.get("infra.survey", 0.0)),
        _m("infra.survey_points", ops[-1].survey_points),
        _m("spatial.route_hit_ratio", _ratio(report.cache_stats, "route")),
        _m("spatial.los_hit_ratio", _ratio(report.cache_stats, "los")),
        _m("spatial.locate_hit_ratio", _ratio(report.cache_stats, "locate")),
        _m("mobility.records", written.get("trajectories", 0)),
        _m("rssi.records", written.get("rssi", 0)),
        _m("positioning.records", sum(written.get(name, 0) for name in
                                      ("positioning", "probabilistic", "proximity"))),
        _m("streaming.shards", report.shard_count),
        _m("streaming.wait_s", busy.get("streaming.wait", 0.0)),
        _m("streaming.wait_share", busy.get("streaming.wait", 0.0) / wall),
        _m("streaming.shard_self_s", busy.get("streaming.shard", 0.0)),
        _m("streaming.writer_self_s", busy.get("streaming.writer", 0.0)),
        _m("streaming.transfer_bytes_per_record", payload / shipped if shipped else 0.0),
        _m("streaming.worker_peak_rss_mb", worker_rss),
        _m("storage.insert_s", busy.get("storage.insert", 0.0)),
        _m("storage.flush_s", busy.get("storage.flush", 0.0)),
        _m("storage.share", sum(v for k, v in busy.items() if k.startswith("storage.")) / wall),
        _m("storage.rows_written", report.total_records),
        _m("storage.flushes", report.flushes),
        _m("storage.bytes_per_row", bytes_per_row),
        _m("storage.failed_batches", tracer.failures("storage.")),
    ])
    for layer, timing in (("mobility", "moving_objects"), ("rssi", "rssi"),
                          ("positioning", "positioning")):
        if in_process:
            seconds = busy.get(layer, 0.0)
        else:
            # Worker-side: the shard outputs' own timings, summed over the
            # shards (so the shares of a parallel op can add up past 1).
            seconds = statistics.fmean(op.report.timings.get(f"{timing}_cpu", 0.0)
                                       for op in ops)
        metrics.update([_m(f"{layer}.busy_s", seconds), _m(f"{layer}.share", seconds / wall)])
    return metrics


def live_layer_metrics(tracer: Tracer, indices: List[int], walls: List[float],
                       reports: List[Any]) -> Dict:
    if not indices:
        return {}
    busy = _per_op(tracer, indices)
    wall = statistics.fmean(walls)
    report = reports[-1]
    results = report.results.values() if report is not None else ()
    return dict([
        _m("live.feed_s", busy.get("live.feed", 0.0)),
        _m("live.merge_s", busy.get("live.merge", 0.0)),
        _m("live.finalize_s", busy.get("live.finalize", 0.0)),
        _m("live.share", sum(v for k, v in busy.items() if k.startswith("live.")) / wall),
        _m("live.records_fed", report.records_seen if report is not None else 0),
        _m("live.windows", sum(len(result.windows) for result in results)),
        _m("live.alerts", sum(len(result.alerts) for result in results)),
        _m("live.dropped_alerts", sum(result.dropped_alerts for result in results)),
    ])


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def query_layer_metrics(tracer: Tracer, latencies: Dict[str, List[float]],
                        all_latencies: List[float], replay_indices: List[int],
                        scanned: Dict[str, List[int]]) -> Dict:
    metrics = {}
    for kind, values in latencies.items():
        metrics.update([_m(f"query.{kind}.p50_ms", _median(values) * 1000.0)])
    for kind, (rows_in, rows_out) in scanned.items():
        metrics.update([_m(f"query.{kind}.rows_scanned_per_returned",
                           rows_in / rows_out if rows_out else 0.0)])
    # The 99th percentile needs at least ten samples beyond it.
    beyond = len(all_latencies) - 1 - int(0.99 * len(all_latencies))
    if beyond >= 10:
        metrics.update([_m("query.p99_ms", _quantile(all_latencies, 0.99) * 1000.0),
                        _m("query.beyond_p99", beyond)])
    if replay_indices:
        scan = sum(span.duration for span in tracer.spans
                   if span.layer == "query.scan" and span.op in set(replay_indices))
        metrics.update([_m("replay.scan_s", scan / len(replay_indices))])
    return metrics


def trace_metrics(trace: TraceData) -> Dict:
    """Unattributed share (what the traced ops' root spans keep for
    themselves) and the traced-to-untraced median wall ratio."""
    if not trace.root_ops:
        return {}
    chosen = set(trace.root_ops)
    unattributed = sum(span.self_time for span in trace.tracer.spans
                       if span.layer == "op" and span.op in chosen)
    return dict([
        _m("trace.unattributed_share", unattributed / sum(trace.root_walls)),
        _m("trace.overhead_ratio", _median(trace.traced_walls) / _median(trace.untraced_walls)
           if trace.untraced_walls else 0.0),
    ])
