"""Deterministic sharding, streaming writes and the layer set-up.

This module holds the pieces of the one generation path,
:meth:`~repro.core.pipeline.VitaPipeline.run_streaming`:

* **Deterministic shards** — the moving-object population is partitioned into
  contiguous shards (:func:`plan_shards`).  Every shard is seeded as a pure
  function of ``(master_seed, shard_id, role)`` (:func:`derive_seed`, built
  on :mod:`hashlib` so it is stable across processes and runs, unlike the
  builtin ``hash``), and runs the full object -> trajectory -> RSSI ->
  positioning chain independently (:func:`run_shard`).
* **Rows, built once** — a shard turns each generated record into its
  stored row (:func:`~repro.storage.repositories.record_row`, a tuple in
  the dataset's column order) and ships only those rows, grouped by dataset
  (:attr:`ShardOutput.rows`); no typed record crosses a process boundary.
* **Bounded flushing** — rows stream into the
  :class:`~repro.storage.repositories.DataWarehouse` through a
  :class:`StreamingWriter` that flushes in batches of ``flush_every``
  records, so peak pending memory is O(flush buffer), not O(dataset).
* **Opt-in parallelism** — :func:`iter_shard_outputs` runs shards through a
  ``concurrent.futures`` process pool when ``workers > 1`` and yields their
  outputs in shard order, which makes the merged output byte-identical to a
  serial run of the same shard plan: the partition and every seed depend
  only on ``(master_seed, shard_count)``, never on ``workers``.
* **Progress reporting** — long runs report objects/records per second
  through the :class:`GenerationProgress` callback hook.
* **Layer set-up** — :func:`object_controller`, :func:`build_rssi_config`
  and :func:`survey_radio_map` turn configuration into layer objects in one
  place, for the shard chain and the step-wise
  :class:`~repro.core.toolkit.Vita` facade alike (which routes positioning
  records with the same :func:`~repro.storage.repositories.record_row`).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from collections import defaultdict, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.building.model import Building
from repro.core.config import ObjectConfig, RSSIConfig, VitaConfig
from repro.core.errors import ConfigurationError
from repro.core.types import TrajectoryRecord
from repro.devices.base import PositioningDevice
from repro.mobility.behavior import behavior_by_name
from repro.mobility.controller import MovingObjectController, ObjectGenerationConfig
from repro.mobility.crowd import crowd_model_by_name
from repro.mobility.distributions import NoArrivals, PoissonArrivals, distribution_by_name
from repro.mobility.intentions import intention_by_name
from repro.obs import Telemetry
from repro.positioning.controller import PositioningConfig, PositioningMethodController
from repro.positioning.fingerprinting import RadioMap
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator
from repro.rssi.noise import FluctuationNoiseModel, ObstacleNoiseModel
from repro.rssi.pathloss import PathLossModel
from repro.spatial import SpatialService, diff_stats
from repro.storage.repositories import record_row

#: Default shard sizing used when the configuration leaves ``shards`` unset.
DEFAULT_OBJECTS_PER_SHARD = 16
DEFAULT_MAX_SHARDS = 8

#: The seed space: 63 bits so derived seeds stay positive ints everywhere.
SEED_BITS = 63

#: Semantic tags of the partitions a crowd-outliers distribution gathers its
#: crowds in (customers around shops on sale, Figure 3(b) of the paper).
HOT_PARTITION_TAGS = ("shop", "canteen", "public_area")

#: The datasets (and warehouse repositories) positioning output is stored in.
POSITIONING_DATASETS = ("positioning", "probabilistic", "proximity")


# --------------------------------------------------------------------------- #
# Deterministic seeding and shard planning
# --------------------------------------------------------------------------- #
def derive_seed(master_seed: int, shard_id: int, role: str = "shard") -> int:
    """A deterministic 63-bit seed for ``(master_seed, shard_id, role)``.

    Built on :func:`hashlib.blake2b` rather than the builtin ``hash`` so the
    value is identical across interpreter runs and worker processes
    (``PYTHONHASHSEED`` does not affect it).  This is the scheme that makes
    ``workers=N`` byte-identical to ``workers=1``: every random stream a
    shard consumes is seeded from its shard id, never from execution order.
    """
    payload = f"{int(master_seed)}|{int(shard_id)}|{role}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> (64 - SEED_BITS)


def auto_shard_count(object_count: int) -> int:
    """Default shard count: ~16 objects per shard, capped at 8 shards.

    A pure function of the object count only — deliberately independent of
    ``workers`` so the default partition (and therefore the output) does not
    change when parallelism is turned on.
    """
    if object_count <= 0:
        return 1
    return max(1, min(DEFAULT_MAX_SHARDS, math.ceil(object_count / DEFAULT_OBJECTS_PER_SHARD)))


def resolve_master_seed(config: VitaConfig) -> int:
    """The master seed of a streaming run.

    Prefers the explicit top-level seed, then the per-layer seeds; a fully
    unseeded configuration draws a random master so the run is still
    self-consistent (and reproducible from the reported seed).
    """
    for candidate in (config.seed, config.objects.seed, config.rssi.seed):
        if candidate is not None:
            return int(candidate)
    return random.Random().getrandbits(SEED_BITS)


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the moving-object population."""

    shard_id: int
    shard_count: int
    #: 1-based index of the shard's first initial object (ids are global:
    #: shard objects are named ``obj_{index:04d}`` exactly like a serial run).
    first_index: int
    object_count: int
    #: The shard's base seed, ``derive_seed(master_seed, shard_id)``.
    seed: int

    @property
    def indices(self) -> range:
        """The global 1-based indices of the shard's initial objects."""
        return range(self.first_index, self.first_index + self.object_count)


def plan_shards(object_count: int, shard_count: int, master_seed: int) -> List[ShardSpec]:
    """Partition ``object_count`` objects into ``shard_count`` contiguous shards.

    Every object index in ``1..object_count`` is covered by exactly one
    shard; shard sizes differ by at most one (earlier shards take the
    remainder).  The plan depends only on its three arguments.
    """
    if object_count < 0:
        raise ConfigurationError("object_count must be non-negative")
    if shard_count < 1:
        raise ConfigurationError("shard_count must be at least 1")
    base, extra = divmod(object_count, shard_count)
    plan: List[ShardSpec] = []
    first = 1
    for shard_id in range(shard_count):
        size = base + (1 if shard_id < extra else 0)
        plan.append(
            ShardSpec(
                shard_id=shard_id,
                shard_count=shard_count,
                first_index=first,
                object_count=size,
                seed=derive_seed(master_seed, shard_id),
            )
        )
        first += size
    return plan


# --------------------------------------------------------------------------- #
# Progress reporting
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GenerationProgress:
    """One progress event of a streaming generation run.

    Attributes:
        phase: ``"devices"``, ``"objects"``, ``"flush"``, ``"shard-start"``,
            ``"shard-done"`` or ``"done"``.
        shard_id: the shard the event refers to (``None`` for run-level events).
        shard_count: total shards in the run.
        objects_done: moving objects fully generated so far.
        records_written: records flushed to the storage backend so far.
        pending_records: records buffered in the writer, awaiting a flush.
        elapsed_seconds: wall-clock time since the run started writing.
    """

    phase: str
    shard_id: Optional[int]
    shard_count: int
    objects_done: int
    records_written: int
    pending_records: int
    elapsed_seconds: float
    #: Aggregated spatial-cache hit/miss counters (route/LOS/locate/table),
    #: updated as shard outputs are merged.
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def records_per_second(self) -> float:
        """Sustained write throughput (records/sec of wall-clock time)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.records_written / self.elapsed_seconds

    @property
    def objects_per_second(self) -> float:
        """Sustained object generation rate (objects/sec of wall-clock time)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.objects_done / self.elapsed_seconds


ProgressCallback = Callable[[GenerationProgress], None]


# --------------------------------------------------------------------------- #
# Bounded streaming writes
# --------------------------------------------------------------------------- #
class StreamingWriter:
    """Flushes rows into a warehouse in bounded batches.

    The writer buffers at most ``flush_every`` records at any moment (its
    invariant, asserted by the memory-bound regression tests); each flush
    bulk-inserts through the repositories and makes the backend durable, and
    emits a ``"flush"`` progress event.  It passes what it is given through
    unchanged: row tuples from the shards (typed records also work, since
    every repository's ``add_many`` converts them).
    """

    def __init__(
        self,
        warehouse,
        flush_every: int,
        progress: Optional[ProgressCallback] = None,
        record_hook: Optional[Callable[[str, list], None]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        """*record_hook*, when set, receives every flushed batch as
        ``(repo_name, rows)`` after it is stored — the tap the
        continuous-query engine consumes the stream through, at exactly the
        flush-bounded cadence the memory budget already pays for."""
        if flush_every < 1:
            raise ConfigurationError("flush_every must be at least 1")
        self.warehouse = warehouse
        self.flush_every = int(flush_every)
        self.progress = progress
        self.record_hook = record_hook
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.records_written = 0
        self.written_by_repo: Dict[str, int] = {}
        self.max_pending = 0
        self.flushes = 0
        self.objects_done = 0
        self.cache_stats: Dict[str, int] = {}
        self._pending = 0
        self._shard_id: Optional[int] = None
        self._shard_count = 0
        self._start = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Context for progress events
    # ------------------------------------------------------------------ #
    def set_context(
        self, shard_id: Optional[int], shard_count: int, objects_done: int
    ) -> None:
        """Attach shard context to subsequent progress events."""
        self._shard_id = shard_id
        self._shard_count = shard_count
        self.objects_done = objects_done

    @property
    def pending_records(self) -> int:
        """Records currently buffered, awaiting a flush."""
        return self._pending

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._start

    def emit(self, phase: str) -> None:
        """Emit a progress event for the current context."""
        if self.progress is None:
            return
        self.progress(
            GenerationProgress(
                phase=phase,
                shard_id=self._shard_id,
                shard_count=self._shard_count,
                objects_done=self.objects_done,
                records_written=self.records_written,
                pending_records=self._pending,
                elapsed_seconds=self.elapsed_seconds,
                cache_stats=dict(self.cache_stats),
            )
        )

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def write(self, repo_name: str, rows: Iterable) -> int:
        """Stream *rows* into the repository called *repo_name*.

        Rows are buffered and bulk-inserted every ``flush_every`` records;
        within the stream the incoming order is preserved, so a per-object
        ordering invariant (e.g. strictly increasing ``t``) survives every
        flush boundary.
        """
        repo = getattr(self.warehouse, repo_name)
        rows = iter(rows)
        written = 0
        while True:
            buffer = self._take(rows)
            if not buffer:
                return written
            written += self._flush(repo_name, repo, buffer)

    def write_positioning(self, rows: Mapping[str, Iterable]) -> int:
        """Stream a shard's positioning rows, already routed to their datasets.

        *rows* maps dataset names to rows; the datasets of
        :data:`POSITIONING_DATASETS` are written, in that order.  Their three
        buffers share the writer's single pending budget: as soon as
        ``flush_every`` records are pending *in total*, every non-empty
        buffer is flushed, keeping the O(flush buffer) bound.
        """
        buffers: Dict[str, list] = {name: [] for name in POSITIONING_DATASETS}
        written = 0
        for name in POSITIONING_DATASETS:
            stream = iter(rows.get(name, ()))
            while True:
                taken = self._take(stream)
                if not taken:
                    break
                buffers[name].extend(taken)
                if self._pending >= self.flush_every:
                    written += self._flush_buffers(buffers)
        written += self._flush_buffers(buffers)
        return written

    def _take(self, rows: Iterator) -> list:
        """The next rows of *rows*, up to what the pending budget has room for."""
        taken = list(itertools.islice(rows, max(1, self.flush_every - self._pending)))
        self._note_pending(len(taken))
        return taken

    def _note_pending(self, count: int) -> None:
        self._pending += count
        if self._pending > self.max_pending:
            self.max_pending = self._pending

    def _flush(self, repo_name: str, repo, buffer: list) -> int:
        count = len(buffer)
        if count == 0:
            return 0
        flush_start = time.perf_counter()
        with self.telemetry.tracer.span("flush", repo=repo_name, records=count):
            repo.add_many(buffer)
            self.warehouse.flush()
        if self.record_hook is not None:
            self.record_hook(repo_name, buffer)
        buffer.clear()
        self._pending -= count
        self.records_written += count
        self.written_by_repo[repo_name] = self.written_by_repo.get(repo_name, 0) + count
        self.flushes += 1
        metrics = self.telemetry.metrics
        metrics.counter("storage.flushes").inc()
        metrics.counter(f"storage.records_written.{repo_name}").inc(count)
        metrics.histogram("storage.flush_seconds").observe(time.perf_counter() - flush_start)
        self.emit("flush")
        return count

    def _flush_buffers(self, buffers: Dict[str, list]) -> int:
        written = 0
        for name, buffer in buffers.items():
            written += self._flush(name, getattr(self.warehouse, name), buffer)
        return written


# --------------------------------------------------------------------------- #
# Layer set-up: configuration -> layer objects, in one place
# --------------------------------------------------------------------------- #
def object_controller(
    building: Building,
    objects: ObjectConfig,
    spatial: SpatialService,
    **shard_options,
) -> MovingObjectController:
    """The Moving Object Layer controller an :class:`ObjectConfig` describes.

    Resolves the configured strategy names (initial distribution, Poisson
    arrivals, intention, behavior, crowd interaction) for the shard chain and
    the step-wise facade alike.  *shard_options* (``first_object_index``,
    ``arrival_id_prefix``, ``engine_seed``) place a shard's objects in the
    run's global id space.
    """
    if objects.arrival_rate_per_minute > 0:
        arrival_process = PoissonArrivals(rate_per_minute=objects.arrival_rate_per_minute)
    else:
        arrival_process = NoArrivals()
    return MovingObjectController(
        building,
        config=ObjectGenerationConfig(
            count=objects.count,
            min_speed=objects.min_speed,
            max_speed=objects.max_speed,
            min_lifespan=objects.min_lifespan,
            max_lifespan=objects.max_lifespan,
            duration=objects.duration,
            sampling_period=objects.sampling_period,
            time_step=objects.time_step,
            routing_metric=objects.routing,
            seed=objects.seed,
        ),
        distribution=distribution_by_name(
            objects.distribution,
            crowd_count=objects.crowd_count,
            crowd_fraction=objects.crowd_fraction,
            hot_partition_tags=HOT_PARTITION_TAGS,
        ),
        arrival_process=arrival_process,
        intention=intention_by_name(objects.intention),
        behavior=behavior_by_name(objects.behavior),
        crowd_model=crowd_model_by_name(objects.crowd_interaction),
        spatial=spatial,
        **shard_options,
    )


def build_rssi_config(rssi: RSSIConfig, seed: Optional[int]) -> RSSIGenerationConfig:
    """Translate an :class:`RSSIConfig` into an :class:`RSSIGenerationConfig`."""
    path_loss = None
    if rssi.path_loss_exponent is not None or rssi.calibration_rssi is not None:
        path_loss = PathLossModel(
            exponent=rssi.path_loss_exponent or 2.5,
            calibration_rssi=rssi.calibration_rssi if rssi.calibration_rssi is not None else -40.0,
        )
    return RSSIGenerationConfig(
        sampling_period=rssi.sampling_period,
        path_loss=path_loss,
        obstacle_noise=ObstacleNoiseModel(wall_attenuation_db=rssi.wall_attenuation_db),
        fluctuation_noise=FluctuationNoiseModel(sigma_db=rssi.fluctuation_sigma_db),
        detection_probability=rssi.detection_probability,
        seed=seed,
    )


def survey_radio_map(
    building: Building,
    devices: Sequence[PositioningDevice],
    rssi_config: RSSIGenerationConfig,
    spacing: float,
    samples_per_location: int,
    spatial: Optional[SpatialService] = None,
) -> RadioMap:
    """Survey the fingerprinting radio map on a grid of reference locations.

    The radio map is infrastructure: it is surveyed once, with the RSSI
    noise stream of *rssi_config*, and shared by every positioning call.
    """
    generator = RSSIGenerator(building, devices, rssi_config, spatial=spatial)
    return RadioMap.survey_grid(
        building, generator, spacing=spacing, samples_per_location=samples_per_location
    )


# --------------------------------------------------------------------------- #
# The per-shard generation chain
# --------------------------------------------------------------------------- #
@dataclass
class ShardContext:
    """Everything a shard run needs; picklable, shipped once per worker.

    The infrastructure (building, devices, radio map, spatial service) is
    built once by the parent and shared by every shard, so parallel workers
    position against exactly the same environment as a serial run.  The
    spatial service's caches — like ``Floor``'s lambda caches — are dropped
    on pickle and rebuilt lazily inside each worker; caching never changes
    results, so per-worker caches keep the output identical to serial.
    """

    config: VitaConfig
    building: Building
    devices: List[PositioningDevice]
    radio_map: Optional[RadioMap] = None
    master_seed: int = 0
    spatial: Optional[SpatialService] = None

    def spatial_service(self) -> SpatialService:
        """The shared spatial service (created on first use when unset)."""
        if self.spatial is None:
            self.spatial = SpatialService(self.building, config=self.config.spatial)
        return self.spatial


@dataclass
class ShardOutput:
    """The rows one shard produced, ready for ordered merging."""

    shard_id: int
    objects: int
    #: Dataset name -> the shard's stored rows, each a tuple in the
    #: dataset's ``DatasetSpec.columns`` order, in generation order.  Only
    #: datasets the shard produced rows for appear.
    rows: Dict[str, List[Tuple]]
    timings: Dict[str, float] = field(default_factory=dict)
    #: Spatial-cache hit/miss counters attributable to this shard (a delta,
    #: so serial and parallel runs aggregate identically).
    spatial_stats: Dict[str, int] = field(default_factory=dict)
    #: Shard-local metrics snapshot (``MetricsRegistry.snapshot``) — also a
    #: delta, merged by the parent in shard order like ``spatial_stats``.
    metrics: Dict[str, Dict] = field(default_factory=dict)
    #: Shard-local trace spans (``Tracer.export``), adopted by the parent.
    spans: List[Dict] = field(default_factory=list)

    @property
    def total_records(self) -> int:
        return sum(map(len, self.rows.values()))


def _add_rows(rows: Dict[str, List[Tuple]], records: Sequence) -> int:
    """Append each typed record's row to its dataset's list; returns the count."""
    for record in records:
        dataset, row = record_row(record)
        rows[dataset].append(row)
    return len(records)


def run_shard(
    context: ShardContext,
    shard: ShardSpec,
    on_sample: Optional[Callable[[TrajectoryRecord], None]] = None,
) -> ShardOutput:
    """Run the full object -> trajectory -> RSSI -> positioning chain for one shard.

    Every random stream is seeded as ``derive_seed(master_seed, shard_id,
    role)``, so the output depends only on the shard spec and the shared
    context — not on which process or in which order the shard runs.  The
    output holds each record's stored row, routed to its dataset here.
    """
    config = context.config
    objects = config.objects
    timings: Dict[str, float] = {}
    spatial = context.spatial_service()
    stats_before = spatial.cache_stats()
    # Each shard carries its own registry/tracer (the telemetry section rides
    # in ``context.config``, so this works identically inside pool workers);
    # the ``s<shard>:`` id prefix keeps span ids collision-free when the
    # parent adopts them.
    telemetry = Telemetry.from_config(
        config.telemetry, id_prefix=f"s{shard.shard_id}:"
    )
    with telemetry.tracer.span(
        "shard", shard_id=shard.shard_id, objects=shard.object_count
    ):
        shard_objects = replace(
            objects,
            count=shard.object_count,
            seed=derive_seed(context.master_seed, shard.shard_id, "objects"),
            # Poisson arrivals are split evenly across shards so the
            # configured total arrival rate is preserved in expectation.
            arrival_rate_per_minute=objects.arrival_rate_per_minute / shard.shard_count,
        )
        controller = object_controller(
            context.building,
            shard_objects,
            spatial,
            first_object_index=shard.first_index,
            arrival_id_prefix=f"obj_s{shard.shard_id}a",
            engine_seed=derive_seed(context.master_seed, shard.shard_id, "engine"),
        )
        start = time.perf_counter()
        with telemetry.tracer.span("phase.moving_objects"):
            simulation = controller.generate(record_sink=on_sample)
        timings["moving_objects"] = time.perf_counter() - start

        start = time.perf_counter()
        rssi_config = build_rssi_config(
            config.rssi, seed=derive_seed(context.master_seed, shard.shard_id, "rssi")
        )
        with telemetry.tracer.span("phase.rssi"):
            rssi_records = RSSIGenerator(
                context.building, context.devices, rssi_config, spatial=spatial
            ).generate(simulation.trajectories)
        timings["rssi"] = time.perf_counter() - start

        # Each record becomes its stored row here, once, as soon as no later
        # layer reads it, and each typed list is released as soon as its rows
        # exist (positioning reads only the RSSI records): only rows leave
        # the shard.
        object_count = simulation.object_count
        rows: Dict[str, List[Tuple]] = defaultdict(list)
        trajectory_count = _add_rows(rows, simulation.trajectories.all_records())
        del simulation, controller  # the controller keeps its last result

        start = time.perf_counter()
        positioning = config.positioning
        positioning_controller = PositioningMethodController(
            context.building,
            context.devices,
            PositioningConfig(
                method=positioning.method,
                sampling_period=positioning.sampling_period,
                fingerprinting_algorithm=positioning.algorithm,
                knn_k=positioning.knn_k,
                bayes_top_k=positioning.bayes_top_k,
                min_devices=positioning.min_devices,
                rssi_threshold=positioning.rssi_threshold,
            ),
            radio_map=context.radio_map,
            spatial=spatial,
        )
        with telemetry.tracer.span("phase.positioning"):
            positioning_records = positioning_controller.generate(rssi_records)
        timings["positioning"] = time.perf_counter() - start

        rssi_count = _add_rows(rows, rssi_records)
        del rssi_records
        positioning_count = _add_rows(rows, positioning_records)
        del positioning_records
        metrics = telemetry.metrics
        # Counters depend only on what was generated — the determinism
        # guarantee that makes workers=N merge to exactly the serial values.
        metrics.counter("generated.objects").inc(object_count)
        metrics.counter("generated.records.trajectory").inc(trajectory_count)
        metrics.counter("generated.records.rssi").inc(rssi_count)
        metrics.counter("generated.records.positioning").inc(positioning_count)
        metrics.counter("generated.shards").inc()
        for phase, seconds in timings.items():
            metrics.histogram(f"shard.phase_seconds.{phase}").observe(seconds)

    return ShardOutput(
        shard_id=shard.shard_id,
        objects=object_count,
        rows=dict(rows),
        timings=timings,
        spatial_stats=diff_stats(spatial.cache_stats(), stats_before),
        metrics=metrics.snapshot(),
        spans=telemetry.tracer.export(),
    )


# --------------------------------------------------------------------------- #
# Parallel shard execution
# --------------------------------------------------------------------------- #
#: Per-worker-process shard context, installed by the pool initializer so the
#: (potentially large) building/device payload is shipped once per worker
#: instead of once per shard.
_WORKER_CONTEXT: Optional[ShardContext] = None


def _init_worker(context: ShardContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_shard_in_worker(shard: ShardSpec) -> ShardOutput:
    if _WORKER_CONTEXT is None:  # pragma: no cover - defensive
        raise RuntimeError("shard worker used before its context was installed")
    return run_shard(_WORKER_CONTEXT, shard)


def iter_shard_outputs(
    context: ShardContext,
    plan: Sequence[ShardSpec],
    workers: int,
    on_sample: Optional[Callable[[TrajectoryRecord], None]] = None,
    on_shard_start: Optional[Callable[[ShardSpec], None]] = None,
) -> Iterator[ShardOutput]:
    """Yield shard outputs *in shard order*, serially or via a process pool.

    Order is what makes the merged, bulk-inserted output independent of
    ``workers``.  In parallel mode at most ``workers + 1`` shard outputs are
    in flight at any moment, keeping peak memory O(shard * workers); the
    ``on_sample``/``on_shard_start`` hooks only fire in serial mode (they
    cannot cross process boundaries).
    """
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    if workers == 1 or len(plan) <= 1:
        for shard in plan:
            if on_shard_start is not None:
                on_shard_start(shard)
            yield run_shard(context, shard, on_sample=on_sample)
        return
    with ProcessPoolExecutor(
        max_workers=min(workers, len(plan)),
        initializer=_init_worker,
        initargs=(context,),
    ) as pool:
        shard_iter = iter(plan)
        in_flight: deque = deque()
        for shard in itertools.islice(shard_iter, workers + 1):
            in_flight.append(pool.submit(_run_shard_in_worker, shard))
        while in_flight:
            output = in_flight.popleft().result()
            upcoming = next(shard_iter, None)
            if upcoming is not None:
                in_flight.append(pool.submit(_run_shard_in_worker, upcoming))
            yield output


__all__ = [
    "DEFAULT_MAX_SHARDS",
    "DEFAULT_OBJECTS_PER_SHARD",
    "SEED_BITS",
    "derive_seed",
    "auto_shard_count",
    "resolve_master_seed",
    "ShardSpec",
    "plan_shards",
    "GenerationProgress",
    "ProgressCallback",
    "StreamingWriter",
    "POSITIONING_DATASETS",
    "object_controller",
    "build_rssi_config",
    "survey_radio_map",
    "ShardContext",
    "ShardOutput",
    "run_shard",
    "iter_shard_outputs",
]
