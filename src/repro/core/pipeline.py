"""Declarative generation runs: one configuration, one streamed warehouse.

Given a :class:`~repro.core.config.VitaConfig`,
:meth:`VitaPipeline.run_streaming` runs the layer chain of Figure 1 of the
paper:

1. **Infrastructure Layer** — obtain the host indoor environment (synthetic
   building or IFC file), optionally decompose irregular partitions and run
   semantic extraction, deploy the configured positioning devices and, for
   fingerprinting, survey the radio map;
2. **Moving Object Layer** — generate moving objects and their raw trajectory
   data at the trajectory sampling frequency;
3. **Positioning Layer** — generate raw RSSI measurements at the RSSI sampling
   frequency and derive positioning data with the chosen method.

Layers 2 and 3 run shard by shard (:mod:`repro.core.streaming`); each shard
turns its records into stored rows once, and the rows stream into a
:class:`~repro.storage.repositories.DataWarehouse` in bounded batches (and
into any attached monitors), so that the Data Stream APIs can query them
afterwards.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.building.editor import IndoorEnvironmentController
from repro.building.model import Building
from repro.building.semantics import SemanticExtractor
from repro.building.synthetic import building_by_name
from repro.core.config import VitaConfig
from repro.core.errors import ConfigurationError
from repro.core.streaming import (
    ProgressCallback,
    ShardContext,
    StreamingWriter,
    auto_shard_count,
    build_rssi_config,
    derive_seed,
    iter_shard_outputs,
    plan_shards,
    resolve_master_seed,
    survey_radio_map,
)
from repro.core.types import PositioningMethod
from repro.devices.controller import DeviceDeploymentRequest, PositioningDeviceController
from repro.devices.deployment import deployment_model_by_name
from repro.geometry.decompose import DecompositionConfig
from repro.ifc.extractor import DBIProcessor, DBIProcessorOptions
from repro.obs import Telemetry
from repro.positioning.fingerprinting import RadioMap
from repro.spatial import SpatialService, merge_stats
from repro.storage.repositories import DataWarehouse


@dataclass
class StreamingReport:
    """What a streaming run did: determinism inputs, volumes and throughput.

    ``timings`` mixes two units: ``infrastructure`` and ``generation`` are
    wall-clock seconds of the run, while the per-layer ``*_cpu`` entries are
    summed across shards (with ``workers > 1`` they exceed wall-clock).
    """

    master_seed: int
    shard_count: int
    workers: int
    flush_every: int
    objects: int
    records_written: Dict[str, int]
    total_records: int
    max_pending: int
    flushes: int
    timings: Dict[str, float]
    elapsed_seconds: float
    #: Aggregated spatial-cache hit/miss counters across the parent (radio
    #: map survey) and every shard.  With ``workers > 1`` each worker keeps
    #: its own caches, so hit rates drop while output stays identical.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-monitor counters (windows emitted, alerts, records matched and
    #: dropped alerts) when standing monitors were attached to the run.
    monitors: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: The run's :meth:`~repro.obs.Telemetry.snapshot`: merged shard metrics,
    #: writer/live-engine instruments and the span-count summary.
    telemetry: Dict[str, Any] = field(default_factory=lambda: {"enabled": False})

    @property
    def records_per_second(self) -> float:
        """Overall write throughput of the run (records/sec of wall-clock)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_records / self.elapsed_seconds


@dataclass
class StreamingGenerationResult:
    """Everything a pipeline run produced.

    There is no in-memory simulation or positioning output: every record
    already lives in the warehouse.
    """

    config: VitaConfig
    building: Building
    warehouse: DataWarehouse
    report: StreamingReport
    radio_map: Optional[RadioMap] = None
    devices: List = field(default_factory=list)
    #: The finalized :class:`~repro.live.LiveReport` when standing monitors
    #: were attached to the run (``None`` otherwise).
    live: Optional[Any] = None


class VitaPipeline:
    """Runs the three-layer pipeline for one configuration."""

    def __init__(self, config: Optional[VitaConfig] = None) -> None:
        self.config = config or VitaConfig()

    # ------------------------------------------------------------------ #
    # Layer 1: Infrastructure
    # ------------------------------------------------------------------ #
    def build_environment(self) -> Building:
        """Load/construct the host indoor environment."""
        environment = self.config.environment
        if environment.ifc_path:
            options = DBIProcessorOptions(
                decompose_partitions=environment.decompose,
                decomposition=DecompositionConfig(
                    max_area=environment.max_partition_area,
                    max_aspect_ratio=environment.max_aspect_ratio,
                ),
                extract_semantics=environment.extract_semantics,
            )
            building, _ = DBIProcessor(options).process_file(environment.ifc_path)
            return building
        building = building_by_name(environment.building, floors=environment.floors)
        if environment.decompose:
            controller = IndoorEnvironmentController(building)
            controller.decompose_irregular_partitions(
                DecompositionConfig(
                    max_area=environment.max_partition_area,
                    max_aspect_ratio=environment.max_aspect_ratio,
                )
            )
        if environment.extract_semantics:
            SemanticExtractor().annotate_building(building)
        return building

    def deploy_devices(self, building: Building) -> PositioningDeviceController:
        """Deploy every configured device group."""
        controller = PositioningDeviceController(building, seed=self.config.seed)
        for device_config in self.config.devices:
            model = deployment_model_by_name(device_config.deployment)
            controller.deploy(
                DeviceDeploymentRequest(
                    device_type=device_config.device_type,
                    count_per_floor=device_config.count_per_floor,
                    model=model,
                    floor_ids=device_config.floors,
                    overrides=device_config.overrides(),
                )
            )
        return controller

    def build_spatial(self, building: Building) -> SpatialService:
        """The run-wide cached spatial service (configured by ``config.spatial``)."""
        return SpatialService(building, config=self.config.spatial)

    # ------------------------------------------------------------------ #
    # Layers 2 and 3, shard by shard
    # ------------------------------------------------------------------ #
    def run_streaming(
        self,
        *,
        warehouse: Optional[DataWarehouse] = None,
        progress: Optional[ProgressCallback] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        flush_every: Optional[int] = None,
        monitors: Optional[Sequence[Any]] = None,
        on_alert: Optional[Callable[[Any], None]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> StreamingGenerationResult:
        """Execute all three layers shard by shard, streaming into storage.

        The moving objects are partitioned into deterministic shards; each
        shard runs the full object -> trajectory -> RSSI -> positioning chain
        independently (optionally across ``workers`` processes) and its
        records are flushed to the backend in batches of ``flush_every``, so
        peak memory is O(shard), not O(dataset).  For a fixed
        ``(master seed, shard count)`` the stored output is record-identical
        regardless of ``workers``.

        Args:
            warehouse: stream into this warehouse instead of opening one from
                ``config.storage`` (it is cleared first: a run owns its
                warehouse).
            progress: :class:`~repro.core.streaming.GenerationProgress`
                callback for objects/records-per-second reporting.
            workers / shards / flush_every: override the corresponding
                configuration knobs for this run only.
            monitors: standing :class:`~repro.live.Monitor` subscriptions
                evaluated incrementally as the records stream through the
                writer, *in addition to* the configuration's ``monitors:``
                section.  The finalized :class:`~repro.live.LiveReport` is
                returned as the result's ``live`` attribute; emission is
                identical for every ``workers`` value (per-shard partial
                window states merge in shard order).
            on_alert: geofence alert callback; alerts drain at every shard
                merge (without it they queue, bounded by ``flush_every``).
            telemetry: a pre-built :class:`~repro.obs.Telemetry` to record
                into (defaults to one built from ``config.telemetry``; the
                default section is disabled, a true no-op).
        """
        config = self.config
        workers = config.workers if workers is None else int(workers)
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        shard_count = config.shards if shards is None else int(shards)
        if shard_count is None:
            shard_count = auto_shard_count(config.objects.count)
        if shard_count < 1:
            raise ConfigurationError("shards must be at least 1")
        flush_every = config.storage.flush_every if flush_every is None else int(flush_every)
        if flush_every < 1:
            raise ConfigurationError("flush_every must be at least 1")

        if telemetry is None:
            # "p:" prefixes the parent's span ids; shard tracers use
            # "s<shard>:", so adopted worker spans can never collide.
            telemetry = Telemetry.from_config(config.telemetry, id_prefix="p:")
        tracer = telemetry.tracer
        with tracer.span(
            "pipeline.run_streaming", workers=workers, shards=shard_count
        ) as root_span:
            timings: Dict[str, float] = {}
            cache_stats: Dict[str, int] = {}
            run_start = time.perf_counter()
            with tracer.span("infrastructure"):
                building = self.build_environment()
                device_controller = self.deploy_devices(building)
                devices = list(device_controller.devices.values())
                spatial = self.build_spatial(building)
                master_seed = resolve_master_seed(config)
                radio_map = None
                if config.positioning.method is PositioningMethod.FINGERPRINTING:
                    # Surveyed once by the parent with a seed derived from the
                    # master, never per shard.
                    radio_map = survey_radio_map(
                        building,
                        devices,
                        build_rssi_config(
                            config.rssi, seed=derive_seed(master_seed, -1, "survey")
                        ),
                        config.positioning.radio_map_spacing,
                        config.positioning.radio_map_samples,
                        spatial=spatial,
                    )
                    merge_stats(cache_stats, spatial.cache_stats())
            timings["infrastructure"] = time.perf_counter() - run_start

            # Standing monitors: the config's monitors: section plus any passed
            # explicitly, evaluated through the writer's flush-batch tap.
            engine = None
            all_monitors = [monitor_config.build() for monitor_config in config.monitors]
            all_monitors.extend(monitors or ())
            if all_monitors:
                from repro.live.engine import LiveEngine  # local: optional subsystem

                engine = LiveEngine(
                    all_monitors,
                    spatial=spatial,
                    on_alert=on_alert,
                    max_pending_alerts=max(flush_every, 1),
                    metrics=telemetry.metrics,
                    tracer=telemetry.tracer,
                )

            if warehouse is None:
                warehouse = DataWarehouse.from_config(config.storage)
            warehouse.attach_metrics(telemetry.metrics)
            # A run owns its warehouse: reusing an existing database replaces
            # its contents, so the summary always describes this run.
            warehouse.clear()
            plan = plan_shards(config.objects.count, shard_count, master_seed)
            writer = StreamingWriter(
                warehouse,
                flush_every,
                progress,
                record_hook=engine.writer_hook() if engine is not None else None,
                telemetry=telemetry,
            )
            writer.set_context(None, len(plan), 0)
            writer.write("devices", device_controller.device_records())
            writer.emit("devices")

            context = ShardContext(
                config=config,
                building=building,
                devices=devices,
                radio_map=radio_map,
                master_seed=master_seed,
                spatial=spatial,
            )
            objects_done = 0
            sample_ticks = itertools.count(1)

            def on_shard_start(shard) -> None:
                writer.set_context(shard.shard_id, len(plan), objects_done)
                writer.emit("shard-start")

            def on_sample(_record) -> None:
                # Serial-mode heartbeat: report rates while a long shard simulates.
                if next(sample_ticks) % 2000 == 0:
                    writer.emit("objects")

            shards_start = time.perf_counter()
            for output in iter_shard_outputs(
                context,
                plan,
                workers,
                on_sample=on_sample if progress is not None else None,
                on_shard_start=on_shard_start,
            ):
                writer.set_context(output.shard_id, len(plan), objects_done)
                if engine is not None:
                    # Each shard's records accumulate into a per-shard partial
                    # window state, merged (and alert-drained) in shard order —
                    # the outputs arrive shard-ordered for any workers value, so
                    # monitor emission is identical to a serial run.
                    engine.begin_shard(output.shard_id)
                writer.write("trajectories", output.rows.get("trajectory", ()))
                writer.write("rssi", output.rows.get("rssi", ()))
                writer.write_positioning(output.rows)
                if engine is not None:
                    engine.end_shard()
                objects_done += output.objects
                # Per-layer shard timings are summed across shards: CPU seconds,
                # not wall-clock (with workers > 1 they exceed elapsed time).
                # The "_cpu" suffix keeps them distinct from the wall-clock
                # "infrastructure"/"generation" entries.
                for name, value in output.timings.items():
                    key = f"{name}_cpu"
                    timings[key] = timings.get(key, 0.0) + value
                # Shard telemetry merges exactly like spatial_stats: per-shard
                # deltas folded in shard order, so the merged counters are
                # identical for every workers value.
                telemetry.metrics.merge(output.metrics)
                tracer.adopt(output.spans, parent=root_span)
                merge_stats(cache_stats, output.spatial_stats)
                writer.cache_stats = dict(cache_stats)
                writer.set_context(output.shard_id, len(plan), objects_done)
                writer.emit("shard-done")
            timings["generation"] = time.perf_counter() - shards_start

            warehouse.flush()
            with tracer.span("finalize"):
                live_report = engine.finalize() if engine is not None else None
            elapsed = time.perf_counter() - run_start
            writer.set_context(None, len(plan), objects_done)
            writer.emit("done")
            if telemetry.enabled:
                metrics = telemetry.metrics
                metrics.gauge("pipeline.elapsed_seconds").set(elapsed)
                metrics.gauge("pipeline.records_per_second").set(
                    writer.records_written / elapsed if elapsed > 0 else 0.0
                )
                for name, value in sorted(cache_stats.items()):
                    metrics.gauge(f"spatial.cache.{name}").set(value)
        if getattr(config.telemetry, "metrics_json", None):
            telemetry.write_metrics_json(config.telemetry.metrics_json)
        if getattr(config.telemetry, "trace_json", None):
            telemetry.write_trace_json(config.telemetry.trace_json)
        report = StreamingReport(
            master_seed=master_seed,
            shard_count=len(plan),
            workers=workers,
            flush_every=flush_every,
            objects=objects_done,
            records_written=dict(writer.written_by_repo),
            total_records=writer.records_written,
            max_pending=writer.max_pending,
            flushes=writer.flushes,
            timings=timings,
            elapsed_seconds=elapsed,
            cache_stats=cache_stats,
            monitors=live_report.summary() if live_report is not None else {},
            telemetry=telemetry.snapshot(),
        )
        return StreamingGenerationResult(
            config=config,
            building=building,
            warehouse=warehouse,
            report=report,
            radio_map=radio_map,
            devices=devices,
            live=live_report,
        )


__all__ = [
    "StreamingReport",
    "StreamingGenerationResult",
    "VitaPipeline",
]
