"""The ``Vita`` facade: the step-by-step API of the demonstration path.

Section 5 summarises the system operations as a common six-step path:

1. import a DBI file;
2. view and modify the host indoor environment;
3. configure and generate indoor positioning devices;
4. configure and generate indoor moving objects;
5. configure and generate raw RSSI measurements;
6. choose and configure a positioning method and generate positioning data.

:class:`Vita` exposes exactly those steps as methods, keeping the intermediate
state (building, devices, trajectories, RSSI data) so that each step can be
re-run with different parameters — just like the GUI tabs of the prototype.
The steps set up their layers with the same functions as the one-shot run
(:mod:`repro.core.streaming`).  For one-shot declarative runs, pass a
:class:`~repro.core.config.VitaConfig` to :meth:`Vita.generate` or to
:meth:`~repro.core.pipeline.VitaPipeline.run_streaming` instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.building.editor import IndoorEnvironmentController
from repro.building.model import Building
from repro.building.semantics import SemanticExtractor
from repro.building.synthetic import building_by_name
from repro.core.config import ObjectConfig, RSSIConfig, VitaConfig
from repro.core.errors import VitaError
from repro.core.streaming import (
    POSITIONING_DATASETS,
    ProgressCallback,
    build_rssi_config,
    object_controller,
    survey_radio_map,
)
from repro.core.types import DeviceType, PositioningMethod, RSSIRecord
from repro.devices.base import PositioningDevice
from repro.devices.controller import DeviceDeploymentRequest, PositioningDeviceController
from repro.devices.deployment import deployment_model_by_name
from repro.ifc.extractor import DBIProcessor, DBIProcessorOptions, ExtractionReport
from repro.mobility.engine import SimulationResult
from repro.positioning.controller import PositioningConfig, PositioningMethodController
from repro.positioning.fingerprinting import RadioMap
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator
from repro.spatial import SpatialService
from repro.storage.backends import StorageBackend, backend_by_name
from repro.storage.export import export_warehouse
from repro.storage.query import Query
from repro.storage.repositories import DataWarehouse, record_row
from repro.storage.stream import DataStreamAPI


class Vita:
    """The toolkit facade following the six-step demonstration path."""

    def __init__(
        self,
        seed: Optional[int] = None,
        backend: Union[StorageBackend, str, None] = None,
        db_path: Union[str, Path, None] = None,
    ) -> None:
        """*backend* selects the storage engine ("memory" by default); pass
        ``backend="sqlite", db_path="run.sqlite"`` to persist every generated
        dataset to disk.  Like a pipeline run, a ``Vita`` session owns its
        database: an existing file at *db_path* is cleared.  To query an
        existing database without regenerating, use
        :meth:`repro.storage.DataWarehouse.open` instead."""
        self.seed = seed
        self.building: Optional[Building] = None
        self.extraction_report: Optional[ExtractionReport] = None
        self.environment_controller: Optional[IndoorEnvironmentController] = None
        self.device_controller: Optional[PositioningDeviceController] = None
        self._spatial: Optional[SpatialService] = None
        self.simulation: Optional[SimulationResult] = None
        self.rssi_records: List[RSSIRecord] = []
        self.radio_map: Optional[RadioMap] = None
        self.positioning_output: list = []
        self._rssi_config: Optional[RSSIGenerationConfig] = None
        self._stream_api: Optional[DataStreamAPI] = None
        self._monitors: list = []
        #: The finalized live report of the most recent monitored run.
        self.live_report = None
        #: Telemetry snapshot of the most recent :meth:`generate` run
        #: (``{"enabled": False}`` until a run with ``telemetry.enabled``).
        self.telemetry: Dict = {"enabled": False}
        if backend is None and db_path is not None:
            backend = "sqlite"
        if isinstance(backend, str):
            backend = backend_by_name(backend, path=db_path)
        self.warehouse = DataWarehouse(backend)
        if self.warehouse.backend.persistent:
            self.warehouse.clear()

    # ------------------------------------------------------------------ #
    # Step 1 — import a DBI file (or use a synthetic building)
    # ------------------------------------------------------------------ #
    def import_dbi(self, path: Union[str, Path], decompose: bool = False) -> Building:
        """Import an IFC (DBI) file and construct the host indoor environment."""
        options = DBIProcessorOptions(decompose_partitions=decompose)
        building, report = DBIProcessor(options).process_file(str(path))
        self.extraction_report = report
        return self._adopt_building(building)

    def use_synthetic_building(self, name: str = "office", floors: int = 2) -> Building:
        """Use one of the built-in synthetic buildings (office, mall, clinic)."""
        building = building_by_name(name, floors=floors)
        SemanticExtractor().annotate_building(building)
        return self._adopt_building(building)

    def use_building(self, building: Building) -> Building:
        """Use an externally constructed building model."""
        return self._adopt_building(building)

    def _adopt_building(self, building: Building) -> Building:
        self.building = building
        self.environment_controller = IndoorEnvironmentController(building)
        self.device_controller = PositioningDeviceController(building, seed=self.seed)
        self._spatial = SpatialService(building)
        return building

    @property
    def spatial(self) -> SpatialService:
        """The session's cached spatial service (one per adopted building).

        Shared by steps 4–6 so routes, sight lines and point locations are
        computed once; environment edits are detected through the building's
        mutation counter and invalidate the caches automatically.
        """
        self._require_building()
        return self._spatial

    # ------------------------------------------------------------------ #
    # Step 2 — view and modify the host indoor environment
    # ------------------------------------------------------------------ #
    @property
    def environment(self) -> IndoorEnvironmentController:
        """The Indoor Environment Controller (decompose, obstacles, door direction)."""
        self._require_building()
        return self.environment_controller

    # ------------------------------------------------------------------ #
    # Step 3 — configure and generate indoor positioning devices
    # ------------------------------------------------------------------ #
    def deploy_devices(
        self,
        device_type: Union[DeviceType, str] = DeviceType.WIFI,
        count_per_floor: int = 6,
        deployment: str = "coverage",
        floors: Optional[Sequence[int]] = None,
        **overrides,
    ) -> List[PositioningDevice]:
        """Deploy positioning devices with a deployment model."""
        self._require_building()
        if isinstance(device_type, str):
            device_type = DeviceType(device_type.lower())
        devices = self.device_controller.deploy(
            DeviceDeploymentRequest(
                device_type=device_type,
                count_per_floor=count_per_floor,
                model=deployment_model_by_name(deployment),
                floor_ids=floors,
                overrides=overrides,
            )
        )
        self.warehouse.devices.add_many(device.as_record() for device in devices)
        self.warehouse.flush()
        return devices

    @property
    def devices(self) -> List[PositioningDevice]:
        """Every deployed positioning device."""
        if self.device_controller is None:
            return []
        return list(self.device_controller.devices.values())

    # ------------------------------------------------------------------ #
    # Step 4 — configure and generate indoor moving objects
    # ------------------------------------------------------------------ #
    def generate_objects(
        self,
        count: int = 50,
        duration: float = 600.0,
        sampling_period: float = 1.0,
        max_speed: float = 1.8,
        min_lifespan: float = 300.0,
        max_lifespan: float = 900.0,
        distribution: str = "uniform",
        intention: str = "destination",
        behavior: str = "walk-stay",
        routing: str = "length",
        arrival_rate_per_minute: float = 0.0,
        crowd_interaction: str = "none",
        time_step: float = 0.25,
        snapshot_times: Optional[List[float]] = None,
    ) -> SimulationResult:
        """Generate moving objects and their raw ("ground truth") trajectories."""
        self._require_building()
        objects = ObjectConfig(
            count=count,
            duration=duration,
            sampling_period=sampling_period,
            max_speed=max_speed,
            min_lifespan=min_lifespan,
            max_lifespan=max_lifespan,
            distribution=distribution,
            intention=intention,
            behavior=behavior,
            routing=routing,
            arrival_rate_per_minute=arrival_rate_per_minute,
            crowd_interaction=crowd_interaction,
            time_step=time_step,
            seed=self.seed,
        )
        controller = object_controller(self.building, objects, self.spatial)
        self.simulation = controller.generate(snapshot_times=snapshot_times)
        # Re-running a step replaces its output (the GUI-tab semantics);
        # appending would violate the warehouse's (object_id, t) uniqueness.
        self.warehouse.backend.clear("trajectory")
        self.warehouse.trajectories.add_trajectory_set(self.simulation.trajectories)
        self.warehouse.flush()
        return self.simulation

    # ------------------------------------------------------------------ #
    # Step 5 — configure and generate raw RSSI measurements
    # ------------------------------------------------------------------ #
    def generate_rssi(
        self,
        sampling_period: float = 2.0,
        fluctuation_sigma_db: float = 2.0,
        wall_attenuation_db: float = 3.5,
        detection_probability: float = 0.95,
    ) -> List[RSSIRecord]:
        """Generate raw RSSI measurement data from the trajectories and devices."""
        self._require_building()
        if self.simulation is None:
            raise VitaError("generate moving objects (step 4) before generating RSSI data")
        if not self.devices:
            raise VitaError("deploy positioning devices (step 3) before generating RSSI data")
        config = build_rssi_config(
            RSSIConfig(
                sampling_period=sampling_period,
                wall_attenuation_db=wall_attenuation_db,
                fluctuation_sigma_db=fluctuation_sigma_db,
                detection_probability=detection_probability,
            ),
            seed=self.seed,
        )
        generator = RSSIGenerator(self.building, self.devices, config, spatial=self.spatial)
        self.rssi_records = generator.generate(self.simulation.trajectories)
        self.warehouse.backend.clear("rssi")  # a re-run replaces the step's output
        self.warehouse.rssi.add_many(self.rssi_records)
        self.warehouse.flush()
        self._rssi_config = config
        return self.rssi_records

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush and release the warehouse's storage backend.

        A persistent (SQLite) session holds an open database connection;
        closing makes the file durable and reusable by other processes.
        Prefer the context-manager form::

            with Vita(backend="sqlite", db_path="run.sqlite") as vita:
                ...
        """
        self.warehouse.close()

    def __enter__(self) -> "Vita":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Step 6 — choose a positioning method and generate positioning data
    # ------------------------------------------------------------------ #
    def generate_positioning(
        self,
        method: Union[PositioningMethod, str] = PositioningMethod.TRILATERATION,
        sampling_period: float = 5.0,
        algorithm: str = "knn",
        radio_map_spacing: float = 4.0,
        radio_map_samples: int = 8,
        **method_options,
    ) -> list:
        """Generate indoor positioning data from the raw RSSI data."""
        self._require_building()
        if not self.rssi_records:
            raise VitaError("generate raw RSSI data (step 5) before positioning data")
        if isinstance(method, str):
            method = PositioningMethod(method.lower())
        radio_map = None
        if method is PositioningMethod.FINGERPRINTING:
            radio_map = survey_radio_map(
                self.building,
                self.devices,
                self._rssi_config or RSSIGenerationConfig(seed=self.seed),
                radio_map_spacing,
                radio_map_samples,
                spatial=self.spatial,
            )
            self.radio_map = radio_map
        controller = PositioningMethodController(
            self.building,
            self.devices,
            PositioningConfig(
                method=method,
                sampling_period=sampling_period,
                fingerprinting_algorithm=algorithm,
                **method_options,
            ),
            radio_map=radio_map,
            spatial=self.spatial,
        )
        self.positioning_output = controller.generate(self.rssi_records)
        # A re-run replaces the positioning step's previous output.
        for dataset in POSITIONING_DATASETS:
            self.warehouse.backend.clear(dataset)
        for record in self.positioning_output:
            dataset, row = record_row(record)
            getattr(self.warehouse, dataset).add_many([row])
        self.warehouse.flush()
        return self.positioning_output

    # ------------------------------------------------------------------ #
    # One-shot streaming generation
    # ------------------------------------------------------------------ #
    def generate(
        self,
        config: Optional[VitaConfig] = None,
        *,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        flush_every: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        on_alert=None,
    ):
        """Run the streaming, sharded pipeline into this session's warehouse.

        The one-shot counterpart of the six step methods: the moving objects
        are partitioned into deterministic shards, each shard runs the full
        object -> trajectory -> RSSI -> positioning chain (across ``workers``
        processes when ``workers > 1``) and records are flushed to the
        session's storage backend in batches of ``flush_every``.  For a fixed
        seed and shard count the stored records are identical for any
        ``workers`` value.  Any datasets previously generated in this
        session are replaced.

        Returns the
        :class:`~repro.core.pipeline.StreamingGenerationResult`; its
        ``report`` carries the master seed, per-dataset record counts and
        throughput of the run.  When ``config.telemetry.enabled`` the run's
        metrics/trace snapshot also lands on :attr:`telemetry`.
        """
        from repro.core.pipeline import VitaPipeline  # local import breaks the cycle

        if config is None:
            config = VitaConfig(seed=self.seed)
        # The session's warehouse wins over config.storage's engine choice.
        # Refuse rather than silently drop an explicitly requested persistent
        # target into a volatile session warehouse.
        if config.storage.backend == "sqlite" and not self.warehouse.backend.persistent:
            raise VitaError(
                "the configuration asks for the sqlite backend but this Vita "
                "session stores to memory; construct "
                "Vita(backend='sqlite', db_path=...) or run "
                "VitaPipeline(config).run_streaming() instead"
            )
        result = VitaPipeline(config).run_streaming(
            warehouse=self.warehouse,
            workers=workers,
            shards=shards,
            flush_every=flush_every,
            progress=progress,
            monitors=self._monitors,
            on_alert=on_alert,
        )
        self.live_report = result.live
        self.telemetry = result.report.telemetry
        # Adopt the run's environment so the step-wise API (environment
        # editing, further deployments, queries) continues from it.
        self._adopt_building(result.building)
        self.device_controller.devices.update(
            {device.device_id: device for device in result.devices}
        )
        self.simulation = None
        self.rssi_records = []
        self.positioning_output = []
        self.radio_map = result.radio_map
        return result

    # ------------------------------------------------------------------ #
    # Continuous queries (standing monitors)
    # ------------------------------------------------------------------ #
    def monitor(self, *monitors) -> list:
        """Register standing :class:`~repro.live.Monitor` subscriptions.

        Registered monitors attach to the next :meth:`generate` call (their
        finalized report lands on :attr:`live_report` and on the result's
        ``live`` attribute), and :meth:`replay_monitors` evaluates them over
        whatever the session warehouse already stores.  Returns the full
        list of registered monitors.
        """
        from repro.live.monitors import Monitor  # local: optional subsystem

        for monitor in monitors:
            if not isinstance(monitor, Monitor):
                raise VitaError(
                    "monitor() takes repro.live.Monitor instances, e.g. "
                    "Monitor.density(floor=1).window(60)"
                )
            monitor.plan()  # validate eagerly, before any run starts
            self._monitors.append(monitor)
        return list(self._monitors)

    def replay_monitors(self, monitors=None, *, on_alert=None):
        """Replay registered (or given) monitors over the session warehouse.

        The offline drive mode: scans the stored datasets back out through
        the query planner and feeds the same incremental engine a live run
        uses, so the emitted windows are identical to an attached run over
        the same data.  Returns the :class:`~repro.live.LiveReport`.
        """
        from repro.live.replay import replay  # local: optional subsystem

        chosen = list(monitors) if monitors is not None else list(self._monitors)
        if not chosen:
            raise VitaError("no monitors registered; call monitor() first")
        self.live_report = replay(
            self.warehouse, chosen, spatial=self._spatial, on_alert=on_alert
        )
        return self.live_report

    # ------------------------------------------------------------------ #
    # Data access and export
    # ------------------------------------------------------------------ #
    @property
    def stream_api(self) -> DataStreamAPI:
        """Data Stream APIs over everything generated so far (cached)."""
        if self._stream_api is None:
            self._stream_api = DataStreamAPI(self.warehouse)
        return self._stream_api

    def query(self, dataset: str) -> Query:
        """A composable builder query over one generated dataset.

        The generic counterpart of the fixed :attr:`stream_api` methods::

            vita.query("trajectory").during(0, 60).on_floor(1).count_by("partition_id")
        """
        return self.warehouse.query(dataset)

    def export(self, directory: Union[str, Path]) -> Dict[str, str]:
        """Export every generated dataset to CSV/JSON files in *directory*.

        Reads back through the repositories, so it works identically on the
        memory and SQLite backends.
        """
        written = export_warehouse(self.warehouse, directory)
        return {name: str(path) for name, path in written.items()}

    def summary(self) -> Dict[str, int]:
        """Record counts of everything generated so far."""
        return self.warehouse.summary()

    def _require_building(self) -> None:
        if self.building is None:
            raise VitaError(
                "no host indoor environment loaded; call import_dbi() or "
                "use_synthetic_building() first (step 1)"
            )


__all__ = ["Vita"]
