"""Configuration Loader.

"The Configuration Loader allows one to directly edit the parameters for data
generation" (Section 2).  This module defines the typed configuration schema
of a full generation run and loads/validates it from plain dictionaries or
JSON files, so that an entire pipeline run can be described declaratively::

    {
      "environment": {"building": "office", "floors": 2, "decompose": true},
      "devices": [{"type": "wifi", "count_per_floor": 6, "deployment": "coverage"}],
      "objects": {"count": 50, "duration": 600, "distribution": "crowd-outliers"},
      "rssi": {"sampling_period": 2.0, "fluctuation_sigma": 2.0},
      "positioning": {"method": "fingerprinting", "algorithm": "knn"}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.errors import ConfigurationError
from repro.core.types import DeviceType, PositioningMethod


@dataclass
class EnvironmentConfig:
    """Where the host indoor environment comes from and how it is prepared."""

    building: str = "office"          # "office" | "mall" | "clinic" or an IFC path
    floors: int = 2
    ifc_path: Optional[str] = None
    decompose: bool = False
    max_partition_area: float = 120.0
    max_aspect_ratio: float = 3.0
    extract_semantics: bool = True

    def __post_init__(self) -> None:
        if self.floors < 1:
            raise ConfigurationError("environment.floors must be at least 1")
        if self.max_partition_area <= 0:
            raise ConfigurationError("environment.max_partition_area must be positive")
        if self.max_aspect_ratio < 1.0:
            raise ConfigurationError("environment.max_aspect_ratio must be >= 1")


@dataclass
class DeviceConfig:
    """One device-deployment instruction of the Infrastructure Layer."""

    device_type: DeviceType = DeviceType.WIFI
    count_per_floor: int = 6
    deployment: str = "coverage"       # "coverage" | "check-point"
    floors: Optional[List[int]] = None
    detection_range: Optional[float] = None
    detection_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count_per_floor <= 0:
            raise ConfigurationError("devices.count_per_floor must be positive")
        if self.deployment.lower().replace("_", "-") not in ("coverage", "check-point", "checkpoint"):
            raise ConfigurationError(
                f"devices.deployment must be 'coverage' or 'check-point', got {self.deployment!r}"
            )

    def overrides(self) -> Dict[str, float]:
        """Constructor overrides derived from the optional fields."""
        values: Dict[str, float] = {}
        if self.detection_range is not None:
            values["detection_range"] = self.detection_range
        if self.detection_interval is not None:
            values["detection_interval"] = self.detection_interval
        return values


@dataclass
class ObjectConfig:
    """Moving Object Layer configuration."""

    count: int = 50
    duration: float = 600.0
    min_speed: float = 0.8
    max_speed: float = 1.8
    min_lifespan: float = 300.0
    max_lifespan: float = 900.0
    sampling_period: float = 1.0
    time_step: float = 0.25
    distribution: str = "uniform"         # "uniform" | "crowd-outliers"
    crowd_count: int = 3
    crowd_fraction: float = 0.8
    arrival_rate_per_minute: float = 0.0  # 0 disables Poisson arrivals
    intention: str = "destination"        # "destination" | "random-way"
    behavior: str = "walk-stay"           # "walk-stay" | "continuous" | "variable-speed"
    routing: str = "length"               # "length" | "time"
    crowd_interaction: str = "none"       # "none" | "density-slowdown"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival_rate_per_minute < 0:
            raise ConfigurationError("objects.arrival_rate_per_minute must be non-negative")
        # Local imports: the mobility layer imports repro.core.  The layer's
        # own config and factories own the accepted values and names, so a
        # bad one fails here, before a run clears its warehouse, not later
        # inside a shard.
        from repro.mobility.behavior import behavior_by_name
        from repro.mobility.controller import ObjectGenerationConfig
        from repro.mobility.crowd import crowd_model_by_name
        from repro.mobility.distributions import distribution_by_name
        from repro.mobility.intentions import intention_by_name

        try:
            ObjectGenerationConfig(
                count=self.count,
                min_speed=self.min_speed,
                max_speed=self.max_speed,
                min_lifespan=self.min_lifespan,
                max_lifespan=self.max_lifespan,
                duration=self.duration,
                sampling_period=self.sampling_period,
                time_step=self.time_step,
                routing_metric=self.routing,
            )
        except ConfigurationError as error:
            raise ConfigurationError(f"objects: {error}") from None
        distribution_by_name(self.distribution)
        intention_by_name(self.intention)
        behavior_by_name(self.behavior)
        crowd_model_by_name(self.crowd_interaction)


@dataclass
class RSSIConfig:
    """RSSI Measurement Controller configuration."""

    sampling_period: float = 2.0
    path_loss_exponent: Optional[float] = None
    calibration_rssi: Optional[float] = None
    wall_attenuation_db: float = 3.5
    fluctuation_sigma_db: float = 2.0
    detection_probability: float = 0.95
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sampling_period <= 0:
            raise ConfigurationError("rssi.sampling_period must be positive")
        if self.fluctuation_sigma_db < 0:
            raise ConfigurationError("rssi.fluctuation_sigma_db must be non-negative")
        if not 0.0 < self.detection_probability <= 1.0:
            raise ConfigurationError("rssi.detection_probability must be in (0, 1]")


@dataclass
class PositioningLayerConfig:
    """Positioning Method Controller configuration."""

    method: PositioningMethod = PositioningMethod.TRILATERATION
    sampling_period: float = 5.0
    algorithm: str = "knn"                # fingerprinting: "knn" | "bayes"
    knn_k: int = 3
    bayes_top_k: int = 5
    min_devices: int = 3
    radio_map_spacing: float = 4.0
    radio_map_samples: int = 8
    rssi_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sampling_period <= 0:
            raise ConfigurationError("positioning.sampling_period must be positive")
        if self.algorithm not in ("knn", "bayes"):
            raise ConfigurationError("positioning.algorithm must be 'knn' or 'bayes'")
        if self.radio_map_spacing <= 0:
            raise ConfigurationError("positioning.radio_map_spacing must be positive")


@dataclass
class StorageConfig:
    """Where the generated data is stored and how it is indexed.

    ``backend="memory"`` keeps the original volatile in-memory tables;
    ``backend="sqlite"`` persists every dataset to ``path`` (or an in-memory
    SQLite database when ``path`` is omitted) with WAL journalling, batched
    bulk inserts and composite + spatial grid-bucket indices.
    """

    backend: str = "memory"           # "memory" | "sqlite"
    path: Optional[str] = None        # SQLite database file (None = :memory:)
    #: Metres per spatial grid bucket; None keeps the engine default (4 m) or,
    #: when reopening an existing database, its stored bucket size.
    grid_cell_size: Optional[float] = None
    batch_size: int = 2000            # rows per bulk-insert batch
    #: Streaming generation flushes pending records to the backend whenever
    #: this many are buffered, bounding peak pending memory.
    flush_every: int = 5000

    def __post_init__(self) -> None:
        if self.backend.lower().strip() not in ("memory", "sqlite"):
            raise ConfigurationError(
                f"storage.backend must be 'memory' or 'sqlite', got {self.backend!r}"
            )
        self.backend = self.backend.lower().strip()
        if self.backend == "memory" and self.path is not None:
            raise ConfigurationError("storage.path only applies to the sqlite backend")
        if self.grid_cell_size is not None and self.grid_cell_size <= 0:
            raise ConfigurationError("storage.grid_cell_size must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("storage.batch_size must be at least 1")
        if self.flush_every < 1:
            raise ConfigurationError("storage.flush_every must be at least 1")


@dataclass
class SpatialConfig:
    """Cache knobs of the per-building :class:`~repro.spatial.SpatialService`.

    Caching changes cost, never results: every cache verifies the exact
    query arguments before answering (see :mod:`repro.spatial.cache`), so
    any combination of these knobs produces record-identical output.

    Attributes:
        enabled: master switch; ``False`` recomputes every spatial answer
            from scratch (same algorithms, no memoization) — useful for
            benchmarking and for the cached-vs-uncached equivalence suite.
        route_cache_size: LRU capacity of the end-to-end route cache, keyed
            by (partition, quantized point, partition, quantized point,
            metric, speed).
        los_cache_size: LRU capacity of the cache of
            :meth:`SpatialService.sightline` reports, keyed by (floor,
            quantized origin, quantized target); RSSI generation counts its
            sight lines in batches and does not use it.
        locate_cache_size: LRU capacity of the point-location cache used
            when annotating coordinates with their partition.
        quantum: bucket resolution (metres) of the quantized cache keys.
            Coarser quanta reduce key diversity (distinct queries sharing a
            bucket evict each other); they never change answers.
    """

    enabled: bool = True
    route_cache_size: int = 4096
    los_cache_size: int = 16384
    locate_cache_size: int = 8192
    quantum: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("route_cache_size", "los_cache_size", "locate_cache_size"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"spatial.{name} must be non-negative")
        if self.quantum <= 0:
            raise ConfigurationError("spatial.quantum must be positive")


@dataclass
class TelemetryConfig:
    """The ``telemetry:`` section: the run's observability switches.

    Disabled by default — the instrumented code paths then execute shared
    no-op instruments, so generated records, query results and (to within
    noise) wall clock are identical to an uninstrumented build.

    Attributes:
        enabled: master switch for the metrics registry and tracer.
        trace: record timed spans (only meaningful when ``enabled``);
            ``False`` keeps metrics but skips span bookkeeping.
        trace_capacity: ring-buffer size — a run retains at most this many
            finished spans and counts the rest as dropped.
        metrics_json: optional path; the pipeline writes the merged metrics
            registry there after a run (the CLI ``--metrics-json`` flag).
        trace_json: optional path for the span dump (``--trace-json``).
    """

    enabled: bool = False
    trace: bool = True
    trace_capacity: int = 4096
    metrics_json: Optional[str] = None
    trace_json: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trace_capacity < 1:
            raise ConfigurationError("telemetry.trace_capacity must be at least 1")


@dataclass
class MonitorConfig:
    """One standing monitor of the ``monitors:`` configuration section.

    Declarative counterpart of the :class:`repro.live.Monitor` grammar: the
    ``monitor`` field names the kind and the remaining fields carry the
    kind's parameters.  Field-level validation happens here; the kind's
    cross-field requirements are enforced by :meth:`build` (which compiles
    to a :class:`~repro.live.Monitor`), keeping this module import-light.

    ``where`` holds textual ``'COLUMN<OP>VALUE'`` conditions or
    ``[column, op, value]`` triples, identical to the CLI ``--where`` syntax.
    """

    monitor: str = "density"            # density|flow|geofence|knn|visit_counts
    name: Optional[str] = None
    window: float = 60.0
    slide: Optional[float] = None
    floor: Optional[int] = None
    partition: Optional[str] = None
    region: Optional[List[float]] = None        # [min_x, min_y, max_x, max_y]
    from_partition: Optional[str] = None        # flow
    to_partition: Optional[str] = None          # flow
    x: Optional[float] = None                   # knn
    y: Optional[float] = None                   # knn
    k: int = 5                                  # knn
    top_k: int = 5                              # visit_counts
    alert_on: List[str] = field(default_factory=lambda: ["enter", "exit"])
    where: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.monitor = self.monitor.lower().strip().replace("-", "_")
        if self.monitor not in ("density", "flow", "geofence", "knn", "visit_counts"):
            raise ConfigurationError(
                f"monitors[].monitor must be one of density, flow, geofence, "
                f"knn, visit_counts; got {self.monitor!r}"
            )
        if self.window <= 0:
            raise ConfigurationError("monitors[].window must be positive")
        if self.slide is not None and self.slide <= 0:
            raise ConfigurationError("monitors[].slide must be positive")
        if self.region is not None and len(self.region) != 4:
            raise ConfigurationError(
                "monitors[].region must be [min_x, min_y, max_x, max_y]"
            )

    def build(self):
        """Compile into a :class:`repro.live.Monitor` (full validation)."""
        # Local import: the live subsystem depends on the storage layer,
        # which this configuration module must stay independent of.
        from repro.core.errors import MonitorError
        from repro.live.monitors import Monitor

        try:
            kind = self.monitor
            if kind == "density":
                built = Monitor.density(
                    self.region, partition=self.partition, floor=self.floor
                )
            elif kind == "flow":
                if not (self.from_partition and self.to_partition):
                    raise MonitorError("flow needs 'from_partition' and 'to_partition'")
                built = Monitor.flow(self.from_partition, self.to_partition)
            elif kind == "geofence":
                if self.region is None:
                    raise MonitorError("geofence needs a 'region'")
                if self.floor is None:
                    raise MonitorError("geofence needs a 'floor'")
                built = Monitor.geofence(
                    self.region, floor=self.floor, on=tuple(self.alert_on)
                )
            elif kind == "knn":
                if self.x is None or self.y is None or self.floor is None:
                    raise MonitorError("knn needs 'x', 'y' and a 'floor'")
                built = Monitor.knn((self.x, self.y), k=self.k, floor=self.floor)
            else:
                built = Monitor.visit_counts(top_k=self.top_k)
            built = built.window(self.window)
            if self.slide is not None:
                built = built.slide(self.slide)
            if self.name:
                built = built.named(self.name)
            for condition in self.where:
                if isinstance(condition, str):
                    built = built.where(condition)
                else:
                    try:
                        column, op, value = condition
                    except (TypeError, ValueError):
                        raise MonitorError(
                            "where entries must be 'COLUMN<OP>VALUE' strings "
                            f"or [column, op, value] triples, got {condition!r}"
                        )
                    built = built.where(column, op, value)
            return built
        except MonitorError as error:
            raise ConfigurationError(f"monitors[]: {error}")


@dataclass
class VitaConfig:
    """The complete configuration of one generation run.

    ``shards`` fixes the deterministic partition of the moving objects used
    by streaming generation (``None`` derives it from the object count), and
    ``workers`` sets how many processes run those shards concurrently.  The
    streamed output depends on ``shards`` but never on ``workers``.
    """

    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    devices: List[DeviceConfig] = field(default_factory=lambda: [DeviceConfig()])
    objects: ObjectConfig = field(default_factory=ObjectConfig)
    rssi: RSSIConfig = field(default_factory=RSSIConfig)
    positioning: PositioningLayerConfig = field(default_factory=PositioningLayerConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    spatial: SpatialConfig = field(default_factory=SpatialConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    monitors: List[MonitorConfig] = field(default_factory=list)
    seed: Optional[int] = None
    workers: int = 1
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise ConfigurationError("at least one device deployment must be configured")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError("shards must be at least 1")
        # Propagate the top-level seed to the sub-configurations that accept one.
        if self.seed is not None:
            if self.objects.seed is None:
                self.objects.seed = self.seed
            if self.rssi.seed is None:
                self.rssi.seed = self.seed + 1


# --------------------------------------------------------------------------- #
# Loading from dictionaries / JSON
# --------------------------------------------------------------------------- #
_DEVICE_TYPE_ALIASES = {
    "wifi": DeviceType.WIFI,
    "wi-fi": DeviceType.WIFI,
    "bluetooth": DeviceType.BLUETOOTH,
    "ble": DeviceType.BLUETOOTH,
    "rfid": DeviceType.RFID,
}

_METHOD_ALIASES = {
    "trilateration": PositioningMethod.TRILATERATION,
    "fingerprinting": PositioningMethod.FINGERPRINTING,
    "proximity": PositioningMethod.PROXIMITY,
}


def _only_known_keys(section: str, payload: Dict[str, Any], known: Sequence[str]) -> None:
    unknown = [key for key in payload if key not in known]
    if unknown:
        raise ConfigurationError(f"{section}: unknown configuration keys {unknown}")


def _parse_device(payload: Dict[str, Any]) -> DeviceConfig:
    _only_known_keys(
        "devices[]", payload,
        ("type", "count_per_floor", "deployment", "floors", "detection_range", "detection_interval"),
    )
    type_name = str(payload.get("type", "wifi")).lower()
    if type_name not in _DEVICE_TYPE_ALIASES:
        raise ConfigurationError(f"devices[].type: unknown device type {type_name!r}")
    return DeviceConfig(
        device_type=_DEVICE_TYPE_ALIASES[type_name],
        count_per_floor=int(payload.get("count_per_floor", 6)),
        deployment=str(payload.get("deployment", "coverage")),
        floors=list(payload["floors"]) if payload.get("floors") is not None else None,
        detection_range=payload.get("detection_range"),
        detection_interval=payload.get("detection_interval"),
    )


def config_from_dict(payload: Dict[str, Any]) -> VitaConfig:
    """Build a validated :class:`VitaConfig` from a plain dictionary."""
    _only_known_keys(
        "config", payload,
        ("environment", "devices", "objects", "rssi", "positioning", "storage",
         "spatial", "telemetry", "monitors", "seed", "workers", "shards"),
    )
    environment_payload = dict(payload.get("environment", {}))
    _only_known_keys(
        "environment", environment_payload,
        ("building", "floors", "ifc_path", "decompose", "max_partition_area",
         "max_aspect_ratio", "extract_semantics"),
    )
    environment = EnvironmentConfig(**environment_payload)

    device_payloads = payload.get("devices", [{}])
    if isinstance(device_payloads, dict):
        device_payloads = [device_payloads]
    devices = [_parse_device(dict(item)) for item in device_payloads]

    object_payload = dict(payload.get("objects", {}))
    _only_known_keys(
        "objects", object_payload,
        ("count", "duration", "min_speed", "max_speed", "min_lifespan", "max_lifespan",
         "sampling_period", "time_step", "distribution", "crowd_count", "crowd_fraction",
         "arrival_rate_per_minute", "intention", "behavior", "routing",
         "crowd_interaction", "seed"),
    )
    objects = ObjectConfig(**object_payload)

    rssi_payload = dict(payload.get("rssi", {}))
    _only_known_keys(
        "rssi", rssi_payload,
        ("sampling_period", "path_loss_exponent", "calibration_rssi",
         "wall_attenuation_db", "fluctuation_sigma_db", "detection_probability", "seed"),
    )
    rssi = RSSIConfig(**rssi_payload)

    positioning_payload = dict(payload.get("positioning", {}))
    _only_known_keys(
        "positioning", positioning_payload,
        ("method", "sampling_period", "algorithm", "knn_k", "bayes_top_k",
         "min_devices", "radio_map_spacing", "radio_map_samples", "rssi_threshold"),
    )
    if "method" in positioning_payload:
        method_name = str(positioning_payload["method"]).lower()
        if method_name not in _METHOD_ALIASES:
            raise ConfigurationError(f"positioning.method: unknown method {method_name!r}")
        positioning_payload["method"] = _METHOD_ALIASES[method_name]
    positioning = PositioningLayerConfig(**positioning_payload)

    storage_payload = dict(payload.get("storage", {}))
    _only_known_keys(
        "storage", storage_payload,
        ("backend", "path", "grid_cell_size", "batch_size", "flush_every"),
    )
    storage = StorageConfig(**storage_payload)

    spatial_payload = dict(payload.get("spatial", {}))
    _only_known_keys(
        "spatial", spatial_payload,
        ("enabled", "route_cache_size", "los_cache_size", "locate_cache_size",
         "quantum"),
    )
    spatial = SpatialConfig(**spatial_payload)

    telemetry_payload = dict(payload.get("telemetry", {}))
    _only_known_keys(
        "telemetry", telemetry_payload,
        ("enabled", "trace", "trace_capacity", "metrics_json", "trace_json"),
    )
    telemetry = TelemetryConfig(**telemetry_payload)

    monitor_payloads = payload.get("monitors", [])
    if isinstance(monitor_payloads, dict):
        monitor_payloads = [monitor_payloads]
    monitors = [_parse_monitor(dict(item)) for item in monitor_payloads]

    return VitaConfig(
        environment=environment,
        devices=devices,
        objects=objects,
        rssi=rssi,
        positioning=positioning,
        storage=storage,
        spatial=spatial,
        telemetry=telemetry,
        monitors=monitors,
        seed=payload.get("seed"),
        workers=int(payload.get("workers", 1)),
        shards=int(payload["shards"]) if payload.get("shards") is not None else None,
    )


def _parse_monitor(payload: Dict[str, Any]) -> MonitorConfig:
    _only_known_keys(
        "monitors[]", payload,
        ("monitor", "name", "window", "slide", "floor", "partition", "region",
         "from", "to", "from_partition", "to_partition", "x", "y", "k",
         "top_k", "alert_on", "where"),
    )
    # "from"/"to" are the natural JSON spellings of the flow endpoints but
    # are keywords/ambiguous as Python field names.
    if "from" in payload:
        payload["from_partition"] = payload.pop("from")
    if "to" in payload:
        payload["to_partition"] = payload.pop("to")
    config = MonitorConfig(**payload)
    config.build()  # surface cross-field errors at load time
    return config


def config_from_json(path: Union[str, Path]) -> VitaConfig:
    """Load and validate a :class:`VitaConfig` from a JSON file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path}: invalid JSON ({error})")
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: the top-level JSON value must be an object")
    return config_from_dict(payload)


__all__ = [
    "EnvironmentConfig",
    "DeviceConfig",
    "ObjectConfig",
    "RSSIConfig",
    "PositioningLayerConfig",
    "StorageConfig",
    "SpatialConfig",
    "TelemetryConfig",
    "MonitorConfig",
    "VitaConfig",
    "config_from_dict",
    "config_from_json",
]
