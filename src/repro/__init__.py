"""Vita: a versatile toolkit for generating indoor mobility data for real-world buildings.

Reproduction of Li et al., PVLDB 9(13):1453-1456 (2016).

The public API is organised by pipeline layer:

* :mod:`repro.core` — configuration, the three-layer pipeline and the ``Vita``
  facade that follows the paper's six-step demonstration path;
* :mod:`repro.ifc` / :mod:`repro.building` — the Infrastructure Layer (DBI
  processing, host indoor environment, topology, routing);
* :mod:`repro.devices` — positioning devices and deployment models;
* :mod:`repro.mobility` — the Moving Object Layer;
* :mod:`repro.rssi` / :mod:`repro.positioning` — the Positioning Layer;
* :mod:`repro.storage` — repositories, Data Stream APIs and import/export;
* :mod:`repro.live` — continuous queries: standing monitors evaluated
  incrementally over the live generation stream (or replayed over a
  warehouse);
* :mod:`repro.obs` — observability: metrics registry, span tracing and the
  per-run :class:`~repro.obs.Telemetry` bundle (off by default, zero-cost
  when disabled);
* :mod:`repro.analysis` — accuracy vs ground truth and dataset statistics;
* :mod:`repro.baselines` — MWGen / IndoorSTG / RFID-tool style baselines.

Quickstart::

    from repro import Vita

    vita = Vita(seed=7)
    vita.use_synthetic_building("office", floors=2)
    vita.deploy_devices("wifi", count_per_floor=6, deployment="coverage")
    vita.generate_objects(count=50, duration=600)
    vita.generate_rssi(sampling_period=2.0)
    estimates = vita.generate_positioning("fingerprinting")
"""

from repro.core.config import VitaConfig, config_from_dict, config_from_json
from repro.core.pipeline import VitaPipeline
from repro.core.toolkit import Vita
from repro.live.monitors import Monitor
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.core.types import (
    DeviceType,
    IndoorLocation,
    PositioningMethod,
    PositioningRecord,
    ProbabilisticPositioningRecord,
    ProximityRecord,
    RSSIRecord,
    TrajectoryRecord,
)

__version__ = "1.0.0"

__all__ = [
    "MetricsRegistry",
    "Monitor",
    "Telemetry",
    "Tracer",
    "Vita",
    "VitaConfig",
    "VitaPipeline",
    "config_from_dict",
    "config_from_json",
    "DeviceType",
    "IndoorLocation",
    "PositioningMethod",
    "PositioningRecord",
    "ProbabilisticPositioningRecord",
    "ProximityRecord",
    "RSSIRecord",
    "TrajectoryRecord",
    "__version__",
]
