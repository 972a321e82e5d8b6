"""Storage: pluggable backends, typed repositories, query builder, export."""

from repro.storage.tables import Table, TableSchema
from repro.storage.backends import (
    BACKENDS,
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    backend_by_name,
)
from repro.storage.plan import Aggregate, Filter, PlanExecution, QueryPlan, Region, Row
from repro.storage.query import Query, explain_plan, run_plan
from repro.storage.repositories import (
    DataWarehouse,
    DeviceRepository,
    PositioningRepository,
    ProbabilisticPositioningRepository,
    ProximityRepository,
    RSSIRepository,
    TrajectoryRepository,
)
from repro.storage.stream import DataStreamAPI
from repro.storage.export import (
    export_devices_csv,
    export_positioning_csv,
    export_probabilistic_jsonl,
    export_proximity_csv,
    export_rssi_csv,
    export_trajectories_csv,
    export_warehouse,
    import_devices_csv,
    import_positioning_csv,
    import_probabilistic_jsonl,
    import_proximity_csv,
    import_rssi_csv,
    import_trajectories_csv,
    import_warehouse,
)

__all__ = [
    "Row",
    "Table",
    "TableSchema",
    "BACKENDS",
    "StorageBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "backend_by_name",
    "Aggregate",
    "Filter",
    "PlanExecution",
    "QueryPlan",
    "Region",
    "Query",
    "explain_plan",
    "run_plan",
    "DataWarehouse",
    "DeviceRepository",
    "PositioningRepository",
    "ProbabilisticPositioningRepository",
    "ProximityRepository",
    "RSSIRepository",
    "TrajectoryRepository",
    "DataStreamAPI",
    "export_devices_csv",
    "export_positioning_csv",
    "export_probabilistic_jsonl",
    "export_proximity_csv",
    "export_rssi_csv",
    "export_trajectories_csv",
    "export_warehouse",
    "import_devices_csv",
    "import_positioning_csv",
    "import_probabilistic_jsonl",
    "import_proximity_csv",
    "import_rssi_csv",
    "import_trajectories_csv",
    "import_warehouse",
]
