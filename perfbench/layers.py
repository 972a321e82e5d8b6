"""Which public calls of the program the traced run times, and as which layer.

Layer keys (the part before the first dot names the module family):

* ``infra.build`` / ``infra.survey`` — ``repro.building``, ``repro.devices``
  and the spatial service build; the fingerprinting radio-map survey;
* ``mobility`` / ``rssi`` / ``positioning`` — the three generation layers;
* ``streaming.wait`` / ``streaming.shard`` / ``streaming.writer`` —
  ``repro.core.streaming``: time blocked on the shard-output stream, the
  per-shard chain's own code, and the single writer;
* ``storage.insert`` / ``storage.flush`` / ``storage.other`` — the write
  path of ``repro.storage``;
* ``live.feed`` / ``live.merge`` / ``live.finalize`` / ``live.other`` —
  ``repro.live``;
* ``query`` / ``query.scan`` — the builder's terminals, and the row stream a
  replay consumes.

Generation layers that run inside pool workers (``workers > 1``) are not
wrapped: the workers are forked from the parent, so their time is read from
each shard output's own ``timings`` instead.
"""

from __future__ import annotations

import importlib
from typing import Callable, Optional

from perfbench.tracing import Tracer


def install_generation(tracer: Tracer, in_process: bool,
                       on_shard_output: Optional[Callable] = None) -> None:
    """Wrap the generation path's public calls (``in_process``: the shard
    chain runs in this process, so its layers are wrapped too)."""
    from repro.core import pipeline, streaming
    from repro.mobility.controller import MovingObjectController
    from repro.positioning.controller import PositioningMethodController
    from repro.positioning.fingerprinting import RadioMap
    from repro.rssi.measurement import RSSIGenerator

    for attr in ("build_environment", "deploy_devices", "build_spatial"):
        tracer.wrap(pipeline.VitaPipeline, attr, attr, "infra.build")
    tracer.wrap(RadioMap, "survey_grid", "survey_grid", "infra.survey")

    original = pipeline.__dict__["iter_shard_outputs"]

    def iter_shard_outputs(*args, **kwargs):
        return tracer.iterate("iter_shard_outputs", "streaming.wait",
                              original(*args, **kwargs), on_shard_output)

    tracer.patch(pipeline, "iter_shard_outputs", iter_shard_outputs)
    if in_process:
        tracer.wrap(streaming, "run_shard", "run_shard", "streaming.shard")
        tracer.wrap(MovingObjectController, "generate", "objects", "mobility")
        tracer.wrap(RSSIGenerator, "generate", "rssi", "rssi")
        tracer.wrap(PositioningMethodController, "generate", "positioning", "positioning")
    for attr in ("write", "write_positioning"):
        tracer.wrap(streaming.StreamingWriter, attr, attr, "streaming.writer")
    install_storage_writes(tracer)
    install_live(tracer)


def install_storage_writes(tracer: Tracer) -> None:
    from repro.storage import repositories
    from repro.storage.repositories import DataWarehouse

    for name in ("TrajectoryRepository", "RSSIRepository", "PositioningRepository",
                 "ProbabilisticPositioningRepository", "ProximityRepository",
                 "DeviceRepository"):
        tracer.wrap(getattr(repositories, name), "add_many", f"{name}.add_many",
                    "storage.insert")
    tracer.wrap(DataWarehouse, "flush", "flush", "storage.flush")
    tracer.wrap(DataWarehouse, "clear", "clear", "storage.other")
    tracer.wrap(DataWarehouse, "close", "close", "storage.other")


def install_live(tracer: Tracer) -> None:
    from repro.live.engine import LiveEngine

    # ``repro.live.replay`` the package attribute is the function; the
    # module is what callers resolve it through.
    replay_module = importlib.import_module("repro.live.replay")

    tracer.wrap(LiveEngine, "__init__", "engine", "live.other")
    tracer.wrap(LiveEngine, "feed", "feed", "live.feed")
    tracer.wrap(LiveEngine, "begin_shard", "begin_shard", "live.merge")
    tracer.wrap(LiveEngine, "end_shard", "end_shard", "live.merge")
    tracer.wrap(LiveEngine, "finalize", "finalize", "live.finalize")
    tracer.wrap(replay_module, "replay", "replay", "live.other")


def install_queries(tracer: Tracer) -> None:
    """Wrap the builder's terminals.  A top-level ``iter()`` (the scan a
    replay consumes) is timed row by row as one aggregate span; an ``iter()``
    inside another terminal is covered by that terminal's span."""
    from repro.storage.query import Query

    for attr in ("all", "first", "records", "count", "count_by", "distinct", "stats",
                 "snapshot", "knn", "profile"):
        tracer.wrap(Query, attr, attr, "query")
    original = Query.__dict__["iter"]

    def iter(self):
        if tracer.top_layer() == "query":
            return original(self)
        return tracer.iterate("scan", "query.scan", original(self))

    tracer.patch(Query, "iter", iter)
