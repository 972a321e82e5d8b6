"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the experiments listed in DESIGN.md
(section "Experiment index").  The helpers here build the standard workloads
(buildings, device deployments, simulated ground truth, raw RSSI) so the
individual bench files stay focused on the experiment itself.

Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the per-experiment summary tables that mirror what the
paper reports qualitatively.

A bench run also persists the measured perf trajectory: each bench module
(an "area": the module name minus its ``test_bench_`` prefix) gets a
``BENCH_<area>.json`` file at the repository root holding the wall-clock of
every passed test plus whatever richer numbers the module published through
:func:`record_bench` (records/sec, cache hit rates, query latencies, monitor
overhead).  The files are committed, so the repo carries a machine-readable
history of how fast it was at each PR — CI regenerates the files of the
benches it runs for real and uploads those as workflow artifacts.  They are
written only when every path given to pytest lies under ``benchmarks/``: a
root ``pytest`` run also collects the benches, and must leave the committed
files as they are.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Dict

import pytest

from repro.building.synthetic import building_by_name
from repro.building.semantics import SemanticExtractor
from repro.core.types import DeviceType
from repro.devices.controller import DeviceDeploymentRequest, PositioningDeviceController
from repro.devices.deployment import CheckPointDeployment, CoverageDeployment
from repro.mobility.controller import MovingObjectController, ObjectGenerationConfig
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator


def make_building(name: str = "office", floors: int = 2):
    """A semantically annotated synthetic building."""
    building = building_by_name(name, floors=floors)
    SemanticExtractor().annotate_building(building)
    return building


def deploy_wifi(building, count_per_floor=8, seed=7, deployment="coverage"):
    """Deploy Wi-Fi APs with the requested deployment model; return the devices."""
    controller = PositioningDeviceController(building, seed=seed)
    model = CoverageDeployment() if deployment == "coverage" else CheckPointDeployment()
    return controller.deploy(
        DeviceDeploymentRequest(DeviceType.WIFI, count_per_floor, model)
    )


def simulate(building, count=20, duration=240.0, sampling_period=1.0, seed=29, **kwargs):
    """Run the Moving Object Layer and return the simulation result."""
    controller = MovingObjectController(
        building,
        ObjectGenerationConfig(
            count=count,
            duration=duration,
            sampling_period=sampling_period,
            time_step=0.5,
            seed=seed,
            **kwargs,
        ),
    )
    return controller.generate()


def generate_rssi(building, devices, trajectories, sampling_period=2.0, seed=31):
    """Generate raw RSSI data for the given ground truth."""
    generator = RSSIGenerator(
        building, devices, RSSIGenerationConfig(sampling_period=sampling_period, seed=seed)
    )
    return generator.generate(trajectories)


@pytest.fixture(scope="session")
def office_workload():
    """A medium office workload shared by several benches.

    Returns (building, devices, simulation result, rssi records).
    """
    building = make_building("office", floors=2)
    devices = deploy_wifi(building, count_per_floor=8)
    simulation = simulate(building, count=20, duration=240.0)
    rssi = generate_rssi(building, devices, simulation.trajectories)
    return building, devices, simulation, rssi


# --------------------------------------------------------------------------- #
# Persisted perf trajectory (BENCH_<area>.json at the repository root)
# --------------------------------------------------------------------------- #
_REPO_ROOT = Path(__file__).resolve().parent.parent

#: area -> {"tests": {test name -> seconds}, "metrics": {name -> value}}.
_BENCH_RESULTS: Dict[str, Dict[str, dict]] = {}


def _area_of(module_path) -> str:
    """``benchmarks/test_bench_query_planner.py`` -> ``query_planner``."""
    stem = Path(str(module_path)).stem
    prefix = "test_bench_"
    return stem[len(prefix):] if stem.startswith(prefix) else stem


def _area_entry(area: str) -> Dict[str, dict]:
    return _BENCH_RESULTS.setdefault(area, {"tests": {}, "metrics": {}})


def record_bench(area: str, **metrics) -> None:
    """Publish rich numbers (records/sec, hit rates, latencies) for *area*.

    Bench tests call this with whatever they measured beyond wall clock;
    the values land in the area's ``BENCH_<area>.json`` under ``metrics``.
    Later calls with the same key overwrite — record final numbers.
    """
    _area_entry(area)["metrics"].update(metrics)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    # Directory-scoped conftest: only benchmarks/ tests reach this hook, so a
    # full-repo pytest run never mixes unit-test timings into the bench files.
    if report.when == "call" and report.passed:
        _area_entry(_area_of(item.fspath))["tests"][item.name] = round(
            report.duration, 6
        )


def _invoked_on_benchmarks_only(config) -> bool:
    """True when every path (or node id) given to pytest lies under benchmarks/."""
    bench_dir = Path(__file__).resolve().parent
    for arg in config.args:
        path = (Path(config.invocation_params.dir) / arg.split("::")[0]).resolve()
        if path != bench_dir and bench_dir not in path.parents:
            return False
    return bool(config.args)


def pytest_sessionfinish(session, exitstatus):
    if not _invoked_on_benchmarks_only(session.config):
        return
    for area, entry in sorted(_BENCH_RESULTS.items()):
        if not entry["tests"] and not entry["metrics"]:
            continue
        payload = {
            "schema": 1,
            "area": area,
            "python": platform.python_version(),
            "tests_seconds": dict(sorted(entry["tests"].items())),
            "metrics": dict(sorted(entry["metrics"].items())),
        }
        path = _REPO_ROOT / f"BENCH_{area}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def print_table(title: str, headers, rows) -> None:
    """Print a small aligned table (shown with ``pytest -s``)."""
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(str(header))
        for i, header in enumerate(headers)
    ]
    line = " | ".join(str(header).ljust(width) for header, width in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-+-".join("-" * width for width in widths))
    for row in rows:
        print(" | ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
