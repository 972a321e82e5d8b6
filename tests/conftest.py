"""Shared fixtures for the Vita test suite.

Expensive artefacts (buildings, a small end-to-end dataset) are session-scoped
so that the many tests that only read them do not pay the construction cost
repeatedly.  Tests that mutate a building build their own copy instead of
using these fixtures.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.building.model import Building
from repro.building.synthetic import (
    ClinicSpec,
    MallSpec,
    OfficeSpec,
    clinic_building,
    mall_building,
    office_building,
)
from repro.core.types import DeviceType
from repro.devices.controller import DeviceDeploymentRequest, PositioningDeviceController
from repro.devices.deployment import CoverageDeployment
from repro.mobility.controller import MovingObjectController, ObjectGenerationConfig
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator


@pytest.fixture(scope="session")
def office() -> Building:
    """A 2-floor synthetic office building (read-only in tests)."""
    return office_building(OfficeSpec(floors=2))


@pytest.fixture(scope="session")
def mall() -> Building:
    """A 2-floor synthetic mall (read-only in tests)."""
    return mall_building(MallSpec(floors=2))


@pytest.fixture(scope="session")
def clinic() -> Building:
    """A single-floor synthetic clinic (read-only in tests)."""
    return clinic_building(ClinicSpec(floors=1))


@pytest.fixture()
def fresh_office() -> Building:
    """A fresh office building safe to mutate within one test."""
    return office_building(OfficeSpec(floors=2))


@pytest.fixture(scope="session")
def office_wifi(office):
    """Wi-Fi access points deployed on the shared office with the coverage model."""
    controller = PositioningDeviceController(office, seed=11)
    controller.deploy(
        DeviceDeploymentRequest(
            device_type=DeviceType.WIFI,
            count_per_floor=8,
            model=CoverageDeployment(),
        )
    )
    return list(controller.devices.values())


@pytest.fixture(scope="session")
def office_simulation(office):
    """A small simulation on the shared office building (ground truth)."""
    controller = MovingObjectController(
        office,
        ObjectGenerationConfig(
            count=8, duration=120.0, time_step=0.5, sampling_period=1.0, seed=21
        ),
    )
    return controller.generate()


@pytest.fixture(scope="session")
def office_rssi(office, office_wifi, office_simulation):
    """Raw RSSI records for the shared office simulation."""
    generator = RSSIGenerator(
        office, office_wifi, RSSIGenerationConfig(sampling_period=2.0, seed=31)
    )
    return generator.generate(office_simulation.trajectories)


@pytest.fixture(scope="session")
def index_layout():
    """``layout(path)``: index name -> (table, indexed columns) of the SQLite
    file at *path*, read through a plain connection of its own."""

    def layout(path):
        connection = sqlite3.connect(str(path))
        try:
            names = connection.execute(
                "SELECT name, tbl_name FROM sqlite_master WHERE type = 'index'"
            ).fetchall()
            return {
                name: (table, [row[2] for row in connection.execute(f"PRAGMA index_info({name})")])
                for name, table in names
            }
        finally:
            connection.close()

    return layout
