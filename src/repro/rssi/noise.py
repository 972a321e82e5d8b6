"""Noise models for RSSI generation.

Two noise terms are added to the deterministic path loss curve
(Section 3.2):

* ``Nob`` — obstacle noise: attenuation caused by walls, doors and deployed
  obstacles between the device and the object.  Figure 3(a) illustrates the
  effect: at equal transmission distance, the device whose line of sight is
  blocked by walls measures a weaker RSSI.
* ``Nf`` — fluctuation noise: signal fluctuation "related to temperature,
  humidity, etc.", modelled as zero-mean Gaussian noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.geometry.line_of_sight import analyze_sightline
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment


@dataclass
class ObstacleNoiseModel:
    """``Nob``: attenuation from walls and obstacles crossing the sight line.

    Attributes:
        wall_attenuation_db: loss per crossed wall segment.
        obstacle_attenuation_db: default loss per crossed obstacle polygon
            (an obstacle's own ``attenuation_db`` takes precedence when the
            noise is computed through :meth:`attenuation_from_counts`).
        max_attenuation_db: cap on the total obstacle attenuation; beyond a
            handful of walls the signal is effectively floor-limited.
        non_line_of_sight_extra_db: extra loss applied once at least one wall
            blocks the path (multi-path / NLOS penalty).
    """

    wall_attenuation_db: float = 3.5
    obstacle_attenuation_db: float = 4.0
    max_attenuation_db: float = 25.0
    non_line_of_sight_extra_db: float = 2.0

    def __post_init__(self) -> None:
        if self.wall_attenuation_db < 0 or self.obstacle_attenuation_db < 0:
            raise ConfigurationError("attenuation values must be non-negative")
        if self.max_attenuation_db < 0:
            raise ConfigurationError("max_attenuation_db must be non-negative")

    def attenuation_from_counts(self, wall_crossings: int, obstacle_crossings: int) -> float:
        """``Nob`` (a non-positive dB value) from crossing counts."""
        return float(self.attenuation_batch([wall_crossings], [obstacle_crossings])[0])

    def attenuation_batch(
        self, wall_crossings: Sequence[int], obstacle_crossings: Sequence[int]
    ) -> np.ndarray:
        """``Nob`` of each sight line, from its wall and obstacle crossing counts:
        the weighted crossings, plus the NLOS extra when any are crossed,
        capped, negated."""
        walls = np.asarray(wall_crossings)
        obstacles = np.asarray(obstacle_crossings)
        total = walls * self.wall_attenuation_db + obstacles * self.obstacle_attenuation_db
        total = np.where(walls + obstacles > 0, total + self.non_line_of_sight_extra_db, total)
        return -np.minimum(total, self.max_attenuation_db)

    def attenuation(
        self,
        origin: Point,
        target: Point,
        walls: Sequence[Segment] = (),
        obstacles: Sequence[Polygon] = (),
    ) -> float:
        """``Nob`` for the sight line between *origin* and *target*."""
        report = analyze_sightline(origin, target, walls, obstacles)
        return self.attenuation_from_counts(report.wall_crossings, report.obstacle_crossings)


@dataclass
class FluctuationNoiseModel:
    """``Nf``: zero-mean Gaussian signal fluctuation."""

    sigma_db: float = 2.0

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ConfigurationError("sigma_db must be non-negative")

    def sample(self, rng: Optional[random.Random] = None) -> float:
        """Draw one fluctuation value (dB)."""
        if self.sigma_db == 0:
            return 0.0
        rng = rng or random
        return rng.gauss(0.0, self.sigma_db)


__all__ = ["ObstacleNoiseModel", "FluctuationNoiseModel"]
