"""Line-of-sight analysis between two indoor points.

The path loss model of Section 3.2 adds an obstacle-noise term ``Nob`` for
"influence of obstacles like walls and doors".  The example of Figure 3(a)
makes the behaviour concrete: object *p* is at equal transmission distance
from devices *d1* and *d2*, yet *d2* measures a stronger RSSI because walls
block the line of sight between *p* and *d1*.

This module computes, for a sight line between two points on the same floor,
how many wall segments and obstacle polygons it crosses.  The RSSI noise model
(:mod:`repro.rssi.noise`) converts those counts into attenuation.
:class:`SightFan` computes the same counts for many sight lines from one
origin at once, in numpy passes that repeat :meth:`Segment.crosses`'
arithmetic operation for operation, so its counts are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import _EPS, Segment

#: The strict-crossing margin of :meth:`Segment.crosses`.
_MARGIN = 1e-7
#: (sight line, segment) pairs tested per numpy pass: bounds the temporary
#: arrays whatever the number of targets.
PAIRS_PER_PASS = 1 << 15


@dataclass(frozen=True)
class SightlineReport:
    """Result of a line-of-sight computation.

    Attributes:
        distance: Euclidean length of the sight line in metres.
        wall_crossings: number of wall segments strictly crossed.
        obstacle_crossings: number of obstacle polygons the line passes through.
        clear: ``True`` when nothing blocks the line of sight.
    """

    distance: float
    wall_crossings: int
    obstacle_crossings: int

    @property
    def clear(self) -> bool:
        return self.wall_crossings == 0 and self.obstacle_crossings == 0

    @property
    def total_crossings(self) -> int:
        return self.wall_crossings + self.obstacle_crossings


def count_wall_crossings(sightline: Segment, walls: Iterable[Segment]) -> int:
    """Number of wall segments whose interiors are crossed by *sightline*."""
    return sum(1 for wall in walls if sightline.crosses(wall))


def count_obstacle_crossings(sightline: Segment, obstacles: Iterable[Polygon]) -> int:
    """Number of obstacle polygons that the sight line passes through.

    An obstacle counts when the line crosses its boundary or either endpoint
    sits inside it.
    """
    count = 0
    for obstacle in obstacles:
        if obstacle.contains_point(sightline.start) or obstacle.contains_point(sightline.end):
            count += 1
            continue
        if any(sightline.crosses(edge) for edge in obstacle.edges()):
            count += 1
    return count


def analyze_sightline(
    origin: Point,
    target: Point,
    walls: Sequence[Segment] = (),
    obstacles: Sequence[Polygon] = (),
) -> SightlineReport:
    """Compute the full line-of-sight report between *origin* and *target*."""
    sightline = Segment(origin, target)
    return SightlineReport(
        distance=sightline.length,
        wall_crossings=count_wall_crossings(sightline, walls),
        obstacle_crossings=count_obstacle_crossings(sightline, obstacles),
    )


def has_line_of_sight(
    origin: Point,
    target: Point,
    walls: Sequence[Segment] = (),
    obstacles: Sequence[Polygon] = (),
) -> bool:
    """Whether nothing blocks the straight line between the two points."""
    return analyze_sightline(origin, target, walls, obstacles).clear


def visible_targets(
    origin: Point,
    targets: Sequence[Point],
    walls: Sequence[Segment] = (),
    obstacles: Sequence[Polygon] = (),
) -> List[int]:
    """Indices of *targets* that are in clear line of sight from *origin*."""
    return [
        index
        for index, target in enumerate(targets)
        if has_line_of_sight(origin, target, walls, obstacles)
    ]


class SightFan:
    """The walls and obstacles that sight lines from one origin may cross.

    :meth:`crossings` counts, for many targets at once, exactly what
    :func:`count_wall_crossings` and :func:`count_obstacle_crossings` count
    for ``Segment(origin, target)`` over the same walls and obstacles.
    """

    def __init__(
        self, origin: Point, walls: Sequence[Segment], obstacles: Sequence[Polygon]
    ) -> None:
        self.origin = origin
        self._walls = _relative_columns(origin, walls)
        self._obstacles = list(obstacles)
        edges = [obstacle.edges() for obstacle in self._obstacles]
        self._edges = _relative_columns(origin, [edge for own in edges for edge in own])
        #: Offset of each obstacle's first edge, for ``np.logical_or.reduceat``.
        self._edge_starts = np.cumsum([0] + [len(own) for own in edges[:-1]])
        self._origin_inside = np.array(
            [obstacle.contains_point(origin) for obstacle in self._obstacles], dtype=bool
        )
        self._width = len(walls) + len(self._edges[0])

    def crossings(
        self, xs: Sequence[float], ys: Sequence[float]
    ) -> Tuple[List[int], List[int]]:
        """Wall and obstacle crossings of the sight line to each ``(xs[i], ys[i])``."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        walls = np.zeros(len(xs), dtype=np.int64)
        obstacles = np.zeros(len(xs), dtype=np.int64)
        step = max(1, PAIRS_PER_PASS // max(1, self._width))
        for start in range(0, len(xs), step):
            rows = slice(start, start + step)
            # r = target - origin, as Segment(origin, target) computes it.
            rx = (xs[rows] - self.origin.x)[:, None]
            ry = (ys[rows] - self.origin.y)[:, None]
            walls[rows] = _crossed(rx, ry, self._walls).sum(axis=1)
            if self._obstacles:
                hit = np.logical_or.reduceat(
                    _crossed(rx, ry, self._edges), self._edge_starts, axis=1
                )
                hit |= self._origin_inside
                hit |= self._targets_inside(xs[rows], ys[rows])
                obstacles[rows] = hit.sum(axis=1)
        return walls.tolist(), obstacles.tolist()

    def _targets_inside(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``inside[i, k]``: obstacle *k* contains target *i* (exact test on
        the targets near its bounding box)."""
        inside = np.zeros((len(xs), len(self._obstacles)), dtype=bool)
        for column, obstacle in enumerate(self._obstacles):
            box = obstacle.bounding_box.expanded(1e-6)
            near = np.flatnonzero(
                (xs >= box.min_x) & (xs <= box.max_x) & (ys >= box.min_y) & (ys <= box.max_y)
            )
            for row in near.tolist():
                inside[row, column] = obstacle.contains_point(
                    Point(float(xs[row]), float(ys[row]))
                )
        return inside


def _relative_columns(origin: Point, segments: Sequence[Segment]) -> Tuple[np.ndarray, ...]:
    """Per segment: ``q = start - origin``, ``s = end - start`` and ``q x s``
    (the numerator of :meth:`Segment.crosses`' *t*, fixed for one origin)."""
    qx = np.array([segment.start.x - origin.x for segment in segments], dtype=float)
    qy = np.array([segment.start.y - origin.y for segment in segments], dtype=float)
    sx = np.array([segment.end.x - segment.start.x for segment in segments], dtype=float)
    sy = np.array([segment.end.y - segment.start.y for segment in segments], dtype=float)
    return qx, qy, sx, sy, qx * sy - qy * sx


def _crossed(rx: np.ndarray, ry: np.ndarray, columns: Tuple[np.ndarray, ...]) -> np.ndarray:
    """``crossed[i, j]``: sight line *i* (direction ``(rx[i], ry[i])`` from the
    origin) strictly crosses segment *j*, as :meth:`Segment.crosses` decides."""
    qx, qy, sx, sy, q_cross_s = columns
    denominator = rx * sy - ry * sx
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = q_cross_s / denominator
        u = (qx * ry - qy * rx) / denominator
    return (
        (np.abs(denominator) > _EPS)
        & (_MARGIN < t) & (t < 1.0 - _MARGIN)
        & (_MARGIN < u) & (u < 1.0 - _MARGIN)
    )


__all__ = [
    "SightFan",
    "SightlineReport",
    "analyze_sightline",
    "count_wall_crossings",
    "count_obstacle_crossings",
    "has_line_of_sight",
    "visible_targets",
]
