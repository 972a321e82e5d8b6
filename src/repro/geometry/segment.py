"""Line segments: intersection, distance and projection utilities.

Segments are used to represent walls (for line-of-sight / obstacle-noise
computation in the path loss model) and transient sight lines between a
positioning device and an observed object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.geometry.point import Point

_EPS = 1e-9


@dataclass(frozen=True)
class Segment:
    """An immutable 2D line segment between ``start`` and ``end``."""

    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    @property
    def midpoint(self) -> Point:
        """Midpoint of the segment."""
        return self.start.midpoint(self.end)

    def direction(self) -> Point:
        """Unit direction vector from ``start`` to ``end``."""
        return (self.end - self.start).normalized()

    def point_at(self, fraction: float) -> Point:
        """Point located at *fraction* of the way from ``start`` to ``end``."""
        return self.start.lerp(self.end, fraction)

    def contains_point(self, point: Point, tolerance: float = 1e-7) -> bool:
        """Whether *point* lies on the segment (within *tolerance*)."""
        return self.distance_to_point(point) <= tolerance

    def distance_to_point(self, point: Point) -> float:
        """Shortest distance from *point* to the segment."""
        return point.distance_to(self.closest_point_to(point))

    def closest_point_to(self, point: Point) -> Point:
        """The point on the segment closest to *point*."""
        direction = self.end - self.start
        length_sq = direction.dot(direction)
        if length_sq == 0.0:
            return self.start
        t = (point - self.start).dot(direction) / length_sq
        t = max(0.0, min(1.0, t))
        return self.start + direction * t

    def intersects(self, other: "Segment") -> bool:
        """Whether this segment and *other* intersect (including touching)."""
        return self.intersection(other) is not None or self._collinear_overlap(other)

    def intersection(self, other: "Segment") -> Optional[Point]:
        """Return the proper intersection point with *other*, or ``None``.

        Collinear overlapping segments return ``None`` (use
        :meth:`intersects` to detect them).
        """
        p, r = self.start, self.end - self.start
        q, s = other.start, other.end - other.start
        denominator = r.cross(s)
        if abs(denominator) <= _EPS:
            return None
        t = (q - p).cross(s) / denominator
        u = (q - p).cross(r) / denominator
        if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
            return p + r * t
        return None

    def crosses(self, other: "Segment") -> bool:
        """Strict crossing test: the interiors of the two segments intersect.

        Unlike :meth:`intersects`, merely touching at an endpoint does not
        count.  This is the test used when counting how many walls a radio
        signal passes through: a sight line that grazes a wall corner is not
        considered blocked.
        """
        p, r = self.start, self.end - self.start
        q, s = other.start, other.end - other.start
        denominator = r.cross(s)
        if abs(denominator) <= _EPS:
            return False
        t = (q - p).cross(s) / denominator
        u = (q - p).cross(r) / denominator
        margin = 1e-7
        return margin < t < 1.0 - margin and margin < u < 1.0 - margin

    def _collinear_overlap(self, other: "Segment") -> bool:
        """Whether the two segments are collinear and overlap."""
        r = self.end - self.start
        s = other.end - other.start
        if abs(r.cross(s)) > _EPS:
            return False
        if abs((other.start - self.start).cross(r)) > _EPS:
            return False
        r_len_sq = r.dot(r)
        if r_len_sq <= _EPS:
            return self.contains_point(other.start) or other.contains_point(self.start)
        t0 = (other.start - self.start).dot(r) / r_len_sq
        t1 = (other.end - self.start).dot(r) / r_len_sq
        lo, hi = min(t0, t1), max(t0, t1)
        return hi >= -_EPS and lo <= 1.0 + _EPS

    def angle(self) -> float:
        """Angle of the segment direction in radians, in ``(-pi, pi]``."""
        d = self.end - self.start
        return math.atan2(d.y, d.x)

    def reversed(self) -> "Segment":
        """Return the segment with swapped endpoints."""
        return Segment(self.end, self.start)


__all__ = ["Segment"]
