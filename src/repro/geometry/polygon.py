"""Simple polygons: area, containment, sampling and clipping.

Partitions, obstacles and device coverage footprints are all modelled as
simple (non-self-intersecting) polygons in a floor-local coordinate frame.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.segment import Segment

_EPS = 1e-9


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains_point(self, point: Point) -> bool:
        """Whether *point* is inside (or on the edge of) the box."""
        return (
            self.min_x - _EPS <= point.x <= self.max_x + _EPS
            and self.min_y - _EPS <= point.y <= self.max_y + _EPS
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether this box and *other* overlap (touching counts)."""
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """Return a copy grown by *margin* on every side."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both this box and *other*."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    @classmethod
    def of_points(cls, points: Iterable[Point]) -> "BoundingBox":
        points = list(points)
        if not points:
            raise GeometryError("cannot build a bounding box from no points")
        return cls(
            min(p.x for p in points),
            min(p.y for p in points),
            max(p.x for p in points),
            max(p.y for p in points),
        )


class Polygon:
    """A simple polygon defined by its vertices in order.

    The constructor rejects polygons with fewer than three vertices or with
    (near-)zero area.  Vertex order may be clockwise or counter-clockwise;
    :attr:`area` is always positive.
    """

    __slots__ = ("_vertices", "_bbox", "_area", "_edge_terms")

    def __init__(self, vertices: Sequence[Point]) -> None:
        vertices = [
            v if isinstance(v, Point) else Point(float(v[0]), float(v[1]))
            for v in vertices
        ]
        if len(vertices) < 3:
            raise GeometryError("a polygon needs at least three vertices")
        signed = _signed_area(vertices)
        if abs(signed) <= _EPS:
            raise GeometryError("degenerate polygon with zero area")
        self._vertices: Tuple[Point, ...] = tuple(vertices)
        self._bbox = BoundingBox.of_points(vertices)
        self._area = abs(signed)
        # Per edge ``(x0, y0, dx, dy, dx*dx + dy*dy)``: what
        # Segment.closest_point_to derives from the edge on every call.
        self._edge_terms: Tuple[Tuple[float, float, float, float, float], ...] = tuple(
            (a.x, a.y, b.x - a.x, b.y - a.y, (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y))
            for a, b in zip(vertices, vertices[1:] + vertices[:1])
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The polygon vertices, in their original order."""
        return self._vertices

    @property
    def area(self) -> float:
        """Positive area of the polygon."""
        return self._area

    @property
    def bounding_box(self) -> BoundingBox:
        """Axis-aligned bounding box of the polygon."""
        return self._bbox

    @property
    def perimeter(self) -> float:
        """Total edge length."""
        return sum(edge.length for edge in self.edges())

    @property
    def centroid(self) -> Point:
        """Area centroid of the polygon."""
        cx = cy = 0.0
        signed = _signed_area(self._vertices)
        vertices = self._vertices
        n = len(vertices)
        for i in range(n):
            p0 = vertices[i]
            p1 = vertices[(i + 1) % n]
            cross = p0.cross(p1)
            cx += (p0.x + p1.x) * cross
            cy += (p0.y + p1.y) * cross
        factor = 1.0 / (6.0 * signed)
        return Point(cx * factor, cy * factor)

    @property
    def aspect_ratio(self) -> float:
        """Ratio of the longer to the shorter side of the bounding box (>= 1)."""
        width, height = self._bbox.width, self._bbox.height
        if min(width, height) <= _EPS:
            return float("inf")
        return max(width, height) / min(width, height)

    def edges(self) -> List[Segment]:
        """The polygon boundary as a list of segments."""
        vertices = self._vertices
        n = len(vertices)
        return [Segment(vertices[i], vertices[(i + 1) % n]) for i in range(n)]

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def contains_point(self, point: Point, include_boundary: bool = True) -> bool:
        """Ray-casting point-in-polygon test."""
        if not self._bbox.contains_point(point):
            return False
        if self.on_boundary(point):
            return include_boundary
        inside = False
        vertices = self._vertices
        n = len(vertices)
        j = n - 1
        for i in range(n):
            pi, pj = vertices[i], vertices[j]
            intersects = (pi.y > point.y) != (pj.y > point.y)
            if intersects:
                x_at = (pj.x - pi.x) * (point.y - pi.y) / (pj.y - pi.y) + pi.x
                if point.x < x_at:
                    inside = not inside
            j = i
        return inside

    def on_boundary(self, point: Point, tolerance: float = 1e-7) -> bool:
        """Whether *point* lies on the polygon boundary.

        The answer of ``any(edge.contains_point(point, tolerance) for edge in
        self.edges())``, computed in plain floats from the precomputed edge
        terms with the same operations in the same order as
        :meth:`Segment.closest_point_to` and :meth:`Point.distance_to`, so it
        is bit-identical without building a segment or point per edge.
        """
        px, py = point.x, point.y
        for x0, y0, dx, dy, length_sq in self._edge_terms:
            if length_sq == 0.0:
                cx, cy = x0, y0
            else:
                t = ((px - x0) * dx + (py - y0) * dy) / length_sq
                t = t if t < 1.0 else 1.0  # min(1.0, t)
                t = t if t > 0.0 else 0.0  # max(0.0, t)
                cx, cy = x0 + dx * t, y0 + dy * t
            if math.hypot(px - cx, py - cy) <= tolerance:
                return True
        return False

    def intersects_segment(self, segment: Segment) -> bool:
        """Whether *segment* crosses or touches the polygon boundary or interior."""
        if self.contains_point(segment.start) or self.contains_point(segment.end):
            return True
        return any(edge.intersects(segment) for edge in self.edges())

    def overlaps(self, other: "Polygon") -> bool:
        """Whether the two polygons share interior area or touch."""
        if not self._bbox.intersects(other._bbox):
            return False
        if any(self.contains_point(v) for v in other.vertices):
            return True
        if any(other.contains_point(v) for v in self.vertices):
            return True
        return any(
            e1.intersects(e2) for e1 in self.edges() for e2 in other.edges()
        )

    # ------------------------------------------------------------------ #
    # Sampling and transforms
    # ------------------------------------------------------------------ #
    def random_point(self, rng: Optional[random.Random] = None, max_tries: int = 1000) -> Point:
        """Sample a point uniformly at random from the polygon interior.

        Rejection sampling against the bounding box; the number of attempts is
        bounded by *max_tries* to guarantee termination even for pathological
        slivers, falling back to the centroid.
        """
        rng = rng or random
        box = self._bbox
        for _ in range(max_tries):
            candidate = Point(
                rng.uniform(box.min_x, box.max_x),
                rng.uniform(box.min_y, box.max_y),
            )
            if self.contains_point(candidate):
                return candidate
        return self.centroid

    def closest_interior_point(self, point: Point) -> Point:
        """Return *point* if it is inside; otherwise the closest boundary point."""
        if self.contains_point(point):
            return point
        best = None
        best_distance = float("inf")
        for edge in self.edges():
            candidate = edge.closest_point_to(point)
            distance = candidate.distance_to(point)
            if distance < best_distance:
                best, best_distance = candidate, distance
        return best

    def translated(self, dx: float, dy: float) -> "Polygon":
        """Return a translated copy."""
        return Polygon([Point(v.x + dx, v.y + dy) for v in self._vertices])

    def scaled(self, factor: float, around: Optional[Point] = None) -> "Polygon":
        """Return a copy scaled by *factor* around *around* (default: centroid)."""
        origin = around if around is not None else self.centroid
        return Polygon(
            [
                Point(
                    origin.x + (v.x - origin.x) * factor,
                    origin.y + (v.y - origin.y) * factor,
                )
                for v in self._vertices
            ]
        )

    # ------------------------------------------------------------------ #
    # Clipping
    # ------------------------------------------------------------------ #
    def clip_to_box(self, box: BoundingBox) -> Optional["Polygon"]:
        """Clip this polygon to an axis-aligned box (Sutherland–Hodgman).

        Returns ``None`` when the intersection is empty or degenerate.
        """
        def clip(points: List[Point], inside, intersect) -> List[Point]:
            result: List[Point] = []
            n = len(points)
            for i in range(n):
                current, previous = points[i], points[i - 1]
                current_in, previous_in = inside(current), inside(previous)
                if current_in:
                    if not previous_in:
                        result.append(intersect(previous, current))
                    result.append(current)
                elif previous_in:
                    result.append(intersect(previous, current))
            return result

        def make_x_intersect(x_value: float):
            def intersect(a: Point, b: Point) -> Point:
                t = (x_value - a.x) / (b.x - a.x) if abs(b.x - a.x) > _EPS else 0.0
                return Point(x_value, a.y + (b.y - a.y) * t)
            return intersect

        def make_y_intersect(y_value: float):
            def intersect(a: Point, b: Point) -> Point:
                t = (y_value - a.y) / (b.y - a.y) if abs(b.y - a.y) > _EPS else 0.0
                return Point(a.x + (b.x - a.x) * t, y_value)
            return intersect

        points = list(self._vertices)
        clips = [
            (lambda p, x=box.min_x: p.x >= x - _EPS, make_x_intersect(box.min_x)),
            (lambda p, x=box.max_x: p.x <= x + _EPS, make_x_intersect(box.max_x)),
            (lambda p, y=box.min_y: p.y >= y - _EPS, make_y_intersect(box.min_y)),
            (lambda p, y=box.max_y: p.y <= y + _EPS, make_y_intersect(box.max_y)),
        ]
        for inside, intersect in clips:
            points = clip(points, inside, intersect)
            if len(points) < 3:
                return None
        deduplicated = _deduplicate(points)
        if len(deduplicated) < 3 or abs(_signed_area(deduplicated)) <= _EPS:
            return None
        return Polygon(deduplicated)

    # ------------------------------------------------------------------ #
    # Constructors and dunder methods
    # ------------------------------------------------------------------ #
    @classmethod
    def rectangle(cls, min_x: float, min_y: float, max_x: float, max_y: float) -> "Polygon":
        """Axis-aligned rectangle from two corners."""
        if max_x <= min_x or max_y <= min_y:
            raise GeometryError("rectangle requires max_x > min_x and max_y > min_y")
        return cls(
            [
                Point(min_x, min_y),
                Point(max_x, min_y),
                Point(max_x, max_y),
                Point(min_x, max_y),
            ]
        )

    @classmethod
    def regular(cls, center: Point, radius: float, sides: int) -> "Polygon":
        """Regular polygon with *sides* vertices on a circle of *radius*."""
        if sides < 3:
            raise GeometryError("a regular polygon needs at least three sides")
        if radius <= 0:
            raise GeometryError("radius must be positive")
        return cls(
            [
                Point(
                    center.x + radius * math.cos(2.0 * math.pi * i / sides),
                    center.y + radius * math.sin(2.0 * math.pi * i / sides),
                )
                for i in range(sides)
            ]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self._vertices)} vertices, area={self._area:.2f})"


def _signed_area(vertices: Sequence[Point]) -> float:
    """Shoelace signed area (positive for counter-clockwise order).

    The sum runs on coordinates relative to the first vertex: the result is
    mathematically identical but avoids the catastrophic cancellation the
    absolute-coordinate shoelace suffers for small polygons far from the
    origin (translation then preserves area to full precision).
    """
    origin = vertices[0]
    total = 0.0
    n = len(vertices)
    for i in range(n):
        p0 = vertices[i]
        p1 = vertices[(i + 1) % n]
        total += (p0.x - origin.x) * (p1.y - origin.y) - (p1.x - origin.x) * (p0.y - origin.y)
    return total / 2.0


def _deduplicate(points: Sequence[Point], tolerance: float = 1e-9) -> List[Point]:
    """Drop consecutive (and wrap-around) duplicate points."""
    result: List[Point] = []
    for point in points:
        if not result or not result[-1].is_close(point, tolerance):
            result.append(point)
    if len(result) > 1 and result[0].is_close(result[-1], tolerance):
        result.pop()
    return result


__all__ = ["Polygon", "BoundingBox"]
