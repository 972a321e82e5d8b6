"""Property-based tests (hypothesis) for the geometry substrate."""

import math

from hypothesis import assume, example, given, settings, strategies as st

from repro.core.errors import GeometryError
from repro.geometry.decompose import DecompositionConfig, decompose, total_area
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment

finite = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.5, max_value=200.0, allow_nan=False, allow_infinity=False)


@st.composite
def rectangles(draw):
    x = draw(finite)
    y = draw(finite)
    width = draw(positive)
    height = draw(positive)
    return Polygon.rectangle(x, y, x + width, y + height)


@st.composite
def points(draw):
    return Point(draw(finite), draw(finite))


@st.composite
def polygons(draw):
    """Random (not necessarily simple) polygons, some with a repeated vertex."""
    vertices = draw(st.lists(points(), min_size=3, max_size=8))
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(vertices) - 1))
        vertices.insert(at, vertices[at])  # a zero-length edge
    try:
        return Polygon(vertices)
    except GeometryError:
        assume(False)


@st.composite
def boundary_queries(draw):
    """A polygon, a query point near or far from its boundary, a tolerance."""
    polygon = draw(polygons())
    edge = draw(st.sampled_from(polygon.edges()))
    tolerance = draw(st.sampled_from([1e-7, 1e-3, 0.5]))
    kind = draw(st.sampled_from(["on_edge", "vertex", "near_edge", "random"]))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    if kind == "on_edge":
        query = edge.point_at(fraction)
    elif kind == "vertex":
        query = edge.start
    elif kind == "near_edge":
        base = edge.point_at(fraction)
        dx, dy = edge.end.x - edge.start.x, edge.end.y - edge.start.y
        length = math.hypot(dx, dy)
        nx, ny = (-dy / length, dx / length) if length > 0.0 else (1.0, 0.0)
        offset = draw(st.floats(min_value=-2 * tolerance, max_value=2 * tolerance))
        query = Point(base.x + nx * offset, base.y + ny * offset)
    else:
        query = draw(points())
    return polygon, query, tolerance


class TestPointProperties:
    @given(points(), points())
    def test_distance_is_symmetric(self, a, b):
        assert a.distance_to(b) == b.distance_to(a)

    @given(points(), points(), points())
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(points(), points(), st.floats(min_value=0.0, max_value=1.0))
    def test_lerp_stays_between_endpoints(self, a, b, fraction):
        interpolated = a.lerp(b, fraction)
        assert interpolated.distance_to(a) <= a.distance_to(b) + 1e-6
        assert interpolated.distance_to(b) <= a.distance_to(b) + 1e-6


class TestSegmentProperties:
    @given(points(), points(), points())
    # A segment far shorter than 1e-4 m, queried at its end.
    @example(Point(0.0, 1e-5), Point(0.0, 0.0), Point(0.0, 0.0))
    def test_closest_point_is_on_segment_and_closest_among_samples(self, a, b, query):
        segment = Segment(a, b)
        closest = segment.closest_point_to(query)
        assert segment.distance_to_point(closest) <= 1e-6
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert query.distance_to(closest) <= query.distance_to(segment.point_at(fraction)) + 1e-6


class TestPolygonProperties:
    @given(rectangles())
    def test_rectangle_area_matches_bbox(self, rectangle):
        box = rectangle.bounding_box
        assert math.isclose(rectangle.area, box.area, rel_tol=1e-9)

    @given(rectangles(), st.randoms(use_true_random=False))
    def test_random_points_are_contained(self, rectangle, rng):
        for _ in range(5):
            assert rectangle.contains_point(rectangle.random_point(rng))

    @given(rectangles())
    def test_centroid_inside(self, rectangle):
        assert rectangle.contains_point(rectangle.centroid)

    @given(rectangles(), finite, finite)
    def test_translation_preserves_area(self, rectangle, dx, dy):
        assert math.isclose(rectangle.translated(dx, dy).area, rectangle.area, rel_tol=1e-9)

    @settings(max_examples=300)
    @given(boundary_queries())
    @example((Polygon([(0, 0), (0, 0), (4, 0), (0, 3)]), Point(0.0, 0.0), 1e-7))
    @example((Polygon([(0, 0), (0, 0), (4, 0), (0, 3)]), Point(-1e-7, 0.0), 1e-7))
    @example((Polygon([(0, 0), (4, 0), (0, 3)]), Point(2.0, 1.5), 1e-7))
    def test_on_boundary_equals_the_segment_reference(self, case):
        polygon, query, tolerance = case
        expected = any(edge.contains_point(query, tolerance) for edge in polygon.edges())
        assert polygon.on_boundary(query, tolerance) == expected


class TestDecompositionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        rectangles(),
        st.floats(min_value=10.0, max_value=500.0),
        st.floats(min_value=1.5, max_value=6.0),
    )
    def test_total_area_is_preserved(self, rectangle, max_area, max_aspect):
        config = DecompositionConfig(max_area=max_area, max_aspect_ratio=max_aspect)
        pieces = decompose(rectangle, config)
        assert math.isclose(total_area(pieces), rectangle.area, rel_tol=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(rectangles(), st.floats(min_value=10.0, max_value=500.0))
    def test_pieces_stay_inside_original_bbox(self, rectangle, max_area):
        config = DecompositionConfig(max_area=max_area)
        outer = rectangle.bounding_box.expanded(1e-6)
        for piece in decompose(rectangle, config):
            box = piece.bounding_box
            assert outer.contains_point(Point(box.min_x, box.min_y))
            assert outer.contains_point(Point(box.max_x, box.max_y))
