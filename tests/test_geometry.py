"""Planar predicates, hulls, clipping, intersections."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofold import sqrt
from isofold.geometry import (
    EMPTY,
    ApexOutside,
    CoincidentPoints,
    ConvexPolygon,
    DegenerateHull,
    Line,
    Location,
    LowerDimensional,
    Point,
    Segment,
    Triangle,
    clip_polygon_halfplane,
    convex_hull,
    edge_form,
    homogeneous,
    orientation,
    perpendicular_bisector,
    point_in_polygon,
    point_on_segment,
    segment_intersection,
    squared_distance,
    triangulate_fan,
)
from isofold.exactreal import sign

coords = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def P(x, y) -> Point:
    return Point(x, y)


def cyclically_equal(poly: ConvexPolygon, expected: list[Point]) -> bool:
    vs = list(poly.vertices)
    if len(vs) != len(expected):
        return False
    n = len(vs)
    for shift in range(n):
        if all(vs[(shift + i) % n] == expected[i] for i in range(n)):
            return True
    return False


class TestOrientation:
    def test_turns(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0

    def test_irrational_coordinates(self):
        # (sqrt2, sqrt2) and (sqrt8, sqrt8) are collinear with the origin.
        assert orientation(P(0, 0), P(sqrt(2), sqrt(2)), P(sqrt(8), sqrt(8))) == 0
        assert orientation(P(0, 0), P(sqrt(2), 0), P(sqrt(2), sqrt(3))) == 1

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        assert orientation(a, b, c) == -orientation(a, c, b)
        assert orientation(a, b, c) == orientation(b, c, a)


class TestPointsAndDistance:
    def test_point_equality_across_representations(self):
        assert P("1/2", 0) == P(Fraction(1, 2), 0)
        assert P(sqrt(8) / 2, 0) == P(sqrt(2), 0)
        assert P(0, 1) != P(0, 2)

    def test_points_are_unhashable(self):
        with pytest.raises(TypeError):
            {P(0, 0)}

    def test_squared_distance(self):
        assert squared_distance(P(0, 0), P(3, 4)) == 25
        assert squared_distance(P(0, 0), P(sqrt(2), sqrt(2))) == 4


class TestLine:
    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Line(0, 0, 5)

    def test_side_and_value(self):
        ln = Line(1, -1, -2)  # y = x + 2
        assert ln.side(P(0, 4)) == -1
        assert ln.side(P(0, 0)) == 1
        assert ln.side(P(1, 3)) == 0
        assert ln.contains(P(0, 2))

    def test_equality_up_to_scale(self):
        assert Line(1, -1, -2) == Line(-3, 3, 6)
        assert Line(1, -1, -2) != Line(1, -1, 0)
        assert Line(2, -1, 8) != Line(1, -1, -2)


class TestPerpendicularBisector:
    def test_worked_bisectors(self):
        assert perpendicular_bisector(P(0, 4), P(2, 2)) == Line(1, -1, -2)
        assert perpendicular_bisector(P(3, 3), P(1, 1)) == Line(1, 1, 4)
        assert perpendicular_bisector(P(3, 3), P(7, 1)) == Line(2, -1, 8)

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            perpendicular_bisector(P(1, 1), P(1, 1))

    @given(coords, coords, coords, coords)
    @settings(max_examples=80, deadline=None)
    def test_equidistance(self, px, py, qx, qy):
        p, q = P(px, py), P(qx, qy)
        if p == q:
            return
        ln = perpendicular_bisector(p, q)
        mid = P((p.x + q.x) / 2, (p.y + q.y) / 2)
        assert ln.contains(mid)
        probe = P(mid.x - (q.y - p.y), mid.y + (q.x - p.x))
        assert ln.contains(probe)
        assert squared_distance(probe, p) == squared_distance(probe, q)


class TestConvexPolygon:
    def test_validation(self):
        ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        with pytest.raises(ValueError):
            ConvexPolygon([P(0, 0), P(4, 0)])
        with pytest.raises(ValueError):
            ConvexPolygon([P(0, 0), P(0, 4), P(4, 0)])  # clockwise
        with pytest.raises(ValueError):
            ConvexPolygon([P(0, 0), P(2, 0), P(4, 0), P(0, 4)])  # collinear
        with pytest.raises(ValueError):
            ConvexPolygon([P(0, 0), P(4, 0), P(4, 0), P(0, 4)])  # repeat

    def test_area2(self):
        tri = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        assert tri.area2() == 16
        square = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        assert square.area2() == 8

    def test_edges(self):
        square = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        es = square.edges()
        assert len(es) == 4
        assert es[0] == Segment(P(0, 0), P(2, 0))
        assert es[3] == Segment(P(0, 2), P(0, 0))


class TestConvexHull:
    def test_square_with_noise(self):
        pts = [
            P(0, 0),
            P(2, 0),
            P(2, 2),
            P(0, 2),
            P(1, 1),  # interior
            P(1, 0),  # mid-edge
            P(0, 0),  # duplicate
        ]
        hull = convex_hull(pts)
        assert isinstance(hull, ConvexPolygon)
        assert cyclically_equal(hull, [P(0, 0), P(2, 0), P(2, 2), P(0, 2)])

    def test_single_point(self):
        h = convex_hull([P(3, 5), P(3, 5)])
        assert isinstance(h, DegenerateHull)
        assert h.dimension == 0
        assert h.points[0] == P(3, 5)

    def test_collinear(self):
        h = convex_hull([P(0, 0), P(1, 1), P(3, 3), P(2, 2)])
        assert isinstance(h, DegenerateHull)
        assert h.dimension == 1
        assert h.points[0] == P(0, 0)
        assert h.points[1] == P(3, 3)

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_hull_contains_inputs(self, raw):
        pts = [P(x, y) for x, y in raw]
        h = convex_hull(pts)
        if isinstance(h, DegenerateHull):
            if h.dimension == 1:
                seg = Segment(h.points[0], h.points[1])
                assert all(point_on_segment(p, seg) for p in pts)
            else:
                assert all(p == h.points[0] for p in pts)
            return
        assert all(
            point_in_polygon(p, h) is not Location.OUTSIDE for p in pts
        )


class TestClip:
    tri = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])

    def test_worked_clip(self):
        out = clip_polygon_halfplane(self.tri, Line(1, -1, -2), -1)
        assert isinstance(out, ConvexPolygon)
        assert cyclically_equal(out, [P(0, 2), P(1, 3), P(0, 4)])

    def test_complement_side(self):
        out = clip_polygon_halfplane(self.tri, Line(1, -1, -2), 1)
        assert isinstance(out, ConvexPolygon)
        assert cyclically_equal(out, [P(0, 0), P(4, 0), P(1, 3), P(0, 2)])

    def test_area_is_partitioned(self):
        ln = Line(1, -1, -2)
        kept = clip_polygon_halfplane(self.tri, ln, -1)
        rest = clip_polygon_halfplane(self.tri, ln, 1)
        assert kept.area2() + rest.area2() == self.tri.area2()

    def test_empty(self):
        assert clip_polygon_halfplane(self.tri, Line(1, 0, 10), 1) is EMPTY

    def test_single_point_contact(self):
        out = clip_polygon_halfplane(self.tri, Line(1, 0, 4), 1)
        assert isinstance(out, LowerDimensional)
        assert out.geometry == P(4, 0)

    def test_edge_contact(self):
        out = clip_polygon_halfplane(self.tri, Line(0, 1, 0), -1)
        assert isinstance(out, LowerDimensional)
        assert isinstance(out.geometry, Segment)
        ends = {0: out.geometry.p, 1: out.geometry.q}
        assert {tuple((v.x, v.y)) for v in ends.values()} == {
            (Fraction(0), Fraction(0)),
            (Fraction(4), Fraction(0)),
        }

    def test_cut_through_vertex(self):
        out = clip_polygon_halfplane(self.tri, Line(1, 1, 4), -1)
        assert isinstance(out, ConvexPolygon)
        assert cyclically_equal(out, [P(0, 0), P(4, 0), P(0, 4)])
        other = clip_polygon_halfplane(self.tri, Line(1, 1, 4), 1)
        assert isinstance(other, LowerDimensional)

    def test_keep_side_validated(self):
        with pytest.raises(ValueError):
            clip_polygon_halfplane(self.tri, Line(1, 0, 1), 0)

    @given(coords, coords, coords, st.sampled_from([-1, 1]))
    @settings(max_examples=120, deadline=None)
    def test_area_partition_random(self, a, b, c, keep):
        if a == 0 and b == 0:
            return
        ln = Line(a, b, c)
        kept = clip_polygon_halfplane(self.tri, ln, keep)
        rest = clip_polygon_halfplane(self.tri, ln, -keep)
        total = Fraction(16)

        def area(res):
            if isinstance(res, ConvexPolygon):
                return res.area2()
            return Fraction(0)

        assert area(kept) + area(rest) == total


class TestTriangulateFan:
    square = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])

    def test_fan_from_vertex(self):
        tris = triangulate_fan(self.square, P(0, 0))
        assert len(tris) == 2
        assert sum(t.area2() for t in tris) == 8
        for t in tris:
            assert orientation(t.v0, t.v1, t.v2) == 1

    def test_fan_from_other_vertex(self):
        tris = triangulate_fan(self.square, P(2, 2))
        assert len(tris) == 2
        assert all(t.v0 == P(2, 2) for t in tris)

    def test_fan_from_interior(self):
        tris = triangulate_fan(self.square, P(1, 1))
        assert len(tris) == 4
        assert sum(t.area2() for t in tris) == 8

    def test_apex_outside_rejected(self):
        with pytest.raises(ApexOutside):
            triangulate_fan(self.square, P(5, 5))
        with pytest.raises(ApexOutside):
            triangulate_fan(self.square, P(1, 0))  # boundary, not a vertex


class TestPointInPolygon:
    tri = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])

    def test_locations(self):
        assert point_in_polygon(P(1, 1), self.tri) is Location.INSIDE
        assert point_in_polygon(P(0, 0), self.tri) is Location.BOUNDARY
        assert point_in_polygon(P(2, 0), self.tri) is Location.BOUNDARY
        assert point_in_polygon(P(2, 2), self.tri) is Location.BOUNDARY
        assert point_in_polygon(P(4, 4), self.tri) is Location.OUTSIDE
        assert point_in_polygon(P(-1, 0), self.tri) is Location.OUTSIDE


def form_sign(form, r: Point) -> int:
    a, b, c = form
    x, y, w = homogeneous(r)
    return sign(a * x + b * y - c * w)


def reference_location(p: Point, poly: ConvexPolygon) -> Location:
    """point_in_polygon as a scan of orientation tests, one per edge."""
    vs = poly.vertices
    turns = [orientation(vs[i], vs[(i + 1) % len(vs)], p) for i in range(len(vs))]
    if min(turns) < 0:
        return Location.OUTSIDE
    return Location.BOUNDARY if 0 in turns else Location.INSIDE


def big_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**25))


class TestEdgeForms:
    def test_homogeneous(self):
        assert homogeneous(P("1/6", "-3/4")) == (2, -9, 12)
        assert homogeneous(P(5, 0)) == (5, 0, 1)
        r = sqrt(2)
        assert homogeneous(P(r, "1/3")) == (r, Fraction(1, 3), 1)

    def test_rational_form_is_integer(self):
        form = edge_form(P("1/3", 0), P(0, "1/5"))
        assert form == (-3, -5, -1)
        assert all(type(v) is int for v in form)
        rng = random.Random(11)
        for _ in range(50):
            p = P(big_fraction(rng), big_fraction(rng))
            q = P(big_fraction(rng), big_fraction(rng))
            assert all(type(v) is int for v in edge_form(p, q))

    def test_sign_matches_orientation_random(self):
        rng = random.Random(5)
        for _ in range(300):
            p, q, r = (P(big_fraction(rng), big_fraction(rng)) for _ in range(3))
            assert form_sign(edge_form(p, q), r) == orientation(p, q, r)

    def test_collinear_points_give_zero(self):
        rng = random.Random(6)
        for _ in range(100):
            p = P(big_fraction(rng), big_fraction(rng))
            q = P(big_fraction(rng), big_fraction(rng))
            t = big_fraction(rng)
            r = P(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
            assert orientation(p, q, r) == 0
            assert form_sign(edge_form(p, q), r) == 0
            assert form_sign(edge_form(p, q), p) == 0
            assert form_sign(edge_form(p, q), q) == 0

    def test_irrational_points(self):
        r2 = sqrt(2)
        pts = [
            P(0, 0), P(2, 0), P("1/3", "7/5"), P(r2, r2), P(2 * r2, 2 * r2),
            P(r2, 1), P(1 - r2 / 4, r2 / 4), P(r2 * r2, 0), P("2/3", r2 - 1),
        ]
        for p in pts:
            for q in pts:
                if p == q:
                    continue
                form = edge_form(p, q)
                for r in pts:
                    assert form_sign(form, r) == orientation(p, q, r), (p, q, r)

    def test_polygon_forms_cached(self):
        poly = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        forms = poly.edge_forms()
        assert poly.edge_forms() is forms
        assert forms == (edge_form(P(0, 0), P(4, 0)), edge_form(P(4, 0), P(0, 4)),
                         edge_form(P(0, 4), P(0, 0)))

    def test_point_in_polygon_matches_orientation_scan(self):
        r2 = sqrt(2)
        polys = [
            ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)]),
            ConvexPolygon([P("1/3", "-2/7"), P("9/2", "1/5"), P("11/3", "13/4"),
                           P("-1/6", "5/2")]),
            ConvexPolygon([P(0, 0), P(2, 0), P(r2, r2)]),
        ]
        tiny = Fraction(1, 10**20)
        for poly in polys:
            vs = poly.vertices
            n = len(vs)
            cx = sum((v.x for v in vs), Fraction(0)) / n
            cy = sum((v.y for v in vs), Fraction(0)) / n
            queries = [P(cx, cy), P(r2 / 3, r2 / 5), P(3, r2)]
            for i in range(n):
                u, v = vs[i], vs[(i + 1) % n]
                mid = P((u.x + v.x) / 2, (u.y + v.y) / 2)
                # Just off the edge, along its outward normal (y, -x).
                off = P(mid.x + (v.y - u.y) * tiny, mid.y - (v.x - u.x) * tiny)
                inward = P(mid.x - (v.y - u.y) * tiny, mid.y + (v.x - u.x) * tiny)
                queries += [u, mid, off, inward]
            for p in queries:
                got = point_in_polygon(p, poly)
                assert got is reference_location(p, poly), p
            locations = {point_in_polygon(p, poly) for p in queries}
            assert locations == set(Location)


class TestSegmentIntersection:
    def test_proper_crossing(self):
        got = segment_intersection(
            Segment(P(0, 0), P(4, 4)), Segment(P(0, 4), P(4, 0))
        )
        assert got == P(2, 2)

    def test_t_junction(self):
        got = segment_intersection(
            Segment(P(0, 0), P(4, 0)), Segment(P(2, 0), P(2, 3))
        )
        assert got == P(2, 0)

    def test_shared_endpoint(self):
        got = segment_intersection(
            Segment(P(0, 0), P(2, 2)), Segment(P(2, 2), P(5, 0))
        )
        assert got == P(2, 2)

    def test_collinear_overlap(self):
        got = segment_intersection(
            Segment(P(0, 0), P(4, 0)), Segment(P(3, 0), P(9, 0))
        )
        assert isinstance(got, Segment)
        assert got == Segment(P(3, 0), P(4, 0))

    def test_collinear_touch(self):
        got = segment_intersection(
            Segment(P(0, 0), P(4, 0)), Segment(P(4, 0), P(9, 0))
        )
        assert got == P(4, 0)

    def test_collinear_disjoint(self):
        got = segment_intersection(
            Segment(P(0, 0), P(1, 0)), Segment(P(2, 0), P(3, 0))
        )
        assert got is None

    def test_parallel(self):
        got = segment_intersection(
            Segment(P(0, 0), P(4, 0)), Segment(P(0, 1), P(4, 1))
        )
        assert got is None

    def test_near_miss(self):
        got = segment_intersection(
            Segment(P(0, 0), P(4, 0)), Segment(P(5, -1), P(5, 1))
        )
        assert got is None

    def test_degenerate_segment(self):
        got = segment_intersection(
            Segment(P(2, 0), P(2, 0)), Segment(P(0, 0), P(4, 0))
        )
        assert got == P(2, 0)
        assert (
            segment_intersection(Segment(P(2, 1), P(2, 1)), Segment(P(0, 0), P(4, 0)))
            is None
        )

    def test_vertical_overlap(self):
        got = segment_intersection(
            Segment(P(1, 0), P(1, 6)), Segment(P(1, 4), P(1, 9))
        )
        assert got == Segment(P(1, 4), P(1, 6))

    def test_irrational_crossing(self):
        got = segment_intersection(
            Segment(P(0, 0), P(sqrt(2), sqrt(2))),
            Segment(P(0, sqrt(2)), P(sqrt(2), 0)),
        )
        assert got == P(sqrt(2) / 2, sqrt(2) / 2)


class TestTriangle:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Triangle(P(0, 0), P(1, 1), P(2, 2))

    def test_area2_signed(self):
        assert Triangle(P(0, 0), P(4, 0), P(0, 4)).area2() == 16
        assert Triangle(P(0, 0), P(0, 4), P(4, 0)).area2() == -16
