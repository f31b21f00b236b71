"""Planar predicates, hulls, clipping, intersections."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofold import ExactNumber, sqrt
from isofold.geometry import (
    EMPTY,
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
    line_crossing,
    orientation,
    point_in_polygon,
    point_on_segment,
    segment_intersection,
    squared_distance,
)
from isofold.exactreal import sign
from isofold.extension import FoldRegion, cone_pieces, cut_line
from isofold.motions import Motion

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
        # Refused before any predicate sees them.
        with pytest.raises(ValueError):
            P(sqrt(2), sqrt(2))
        assert orientation(P(0, 0), P("6/5", "8/5"), P("12/5", "16/5")) == 0
        assert orientation(P(0, 0), P("6/5", 0), P("6/5", "8/5")) == 1

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        assert orientation(a, b, c) == -orientation(a, c, b)
        assert orientation(a, b, c) == orientation(b, c, a)


class TestPointsAndDistance:
    def test_point_equality_across_representations(self):
        assert P("1/2", 0) == P(Fraction(1, 2), 0)
        assert P(ExactNumber("1/2"), 0) == P(sqrt(Fraction(1, 4)), 0) == P("2/4", 0)
        assert P(0, 1) != P(0, 2)

    def test_points_are_unhashable(self):
        with pytest.raises(TypeError):
            {P(0, 0)}

    def test_squared_distance(self):
        assert squared_distance(P(0, 0), P(3, 4)) == 25
        assert squared_distance(P(0, 0), P("6/5", "8/5")) == 4


class TestLine:
    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Line(0, 0, 5)

    def test_side_and_value(self):
        ln = Line(1, -1, -2)  # y = x + 2
        assert ln.side(P(0, 4)) == -1
        assert ln.side(P(0, 0)) == 1
        assert ln.side(P(1, 3)) == 0
        assert ln.side(P(0, 2)) == 0

    def test_equality_up_to_scale(self):
        assert Line(1, -1, -2) == Line(-3, 3, 6)
        assert Line(1, -1, -2) != Line(1, -1, 0)
        assert Line(2, -1, 8) != Line(1, -1, -2)

    def test_form(self):
        assert Line("1/2", "-1/3", 2).form() == (3, -2, 12)
        with pytest.raises(ValueError):
            Line(sqrt(2), 0, sqrt(2))
        two = Line(sqrt(Fraction(4)), 0, 2)  # x = 1
        assert two.form() == (2, 0, 2)
        assert two.side(P(2, 0)) == 1 and two.side(P(1, 5)) == 0


def bisector(p: Point, q: Point):
    """The cut of the identity: points as far from p as from q."""
    return cut_line(Motion.identity(), p, q)


class TestPerpendicularBisector:
    def test_worked_bisectors(self):
        assert bisector(P(0, 4), P(2, 2)) == Line(1, -1, -2)
        assert bisector(P(3, 3), P(1, 1)) == Line(1, 1, 4)
        assert bisector(P(3, 3), P(7, 1)) == Line(2, -1, 8)

    def test_coincident_points(self):
        assert bisector(P(1, 1), P(1, 1)) is None

    @given(coords, coords, coords, coords)
    @settings(max_examples=80, deadline=None)
    def test_equidistance(self, px, py, qx, qy):
        p, q = P(px, py), P(qx, qy)
        if p == q:
            return
        ln = bisector(p, q)
        mid = P((p.x + q.x) / 2, (p.y + q.y) / 2)
        assert ln.side(mid) == 0
        probe = P(mid.x - (q.y - p.y), mid.y + (q.x - p.x))
        assert ln.side(probe) == 0
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
        # Canonical: equal points give equal triples.
        assert homogeneous(P("2/4", "-3/6")) == homogeneous(P("1/2", "-1/2")) == (1, -1, 2)

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
        for x, y in ((r2, r2), (r2, 1), ("2/3", r2 - 1)):
            with pytest.raises(ValueError):
                P(x, y)
        # The same shapes at the rational s.
        s = Fraction(6, 5)
        pts = [
            P(0, 0), P(2, 0), P("1/3", "7/5"), P(s, s), P(2 * s, 2 * s),
            P(s, 1), P(1 - s / 4, s / 4), P(s * s, 0), P("2/3", s - 1),
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
        s = Fraction(7, 5)
        polys = [
            ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)]),
            ConvexPolygon([P("1/3", "-2/7"), P("9/2", "1/5"), P("11/3", "13/4"),
                           P("-1/6", "5/2")]),
            ConvexPolygon([P(0, 0), P(2, 0), P(s, s)]),
        ]
        tiny = Fraction(1, 10**20)
        for poly in polys:
            vs = poly.vertices
            n = len(vs)
            cx = sum((v.x for v in vs), Fraction(0)) / n
            cy = sum((v.y for v in vs), Fraction(0)) / n
            queries = [P(cx, cy), P(s / 3, s / 5), P(3, s)]
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
        # Irrational ends are refused; the crossing of rational ends is
        # rational.
        with pytest.raises(ValueError):
            Segment(P(0, 0), P(sqrt(2), sqrt(2)))
        got = segment_intersection(
            Segment(P(0, 0), P("6/5", "8/5")),
            Segment(P(0, "8/5"), P("6/5", 0)),
        )
        assert got == P("3/5", "4/5")


class TestTriangle:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Triangle(P(0, 0), P(1, 1), P(2, 2))

    def test_area2_signed(self):
        assert Triangle(P(0, 0), P(4, 0), P(0, 4)).area2() == 16
        assert Triangle(P(0, 0), P(0, 4), P(4, 0)).area2() == -16


# The Fraction expressions that the integer kernel replaced, kept as the
# references it must equal.


def ref_orientation(p: Point, q: Point, r: Point) -> int:
    return sign((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def ref_value(line: Line, p: Point):
    return line.a * p.x + line.b * p.y - line.c


def ref_triangle_area2(t: Triangle):
    return (t.v1.x - t.v0.x) * (t.v2.y - t.v0.y) - (t.v1.y - t.v0.y) * (t.v2.x - t.v0.x)


def ref_polygon_area2(poly: ConvexPolygon):
    vs = poly.vertices
    total = Fraction(0)
    for p, q in zip(vs, vs[1:] + vs[:1]):
        total = total + (p.x * q.y - p.y * q.x)
    return total


def ref_crossing(line: Line, p: Point, q: Point) -> Point:
    vp = ref_value(line, p)
    t = vp / (vp - ref_value(line, q))
    return Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


def ref_clip_vertices(poly: ConvexPolygon, line: Line, keep: int):
    """The old clip's vertex walk, for a line that strictly splits poly."""
    vs = poly.vertices
    sides = [sign(ref_value(line, v)) for v in vs]
    out = []
    for i in range(len(vs)):
        j = (i + 1) % len(vs)
        if sides[i] in (keep, 0):
            out.append(vs[i])
        if sides[i] * sides[j] < 0:
            out.append(ref_crossing(line, vs[i], vs[j]))
    return out


def fresh_homogeneous(p: Point):
    """(X, Y, W) with W the lcm of the denominators, computed anew."""
    w = lcm(p.x.denominator, p.y.denominator)
    return int(p.x * w), int(p.y * w), w


wide = st.builds(Fraction, st.integers(-(2**72), 2**72), st.integers(1, 2**64))
small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
R2 = sqrt(2)
tiny = st.sampled_from([Fraction(0), Fraction(1, 2**64), Fraction(-1, 2**64)])


def point(xs):
    return st.builds(Point, xs, xs)


@st.composite
def near_collinear(draw, xs):
    """p, q and r within a tiny offset of the line pq, often on it."""
    p, q = draw(point(xs)), draw(point(xs))
    t, e = draw(xs), draw(tiny)
    return p, q, Point(p.x + t * (q.x - p.x) + e, p.y + t * (q.y - p.y) - e)


@st.composite
def line_and_points(draw, xs):
    """A drawn line, two points on it, one within a tiny offset, one drawn."""
    a, b, c = draw(xs), draw(xs), draw(xs)
    if a == 0 and b == 0:
        b = Fraction(1)

    def on(t):
        return Point(t, (c - a * t) / b) if b != 0 else Point(c / a, t)

    near, e = on(draw(xs)), draw(tiny)
    near = Point(near.x + e, near.y - e)
    return Line(a, b, c), [on(draw(xs)), on(draw(xs)), near, draw(point(xs))]


class TestIntegerKernel:
    """The integer kernel equals the Fraction expressions it replaced."""

    def check_triple(self, p, q, r):
        for a, b, c in ((p, q, r), (q, r, p), (r, q, p)):
            assert orientation(a, b, c) == ref_orientation(a, b, c)
        if orientation(p, q, r) != 0:
            t = Triangle(p, q, r)
            assert t.area2() == ref_triangle_area2(t)

    @given(near_collinear(wide))
    @settings(max_examples=120, deadline=None)
    def test_orientation_and_triangle_area_wide(self, triple):
        self.check_triple(*triple)

    @staticmethod
    def check_refused(value, b):
        """value + b*sqrt(2) is refused by Point and Line when b != 0."""
        if b:
            with pytest.raises(ValueError):
                Point(value + b * R2, 0)
            with pytest.raises(ValueError):
                Line(1, 0, value + b * R2)

    # The sqrt2 tests draw a + b*sqrt(2): the kernel checks the rational
    # draws (b = 0), and the others must be refused.

    @given(near_collinear(small), small)
    @settings(max_examples=20, deadline=None)
    def test_orientation_and_triangle_area_sqrt2(self, triple, b):
        self.check_triple(*triple)
        self.check_refused(triple[0].x, b)

    def check_line(self, line, points):
        for p in points:
            assert line.side(p) == sign(ref_value(line, p))
        assert line.side(points[0]) == line.side(points[1]) == 0
        for p in points:
            for q in points:
                if line.side(p) * line.side(q) < 0:
                    assert line_crossing(line, p, q) == ref_crossing(line, p, q)

    @given(line_and_points(wide))
    @settings(max_examples=100, deadline=None)
    def test_line_side_and_crossing_wide(self, drawn):
        self.check_line(*drawn)

    @given(line_and_points(small), small)
    @settings(max_examples=12, deadline=None)
    def test_line_side_and_crossing_sqrt2(self, drawn, b):
        self.check_line(*drawn)
        self.check_refused(drawn[0].c, b)

    def check_polygon(self, points, cuts):
        hull = convex_hull(points)
        if not isinstance(hull, ConvexPolygon):
            return
        assert hull.area2() == ref_polygon_area2(hull)
        a, b, c = hull.vertices[:3]
        # Every line through this interior point strictly splits the hull;
        # the one through a also meets the hull at a vertex.
        inside = P((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
        for v in [a, *cuts]:
            if v == inside:
                continue
            line = Line(*edge_form(inside, v))
            for keep in (-1, 1):
                got = clip_polygon_halfplane(hull, line, keep)
                assert list(got.vertices) == ref_clip_vertices(hull, line, keep)
                assert got.area2() == ref_polygon_area2(got)
                for x in got.vertices:
                    assert homogeneous(x) == fresh_homogeneous(x)

    @given(
        st.lists(point(wide), min_size=3, max_size=7),
        st.lists(point(wide), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_polygon_area_and_clip_wide(self, points, cuts):
        self.check_polygon(points, cuts)

    @given(
        st.lists(point(small), min_size=3, max_size=5),
        st.lists(point(small), max_size=1),
        small,
    )
    @settings(max_examples=10, deadline=None)
    def test_polygon_area_and_clip_sqrt2(self, points, cuts, b):
        self.check_polygon(points, cuts)
        self.check_refused(points[0].y, b)

    @given(st.lists(point(wide), min_size=3, max_size=3), wide)
    @settings(max_examples=60, deadline=None)
    def test_cone_split_point(self, corners, s):
        apex, u, v = corners
        if orientation(apex, u, v) != 1:
            return
        # A fold line through the apex and a point strictly inside [u, v].
        s = Fraction(1, 2) + (s - int(s)) / 3
        inside = P(u.x + s * (v.x - u.x), u.y + s * (v.y - u.y))
        line = Line(*edge_form(apex, inside))
        rigid, reflected = Motion.identity(), Motion.translation(1, 0)
        region = FoldRegion([apex, u, v], u, v, rigid, line, reflected)
        pieces, splits = cone_pieces(region)
        assert splits == 1
        (first, m1), (second, m2) = pieces
        assert first.v2 == second.v1 == ref_crossing(line, u, v) == inside
        assert (m1, m2) == (rigid, reflected)

    @given(st.one_of(point(wide), point(small)))
    @settings(max_examples=80, deadline=None)
    def test_homogeneous_cache(self, p):
        h = homogeneous(p)
        assert homogeneous(p) is h
        assert h == fresh_homogeneous(p)
        assert h[2] > 0
