"""Exact planar geometry: points, lines, convex polygons, predicates.

Coordinates are Fractions: ``Point`` and ``Line`` pass each value
through ``exactreal.to_fraction``, which refuses an irrational one with
ValueError.  Every predicate is the sign of one int expression over
the points' cached ``homogeneous`` coordinates (X, Y, W), found by
comparing it with 0: orientation is the 3x3 determinant of three
homogeneous rows, expanded as an ``edge_form``; a line's side is its
integer form, built once per line, at (X, Y, W); areas are that
determinant or the shoelace sum over the vertices' common W, made one
Fraction; a clip crossing is built from the line's two homogeneous
values at the edge's ends.  Degenerate results (empty or
lower-dimensional clips, flat hulls) are first-class values, not
errors, so callers can branch on them without try/except.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm

from .exactreal import common_denominator, to_fraction

__all__ = [
    "Point",
    "Segment",
    "Line",
    "Triangle",
    "ConvexPolygon",
    "DegenerateHull",
    "Empty",
    "EMPTY",
    "LowerDimensional",
    "Location",
    "orientation",
    "edge_form",
    "homogeneous",
    "line_crossing",
    "squared_distance",
    "convex_hull",
    "clip_polygon_halfplane",
    "point_in_polygon",
    "segment_intersection",
]


class Point:
    """A rational point of the plane.

    Points are immutable: ``homogeneous`` computes a point's integer
    coordinates on first use and keeps them.
    """

    __slots__ = ("x", "y", "_h")

    def __init__(self, x, y):
        self.x = to_fraction(x, "point coordinates")
        self.y = to_fraction(y, "point coordinates")
        self._h = None

    def __eq__(self, other):
        # The canonical triples, as ``plmap.assemble`` keys vertices.
        if not isinstance(other, Point):
            return NotImplemented
        return homogeneous(self) == homogeneous(other)

    __hash__ = None

    def __repr__(self):
        return f"Point({self.x!r}, {self.y!r})"


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the turn p->q->r: +1 counterclockwise, -1 clockwise, 0 flat."""
    v = _det(p, q, r)
    return (v > 0) - (v < 0)


def _det(p: Point, q: Point, r: Point):
    """The determinant of the homogeneous rows of p, q and r.

    It is twice the signed area of p, q, r times the product of their
    positive W, expanded along r's row through ``edge_form``.
    """
    a, b, c = edge_form(p, q)
    x, y, w = homogeneous(r)
    return a * x + b * y - c * w


def homogeneous(p: Point):
    """Integers (X, Y, W) with p = (X/W, Y/W), computed once per point.

    W > 0 is the lcm of the coordinates' denominators, so the triple is
    canonical: equal points have equal triples.
    """
    h = p._h
    if h is None:
        x, y = p.x, p.y
        dx, dy = x.denominator, y.denominator
        w = lcm(dx, dy)
        h = p._h = x.numerator * (w // dx), y.numerator * (w // dy), w
    return h


def edge_form(p: Point, q: Point):
    """(a, b, c) with orientation(p, q, r) == sign(a*X + b*Y - c*W).

    Here (X, Y, W) = homogeneous(r): the form is the 3x3 determinant of
    the homogeneous p, q and r, expanded along r's row, which is
    orientation scaled by the positive W of p, q and r.
    """
    px, py, pw = homogeneous(p)
    qx, qy, qw = homogeneous(q)
    return py * qw - pw * qy, pw * qx - px * qw, py * qx - px * qy


def squared_distance(p: Point, q: Point):
    """|q - p|^2: one integer expression over homogeneous(p) and (q)."""
    px, py, pw = homogeneous(p)
    qx, qy, qw = homogeneous(q)
    dx = qx * pw - px * qw
    dy = qy * pw - py * qw
    w = pw * qw
    return Fraction(dx * dx + dy * dy, w * w)


class Segment:
    """A closed segment; may be degenerate only where an op allows it."""

    __slots__ = ("p", "q")

    def __init__(self, p: Point, q: Point):
        self.p = p
        self.q = q

    def __eq__(self, other):
        if not isinstance(other, Segment):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    __hash__ = None

    def __repr__(self):
        return f"Segment({self.p!r}, {self.q!r})"


class Line:
    """The locus a*x + b*y = c with rational a, b, c and (a, b) != (0, 0).

    The integer form, (a, b, c) over their common denominator, is built
    on first use and kept.
    """

    __slots__ = ("a", "b", "c", "_form")

    def __init__(self, a, b, c):
        self.a = to_fraction(a, "line coefficients")
        self.b = to_fraction(b, "line coefficients")
        self.c = to_fraction(c, "line coefficients")
        if self.a == 0 and self.b == 0:
            raise ValueError("line coefficients (a, b) must not both be zero")
        self._form = None

    def form(self):
        """(a, b, c) times their common denominator, as ints, built once."""
        if self._form is None:
            self._form = tuple(common_denominator((self.a, self.b, self.c))[0])
        return self._form

    def homogeneous_value(self, p: Point):
        """a*X + b*Y - c*W over the integer form and homogeneous(p).

        That is a*x + b*y - c at p times a positive int.
        """
        a, b, c = self.form()
        x, y, w = homogeneous(p)
        return a * x + b * y - c * w

    def side(self, p: Point) -> int:
        """Sign of a*x + b*y - c at p; 0 means p lies on the line."""
        v = self.homogeneous_value(p)
        return (v > 0) - (v < 0)

    def __eq__(self, other):
        # Same locus, up to scaling of the coefficients.
        if not isinstance(other, Line):
            return NotImplemented
        return (
            self.a * other.b == self.b * other.a
            and self.a * other.c == self.c * other.a
            and self.b * other.c == self.c * other.b
        )

    __hash__ = None

    def __repr__(self):
        return f"Line({self.a!r}, {self.b!r}, {self.c!r})"


class Triangle:
    """A non-degenerate triangle; vertex order is not constrained here."""

    __slots__ = ("v0", "v1", "v2")

    def __init__(self, v0: Point, v1: Point, v2: Point):
        if orientation(v0, v1, v2) == 0:
            raise ValueError("degenerate triangle")
        self.v0 = v0
        self.v1 = v1
        self.v2 = v2

    @property
    def vertices(self):
        return (self.v0, self.v1, self.v2)

    def area2(self):
        """Twice the signed area (positive for counterclockwise order)."""
        w = homogeneous(self.v0)[2] * homogeneous(self.v1)[2] * homogeneous(self.v2)[2]
        return Fraction(_det(self.v0, self.v1, self.v2), w)

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        return self.v0 == other.v0 and self.v1 == other.v1 and self.v2 == other.v2

    __hash__ = None

    def __repr__(self):
        return f"Triangle({self.v0!r}, {self.v1!r}, {self.v2!r})"


class ConvexPolygon:
    """Strictly convex polygon, vertices counterclockwise, no repeats.

    Strict convexity means every consecutive vertex triple turns left,
    which also rules out repeated and collinear vertices.  The edge
    forms are built on first use and kept.
    """

    __slots__ = ("vertices", "_forms")

    def __init__(self, vertices):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        n = len(vs)
        for i in range(n):
            if orientation(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) != 1:
                raise ValueError(
                    "vertices must be strictly convex in counterclockwise order"
                )
        self.vertices = vs
        self._forms = None

    def __len__(self):
        return len(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def edge_forms(self):
        """The edge_form of each edge, counterclockwise; interior is +1."""
        if self._forms is None:
            vs = self.vertices
            n = len(vs)
            self._forms = tuple(edge_form(vs[i], vs[(i + 1) % n]) for i in range(n))
        return self._forms

    def area2(self):
        """Twice the area: the shoelace sum over the vertices' common W."""
        hs = [homogeneous(v) for v in self.vertices]
        w = lcm(*(h[2] for h in hs))
        scaled = [(x * (w // pw), y * (w // pw)) for x, y, pw in hs]
        total = sum(
            x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in zip(scaled, scaled[1:] + scaled[:1])
        )
        return Fraction(total, w * w)

    def __eq__(self, other):
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self.vertices, other.vertices))

    __hash__ = None

    def __repr__(self):
        return f"ConvexPolygon({list(self.vertices)!r})"


class DegenerateHull:
    """Hull of points that do not span the plane.

    dimension 0: all points equal (payload: the point);
    dimension 1: all points collinear (payload: the extreme points).
    """

    __slots__ = ("dimension", "points")

    def __init__(self, dimension: int, points):
        self.dimension = dimension
        self.points = tuple(points)

    def __repr__(self):
        return f"DegenerateHull(dim={self.dimension}, points={list(self.points)!r})"


class Empty:
    """Empty intersection result."""

    __slots__ = ()

    def __repr__(self):
        return "EMPTY"


EMPTY = Empty()


class LowerDimensional:
    """A clip result that collapsed to a point or a segment."""

    __slots__ = ("geometry",)

    def __init__(self, geometry):
        self.geometry = geometry

    def __repr__(self):
        return f"LowerDimensional({self.geometry!r})"


class Location(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def convex_hull(points):
    """Convex hull as a ConvexPolygon, or a DegenerateHull value.

    Monotone chain with exact comparisons; collinear boundary points are
    dropped so the result is strictly convex.
    """
    pts = list(points)
    if not pts:
        raise ValueError("hull of no points")
    pts.sort(key=lambda p: (p.x, p.y))
    dedup = [pts[0]]
    for p in pts[1:]:
        if p != dedup[-1]:
            dedup.append(p)
    pts = dedup
    if len(pts) == 1:
        return DegenerateHull(0, pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2:
        return DegenerateHull(1, (pts[0], pts[-1]))
    return ConvexPolygon(hull)


def clip_polygon_halfplane(poly: ConvexPolygon, line: Line, keep_side: int):
    """Intersection of poly with the closed half-plane side(x) == keep_side.

    poly may be any strictly convex CCW vertex sequence with .vertices,
    such as a Triangle.  Returns a ConvexPolygon when the intersection
    has interior, EMPTY when nothing of poly lies on the closed side,
    and LowerDimensional when it is a single point or segment.
    """
    if keep_side not in (-1, 1):
        raise ValueError("keep_side must be +1 or -1")
    vs = poly.vertices
    n = len(vs)
    sides = [line.side(v) for v in vs]
    if not any(s == keep_side for s in sides):
        on_line = [v for v, s in zip(vs, sides) if s == 0]
        if not on_line:
            return EMPTY
        if len(on_line) == 1:
            return LowerDimensional(on_line[0])
        return LowerDimensional(Segment(on_line[0], on_line[1]))
    out: list[Point] = []
    for i in range(n):
        j = (i + 1) % n
        if sides[i] == keep_side or sides[i] == 0:
            out.append(vs[i])
        if sides[i] * sides[j] < 0:
            out.append(line_crossing(line, vs[i], vs[j]))
    cleaned: list[Point] = []
    for p in out:
        if not cleaned or p != cleaned[-1]:
            cleaned.append(p)
    if len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
        cleaned.pop()
    return ConvexPolygon(cleaned)


def line_crossing(line: Line, p: Point, q: Point) -> Point:
    """The point where segment pq crosses line, p and q strictly apart.

    With hp and hq the line's homogeneous values at p and q, the
    crossing is hp*homogeneous(q) - hq*homogeneous(p): its own value is
    hp*hq - hq*hp = 0, and its W = hp*qw - hq*pw is not zero since hp
    and hq have opposite signs.
    """
    hp = line.homogeneous_value(p)
    hq = line.homogeneous_value(q)
    px, py, pw = homogeneous(p)
    qx, qy, qw = homogeneous(q)
    w = hp * qw - hq * pw
    return Point(Fraction(hp * qx - hq * px, w), Fraction(hp * qy - hq * py, w))


def point_in_polygon(p: Point, poly: ConvexPolygon) -> Location:
    x, y, w = homogeneous(p)
    on_edge = False
    for a, b, c in poly.edge_forms():
        v = a * x + b * y - c * w
        if v < 0:
            return Location.OUTSIDE
        if v == 0:
            on_edge = True
    return Location.BOUNDARY if on_edge else Location.INSIDE


def _on_segment_collinear(p: Point, s: Segment) -> bool:
    # p collinear with s assumed; checks the box extent exactly.
    lo_x, hi_x = sorted((s.p.x, s.q.x))
    lo_y, hi_y = sorted((s.p.y, s.q.y))
    return lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y


def point_on_segment(p: Point, s: Segment) -> bool:
    if s.p == s.q:
        return p == s.p
    if orientation(s.p, s.q, p) != 0:
        return False
    return _on_segment_collinear(p, s)


def segment_intersection(s1: Segment, s2: Segment):
    """Exact intersection: None, a Point, or an overlap Segment."""
    if s1.p == s1.q:
        if point_on_segment(s1.p, s2):
            return Point(s1.p.x, s1.p.y)
        return None
    if s2.p == s2.q:
        if point_on_segment(s2.p, s1):
            return Point(s2.p.x, s2.p.y)
        return None
    d1 = orientation(s2.p, s2.q, s1.p)
    d2 = orientation(s2.p, s2.q, s1.q)
    d3 = orientation(s1.p, s1.q, s2.p)
    d4 = orientation(s1.p, s1.q, s2.q)
    if d1 == 0 and d2 == 0:
        # Collinear: project on the longer axis of s1 and intersect ranges.
        use_x = s1.q.x != s1.p.x

        def key(pt: Point):
            return pt.x if use_x else pt.y

        a, b = (s1.p, s1.q) if key(s1.p) <= key(s1.q) else (s1.q, s1.p)
        c, d = (s2.p, s2.q) if key(s2.p) <= key(s2.q) else (s2.q, s2.p)
        lo = a if key(a) >= key(c) else c
        hi = b if key(b) <= key(d) else d
        if key(lo) > key(hi):
            return None
        if key(lo) == key(hi):
            return Point(lo.x, lo.y)
        return Segment(Point(lo.x, lo.y), Point(hi.x, hi.y))
    if d1 * d2 < 0 and d3 * d4 < 0:
        # Proper crossing: s1 against the line of s2.
        return line_crossing(Line(*edge_form(s2.p, s2.q)), s1.p, s1.q)
    # Touching: at most one shared endpoint-on-segment point.
    for cand in (s1.p, s1.q):
        if point_on_segment(cand, s2):
            return Point(cand.x, cand.y)
    for cand in (s2.p, s2.q):
        if point_on_segment(cand, s1):
            return Point(cand.x, cand.y)
    return None
