"""Piecewise-linear maps: a triangulation with one motion per cell.

The constructor is the one gate for triangle rows (quadruples of ints
in range) and checks nothing else; geometric coherence lives in
``validate`` so that broken maps parsed from files are reported through
a ValidationReport rather than an exception mid-parse.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from math import isqrt, lcm
from operator import itemgetter

from .geometry import (
    ConvexPolygon,
    Location,
    Point,
    Triangle,
    edge_form,
    homogeneous,
    orientation,
    point_in_polygon,
)
from .motions import Motion

__all__ = [
    "PLMap",
    "OutsideDomain",
    "IndexOutOfRange",
    "ValidationReport",
    "assemble",
    "motion_ids",
]


class OutsideDomain(ValueError):
    """Query point lies outside the map's domain polygon."""


class IndexOutOfRange(IndexError):
    """Triangle index does not name a cell of the map."""


class ValidationReport:
    """Outcome of the structural checks, one named entry per check."""

    __slots__ = ("checks",)

    def __init__(self, checks):
        self.checks = tuple(checks)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }

    def __repr__(self):
        status = "ok" if self.all_passed else "failed"
        return f"ValidationReport({status}, {len(self.checks)} checks)"


# The face index of the region outside the domain.
OUTSIDE = -1


def _bucket(scale, x, y, w):
    """Column and row of the point (x/w, y/w) in a ``PLMap._cell_grid``.

    Column floor(n (x/w - x0/W) / (dx/W)), clamped to 0..n-1, and
    likewise the row: for w > 0 both are integer floor divisions.
    """
    n, nw, nx0, ny0, dx, dy = scale
    col = (nw * x - nx0 * w) // (dx * w)
    row = (nw * y - ny0 * w) // (dy * w)
    return min(max(col, 0), n - 1), min(max(row, 0), n - 1)


class PLMap:
    """A triangulated convex domain with a motion attached to each cell.

    triangles holds (i, j, k, m) index rows into vertices and motions.
    The cells' edge forms and the bucket grid that ``locate`` reads are
    built on first use and kept.
    """

    __slots__ = ("domain", "vertices", "triangles", "motions", "_forms", "_grid")

    def __init__(self, domain: ConvexPolygon, vertices, triangles, motions):
        self.domain = domain
        self.vertices = tuple(vertices)
        self.triangles = tuple(tuple(row) for row in triangles)
        self.motions = tuple(motions)
        nv = len(self.vertices)
        nm = len(self.motions)
        for row in self.triangles:
            if len(row) != 4:
                raise ValueError("triangle rows are (i, j, k, motion) quadruples")
            if not all(type(ix) is int for ix in row):
                raise TypeError(f"triangle row entries must be ints: {row}")
            i, j, k, m = row
            if not all(0 <= ix < nv for ix in (i, j, k)):
                raise IndexOutOfRange(f"vertex index out of range in {row}")
            if not 0 <= m < nm:
                raise IndexOutOfRange(f"motion index out of range in {row}")
        self._forms = None
        self._grid = None

    def __len__(self):
        return len(self.triangles)

    def cell(self, index: int) -> Triangle:
        if not 0 <= index < len(self.triangles):
            raise IndexOutOfRange(f"no triangle {index}")
        i, j, k, _ = self.triangles[index]
        return Triangle(self.vertices[i], self.vertices[j], self.vertices[k])

    def restrict_motion(self, index: int) -> Motion:
        if not 0 <= index < len(self.triangles):
            raise IndexOutOfRange(f"no triangle {index}")
        return self.motions[self.triangles[index][3]]

    def _cell_forms(self):
        if self._forms is None:
            vs = self.vertices
            self._forms = [
                (edge_form(vs[i], vs[j]), edge_form(vs[j], vs[k]), edge_form(vs[k], vs[i]))
                for i, j, k, _ in self.triangles
            ]
        return self._forms

    def _cell_grid(self):
        """About isqrt(T) x isqrt(T) buckets over the domain's bounding box.

        Returns (scale, buckets): scale is the (n, n W, n x0, n y0, dx,
        dy) of ``_bucket``, with the box's corner (x0, y0) and sides dx,
        dy as numerators over the domain vertices' common W.  buckets[r *
        n + c] lists, in index order, every cell whose vertices' buckets
        span column c and row r.  Floor and clamping are monotone, so a
        cell covering a point lies in that point's bucket, even a
        clockwise cell or one with vertices outside the domain.  A cell
        with collinear vertices covers a whole line, or the plane when
        they coincide, so it goes into every bucket.
        """
        if self._grid is None:
            coords = [homogeneous(v) for v in self.domain.vertices]
            w0 = lcm(*(w for _, _, w in coords))
            xs = [x * (w0 // w) for x, _, w in coords]
            ys = [y * (w0 // w) for _, y, w in coords]
            x0, y0 = min(xs), min(ys)
            n = max(1, isqrt(len(self.triangles)))
            scale = (n, n * w0, n * x0, n * y0, max(xs) - x0, max(ys) - y0)
            hs = [homogeneous(v) for v in self.vertices]
            at = [_bucket(scale, *h) for h in hs]
            buckets = [[] for _ in range(n * n)]
            for t, ((i, j, k, _), ((a, b, c), _, _)) in enumerate(
                zip(self.triangles, self._cell_forms())
            ):
                x, y, w = hs[k]
                if a * x + b * y == c * w:
                    col0, col1, row0, row1 = 0, n - 1, 0, n - 1
                else:
                    # The least and greatest of three columns and rows,
                    # without min and max calls: the grid is rebuilt for
                    # every step's new map.
                    (col0, row0), (col1, row1), (ck, rk) = at[i], at[j], at[k]
                    if col0 > col1:
                        col0, col1 = col1, col0
                    if ck < col0:
                        col0 = ck
                    elif ck > col1:
                        col1 = ck
                    if row0 > row1:
                        row0, row1 = row1, row0
                    if rk < row0:
                        row0 = rk
                    elif rk > row1:
                        row1 = rk
                for start in range(row0 * n + col0, row1 * n + col0 + 1, n):
                    for bucket in buckets[start:start + col1 - col0 + 1]:
                        bucket.append(t)
            self._grid = scale, buckets
        return self._grid

    def locate(self, p: Point) -> int:
        """Index of the first triangle containing p (boundary inclusive)."""
        return self.locate_homogeneous(*homogeneous(p))

    def locate_homogeneous(self, x, y, w) -> int:
        """``locate`` for the point (x/w, y/w), given with w > 0.

        Ints, as ``geometry.homogeneous`` gives them, skip building a
        Point and reducing its coordinates.  Only the cells in the
        point's bucket of ``_cell_grid`` are tested, in index order, so
        the answer is the first covering cell of the whole list.
        """
        scale, buckets = self._cell_grid()
        col, row = _bucket(scale, x, y, w)
        forms = self._forms
        for t in buckets[row * scale[0] + col]:
            (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = forms[t]
            if (
                a0 * x + b0 * y >= c0 * w
                and a1 * x + b1 * y >= c1 * w
                and a2 * x + b2 * y >= c2 * w
            ):
                return t
        raise OutsideDomain("point is not covered by any triangle")

    def evaluate(self, p: Point) -> Point:
        return self.motions[self.triangles[self.locate(p)][3]].apply(p)

    def validate(self) -> ValidationReport:
        cells, dets = self._check_cells()
        checks = [cells]
        if cells[1]:
            pieces, cuts = self._edge_lines()
            checks.append(self._check_area(dets))
            checks.append(self._check_faces(pieces, checks[-1][1]))
        else:
            checks.append(("area-sum", False, "skipped: broken cells"))
            checks.append(("intersection-dimension", False, "skipped: broken cells"))
        checks.append(self._check_motions())
        if checks[0][1] and checks[-1][1]:
            checks.append(self._check_cut_images(cuts))
        else:
            checks.append(("edge-agreement", False, "skipped: broken cells or motions"))
        return ValidationReport(checks)

    def _check_cells(self):
        """Every cell turns counterclockwise; returns (check, determinants).

        A cell's determinant is its first edge form at its third vertex,
        the 3x3 determinant of its homogeneous rows: twice its area times
        the product of its vertices' W.
        """
        vs = self.vertices
        dets = []
        for t, ((_, _, k, _), ((a, b, c), _, _)) in enumerate(
            zip(self.triangles, self._cell_forms())
        ):
            x, y, w = homogeneous(vs[k])
            det = a * x + b * y - c * w
            if det <= 0:
                failed = f"triangle {t} is not positively oriented"
                return ("triangle-orientation", False, failed), None
            dets.append(det)
        return ("triangle-orientation", True, f"{len(self.triangles)} cells"), dets

    def _check_area(self, dets):
        """Cells inside the domain whose areas sum to the domain's area.

        Each cell's area is its determinant from ``_check_cells`` over
        the product of its vertices' W.  Together with one face on each
        side of every edge piece (the next check) this proves the cells
        tile the domain exactly: a cell outside it could otherwise make up
        the area of a hole.
        """
        if not dets:
            return ("area-sum", False, "no triangles")
        vs = self.vertices
        total = sum(
            Fraction(det, homogeneous(vs[i])[2] * homogeneous(vs[j])[2] * homogeneous(vs[k])[2])
            for det, (i, j, k, _) in zip(dets, self.triangles)
        )
        used = sorted({i for row in self.triangles for i in row[:3]})
        for i in used:
            if point_in_polygon(self.vertices[i], self.domain) is Location.OUTSIDE:
                return ("area-sum", False, f"vertex {i} lies outside the domain")
        if total == self.domain.area2():
            return ("area-sum", True, "cells lie in the domain and tile its area exactly")
        return ("area-sum", False, "triangle areas do not sum to the domain area")

    def _edge_lines(self):
        """Faces beside every piece of every edge line, and cells at its cuts.

        Every cell edge is walked counterclockwise with the cell as its
        face, and every domain edge reversed with OUTSIDE as its face,
        so each face lies on the positive side of its edge's form.  The
        line's key is that form divided by a, or by b when a == 0; the
        divisor's sign says which side of the key the face is on.  Each
        line is cut at every endpoint of its edges, by position y, or x
        on a horizontal line.  Returns (pieces, cuts): for each piece,
        the faces on the key's positive and on its negative side, cells
        before OUTSIDE; for each cut point on two or more cell edges,
        the point and those cells in index order.
        """
        vs = self.vertices
        walk = []
        for t, ((i, j, k, _), forms) in enumerate(zip(self.triangles, self._cell_forms())):
            walk += zip((vs[i], vs[j], vs[k]), (vs[j], vs[k], vs[i]), forms, (t, t, t))
        dom = self.domain.vertices
        walk += ((v, u, edge_form(v, u), OUTSIDE) for u, v in zip(dom, dom[1:] + dom[:1]))
        edges = []
        for u, v, (a, b, c), face in walk:
            if a != 0:
                key, side, pu, pv = (1, Fraction(b, a), Fraction(c, a)), 1 if a > 0 else -1, u.y, v.y
            else:
                key, side, pu, pv = (0, 1, Fraction(c, b)), 1 if b > 0 else -1, u.x, v.x
            edges.append((key, side, ((pu, u), (pv, v)), face))
        edges.sort(key=itemgetter(0))
        pieces = []
        cuts = []
        for _, line in groupby(edges, key=itemgetter(0)):
            line = list(line)
            ends = sorted((end for _, _, ends, _ in line for end in ends), key=itemgetter(0))
            points = [next(same) for _, same in groupby(ends, key=itemgetter(0))]
            at = [position for position, _ in points]
            sides = [([], []) for _ in range(len(points) - 1)]
            cells = [[] for _ in points]
            for _, side, ((p, _), (q, _)), face in line:
                lo, hi = sorted((bisect_left(at, p), bisect_left(at, q)))
                for piece in sides[lo:hi]:
                    piece[side < 0].append(face)
                if face != OUTSIDE:
                    for cut in cells[lo:hi + 1]:
                        cut.append(face)
            pieces += sides
            cuts += [(p, c) for (_, p), c in zip(points, cells) if len(c) > 1]
        return pieces, cuts

    def _check_faces(self, pieces, area_ok):
        """At most one cell, and with exact areas one face, on each side.

        With one face on each side of every piece, crossing an edge never
        changes how many faces cover a point; that count is 1 far
        outside the domain, so the cells tile it exactly.  A bare side
        with exact areas means an overlap elsewhere; without them,
        area-sum has failed already.  With exact areas every vertex lies
        in the domain, so no cell shares a side with OUTSIDE.
        """
        for sides in pieces:
            for faces in sides:
                if len(faces) > 1 and faces[1] != OUTSIDE:
                    return (
                        "intersection-dimension",
                        False,
                        f"triangles {faces[0]} and {faces[1]} overlap with interior",
                    )
                if area_ok and not faces and any(sides):
                    t = (sides[0] or sides[1])[0]
                    where = "a domain edge" if t == OUTSIDE else f"an edge of triangle {t}"
                    return ("intersection-dimension", False, f"{where} has no cell across it")
        return ("intersection-dimension", True, "pairwise interiors are disjoint")

    def _check_motions(self):
        for i, m in enumerate(self.motions):
            if not m.is_orthogonal():
                return ("motion-orthogonality", False, f"motion {i} is not orthogonal")
        return ("motion-orthogonality", True, f"{len(self.motions)} motions")

    def _check_cut_images(self, cuts):
        """Cells whose edges on a line contain a cut point agree there.

        Affine motions agreeing at both ends of a shared piece agree
        along it, and around a vertex neighbouring cells share such
        pieces, so the map is continuous.
        """
        rows, motions = self.triangles, self.motions
        for p, cells in cuts:
            first = rows[cells[0]][3]
            image = motions[first].apply(p)
            for t in cells[1:]:
                m = rows[t][3]
                if m != first and motions[m].apply(p) != image:
                    return (
                        "edge-agreement",
                        False,
                        f"triangles {cells[0]} and {t} disagree on a shared point",
                    )
        return ("edge-agreement", True, "adjacent cells agree on shared boundaries")

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.domain != other.domain:
            return False
        if self.triangles != other.triangles:
            return False
        if len(self.vertices) != len(other.vertices):
            return False
        if any(a != b for a, b in zip(self.vertices, other.vertices)):
            return False
        if len(self.motions) != len(other.motions):
            return False
        return all(a == b for a, b in zip(self.motions, other.motions))

    __hash__ = None

    def __repr__(self):
        return (
            f"PLMap({len(self.triangles)} triangles, "
            f"{len(self.vertices)} vertices, {len(self.motions)} motions)"
        )


def motion_ids(motions):
    """Index of each motion among the distinct ones, and those motions.

    Equal motions share an index through a dictionary keyed by their
    integer forms, which are canonical and hash far faster than the
    Fractions.
    """
    ids = []
    distinct: list[Motion] = []
    index: dict = {}
    for m in motions:
        key = m.form()
        got = index.get(key)
        if got is None:
            index[key] = got = len(distinct)
            distinct.append(m)
        ids.append(got)
    return ids, distinct


def assemble(domain: ConvexPolygon, pieces) -> PLMap:
    """Build a PLMap from (Triangle or ConvexPolygon, Motion) pairs.

    A Triangle becomes one row as given and must be positively oriented;
    a ConvexPolygon becomes its fan from its first vertex.  Vertices
    dedupe through a dictionary keyed by their canonical ``homogeneous``
    triples, motions through ``motion_ids``.
    """
    pieces = list(pieces)
    motion_of, motions = motion_ids([m for _, m in pieces])
    vertices: list[Point] = []
    index: dict = {}
    triangles = []

    def vertex_id(p: Point) -> int:
        key = homogeneous(p)
        got = index.get(key)
        if got is None:
            index[key] = got = len(vertices)
            vertices.append(p)
        return got

    for (piece, _), m in zip(pieces, motion_of):
        vs = piece.vertices
        if isinstance(piece, Triangle) and orientation(*vs) != 1:
            raise ValueError("assemble expects positively oriented triangles")
        ids = [vertex_id(v) for v in vs]
        triangles += ((ids[0], ids[k], ids[k + 1], m) for k in range(1, len(ids) - 1))
    return PLMap(domain, vertices, triangles, motions)
