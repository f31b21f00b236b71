"""Piecewise-linear maps: a triangulation with one motion per cell.

The container is deliberately tolerant at construction (index bounds
only); deep coherence lives in ``validate`` so that structurally broken
inputs parsed from files are reported through a ValidationReport rather
than an exception mid-parse.
"""

from __future__ import annotations

from .exactreal import equals
from .geometry import (
    ConvexPolygon,
    Line,
    Location,
    Point,
    Segment,
    Triangle,
    clip_polygon_halfplane,
    orientation,
    point_in_polygon,
    segment_intersection,
)
from .motions import Motion

__all__ = [
    "PLMap",
    "OutsideDomain",
    "IndexOutOfRange",
    "ValidationReport",
    "assemble",
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


def _rational_bbox(points):
    xs = [p.x._rat for p in points]
    ys = [p.y._rat for p in points]
    if any(v is None for v in xs) or any(v is None for v in ys):
        return None
    return min(xs), max(xs), min(ys), max(ys)


class PLMap:
    """A triangulated convex domain with a motion attached to each cell.

    triangles holds (i, j, k, m) index rows into vertices and motions.
    """

    __slots__ = ("domain", "vertices", "triangles", "motions", "_boxes")

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
            i, j, k, m = row
            if not all(0 <= ix < nv for ix in (i, j, k)):
                raise IndexOutOfRange(f"vertex index out of range in {row}")
            if not 0 <= m < nm:
                raise IndexOutOfRange(f"motion index out of range in {row}")
        self._boxes = None

    @classmethod
    def unchecked(cls, domain, vertices, triangles, motions) -> "PLMap":
        m = object.__new__(cls)
        m.domain = domain
        m.vertices = tuple(vertices)
        m.triangles = tuple(tuple(row) for row in triangles)
        m.motions = tuple(motions)
        m._boxes = None
        return m

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

    def _bboxes(self):
        if self._boxes is None:
            self._boxes = [
                _rational_bbox([self.vertices[i], self.vertices[j], self.vertices[k]])
                for i, j, k, _ in self.triangles
            ]
        return self._boxes

    def locate(self, p: Point) -> int:
        """Index of a triangle containing p (boundary inclusive)."""
        px, py = p.x._rat, p.y._rat
        boxes = self._bboxes() if px is not None and py is not None else None
        vs = self.vertices
        for t, (i, j, k, _) in enumerate(self.triangles):
            if boxes is not None:
                box = boxes[t]
                if box is not None and (
                    px < box[0] or px > box[1] or py < box[2] or py > box[3]
                ):
                    continue
            a, b, c = vs[i], vs[j], vs[k]
            if (
                orientation(a, b, p) >= 0
                and orientation(b, c, p) >= 0
                and orientation(c, a, p) >= 0
            ):
                return t
        raise OutsideDomain("point is not covered by any triangle")

    def evaluate(self, p: Point) -> Point:
        return self.motions[self.triangles[self.locate(p)][3]].apply(p)

    def validate(self) -> ValidationReport:
        checks = []
        checks.append(self._check_cells())
        if checks[-1][1]:
            checks.append(self._check_area())
            checks.append(self._check_overlaps())
        else:
            checks.append(("area-sum", False, "skipped: broken cells"))
            checks.append(("intersection-dimension", False, "skipped: broken cells"))
        checks.append(self._check_motions())
        if checks[0][1] and checks[-1][1]:
            checks.append(self._check_edge_agreement())
        else:
            checks.append(("edge-agreement", False, "skipped: broken cells or motions"))
        return ValidationReport(checks)

    def _check_cells(self):
        nv = len(self.vertices)
        nm = len(self.motions)
        for t, row in enumerate(self.triangles):
            if len(row) != 4:
                return ("triangle-orientation", False, f"row {t} is not a quadruple")
            i, j, k, m = row
            if not all(isinstance(ix, int) and 0 <= ix < nv for ix in (i, j, k)):
                return ("triangle-orientation", False, f"bad vertex index in row {t}")
            if not (isinstance(m, int) and 0 <= m < nm):
                return ("triangle-orientation", False, f"bad motion index in row {t}")
            if orientation(self.vertices[i], self.vertices[j], self.vertices[k]) != 1:
                return (
                    "triangle-orientation",
                    False,
                    f"triangle {t} is not positively oriented",
                )
        return ("triangle-orientation", True, f"{len(self.triangles)} cells")

    def _check_area(self):
        """Cells inside the domain whose areas sum to the domain's area.

        Together with disjoint interiors (the next check) this proves the
        cells tile the domain exactly: a cell outside it could otherwise
        make up the area of a hole.
        """
        total = None
        for t in range(len(self.triangles)):
            a2 = self.cell(t).area2()
            total = a2 if total is None else total + a2
        if total is None:
            return ("area-sum", False, "no triangles")
        used = sorted({i for row in self.triangles for i in row[:3]})
        for i in used:
            if point_in_polygon(self.vertices[i], self.domain) is Location.OUTSIDE:
                return ("area-sum", False, f"vertex {i} lies outside the domain")
        if equals(total, self.domain.area2()):
            return ("area-sum", True, "cells lie in the domain and tile its area exactly")
        return ("area-sum", False, "triangle areas do not sum to the domain area")

    def _triangle_poly(self, t: int) -> ConvexPolygon:
        i, j, k, _ = self.triangles[t]
        return ConvexPolygon([self.vertices[i], self.vertices[j], self.vertices[k]])

    def _check_overlaps(self):
        boxes = self._bboxes()
        n = len(self.triangles)
        for s in range(n):
            ps = self._triangle_poly(s)
            for t in range(s + 1, n):
                bs, bt = boxes[s], boxes[t]
                if bs is not None and bt is not None:
                    if bs[1] < bt[0] or bt[1] < bs[0] or bs[3] < bt[2] or bt[3] < bs[2]:
                        continue
                region = ps
                for edge in self._triangle_poly(t).edges():
                    # Interior of a ccw polygon is the +1 side of this form.
                    line_a = edge.p.y - edge.q.y
                    line_b = edge.q.x - edge.p.x
                    ln = Line(line_a, line_b, line_a * edge.p.x + line_b * edge.p.y)
                    region = clip_polygon_halfplane(region, ln, 1)
                    if not isinstance(region, ConvexPolygon):
                        break
                if isinstance(region, ConvexPolygon):
                    return (
                        "intersection-dimension",
                        False,
                        f"triangles {s} and {t} overlap with interior",
                    )
        return ("intersection-dimension", True, "pairwise interiors are disjoint")

    def _check_motions(self):
        for i, m in enumerate(self.motions):
            if not m.is_orthogonal():
                return ("motion-orthogonality", False, f"motion {i} is not orthogonal")
        return ("motion-orthogonality", True, f"{len(self.motions)} motions")

    def _check_edge_agreement(self):
        boxes = self._bboxes()
        n = len(self.triangles)
        cells = [self._triangle_poly(t) for t in range(n)]
        for s in range(n):
            ms = self.motions[self.triangles[s][3]]
            for t in range(s + 1, n):
                bs, bt = boxes[s], boxes[t]
                if bs is not None and bt is not None:
                    if bs[1] < bt[0] or bt[1] < bs[0] or bs[3] < bt[2] or bt[3] < bs[2]:
                        continue
                mt = self.motions[self.triangles[t][3]]
                if ms is mt:
                    continue
                for es in cells[s].edges():
                    for et in cells[t].edges():
                        shared = segment_intersection(es, et)
                        if shared is None:
                            continue
                        if isinstance(shared, Segment):
                            probes = (shared.p, shared.q)
                        else:
                            probes = (shared,)
                        for p in probes:
                            if ms.apply(p) != mt.apply(p):
                                return (
                                    "edge-agreement",
                                    False,
                                    f"triangles {s} and {t} disagree on a shared point",
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


def assemble(domain: ConvexPolygon, pieces) -> PLMap:
    """Build a PLMap from (Triangle, Motion) pairs, sharing repeats.

    Rational vertices dedupe through a dictionary; irrational ones fall
    back to an exact linear scan.
    """
    vertices: list[Point] = []
    rational_index: dict = {}
    triangles = []
    motions: list[Motion] = []

    def vertex_id(p: Point) -> int:
        xr, yr = p.x._rat, p.y._rat
        if xr is not None and yr is not None:
            key = (xr, yr)
            got = rational_index.get(key)
            if got is None:
                rational_index[key] = got = len(vertices)
                vertices.append(p)
            return got
        for i, q in enumerate(vertices):
            if q == p:
                return i
        vertices.append(p)
        return len(vertices) - 1

    def motion_id(m: Motion) -> int:
        for i, known in enumerate(motions):
            if known is m or known == m:
                return i
        motions.append(m)
        return len(motions) - 1

    for tri, motion in pieces:
        if orientation(tri.v0, tri.v1, tri.v2) != 1:
            raise ValueError("assemble expects positively oriented triangles")
        triangles.append(
            (vertex_id(tri.v0), vertex_id(tri.v1), vertex_id(tri.v2), motion_id(motion))
        )
    return PLMap(domain, vertices, triangles, motions)
