"""Inductive construction of non-expansive PL extensions.

Given finitely many rational point pairs (a_i, b_i) with
|b_i - b_j| <= |a_i - a_j| for all i, j, build a piecewise-linear map f
on the convex hull of the a_i with f(a_i) = b_i, assembled from exact
planar motions.  Points are added one at a time: each step carves out
the refit region (where the current map is too far from the new target),
refans it from the new source point, and covers the region's contact
with the hull boundary by rigid pieces, folded once where needed.

All branch decisions are exact.  With rational input the whole pipeline
stays rational: motions come from two-point solves over squared
distances and never take a square root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import NamedTuple

from .exactreal import ExactNumber, compare, equals, sign
from .geometry import (
    ConvexPolygon,
    DegenerateHull,
    Line,
    Point,
    Segment,
    Triangle,
    clip_polygon_halfplane,
    convex_hull,
    orientation,
    perpendicular_bisector,
    point_in_polygon,
    squared_distance,
    triangulate_fan,
    Location,
)
from .motions import Motion, compose, from_three_points, from_two_pairs, line_preimage, reflection_across_line
from .plmap import PLMap, assemble

__all__ = [
    "Instance",
    "Violation",
    "NonExpansivenessViolation",
    "DegenerateHullError",
    "TargetAlreadyMatched",
    "ConstructionError",
    "DegenerateFanTriangle",
    "ChordTooLong",
    "RefitRegion",
    "FoldRegion",
    "StepTrace",
    "ExtensionTrace",
    "check_nonexpansive",
    "base_case",
    "pullback_center",
    "refit_region",
    "fan_extension",
    "fold_boundary_region",
    "cone_pieces",
    "extend_step",
    "extend_step_traced",
    "extend_all",
    "extend_all_traced",
]


class Violation(NamedTuple):
    """First point pair breaking the distance condition."""

    i: int
    j: int


class NonExpansivenessViolation(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(
            f"pairs {violation.i} and {violation.j} move apart: "
            "target distance exceeds source distance"
        )
        self.pair = violation


class DegenerateHullError(ValueError):
    """Sources span a point or a line, not the plane.

    For a single point the extension exists anyway (a translation) and
    rides along in .translation.
    """

    def __init__(self, dimension: int, translation: Motion | None):
        super().__init__(f"source hull has dimension {dimension}, need 2")
        self.dimension = dimension
        self.translation = translation


class TargetAlreadyMatched(ValueError):
    """The current map already sends the new source to its target."""


class ConstructionError(RuntimeError):
    """An invariant of the construction broke; the map would be wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ConstructionError(what)


class DegenerateFanTriangle(ConstructionError):
    """Fan apex collinear with a boundary chord; internal invariant broken."""


class ChordTooLong(ValueError):
    """Images of the contact endpoints are farther apart than the endpoints."""


class Instance:
    """Rational interpolation data: sources a_i paired with targets b_i."""

    __slots__ = ("sources", "targets")

    def __init__(self, sources, targets):
        self.sources = tuple(sources)
        self.targets = tuple(targets)
        if len(self.sources) != len(self.targets):
            raise ValueError("sources and targets must pair up")
        if not self.sources:
            raise ValueError("need at least one point pair")
        for p in self.sources + self.targets:
            if not p.is_rational:
                raise ValueError("instance points must have rational coordinates")

    def __len__(self):
        return len(self.sources)

    def pairs(self):
        return list(zip(self.sources, self.targets))

    def normalize(self) -> "Instance":
        """Drop repeated sources, keeping first occurrences.

        Callers must have passed check_nonexpansive, which forces the
        targets of coincident sources to coincide as well.
        """
        srcs: list[Point] = []
        tgts: list[Point] = []
        for a, b in zip(self.sources, self.targets):
            for known_a, known_b in zip(srcs, tgts):
                if a == known_a:
                    if b != known_b:
                        raise ValueError("coincident sources with distinct targets")
                    break
            else:
                srcs.append(a)
                tgts.append(b)
        return Instance(srcs, tgts)

    def __repr__(self):
        return f"Instance({len(self.sources)} pairs)"


def check_nonexpansive(inst: Instance) -> Violation | None:
    """First (i, j) with |b_i - b_j| > |a_i - a_j|, or None if non-expansive."""
    n = len(inst.sources)
    for i in range(n):
        for j in range(i + 1, n):
            d_src = squared_distance(inst.sources[i], inst.sources[j])
            d_tgt = squared_distance(inst.targets[i], inst.targets[j])
            if compare(d_tgt, d_src) == 1:
                return Violation(i, j)
    return None


def base_case(a1: Point, b1: Point, domain: ConvexPolygon) -> PLMap:
    """The translation by b1 - a1 on the whole domain."""
    if point_in_polygon(a1, domain) is Location.OUTSIDE:
        raise ValueError("base point must lie in the domain")
    shift = Motion.translation(b1.x - a1.x, b1.y - a1.y)
    tris = triangulate_fan(domain, domain.vertices[0])
    return assemble(domain, [(t, shift) for t in tris])


def pullback_center(g_i: Motion, b_n: Point) -> Point:
    """The point whose distance to x equals |b_n - g_i(x)| for all x."""
    return g_i.inverse().apply(b_n)


class RefitRegion:
    """Where the current map must change to admit the new constraint.

    pieces: (triangle index, clipped polygon) for every cell whose
    intersection with the region is two-dimensional.
    boundary_segments: the bisector chords, oriented so the new source
    sees them counterclockwise.
    hull_contacts: piece edges lying on the domain boundary.
    """

    __slots__ = ("pieces", "boundary_segments", "hull_contacts")

    def __init__(self, pieces, boundary_segments, hull_contacts):
        self.pieces = tuple(pieces)
        self.boundary_segments = tuple(boundary_segments)
        self.hull_contacts = tuple(hull_contacts)

    def __repr__(self):
        return (
            f"RefitRegion({len(self.pieces)} pieces, "
            f"{len(self.boundary_segments)} chords, "
            f"{len(self.hull_contacts)} hull contacts)"
        )


def _cell_cut(g: PLMap, t: int, a_n: Point, b_n: Point):
    """Bisector line and source side for cell t, or None when the cell
    cannot meet the region (pullback center on the source itself)."""
    c = pullback_center(g.restrict_motion(t), b_n)
    if c == a_n:
        return None
    line = perpendicular_bisector(a_n, c)
    return line, line.side(a_n)


def refit_region(g: PLMap, a_n: Point, b_n: Point) -> RefitRegion:
    if g.evaluate(a_n) == b_n:
        raise TargetAlreadyMatched("the map already interpolates this pair")
    hull = g.domain
    pieces = []
    chords = []
    contacts = []
    for t in range(len(g)):
        cut = _cell_cut(g, t, a_n, b_n)
        if cut is None:
            continue
        line, keep = cut
        piece = clip_polygon_halfplane(_cell_poly(g, t), line, keep)
        if not isinstance(piece, ConvexPolygon):
            continue
        pieces.append((t, piece))
        vs = piece.vertices
        on_cut = [v for v in vs if line.side(v) == 0]
        _require(len(on_cut) <= 2, "cut line meets a convex piece in >2 vertices")
        if len(on_cut) == 2:
            p, q = on_cut
            if orientation(a_n, p, q) == -1:
                p, q = q, p
            chords.append(Segment(p, q))
        m = len(vs)
        for i in range(m):
            x, y = vs[i], vs[(i + 1) % m]
            if line.side(x) == 0 and line.side(y) == 0:
                continue
            if _hull_edge_of(hull, x, y) is not None:
                contacts.append(Segment(x, y))
    return RefitRegion(pieces, chords, contacts)


def _cell_poly(g: PLMap, t: int) -> ConvexPolygon:
    c = g.cell(t)
    return ConvexPolygon([c.v0, c.v1, c.v2])


def _hull_edge_of(hull: ConvexPolygon, x: Point, y: Point):
    """Index of the hull edge whose line carries both points, else None.

    Strict convexity makes collinearity with the edge line sufficient
    for lying on the edge itself.
    """
    vs = hull.vertices
    n = len(vs)
    for k in range(n):
        h1, h2 = vs[k], vs[(k + 1) % n]
        if orientation(h1, h2, x) == 0 and orientation(h1, h2, y) == 0:
            return k
    return None


def fan_extension(a_n: Point, b_n: Point, region: RefitRegion, g: PLMap):
    """Fan triangles over the region's chords, with fitted motions.

    Each chord [p, q] spans the triangle (a_n, p, q) carrying the unique
    motion with a_n -> b_n, p -> g(p), q -> g(q).
    """
    out = []
    for seg in region.boundary_segments:
        p, q = seg.p, seg.q
        if orientation(a_n, p, q) == 0:
            raise DegenerateFanTriangle("fan apex collinear with a chord")
        m = from_three_points(a_n, b_n, p, g.evaluate(p), q, g.evaluate(q))
        out.append((Triangle(a_n, p, q), m))
    return out


class FoldRegion:
    """A hull-contact cone with its rigid part and optional fold.

    polygon is the vertex walk (apex first, then the contact chain); the
    cone may be non-convex when the chain bends around the apex, so it
    is kept as a plain tuple rather than a ConvexPolygon.
    """

    __slots__ = ("polygon", "pivot", "swing", "rigid_part", "fold_line", "reflected_part")

    def __init__(self, polygon, pivot, swing, rigid_part, fold_line, reflected_part):
        self.polygon = tuple(polygon)
        self.pivot = pivot
        self.swing = swing
        self.rigid_part = rigid_part
        self.fold_line = fold_line
        self.reflected_part = reflected_part

    def __repr__(self):
        folded = "folded" if self.fold_line is not None else "rigid"
        return f"FoldRegion({len(self.polygon)} vertices, {folded})"


def fold_boundary_region(
    cone, pivot: Point, swing: Point, a_n: Point, b_n: Point,
    g_pivot: Point, g_swing: Point,
) -> FoldRegion:
    """Fit motions to a hull-contact cone.

    cone is the vertex walk of the region, apex (= a_n) first.  The
    rigid part pins a_n -> b_n and pivot -> g_pivot; if it already
    carries swing to g_swing there is no fold, otherwise the cone is
    folded across the line through a_n that maps onto the bisector of
    the two candidate swing images.
    """
    cone = tuple(cone)
    if cone[0] != a_n:
        raise ValueError("cone walk must start at the apex a_n")
    if not equals(squared_distance(pivot, a_n), squared_distance(g_pivot, b_n)):
        raise ValueError("pivot is not equidistant: not a region boundary point")
    if not equals(squared_distance(swing, a_n), squared_distance(g_swing, b_n)):
        raise ValueError("swing is not equidistant: not a region boundary point")
    if compare(squared_distance(g_pivot, g_swing), squared_distance(pivot, swing)) == 1:
        raise ChordTooLong("contact images are farther apart than their sources")

    plus = from_two_pairs(a_n, b_n, pivot, g_pivot, 1)
    if plus.apply(swing) == g_swing:
        return FoldRegion(cone, pivot, swing, plus, None, None)
    minus = from_two_pairs(a_n, b_n, pivot, g_pivot, -1)
    if minus.apply(swing) == g_swing:
        return FoldRegion(cone, pivot, swing, minus, None, None)

    # Neither orientation lands the swing: fold.  Pick the rigid part
    # whose swing image shares a closed side of line(b_n, g_pivot) with
    # the true image.
    side_true = orientation(b_n, g_pivot, g_swing)
    side_plus = orientation(b_n, g_pivot, plus.apply(swing))
    rigid = plus if side_plus * side_true >= 0 else minus
    fold_image = perpendicular_bisector(rigid.apply(swing), g_swing)
    _require(fold_image.side(b_n) == 0, "fold line must pass through the target")
    fold_line = line_preimage(rigid, fold_image)
    _require(fold_line.side(a_n) == 0, "fold line must pass through the source")
    reflected = compose(rigid, reflection_across_line(fold_line))
    _require(reflected.apply(swing) == g_swing, "fold fails to land the swing")
    return FoldRegion(cone, pivot, swing, rigid, fold_line, reflected)


def cone_pieces(region: FoldRegion):
    """Triangulate a cone from its apex, splitting across the fold line.

    Returns (Triangle, Motion) pairs; degenerate slivers (apex collinear
    with a chain edge) carry no area and are dropped.  The second return
    value counts chain triangles split by the fold line.
    """
    apex = region.polygon[0]
    chain = region.polygon[1:]
    out = []
    splits = 0
    if region.fold_line is None:
        for u, v in zip(chain, chain[1:]):
            if orientation(apex, u, v) == 1:
                out.append((Triangle(apex, u, v), region.rigid_part))
            else:
                _require(orientation(apex, u, v) == 0, "cone walk runs clockwise")
        return out, splits

    line = region.fold_line
    rigid_side = line.side(region.pivot)
    swing_side = line.side(region.swing)
    _require(swing_side != 0, "swing cannot sit on the fold line")
    if rigid_side == 0:
        rigid_side = -swing_side
    _require(swing_side * rigid_side < 0, "pivot and swing on one side of the fold")

    def motion_for(s: int) -> Motion:
        return region.rigid_part if s * rigid_side >= 0 else region.reflected_part

    for u, v in zip(chain, chain[1:]):
        o = orientation(apex, u, v)
        if o == 0:
            continue
        _require(o == 1, "cone walk runs clockwise")
        su, sv = line.side(u), line.side(v)
        if su * sv < 0:
            vu = line.value(u)
            t = vu / (vu - line.value(v))
            w = Point(u.x + t * (v.x - u.x), u.y + t * (v.y - u.y))
            out.append((Triangle(apex, u, w), motion_for(su)))
            out.append((Triangle(apex, w, v), motion_for(sv)))
            splits += 1
        else:
            s = su if su != 0 else sv
            out.append((Triangle(apex, u, v), motion_for(s)))
    return out, splits


@dataclass
class StepTrace:
    """What one induction step did, for audits and diagnostics."""

    early_exit: bool = False
    empty_cells: int = 0
    complement_pieces: int = 0
    chords: int = 0
    chains: int = 0
    degenerate_chains: int = 0
    rigid_chains: int = 0
    folded_chains: int = 0
    cone_triangles: int = 0
    split_cone_triangles: int = 0


@dataclass
class ExtensionTrace:
    steps: tuple = field(default_factory=tuple)

    def any_fold(self) -> bool:
        return any(s.folded_chains for s in self.steps)


def _h_sign(g: PLMap, a_n: Point, b_n: Point, x: Point) -> int:
    """Sign of |b_n - g(x)|^2 - |a_n - x|^2; positive inside the region."""
    return sign(squared_distance(b_n, g.evaluate(x)) - squared_distance(a_n, x))


def _contact_chains(g: PLMap, a_n: Point, b_n: Point, contacts):
    """Merge contact edges into maximal chains along the hull boundary.

    Edges are ordered by (hull edge index, offset along the edge), glued
    at exactly-equal endpoints (hull corners included), wrapped across
    the seam, then split wherever an interior vertex already satisfies
    the boundary equality |b_n - g(v)| = |a_n - v|.
    """
    hull = g.domain
    vs = hull.vertices
    n = len(vs)
    keyed = []
    for seg in contacts:
        k = _hull_edge_of(hull, seg.p, seg.q)
        _require(k is not None, "contact segment left the hull boundary")
        h1, h2 = vs[k], vs[(k + 1) % n]
        dx, dy = h2.x - h1.x, h2.y - h1.y
        tp = (seg.p.x - h1.x) * dx + (seg.p.y - h1.y) * dy
        tq = (seg.q.x - h1.x) * dx + (seg.q.y - h1.y) * dy
        _require(compare(tp, tq) == -1, "contact edge runs against hull orientation")
        keyed.append((k, tp, seg))

    def key_cmp(a, b):
        if a[0] != b[0]:
            return -1 if a[0] < b[0] else 1
        return compare(a[1], b[1])

    keyed.sort(key=cmp_to_key(key_cmp))
    chains: list[list[Point]] = []
    for _, _, seg in keyed:
        if chains and chains[-1][-1] == seg.p:
            chains[-1].append(seg.q)
        else:
            chains.append([seg.p, seg.q])
    if len(chains) > 1 and chains[-1][-1] == chains[0][0]:
        chains[-1].extend(chains[0][1:])
        chains.pop(0)

    out: list[list[Point]] = []
    for chain in chains:
        current = [chain[0]]
        for v in chain[1:-1]:
            current.append(v)
            if _h_sign(g, a_n, b_n, v) == 0:
                out.append(current)
                current = [v]
        current.append(chain[-1])
        out.append(current)
    for chain in out:
        _require(_h_sign(g, a_n, b_n, chain[0]) == 0, "chain start misses the boundary")
        _require(_h_sign(g, a_n, b_n, chain[-1]) == 0, "chain end misses the boundary")
    return out


def extend_step_traced(g: PLMap, a_n: Point, b_n: Point):
    """One induction step; returns the new map and its StepTrace."""
    trace = StepTrace()
    if g.evaluate(a_n) == b_n:
        trace.early_exit = True
        return g, trace

    region = refit_region(g, a_n, b_n)
    covered = {t: piece for t, piece in region.pieces}
    pieces = []
    for t in range(len(g)):
        motion = g.restrict_motion(t)
        if t not in covered:
            trace.empty_cells += 1
            pieces.append((g.cell(t), motion))
            continue
        line, keep = _cell_cut(g, t, a_n, b_n)
        rest = clip_polygon_halfplane(_cell_poly(g, t), line, -keep)
        if isinstance(rest, ConvexPolygon):
            for tri in triangulate_fan(rest, rest.vertices[0]):
                trace.complement_pieces += 1
                pieces.append((tri, motion))

    fans = fan_extension(a_n, b_n, region, g)
    trace.chords = len(fans)
    pieces.extend(fans)

    for chain in _contact_chains(g, a_n, b_n, region.hull_contacts):
        trace.chains += 1
        if all(orientation(a_n, u, v) == 0 for u, v in zip(chain, chain[1:])):
            trace.degenerate_chains += 1
            continue
        pivot, swing = chain[0], chain[-1]
        fr = fold_boundary_region(
            [a_n, *chain], pivot, swing, a_n, b_n,
            g.evaluate(pivot), g.evaluate(swing),
        )
        cone, splits = cone_pieces(fr)
        if fr.fold_line is None:
            trace.rigid_chains += 1
        else:
            trace.folded_chains += 1
        trace.cone_triangles += len(cone)
        trace.split_cone_triangles += splits
        pieces.extend(cone)

    out = assemble(g.domain, pieces)
    total = None
    for t in range(len(out)):
        a2 = out.cell(t).area2()
        total = a2 if total is None else total + a2
    _require(
        total is not None and equals(total, g.domain.area2()),
        "step output does not tile the domain",
    )
    return out, trace


def extend_step(g: PLMap, a_n: Point, b_n: Point) -> PLMap:
    return extend_step_traced(g, a_n, b_n)[0]


def extend_all_traced(inst: Instance):
    """Run the full induction; returns the map and the per-step traces."""
    violation = check_nonexpansive(inst)
    if violation is not None:
        raise NonExpansivenessViolation(violation)
    norm = inst.normalize()
    hull = convex_hull(norm.sources)
    if isinstance(hull, DegenerateHull):
        courtesy = None
        if hull.dimension == 0:
            a1, b1 = norm.sources[0], norm.targets[0]
            courtesy = Motion.translation(b1.x - a1.x, b1.y - a1.y)
        raise DegenerateHullError(hull.dimension, courtesy)
    g = base_case(norm.sources[0], norm.targets[0], hull)
    steps = []
    for k in range(1, len(norm)):
        g, st = extend_step_traced(g, norm.sources[k], norm.targets[k])
        steps.append(st)
        for i in range(k + 1):
            _require(
                g.evaluate(norm.sources[i]) == norm.targets[i],
                "induction step disturbed an interpolated point",
            )
    return g, ExtensionTrace(tuple(steps))


def extend_all(inst: Instance) -> PLMap:
    return extend_all_traced(inst)[0]
