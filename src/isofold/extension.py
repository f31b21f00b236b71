"""Inductive construction of non-expansive PL extensions.

Given finitely many rational point pairs (a_i, b_i) with
|b_i - b_j| <= |a_i - a_j| for all i, j, build a piecewise-linear map f
on the convex hull of the a_i with f(a_i) = b_i, assembled from exact
planar motions.  Points are added one at a time: each step carves out
the refit region (where the current map is too far from the new target),
refans it from the new source point, covers the region's contact
with the hull boundary by rigid pieces, folded once where needed, and
merges the cells of each motion it touched into one convex piece
wherever their union is convex; ``assemble`` fans the pieces.

For a motion g, |b - g(x)|^2 - |a - x|^2 is affine in x, so its zero
set is a line, built straight from g, a and b by ``cut_line``, whose +1
side is where |b - g(x)| > |a - x|.  In a cell with motion g_m the
region is the +1 side of cut_line(g_m, a_n, b_n), and there the new map
is g_m after the reflection in that cut.  A cone's fold line is
cut_line(rigid, swing, g(swing)), where the rigid part and the true
image of the swing point agree.  ``refit_region`` hands on each chord
with its fan motion and each hull contact with its cell's motion and
which ends lie on the cut; fans, chains and cones read them, and a step
locates a_n alone.

All branch decisions are exact, and the whole pipeline is rational:
points, lines and motions refuse irrational values, and motions come
from two-point solves over squared distances that never take a square
root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .geometry import (
    ConvexPolygon,
    DegenerateHull,
    Line,
    Point,
    Segment,
    Triangle,
    clip_polygon_halfplane,
    convex_hull,
    homogeneous,
    line_crossing,
    orientation,
    point_in_polygon,
    squared_distance,
    Location,
)
from .motions import Motion, compose, from_two_pairs, reflection_across_line
from .plmap import PLMap, assemble, motion_ids

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
    "cut_line",
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
            if d_tgt > d_src:
                return Violation(i, j)
    return None


def base_case(a1: Point, b1: Point, domain: ConvexPolygon) -> PLMap:
    """The translation by b1 - a1 on the whole domain."""
    if point_in_polygon(a1, domain) is Location.OUTSIDE:
        raise ValueError("base point must lie in the domain")
    shift = Motion.translation(b1.x - a1.x, b1.y - a1.y)
    return assemble(domain, [(domain, shift)])


def cut_line(g: Motion, a: Point, b: Point) -> Line | None:
    """The line |b - g(x)| = |a - x|, whose +1 side is |b - g(x)| > |a - x|.

    With g(x) = R x + t and d = t - b, R orthogonal makes
    |b - g(x)|^2 - |a - x|^2 the affine 2 (R^T d + a).x + |d|^2 - |a|^2.
    R^T d + a = R^T (g(a) - b) vanishes exactly when g(a) = b, and then
    the difference is constant: None.  The line is built from g's form
    (entries over e), homogeneous(a) = (ax, ay, aw) and homogeneous(b):
    d = (dx, dy) / (e bw), R^T d + a = (u, v) / (e^2 bw aw), and the
    coefficients come out scaled by the positive e^2 bw^2 aw^2.
    """
    r00, r01, r10, r11, tx, ty, e = g.form()
    ax, ay, aw = homogeneous(a)
    bx, by, bw = homogeneous(b)
    dw = e * bw
    dx, dy = tx * bw - bx * e, ty * bw - by * e
    u = (r00 * dx + r10 * dy) * aw + ax * e * dw
    v = (r01 * dx + r11 * dy) * aw + ay * e * dw
    if u == v == 0:
        return None
    k = 2 * aw * bw
    return Line(
        u * k, v * k, (ax * ax + ay * ay) * dw * dw - (dx * dx + dy * dy) * aw * aw
    )


class RefitRegion:
    """Where the current map must change to admit the new constraint.

    pieces: (triangle index, clipped polygon) for every cell whose
    intersection with the region is two-dimensional.
    outside: (triangle index, part) for every cell with area outside the
    region, in index order: the cell's own Triangle when the region
    misses it, else the clipped ConvexPolygon.
    boundary_segments: (chord, fan motion) for every piece with an edge
    on its cut, cut_line(g_m, a_n, b_n) for the cell's motion g_m.  The
    chord is that edge, oriented so the new source sees it
    counterclockwise; the fan motion is compose(g_m, reflection in the
    cut), built once per cut motion.
    hull_contacts: (segment, hull edge index, g_m, p on cut, q on cut)
    for every piece edge on the domain boundary other than a chord.
    """

    __slots__ = ("pieces", "outside", "boundary_segments", "hull_contacts")

    def __init__(self, pieces, outside, boundary_segments, hull_contacts):
        self.pieces = tuple(pieces)
        self.outside = tuple(outside)
        self.boundary_segments = tuple(boundary_segments)
        self.hull_contacts = tuple(hull_contacts)

    def __repr__(self):
        return (
            f"RefitRegion({len(self.pieces)} pieces, "
            f"{len(self.outside)} outside parts, "
            f"{len(self.boundary_segments)} chords, "
            f"{len(self.hull_contacts)} hull contacts)"
        )


def refit_region(g: PLMap, a_n: Point, b_n: Point) -> RefitRegion:
    """Split each cell once along its motion's cut (one cut per motion).

    The region is each cut's +1 side.  Checking g(a_n) != b_n is the
    step's only point location.
    """
    if g.evaluate(a_n) == b_n:
        raise TargetAlreadyMatched("the map already interpolates this pair")
    cuts = [cut_line(motion, a_n, b_n) for motion in g.motions]
    fans = {}
    pieces = []
    outside = []
    chords = []
    contacts = []
    for t, row in enumerate(g.triangles):
        cell = g.cell(t)
        line = cuts[row[3]]
        piece = None if line is None else clip_polygon_halfplane(cell, line, 1)
        if not isinstance(piece, ConvexPolygon):
            outside.append((t, cell))
            continue
        motion = g.motions[row[3]]
        pieces.append((t, piece))
        rest = clip_polygon_halfplane(cell, line, -1)
        if isinstance(rest, ConvexPolygon):
            outside.append((t, rest))
        vs = piece.vertices
        on_cut = [line.side(v) == 0 for v in vs]
        ends = [v for v, on in zip(vs, on_cut) if on]
        _require(len(ends) <= 2, "cut line meets a convex piece in >2 vertices")
        if len(ends) == 2:
            p, q = ends
            if orientation(a_n, p, q) == -1:
                p, q = q, p
            if row[3] not in fans:
                fans[row[3]] = compose(motion, reflection_across_line(line))
            chords.append((Segment(p, q), fans[row[3]]))
        for i in range(len(vs)):
            j = (i + 1) % len(vs)
            if on_cut[i] and on_cut[j]:
                continue
            k = _hull_edge_of(g.domain, vs[i], vs[j])
            if k is not None:
                contacts.append((Segment(vs[i], vs[j]), k, motion, on_cut[i], on_cut[j]))
    return RefitRegion(pieces, outside, chords, contacts)


def _hull_edge_of(hull: ConvexPolygon, x: Point, y: Point):
    """Index of the hull edge whose line carries both points, else None.

    Strict convexity makes collinearity with the edge line sufficient
    for lying on the edge itself.  Both points are tested against the
    hull's cached edge forms.
    """
    xx, xy, xw = homogeneous(x)
    yx, yy, yw = homogeneous(y)
    for k, (a, b, c) in enumerate(hull.edge_forms()):
        if a * xx + b * xy == c * xw and a * yx + b * yy == c * yw:
            return k
    return None


def fan_extension(a_n: Point, region: RefitRegion):
    """Fan triangles over the region's chords, each with its fan motion.

    Each chord [p, q] spans the triangle (a_n, p, q).  Its fan motion
    compose(g_m, reflection in the cut) sends a_n to g_m(g_m^-1(b_n)) =
    b_n and fixes the cut, so it is the unique motion with a_n -> b_n,
    p -> g(p), q -> g(q).  The chords carry it.
    """
    out = []
    for seg, m in region.boundary_segments:
        if orientation(a_n, seg.p, seg.q) == 0:
            raise DegenerateFanTriangle("fan apex collinear with a chord")
        out.append((Triangle(a_n, seg.p, seg.q), m))
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
    folded across cut_line(rigid, swing, g_swing), where
    |g_swing - rigid(x)| = |swing - x|.  That line passes through a_n,
    since rigid(a_n) = b_n and |b_n - g_swing| = |a_n - swing|.

    The step passes the chain's counterclockwise-first end as the pivot,
    so a cone pins that end and folds towards the other.  A mirror
    reverses the boundary's order, so the map of a mirrored instance
    with a folded chain is a different valid map, not the mirror image.
    """
    cone = tuple(cone)
    if cone[0] != a_n:
        raise ValueError("cone walk must start at the apex a_n")
    if squared_distance(pivot, a_n) != squared_distance(g_pivot, b_n):
        raise ValueError("pivot is not equidistant: not a region boundary point")
    if squared_distance(swing, a_n) != squared_distance(g_swing, b_n):
        raise ValueError("swing is not equidistant: not a region boundary point")
    if squared_distance(g_pivot, g_swing) > squared_distance(pivot, swing):
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
    fold_line = cut_line(rigid, swing, g_swing)
    _require(fold_line is not None, "the rigid part lands the swing: no fold line")
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
    line = region.fold_line
    # Without a fold every side is 0, which motion_for maps to the rigid part.
    rigid_side = 0
    if line is not None:
        rigid_side = line.side(region.pivot)
        swing_side = line.side(region.swing)
        _require(swing_side != 0, "swing cannot sit on the fold line")
        if rigid_side == 0:
            rigid_side = -swing_side
        _require(swing_side * rigid_side < 0, "pivot and swing on one side of the fold")

    def motion_for(s: int) -> Motion:
        return region.rigid_part if s * rigid_side >= 0 else region.reflected_part

    out = []
    splits = 0
    for u, v in zip(chain, chain[1:]):
        o = orientation(apex, u, v)
        if o == 0:
            continue
        _require(o == 1, "cone walk runs clockwise")
        su, sv = (0, 0) if line is None else (line.side(u), line.side(v))
        if su * sv < 0:
            w = line_crossing(line, u, v)
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
    merged_groups: int = 0
    kept_groups: int = 0


@dataclass
class ExtensionTrace:
    steps: tuple = field(default_factory=tuple)


def _contact_chains(hull: ConvexPolygon, contacts):
    """Merge contact edges into maximal chains along the hull boundary.

    contacts are RefitRegion.hull_contacts.  Edges are ordered by (hull
    edge index, offset along the edge) and glued at exactly-equal
    endpoints off the cut, hull corners included, so every chain starts
    and ends on the region's boundary |b_n - g(v)| = |a_n - v|.  Yields
    (chain, g(chain[0]), g(chain[-1])) per chain, the images taken from
    the motions of the end contacts' cells.
    """
    vs = hull.vertices
    keyed = []
    for contact in contacts:
        seg, k = contact[0], contact[1]
        h1, h2 = vs[k], vs[(k + 1) % len(vs)]
        dx, dy = h2.x - h1.x, h2.y - h1.y
        tp = (seg.p.x - h1.x) * dx + (seg.p.y - h1.y) * dy
        tq = (seg.q.x - h1.x) * dx + (seg.q.y - h1.y) * dy
        _require(tp < tq, "contact edge runs against hull orientation")
        keyed.append((k, tp, contact))

    keyed.sort(key=itemgetter(0, 1))
    chains: list[list] = []
    for _, _, contact in keyed:
        if chains and chains[-1][-1][0].q == contact[0].p and not contact[3]:
            chains[-1].append(contact)
        else:
            chains.append([contact])
    # A last chain ending where the first begins continues across the
    # seam: the first goes after it, glued on if that point is off the cut.
    if len(chains) > 1 and chains[-1][-1][0].q == chains[0][0][0].p:
        first = chains.pop(0)
        if not first[0][3]:
            first = chains.pop() + first
        chains.append(first)

    for chain in chains:
        (start, _, g_start, start_on, _), (end, _, g_end, _, end_on) = chain[0], chain[-1]
        _require(start_on and end_on, "chain end misses the boundary")
        points = [start.p] + [contact[0].q for contact in chain]
        yield points, g_start.apply(start.p), g_end.apply(end.q)


def _merge_touched(pieces, cut_motions, first_new, trace):
    """Replace each touched motion group by its hull.

    A group is the pieces sharing one motion, as ``assemble`` dedups
    them.  It is touched when its motion is one of cut_motions (the
    motions of the cells the region cut) or carries a piece from
    first_new on (the fans and cones).  Untouched groups were merged on
    the step that last touched them.  The pieces tile the domain, so a
    group whose hull has exactly their summed area has that hull as its
    union, and becomes (hull, motion).  A lone three-vertex piece stays.
    A group failing the check, one motion on disjoint regions, keeps its
    pieces.
    """
    ids, _ = motion_ids([m for _, m in pieces] + cut_motions)
    touched = set(ids[first_new:])
    groups: dict = {}
    for i, k in enumerate(ids[:len(pieces)]):
        if k in touched:
            groups.setdefault(k, []).append(i)
    out = list(pieces)
    for members in groups.values():
        parts = [pieces[i][0] for i in members]
        if len(parts) == 1 and len(parts[0].vertices) == 3:
            continue
        hull = convex_hull([v for part in parts for v in part.vertices])
        if hull.area2() != sum(part.area2() for part in parts):
            trace.kept_groups += 1
            continue
        trace.merged_groups += 1
        out[members[0]] = (hull, pieces[members[0]][1])
        for i in members[1:]:
            out[i] = None
    return [piece for piece in out if piece is not None]


def extend_step_traced(g: PLMap, a_n: Point, b_n: Point):
    """One induction step; returns the new map and its StepTrace."""
    trace = StepTrace()
    try:
        region = refit_region(g, a_n, b_n)
    except TargetAlreadyMatched:
        trace.early_exit = True
        return g, trace

    pieces = []
    for t, part in region.outside:
        if isinstance(part, Triangle):
            trace.empty_cells += 1
        else:
            trace.complement_pieces += 1
        pieces.append((part, g.restrict_motion(t)))
    first_new = len(pieces)

    fans = fan_extension(a_n, region)
    trace.chords = len(fans)
    pieces.extend(fans)

    for chain, g_pivot, g_swing in _contact_chains(g.domain, region.hull_contacts):
        trace.chains += 1
        if all(orientation(a_n, u, v) == 0 for u, v in zip(chain, chain[1:])):
            trace.degenerate_chains += 1
            continue
        fr = fold_boundary_region(
            [a_n, *chain], chain[0], chain[-1], a_n, b_n, g_pivot, g_swing
        )
        cone, splits = cone_pieces(fr)
        if fr.fold_line is None:
            trace.rigid_chains += 1
        else:
            trace.folded_chains += 1
        trace.cone_triangles += len(cone)
        trace.split_cone_triangles += splits
        pieces.extend(cone)

    cut_motions = [g.restrict_motion(t) for t, _ in region.pieces]
    pieces = _merge_touched(pieces, cut_motions, first_new, trace)
    total = sum(part.area2() for part, _ in pieces)
    _require(total == g.domain.area2(), "step output does not tile the domain")
    return assemble(g.domain, pieces), trace


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
