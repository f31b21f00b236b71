"""The inductive construction: regions, fans, folds, full runs."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from isofold import ExactNumber, equals, sign, sqrt
from isofold.geometry import (
    ConvexPolygon,
    Line,
    Point,
    Segment,
    Triangle,
    convex_hull,
    orientation,
    squared_distance,
)
from isofold.motions import Motion, from_three_points, reflection_across_line
from isofold.plmap import PLMap, assemble
from isofold.extension import (
    ChordTooLong,
    ConstructionError,
    FoldRegion,
    StepTrace,
    DegenerateHullError,
    Instance,
    NonExpansivenessViolation,
    TargetAlreadyMatched,
    Violation,
    base_case,
    check_nonexpansive,
    cone_pieces,
    cut_line,
    extend_all,
    extend_all_traced,
    extend_step,
    extend_step_traced,
    fan_extension,
    fold_boundary_region,
    refit_region,
    _contact_chains,
    _merge_touched,
)
from instancegen import instance_suite, random_instance
from test_acceptance import CANONICAL, induction_steps, omega_excess
from test_motions import (
    inverse,
    ref_compose,
    ref_from_two_pairs,
    ref_reflection,
    same_motion,
)


def P(x, y) -> Point:
    return Point(x, y)


def package_sources():
    """The package's modules in this source tree, whichever copy is imported."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "isofold").glob("*.py"))
    assert len(sources) > 1
    return sources


def inst(sources, targets) -> Instance:
    return Instance([P(*s) for s in sources], [P(*t) for t in targets])


GOLDEN = inst([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (2, 2)])


def ref_bisector(p: Point, q: Point) -> Line:
    """The perpendicular bisector of p != q, the reference for cut_line."""
    return Line(
        (q.x - p.x) * 2,
        (q.y - p.y) * 2,
        (q.x * q.x + q.y * q.y) - (p.x * p.x + p.y * p.y),
    )


def ref_line_preimage(motion: Motion, line: Line) -> Line:
    """The line whose image under motion is the given line."""
    a, b, c = line.a, line.b, line.c
    return Line(
        a * motion.r00 + b * motion.r10,
        a * motion.r01 + b * motion.r11,
        c - (a * motion.tx + b * motion.ty),
    )


def ref_cut_line(g: Motion, a: Point, b: Point) -> Line | None:
    """cut_line's entry-wise Fraction formula, from before the integer forms."""
    dx, dy = g.tx - b.x, g.ty - b.y
    u = g.r00 * dx + g.r10 * dy + a.x
    v = g.r01 * dx + g.r11 * dy + a.y
    if sign(u) == 0 and sign(v) == 0:
        return None
    return Line(u * 2, v * 2, a.x * a.x + a.y * a.y - dx * dx - dy * dy)


def same_oriented_line(got: Line, want: Line) -> bool:
    """got is want scaled by a positive factor: same locus, same +1 side."""
    return got == want and sign(got.a * want.a + got.b * want.b) == 1


def fan_from_first_vertex(poly: ConvexPolygon):
    vs = poly.vertices
    return [Triangle(vs[0], vs[k], vs[k + 1]) for k in range(1, len(vs) - 1)]


def region_excess(g: Motion, a: Point, b: Point, x: Point):
    """|b - g(x)|^2 - |a - x|^2, positive inside the region."""
    return squared_distance(b, g.apply(x)) - squared_distance(a, x)


def two_piece_map() -> PLMap:
    """Identity left of x = 4, reflection across x = 4 on the right."""
    dom = ConvexPolygon([P(0, 0), P(6, 0), P(3, 3)])
    mirror = reflection_across_line(Line(1, 0, 4))
    ident = Motion.identity()
    return assemble(
        dom,
        [
            (Triangle(P(0, 0), P(4, 0), P(4, 2)), ident),
            (Triangle(P(0, 0), P(4, 2), P(3, 3)), ident),
            (Triangle(P(4, 0), P(6, 0), P(4, 2)), mirror),
        ],
    )


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Instance([P(0, 0)], [])
        with pytest.raises(ValueError):
            Instance([], [])
        with pytest.raises(ValueError):
            Instance([P(sqrt(2), 0)], [P(0, 0)])

    def test_normalize_dedups(self):
        i = inst([(0, 0), (1, 1), (0, 0)], [(2, 2), (3, 3), (2, 2)])
        n = i.normalize()
        assert len(n) == 2
        assert n.sources[1] == P(1, 1)

    def test_normalize_rejects_incoherent_duplicates(self):
        i = inst([(0, 0), (0, 0)], [(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            i.normalize()


class TestCheckNonexpansive:
    def test_identity_ok(self):
        i = inst([(0, 0), (3, 1)], [(0, 0), (3, 1)])
        assert check_nonexpansive(i) is None

    def test_stretch_detected(self):
        i = inst([(0, 0), (1, 0)], [(0, 0), (3, 0)])
        assert check_nonexpansive(i) == Violation(0, 1)

    def test_golden_ok(self):
        assert check_nonexpansive(GOLDEN) is None

    def test_first_violation_lexicographic(self):
        i = inst(
            [(0, 0), (1, 0), (0, 1)],
            [(0, 0), (9, 0), (0, 9)],
        )
        assert check_nonexpansive(i) == Violation(0, 1)


class TestBaseCase:
    dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])

    def test_identity(self):
        f = base_case(P(0, 0), P(0, 0), self.dom)
        assert f.evaluate(P(1, 2)) == P(1, 2)

    def test_translation(self):
        f = base_case(P(0, 0), P(1, 0), self.dom)
        assert f.evaluate(P(2, 2)) == P(3, 2)
        assert f.evaluate(P(0, 0)) == P(1, 0)

    def test_base_point_must_be_inside(self):
        with pytest.raises(ValueError):
            base_case(P(9, 9), P(0, 0), self.dom)

    def test_tiles_domain(self):
        f = base_case(P(1, 1), P(0, 0), self.dom)
        assert f.validate().all_passed


class TestPullbackCenter:
    """Worked cuts: cut_line(g, a, b) is the bisector of a and the
    pull-back centre g^-1(b), with a on its +1 side."""

    def test_identity(self):
        # Centre (2, 2): the bisector of (0, 4) and (2, 2) is y = x + 2.
        cut = cut_line(Motion.identity(), P(0, 4), P(2, 2))
        assert cut == Line(1, -1, -2)
        assert cut.side(P(0, 4)) == 1 and cut.side(P(2, 2)) == -1

    def test_reflection(self):
        # Across x = 4, (1, 1) pulls back to (7, 1); with a = (3, 1) the
        # cut is x = 5.
        mirror = reflection_across_line(Line(1, 0, 4))
        cut = cut_line(mirror, P(3, 1), P(1, 1))
        assert cut == Line(1, 0, 5)
        assert cut.side(P(3, 1)) == 1 and cut.side(P(7, 1)) == -1

    def test_translation(self):
        # The shift by (1, 0) pulls (5, 5) back to (4, 5); with a = (4, 1)
        # the cut is y = 3.
        cut = cut_line(Motion.translation(1, 0), P(4, 1), P(5, 5))
        assert cut == Line(0, 1, 3)
        assert cut.side(P(4, 1)) == 1 and cut.side(P(4, 5)) == -1


class TestCutLine:
    """cut_line against the bisector of a and g^-1(b), and the fold lines
    against the preimage of the bisector of the two swing images."""

    @staticmethod
    def check(g: Motion, a: Point, b: Point, probes) -> bool:
        """Checks one cut; returns whether it exists."""
        cut = cut_line(g, a, b)
        assert (cut is None) == (g.apply(a) == b) == (ref_cut_line(g, a, b) is None)
        if cut is None:
            return False
        assert same_oriented_line(cut, ref_cut_line(g, a, b))
        ref = ref_bisector(a, inverse(g).apply(b))
        assert cut == ref
        keep = ref.side(a)
        for x in probes:
            assert cut.side(x) == ref.side(x) * keep == sign(region_excess(g, a, b, x))
        return True

    def test_equals_the_reference_cut_at_every_step(self):
        cuts = 0
        for g, a, b in [
            step for i in instance_suite(7, 6, max_points=8) for step in induction_steps(i)
        ]:
            probes = list(g.vertices) + [a, b]
            for motion in g.motions:
                cuts += self.check(motion, a, b, probes)
        assert cuts > 0

    def test_none_exactly_when_g_lands_the_target(self):
        g = Motion((("3/5", "-4/5"), ("4/5", "3/5")), (1, 2))
        a = P(2, -1)
        assert cut_line(g, a, g.apply(a)) is None
        assert self.check(g, a, P(g.apply(a).x, 0), [a, P(0, 0)])
        assert cut_line(Motion.identity(), P(1, 1), P(1, 1)) is None

    def test_sqrt2_fold_line_is_the_reference_preimage(self):
        # No fold line reaches (sqrt 2, sqrt 2): Point refuses it.
        # test_fold_line_is_the_reference_preimage poses it on (6/5, 8/5).
        with pytest.raises(ValueError):
            P(sqrt(2), sqrt(2))

    def test_fold_line_is_the_reference_preimage(self):
        gswing = P("6/5", "8/5")
        fr = fold_boundary_region(
            [P(0, 0), P(2, 0), P(0, 2)],
            P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), gswing,
        )
        rigid, swing = fr.rigid_part, fr.swing
        ref = ref_line_preimage(rigid, ref_bisector(rigid.apply(swing), gswing))
        assert fr.fold_line == ref
        assert self.check(rigid, swing, gswing, [P(0, 0), P(2, 0), P(0, 2), P(1, 1)])

    def test_suite_fold_lines_are_the_reference_preimages(self, monkeypatch):
        folds = []

        def recorded(*args):
            fr = fold_boundary_region(*args)
            if fr.fold_line is not None:
                folds.append(fr)
            return fr

        monkeypatch.setattr("isofold.extension.fold_boundary_region", recorded)
        for i in instance_suite(7, 6, max_points=8):
            extend_all(i)
        assert folds
        for fr in folds:
            rigid, swing = fr.rigid_part, fr.swing
            g_swing = fr.reflected_part.apply(swing)
            a_n, g_pivot = fr.polygon[0], rigid.apply(fr.pivot)
            assert same_motion(rigid, ref_from_two_pairs(
                a_n, rigid.apply(a_n), fr.pivot, g_pivot, rigid.determinant_sign()
            ))
            assert same_motion(
                fr.reflected_part, ref_compose(rigid, ref_reflection(fr.fold_line))
            )
            ref = ref_line_preimage(rigid, ref_bisector(rigid.apply(swing), g_swing))
            assert fr.fold_line == ref
            assert self.check(rigid, swing, g_swing, list(fr.polygon))


class TestRefitRegion:
    def golden_pre_step(self) -> PLMap:
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        return base_case(P(0, 0), P(0, 0), dom)

    def test_golden_region(self):
        g = self.golden_pre_step()
        region = refit_region(g, P(0, 4), P(2, 2))
        assert len(region.pieces) == 1
        t, piece = region.pieces[0]
        vs = list(piece.vertices)
        assert len(vs) == 3
        assert P(0, 2) in vs and P(1, 3) in vs and P(0, 4) in vs
        assert tuple(s for s, _ in region.boundary_segments) == (Segment(P(0, 2), P(1, 3)),)
        chord_line = Line(1, -1, -2)
        for s, _ in region.boundary_segments:
            assert chord_line.side(s.p) == chord_line.side(s.q) == 0
        contacts = [s for s, *_ in region.hull_contacts]
        assert len(contacts) == 2
        assert Segment(P(1, 3), P(0, 4)) in contacts
        assert Segment(P(0, 4), P(0, 2)) in contacts

    def test_chord_orientation(self):
        g = self.golden_pre_step()
        region = refit_region(g, P(0, 4), P(2, 2))
        for s, _ in region.boundary_segments:
            assert orientation(P(0, 4), s.p, s.q) == 1

    def test_already_matched(self):
        g = self.golden_pre_step()
        with pytest.raises(TargetAlreadyMatched):
            refit_region(g, P(4, 0), P(4, 0))

    def test_remote_cell_with_center_on_source_is_skipped(self):
        # Far cell carries a translation that already satisfies the new
        # pair, so its pullback center is the source itself.
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        shift = Motion.translation(0, "1/2")
        g = assemble(
            dom,
            [
                (Triangle(P(0, 0), P(2, 0), P(2, 2)), Motion.identity()),
                (Triangle(P(0, 0), P(2, 2), P(0, 2)), shift),
            ],
        )
        src = P("3/2", "1/2")
        dst = shift.apply(src)
        region = refit_region(g, src, dst)
        assert all(t == 0 for t, _ in region.pieces)

    def test_two_piece_region(self):
        g = two_piece_map()
        region = refit_region(g, P(3, 3), P(1, 1))
        left = Line(1, 1, 4)
        right = Line(2, -1, 8)
        assert len(region.boundary_segments) >= 2
        for s, _ in region.boundary_segments:
            on_left = left.side(s.p) == left.side(s.q) == 0
            on_right = right.side(s.p) == right.side(s.q) == 0
            assert on_left or on_right

    def test_region_satisfies_defining_inequality(self):
        # Sampled interior points of each piece are strictly closer to
        # the source than their images are to the target.
        g = two_piece_map()
        src, dst = P(3, 3), P(1, 1)
        region = refit_region(g, src, dst)
        for t, piece in region.pieces:
            vs = piece.vertices
            cx = sum((v.x for v in vs), ExactNumber(0)) / len(vs)
            cy = sum((v.y for v in vs), ExactNumber(0)) / len(vs)
            c = P(cx, cy)
            lhs = squared_distance(src, c)
            rhs = squared_distance(dst, g.restrict_motion(t).apply(c))
            assert sign(rhs - lhs) == 1

    def test_one_cut_per_motion(self, monkeypatch):
        # Cells sharing a motion share its cut, so a refit builds at
        # most one per motion however many cells carry it.
        g = extend_all(inst(
            [(0, 0), (8, 0), (4, 2), (0, 6)], [(0, 0), (4, 0), (2, 1), (0, 6)]
        ))
        assert len(g) > len(g.motions)
        calls = []

        def counted(motion, a, b):
            calls.append(motion)
            return cut_line(motion, a, b)

        monkeypatch.setattr("isofold.extension.cut_line", counted)
        src = P(2, 1)
        image = g.evaluate(src)
        region = refit_region(g, src, P(image.x + Fraction(1, 4), image.y))
        assert region.pieces
        assert 0 < len(calls) <= len(g.motions)


class TestFanExtension:
    def test_golden_fan(self):
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        g = base_case(P(0, 0), P(0, 0), dom)
        region = refit_region(g, P(0, 4), P(2, 2))
        fans = fan_extension(P(0, 4), region)
        assert len(fans) == 1
        tri, m = fans[0]
        assert tri.v0 == P(0, 4)
        assert m.apply(P(0, 4)) == P(2, 2)
        assert m.apply(P(0, 2)) == P(0, 2)
        assert m.apply(P(1, 3)) == P(1, 3)
        assert m == reflection_across_line(Line(1, -1, -2))

    def test_endpoint_equality_property(self):
        g = two_piece_map()
        src, dst = P(3, 3), P(1, 1)
        region = refit_region(g, src, dst)
        for s, _ in region.boundary_segments:
            for x in (s.p, s.q):
                assert equals(
                    squared_distance(src, x),
                    squared_distance(dst, g.evaluate(x)),
                )


class TestFoldBoundaryRegion:
    def test_rigid_identity(self):
        fr = fold_boundary_region(
            [P(0, 0), P(2, 0), P(0, 2)],
            P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), P(0, 2),
        )
        assert fr.fold_line is None
        assert fr.reflected_part is None
        assert fr.rigid_part.kind() == "identity"

    def test_fold_to_diagonal(self):
        # Point refuses (sqrt 2, sqrt 2) on the diagonal; the fold goes to
        # (6/5, 8/5), as far from the apex as the swing (0, 2), instead.
        with pytest.raises(ValueError):
            P(sqrt(2), sqrt(2))
        gswing = P("6/5", "8/5")
        fr = fold_boundary_region(
            [P(0, 0), P(2, 0), P(0, 2)],
            P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), gswing,
        )
        assert fr.rigid_part.kind() == "identity"
        assert fr.fold_line is not None
        assert fr.fold_line.side(P(0, 0)) == 0
        assert fr.reflected_part.apply(P(0, 2)) == gswing
        # Both parts agree on the fold line and at the apex.
        assert fr.reflected_part.apply(P(0, 0)) == P(0, 0)

    def test_fold_reflected_is_rigid_then_mirror(self):
        from isofold.motions import compose

        gswing = P("6/5", "8/5")
        fr = fold_boundary_region(
            [P(0, 0), P(2, 0), P(0, 2)],
            P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), gswing,
        )
        image = ref_bisector(fr.rigid_part.apply(fr.swing), gswing)
        assert ref_line_preimage(fr.rigid_part, image) == fr.fold_line
        assert compose(
            reflection_across_line(image), fr.rigid_part
        ) == fr.reflected_part

    def test_assembled_cone_evaluates_swing(self):
        gswing = P("6/5", "8/5")
        fr = fold_boundary_region(
            [P(0, 0), P(2, 0), P(0, 2)],
            P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), gswing,
        )
        pieces, splits = cone_pieces(fr)
        assert splits == 1
        assert len(pieces) == 2
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(0, 2)])
        f = assemble(dom, pieces)
        assert f.evaluate(P(0, 2)) == gswing
        assert f.evaluate(P(2, 0)) == P(2, 0)
        assert f.evaluate(P(0, 0)) == P(0, 0)
        assert f.validate().all_passed

    def test_distance_mismatch(self):
        with pytest.raises(ValueError):
            fold_boundary_region(
                [P(0, 0), P(2, 0), P(0, 2)],
                P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(3, 0), P(0, 2),
            )

    def test_chord_too_long(self):
        # Both endpoints keep their apex distance but their images are
        # farther apart than the endpoints themselves.
        with pytest.raises(ChordTooLong):
            fold_boundary_region(
                [P(0, 0), P(1, 0), P(0, 1)],
                P(1, 0), P(0, 1), P(0, 0), P(0, 0), P(1, 0), P(-1, 0),
            )

    def test_apex_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fold_boundary_region(
                [P(9, 9), P(2, 0), P(0, 2)],
                P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), P(0, 2),
            )


class TestExtendStep:
    def test_early_exit_returns_same_object(self):
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        g = base_case(P(0, 0), P(0, 0), dom)
        out = extend_step(g, P(4, 0), P(4, 0))
        assert out is g

    def test_golden_step_structure(self):
        f = extend_all(GOLDEN)
        assert len(f) == 3
        assert f.validate().all_passed
        assert f.evaluate(P(0, 4)) == P(2, 2)
        assert f.evaluate(P(0, 2)) == P(0, 2)
        assert f.evaluate(P(2, 0)) == P(2, 0)
        # The reshaped part is exactly the reflection across y = x + 2.
        mirror = reflection_across_line(Line(1, -1, -2))
        assert any(m == mirror for m in f.motions)
        assert any(m.kind() == "identity" for m in f.motions)

    def test_boundary_agreement(self):
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        g = base_case(P(0, 0), P(0, 0), dom)
        src, dst = P(0, 4), P(2, 2)
        region = refit_region(g, src, dst)
        f = extend_step(g, src, dst)
        for s, _ in region.boundary_segments:
            for k in range(5):
                t = Fraction(k, 4)
                x = P(s.p.x + (s.q.x - s.p.x) * t, s.p.y + (s.q.y - s.p.y) * t)
                assert f.evaluate(x) == g.evaluate(x)


def suite_steps():
    """Every induction step of CANONICAL and a small random suite."""
    instances = CANONICAL + instance_suite(7, 6, max_points=8)
    return [step for i in instances for step in induction_steps(i)]


class TestCutRecords:
    """Fan motions, chain ends and cone pins read off each cell's cut."""

    def test_fan_motion_is_the_three_point_solve(self):
        # The three-point solve is the derivation the fan motion replaces.
        chords = 0
        for g, a, b in suite_steps():
            for seg, m in refit_region(g, a, b).boundary_segments:
                p, q = seg.p, seg.q
                assert m == from_three_points(a, b, p, g.evaluate(p), q, g.evaluate(q))
                chords += 1
        assert chords > 0

    def test_chain_ends_lie_on_the_region_boundary(self):
        chains = 0
        for g, a, b in suite_steps():
            region = refit_region(g, a, b)
            for chain, g_pivot, g_swing in _contact_chains(g.domain, region.hull_contacts):
                assert sign(omega_excess(g, a, b, chain[0])) == 0
                assert sign(omega_excess(g, a, b, chain[-1])) == 0
                assert g_pivot == g.evaluate(chain[0])
                assert g_swing == g.evaluate(chain[-1])
                chains += 1
        assert chains > 0

    def test_one_locate_per_step(self, monkeypatch):
        steps = suite_steps()
        g, a, _ = steps[0]
        steps.append((g, a, g.evaluate(a)))
        calls = []
        locate = PLMap.locate

        def counted(self, p):
            calls.append(p)
            return locate(self, p)

        monkeypatch.setattr(PLMap, "locate", counted)
        for g, a, b in steps:
            before = len(calls)
            extend_step_traced(g, a, b)
            assert len(calls) - before == 1

    def test_region_swallowing_the_domain(self):
        # The second pair's cut, x = 4, touches the triangle only at its
        # corner (4, 0), not at the hull's first vertex (0, 0), so the
        # one contact chain runs round the boundary across the seam.
        i = inst([(4, 0), (0, 0), (0, 4)], [(4, 0), (8, 0), (8, 4)])
        f, trace = extend_all_traced(i)
        assert (trace.steps[0].chains, trace.steps[0].rigid_chains) == (1, 1)
        assert f.validate().all_passed
        for a, b in i.pairs():
            assert f.evaluate(a) == b


class TestExtendAll:
    def test_identity_instance(self):
        i = inst([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (0, 4)])
        f = extend_all(i)
        assert all(m.kind() == "identity" for m in f.motions)

    def test_golden(self):
        f = extend_all(GOLDEN)
        for a, b in GOLDEN.pairs():
            assert f.evaluate(a) == b

    def test_single_point_degenerate_hull(self):
        i = inst([(2, 3)], [(5, 3)])
        with pytest.raises(DegenerateHullError) as err:
            extend_all(i)
        assert err.value.dimension == 0
        assert err.value.translation is not None
        assert err.value.translation.apply(P(2, 3)) == P(5, 3)

    def test_collinear_degenerate_hull(self):
        i = inst([(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateHullError) as err:
            extend_all(i)
        assert err.value.dimension == 1
        assert err.value.translation is None

    def test_violation_raised_with_pair(self):
        i = inst([(0, 0), (1, 0)], [(0, 0), (3, 0)])
        with pytest.raises(NonExpansivenessViolation) as err:
            extend_all(i)
        assert err.value.pair == Violation(0, 1)

    def test_spec_contraction_instance(self):
        i = inst([(0, 0), (6, 0), (3, 3)], [(0, 0), (2, 0), (1, 1)])
        f = extend_all(i)
        assert f.validate().all_passed
        assert f.evaluate(P(3, 3)) == P(1, 1)

    def test_duplicate_sources_merged(self):
        i = inst(
            [(0, 0), (4, 0), (4, 0), (0, 4)],
            [(0, 0), (4, 0), (4, 0), (2, 2)],
        )
        f = extend_all(i)
        assert f.evaluate(P(0, 4)) == P(2, 2)


class TestInstanceSuiteTraces:
    """Branch coverage over the four structurally distinct instances."""

    def test_fold_instance(self):
        i = inst(
            [(0, 0), (8, 0), (4, 2), (0, 6)],
            [(0, 0), (4, 0), (2, 1), (0, 6)],
        )
        f, trace = extend_all_traced(i)
        assert f.validate().all_passed
        folds = [s for s in trace.steps if s.folded_chains]
        assert folds, "expected a genuine fold"
        assert any(s.split_cone_triangles for s in trace.steps)
        assert any(s.early_exit for s in trace.steps)
        # One fold's rigid part is the hand-checked 5/13 rotation.
        want = Motion(
            (("5/13", "-12/13"), ("12/13", "5/13")), ("30/13", "-45/13")
        )
        assert any(m == want for m in f.motions)

    def test_rigid_no_fold_instance(self):
        i = inst(
            [(0, 0), (4, 2), (8, 0), (4, 6)],
            [(0, 0), (4, "1/2"), (6, 0), (3, 4)],
        )
        f, trace = extend_all_traced(i)
        assert f.validate().all_passed
        assert any(s.rigid_chains for s in trace.steps)

    def test_contraction_instance(self):
        i = inst(
            [(0, 0), (8, 0), (0, 8), (4, 4)],
            [(0, 0), (4, 0), (0, 4), (2, 2)],
        )
        f, trace = extend_all_traced(i)
        assert f.validate().all_passed
        assert any(s.empty_cells for s in trace.steps)

    def test_every_step_preserves_prefix(self):
        i = inst(
            [(0, 0), (8, 0), (4, 2), (0, 6)],
            [(0, 0), (4, 0), (2, 1), (0, 6)],
        )
        f, trace = extend_all_traced(i)
        for a, b in i.pairs():
            assert f.evaluate(a) == b


class TestMerge:
    @staticmethod
    def touched_motions(g, a, b, f):
        """Motions of the cells the region cut, and motions new in f."""
        cut = [g.restrict_motion(t) for t, _ in refit_region(g, a, b).pieces]
        return cut + [m for m in f.motions if not any(m == old for old in g.motions)]

    def test_touched_convex_groups_are_hull_fans(self):
        merged = 0
        for instance in CANONICAL + instance_suite(7, 6, max_points=8):
            for g, a, b in induction_steps(instance):
                f, trace = extend_step_traced(g, a, b)
                rep = f.validate()
                assert rep.all_passed, rep.failures()
                merged += trace.merged_groups
                touched = self.touched_motions(g, a, b, f)
                for k, motion in enumerate(f.motions):
                    if not any(motion == m for m in touched):
                        continue
                    cells = [f.cell(t) for t, row in enumerate(f.triangles) if row[3] == k]
                    if len(cells) < 2:
                        continue
                    hull = convex_hull([v for c in cells for v in c.vertices])
                    if hull.area2() != sum(c.area2() for c in cells):
                        continue
                    fan = fan_from_first_vertex(hull)
                    assert [c.vertices for c in cells] == [t.vertices for t in fan]
        assert merged > 0

    def test_disjoint_group_keeps_its_cells(self):
        ident, shift = Motion.identity(), Motion.translation(1, 0)
        apart = [
            (Triangle(P(0, 0), P(1, 0), P(0, 1)), ident),
            (Triangle(P(3, 3), P(4, 3), P(4, 4)), ident),
        ]
        # A unit square cut along the diagonal its hull fan does not use.
        square = [
            (Triangle(P(2, 0), P(3, 0), P(2, 1)), shift),
            (Triangle(P(3, 0), P(3, 1), P(2, 1)), shift),
        ]
        trace = StepTrace()
        out = _merge_touched(apart + square, [], 0, trace)
        assert (trace.merged_groups, trace.kept_groups) == (1, 1)
        assert out[:2] == apart
        assert [hull.vertices for hull, _ in out[2:]] == [
            (P(2, 0), P(3, 0), P(3, 1), P(2, 1))
        ]
        fan = assemble(out[2][0], out[2:])
        assert [fan.cell(t).vertices for t in range(len(fan))] == [
            (P(2, 0), P(3, 0), P(3, 1)), (P(2, 0), P(3, 1), P(2, 1))
        ]
        assert all(m is shift for _, m in out[2:])

    def test_hulls_only_touched_groups(self, monkeypatch):
        g, a, b = induction_steps(random_instance(random.Random(3), 10))[-1]
        calls = []

        def counted(points):
            calls.append(points)
            return convex_hull(points)

        monkeypatch.setattr("isofold.extension.convex_hull", counted)
        f, trace = extend_step_traced(g, a, b)
        assert len(calls) == trace.merged_groups + trace.kept_groups
        assert len(calls) <= len(self.touched_motions(g, a, b, f))
        sizes = {}
        for row in f.triangles:
            sizes[row[3]] = sizes.get(row[3], 0) + 1
        assert len(calls) < sum(1 for n in sizes.values() if n > 1)


class TestInvariants:
    def test_broken_invariant_raises(self):
        # A clockwise cone walk breaks an invariant of cone_pieces.
        apex = P(0, 0)
        region = FoldRegion(
            [apex, P(0, 2), P(2, 0)], P(0, 2), P(2, 0), Motion.identity(), None, None
        )
        with pytest.raises(ConstructionError, match="clockwise"):
            cone_pieces(region)

    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements, so invariants must raise.
        found = [
            f"{path.name}:{node.lineno}"
            for path in package_sources()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_package_has_no_orphaned_imports(self):
        # A deletion must not leave behind an import that nothing reads
        # (``__init__.py`` imports to re-export) or an __all__ entry that
        # names nothing.
        found = []
        for path in package_sources():
            tree = ast.parse(path.read_text())
            imported = {
                (alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            defined = set()
            exported = []
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Assign):
                    names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                    defined |= names
                    if "__all__" in names:
                        exported = [elt.value for elt in node.value.elts]
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            if path.name != "__init__.py":
                found += [
                    f"{path.name}:{line} imports {name} and never uses it"
                    for name, line in imported.items()
                    if name not in used and name not in exported
                ]
            found += [
                f"{path.name}: __all__ names {name}, which it neither defines nor imports"
                for name in exported
                if name not in defined and name not in imported
            ]
        assert found == []
