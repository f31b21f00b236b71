"""The inductive construction: regions, fans, folds, full runs."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import isofold

from isofold import ExactNumber, equals, sign, sqrt
from isofold.geometry import (
    ConvexPolygon,
    Line,
    Point,
    Segment,
    Triangle,
    orientation,
    squared_distance,
)
from isofold.motions import Motion, reflection_across_line
from isofold.plmap import PLMap, assemble
from isofold.extension import (
    ChordTooLong,
    ConstructionError,
    FoldRegion,
    DegenerateHullError,
    Instance,
    NonExpansivenessViolation,
    TargetAlreadyMatched,
    Violation,
    base_case,
    check_nonexpansive,
    cone_pieces,
    extend_all,
    extend_all_traced,
    extend_step,
    fan_extension,
    fold_boundary_region,
    pullback_center,
    refit_region,
)


def P(x, y) -> Point:
    return Point(x, y)


def inst(sources, targets) -> Instance:
    return Instance([P(*s) for s in sources], [P(*t) for t in targets])


GOLDEN = inst([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (2, 2)])


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
    def test_identity(self):
        assert pullback_center(Motion.identity(), P(2, 2)) == P(2, 2)

    def test_reflection(self):
        mirror = reflection_across_line(Line(1, 0, 4))
        assert pullback_center(mirror, P(1, 1)) == P(7, 1)

    def test_translation(self):
        assert pullback_center(Motion.translation(1, 0), P(5, 5)) == P(4, 5)


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
        assert region.boundary_segments == (Segment(P(0, 2), P(1, 3)),)
        chord_line = Line(1, -1, -2)
        for s in region.boundary_segments:
            assert chord_line.contains(s.p) and chord_line.contains(s.q)
        contacts = list(region.hull_contacts)
        assert len(contacts) == 2
        assert Segment(P(1, 3), P(0, 4)) in contacts
        assert Segment(P(0, 4), P(0, 2)) in contacts

    def test_chord_orientation(self):
        g = self.golden_pre_step()
        region = refit_region(g, P(0, 4), P(2, 2))
        for s in region.boundary_segments:
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
        for s in region.boundary_segments:
            on_left = left.contains(s.p) and left.contains(s.q)
            on_right = right.contains(s.p) and right.contains(s.q)
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


class TestFanExtension:
    def test_golden_fan(self):
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        g = base_case(P(0, 0), P(0, 0), dom)
        region = refit_region(g, P(0, 4), P(2, 2))
        fans = fan_extension(P(0, 4), P(2, 2), region, g)
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
        for s in region.boundary_segments:
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
        gswing = P(sqrt(2), sqrt(2))
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
        from isofold.geometry import perpendicular_bisector
        from isofold.motions import compose, line_preimage

        gswing = P(sqrt(2), sqrt(2))
        fr = fold_boundary_region(
            [P(0, 0), P(2, 0), P(0, 2)],
            P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), gswing,
        )
        image = perpendicular_bisector(fr.rigid_part.apply(fr.swing), gswing)
        assert line_preimage(fr.rigid_part, image) == fr.fold_line
        assert compose(
            reflection_across_line(image), fr.rigid_part
        ) == fr.reflected_part

    def test_assembled_cone_evaluates_swing(self):
        gswing = P(sqrt(2), sqrt(2))
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
        for s in region.boundary_segments:
            for k in range(5):
                t = Fraction(k, 4)
                x = P(s.p.x + (s.q.x - s.p.x) * t, s.p.y + (s.q.y - s.p.y) * t)
                assert f.evaluate(x) == g.evaluate(x)


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
        package = Path(isofold.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []
