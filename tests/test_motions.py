"""Rigid motions: constructors, composition, classification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofold import ExactNumber, equals, sign, sqrt
from isofold.geometry import Line, Point, squared_distance
from isofold.motions import (
    CoincidentSources,
    CollinearSources,
    DistanceMismatch,
    Motion,
    compose,
    from_three_points,
    from_two_pairs,
    reflection_across_line,
)

coords = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def P(x, y) -> Point:
    return Point(x, y)


class TestConstruction:
    def test_identity_and_translation(self):
        assert Motion.identity().apply(P(3, 7)) == P(3, 7)
        m = Motion.translation(2, -1)
        assert m.apply(P(3, 7)) == P(5, 6)
        assert m.determinant_sign() == 1

    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            Motion(((1, 0), (0, 2)), (0, 0))
        with pytest.raises(ValueError):
            Motion((("3/5", "3/5"), ("-4/5", "4/5")), (0, 0))

    def test_unchecked_skips_validation(self):
        m = Motion.unchecked(((1, 0), (0, 2)), (0, 0))
        assert not m.is_orthogonal()

    def test_pythagorean_rotation(self):
        m = Motion((("3/5", "-4/5"), ("4/5", "3/5")), (0, 0))
        assert m.apply(P(5, 0)) == P(3, 4)
        assert m.is_orientation_preserving()


class TestTwoPairs:
    def test_rotation_about_origin(self):
        m = from_two_pairs(P(0, 0), P(0, 0), P(0, 5), P(3, 4), 1)
        assert equals(m.r00, ExactNumber("4/5"))
        assert equals(m.r10, ExactNumber("-3/5"))
        assert equals(m.r01, ExactNumber("3/5"))
        assert equals(m.r11, ExactNumber("4/5"))
        assert sign(m.tx) == 0 and sign(m.ty) == 0
        assert m.apply(P(0, 5)) == P(3, 4)

    def test_reflection_variant(self):
        m = from_two_pairs(P(0, 0), P(0, 0), P(0, 5), P(3, 4), -1)
        assert m.determinant_sign() == -1
        assert m.apply(P(0, 5)) == P(3, 4)
        # A reflection fixing the origin maps (5,0) differently from the
        # rotation with the same two pairs.
        rot = from_two_pairs(P(0, 0), P(0, 0), P(0, 5), P(3, 4), 1)
        assert m.apply(P(5, 0)) != rot.apply(P(5, 0))

    def test_rational_stays_rational(self):
        m = from_two_pairs(P(1, 2), P(-3, 0), P(4, 6), P(0, 4), 1)
        assert m.is_rational()

    def test_distance_mismatch(self):
        with pytest.raises(DistanceMismatch):
            from_two_pairs(P(0, 0), P(0, 0), P(1, 0), P(2, 0), 1)

    def test_coincident_sources(self):
        with pytest.raises(CoincidentSources):
            from_two_pairs(P(1, 1), P(0, 0), P(1, 1), P(2, 2), 1)

    def test_irrational_targets(self):
        m = from_two_pairs(P(0, 0), P(0, 0), P(2, 0), P(sqrt(2), sqrt(2)), 1)
        assert m.apply(P(2, 0)) == P(sqrt(2), sqrt(2))
        assert m.is_orthogonal()

    @given(coords, coords, coords, coords, st.sampled_from([-1, 1]))
    @settings(max_examples=60, deadline=None)
    def test_is_isometry(self, px, py, dx, dy, det):
        p1, p2 = P(px, py), P(px + 3, py - 1)
        q1, q2 = P(px + dx, py + dy), P(px + 3 + dx, py - 1 + dy)
        m = from_two_pairs(p1, q1, p2, q2, det)
        assert m.apply(p1) == q1
        assert m.apply(p2) == q2
        probe = P(px - 2, py + 5)
        assert equals(
            squared_distance(m.apply(probe), q1), squared_distance(probe, p1)
        )
        assert m.determinant_sign() == det


class TestThreePoints:
    def test_recovers_rotation(self):
        want = Motion((("3/5", "-4/5"), ("4/5", "3/5")), (1, 2))
        ps = [P(0, 0), P(5, 0), P(0, 5)]
        qs = [want.apply(p) for p in ps]
        got = from_three_points(ps[0], qs[0], ps[1], qs[1], ps[2], qs[2])
        assert got == want

    def test_recovers_reflection(self):
        want = reflection_across_line(Line(1, -1, -2))
        ps = [P(0, 0), P(5, 0), P(0, 5)]
        qs = [want.apply(p) for p in ps]
        got = from_three_points(ps[0], qs[0], ps[1], qs[1], ps[2], qs[2])
        assert got == want
        assert got.determinant_sign() == -1

    def test_collinear_sources(self):
        with pytest.raises(CollinearSources):
            from_three_points(P(0, 0), P(0, 0), P(1, 1), P(1, 1), P(2, 2), P(2, 2))

    def test_incongruent_triple(self):
        with pytest.raises(DistanceMismatch):
            from_three_points(P(0, 0), P(0, 0), P(1, 0), P(0, 1), P(0, 1), P(5, 5))


class TestReflectionAcrossLine:
    def test_worked_example(self):
        m = reflection_across_line(Line(1, -1, -2))  # y = x + 2
        assert m.apply(P(0, 0)) == P(-2, 2)
        assert m.apply(P(0, 2)) == P(0, 2)
        assert m.apply(P(1, 3)) == P(1, 3)
        assert m.determinant_sign() == -1

    def test_axis_reflections(self):
        mx = reflection_across_line(Line(0, 1, 0))
        assert mx.apply(P(3, 4)) == P(3, -4)
        my = reflection_across_line(Line(1, 0, 0))
        assert my.apply(P(3, 4)) == P(-3, 4)

    @given(coords, coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_involution(self, a, b, c):
        if a == 0 and b == 0:
            return
        m = reflection_across_line(Line(a, b, c))
        probe = P("7/3", "-1/2")
        assert m.apply(m.apply(probe)) == probe


class TestComposeInverse:
    rot = Motion((("3/5", "-4/5"), ("4/5", "3/5")), (1, 2))
    refl = reflection_across_line(Line(1, -1, -2))

    def test_compose_order(self):
        m = compose(self.rot, self.refl)  # reflection first
        probe = P(2, -3)
        assert m.apply(probe) == self.rot.apply(self.refl.apply(probe))

    def test_compose_determinant(self):
        assert compose(self.rot, self.refl).determinant_sign() == -1
        assert compose(self.refl, self.refl).determinant_sign() == 1

    def test_inverse(self):
        for m in (self.rot, self.refl, Motion.translation("1/3", -2)):
            inv = m.inverse()
            probe = P("5/7", "9/2")
            assert inv.apply(m.apply(probe)) == probe
            assert m.apply(inv.apply(probe)) == probe

    def test_inverse_composition_is_identity(self):
        m = compose(self.rot.inverse(), self.rot)
        assert m.kind() == "identity"


class TestKind:
    def test_classification(self):
        assert Motion.identity().kind() == "identity"
        assert Motion.translation(1, 0).kind() == "translation"
        assert self_rotation().kind() == "rotation"
        assert reflection_across_line(Line(1, -1, -2)).kind() == "reflection"
        assert reflection_across_line(Line(1, 0, 4)).kind() == "reflection"
        assert reflection_across_line(Line(0, 1, -1)).kind() == "reflection"

    def test_glide_reflection(self):
        refl = reflection_across_line(Line(0, 1, 0))
        glide = compose(Motion.translation(3, 0), refl)
        assert glide.kind() == "glide_reflection"
        # Glide along the y-axis exercises the degenerate mirror branch.
        glide_y = compose(
            Motion.translation(0, 3), reflection_across_line(Line(1, 0, 0))
        )
        assert glide_y.kind() == "glide_reflection"

    def test_point_reflection_is_rotation(self):
        half_turn = Motion(((-1, 0), (0, -1)), (2, 2))
        assert half_turn.kind() == "rotation"


def self_rotation() -> Motion:
    return Motion((("3/5", "-4/5"), ("4/5", "3/5")), (1, 2))
