"""Rigid motions: constructors, composition, classification."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofold import ExactNumber, equals, sign, sqrt
from isofold.extension import cut_line, fold_boundary_region
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
from isofold.plmap import motion_ids

from instancegen import instance_suite
from test_acceptance import induction_steps

coords = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def P(x, y) -> Point:
    return Point(x, y)


# The entry-wise formulas the motion layer ran on before it moved to
# integer forms, kept as references.


def ref_apply(m: Motion, p: Point) -> Point:
    return Point(m.r00 * p.x + m.r01 * p.y + m.tx, m.r10 * p.x + m.r11 * p.y + m.ty)


def ref_compose(outer: Motion, inner: Motion) -> Motion:
    return Motion.unchecked(
        (
            (
                outer.r00 * inner.r00 + outer.r01 * inner.r10,
                outer.r00 * inner.r01 + outer.r01 * inner.r11,
            ),
            (
                outer.r10 * inner.r00 + outer.r11 * inner.r10,
                outer.r10 * inner.r01 + outer.r11 * inner.r11,
            ),
        ),
        (
            outer.r00 * inner.tx + outer.r01 * inner.ty + outer.tx,
            outer.r10 * inner.tx + outer.r11 * inner.ty + outer.ty,
        ),
    )


def ref_reflection(line: Line) -> Motion:
    a, b, c = line.a, line.b, line.c
    d2 = a * a + b * b
    ab2 = 2 * a * b / d2
    return Motion.unchecked(
        (((b * b - a * a) / d2, -ab2), (-ab2, (a * a - b * b) / d2)),
        (2 * a * c / d2, 2 * b * c / d2),
    )


def ref_from_two_pairs(p1: Point, q1: Point, p2: Point, q2: Point, det: int) -> Motion:
    ux, uy = p2.x - p1.x, p2.y - p1.y
    vx, vy = q2.x - q1.x, q2.y - q1.y
    d2 = ux * ux + uy * uy
    if sign(d2) == 0:
        raise CoincidentSources("need two distinct source points")
    if not equals(d2, vx * vx + vy * vy):
        raise DistanceMismatch("pairs are not congruent")
    if det == 1:
        c = (ux * vx + uy * vy) / d2
        s = (ux * vy - uy * vx) / d2
        rows = ((c, -s), (s, c))
    else:
        c = (ux * vx - uy * vy) / d2
        s = (uy * vx + ux * vy) / d2
        rows = ((c, s), (s, -c))
    (r00, r01), (r10, r11) = rows
    return Motion.unchecked(
        rows, (q1.x - (r00 * p1.x + r01 * p1.y), q1.y - (r10 * p1.x + r11 * p1.y))
    )


def ref_motion_ids(motions):
    """motion_ids keyed on the integer pairs of the Fraction entries."""
    ids = []
    distinct: list[Motion] = []
    index: dict = {}
    for m in motions:
        key = tuple(
            map(Fraction.as_integer_ratio, (m.r00, m.r01, m.r10, m.r11, m.tx, m.ty))
        )
        got = index.get(key)
        if got is None:
            index[key] = got = len(distinct)
            distinct.append(m)
        ids.append(got)
    return ids, distinct


def inverse(m: Motion) -> Motion:
    """m^-1, entry by entry: R is orthogonal, so R^-1 is its transpose."""
    return Motion.unchecked(
        ((m.r00, m.r10), (m.r01, m.r11)),
        (-(m.r00 * m.tx + m.r10 * m.ty), -(m.r01 * m.tx + m.r11 * m.ty)),
    )


def entries(m: Motion):
    return (m.r00, m.r01, m.r10, m.r11, m.tx, m.ty)


def same_motion(got: Motion, want: Motion) -> bool:
    """Entry by entry, exactly, in the same number form."""
    return all(
        type(x) is type(y) and equals(x, y) for x, y in zip(entries(got), entries(want))
    )


def same_point(got: Point, want: Point) -> bool:
    return (
        type(got.x) is type(want.x) and type(got.y) is type(want.y)
        and equals(got.x, want.x) and equals(got.y, want.y)
    )


@lru_cache(maxsize=None)
def suite_steps():
    """(g, a_n, b_n) at every step of the 8-point suite."""
    return tuple(
        step for i in instance_suite(7, 6, max_points=8) for step in induction_steps(i)
    )


def fold():
    """The cone over (2, 0), (0, 2) with its swing sent to (6/5, 8/5)."""
    return fold_boundary_region(
        [P(0, 0), P(2, 0), P(0, 2)],
        P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), P("6/5", "8/5"),
    )


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
        assert m.determinant_sign() == 1


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
        assert all(type(v) is Fraction for v in entries(m))

    def test_distance_mismatch(self):
        with pytest.raises(DistanceMismatch):
            from_two_pairs(P(0, 0), P(0, 0), P(1, 0), P(2, 0), 1)

    def test_coincident_sources(self):
        with pytest.raises(CoincidentSources):
            from_two_pairs(P(1, 1), P(0, 0), P(1, 1), P(2, 2), 1)

    def test_irrational_targets(self):
        # (sqrt 2, sqrt 2) is refused; (6/5, 8/5) lies as far from the origin.
        with pytest.raises(ValueError):
            P(sqrt(2), sqrt(2))
        m = from_two_pairs(P(0, 0), P(0, 0), P(2, 0), P("6/5", "8/5"), 1)
        assert m.apply(P(2, 0)) == P("6/5", "8/5")
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
            inv = inverse(m)
            probe = P("5/7", "9/2")
            assert inv.apply(m.apply(probe)) == probe
            assert m.apply(inv.apply(probe)) == probe

    def test_inverse_composition_is_identity(self):
        m = compose(inverse(self.rot), self.rot)
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


class TestAgainstFractionFormulas:
    """The integer motion layer against the entry-wise references."""

    def test_images_reflections_and_compositions_at_every_step(self):
        compared = 0
        for g, a, b in suite_steps():
            vs, ms = g.vertices, g.motions
            for i, j, k, mi in g.triangles:
                for p in (vs[i], vs[j], vs[k]):
                    assert same_point(ms[mi].apply(p), ref_apply(ms[mi], p))
            for prev, m in zip(ms, ms[1:]):
                assert same_motion(compose(m, prev), ref_compose(m, prev))
            for m in ms:
                assert same_point(m.apply(a), ref_apply(m, a))
                cut = cut_line(m, a, b)
                if cut is None:
                    continue
                mirror = reflection_across_line(cut)
                assert same_motion(mirror, ref_reflection(cut))
                assert same_motion(compose(m, mirror), ref_compose(m, mirror))
                assert same_motion(compose(mirror, m), ref_compose(mirror, m))
                compared += 1
        assert compared > 100

    def test_two_point_solves_at_every_step(self):
        for g, _, _ in suite_steps():
            vs, ms = g.vertices, g.motions
            for i, j, k, mi in g.triangles:
                m = ms[mi]
                p1, p2 = vs[i], vs[k]
                q1, q2 = m.apply(p1), m.apply(p2)
                for det in (1, -1):
                    got = from_two_pairs(p1, q1, p2, q2, det)
                    assert same_motion(got, ref_from_two_pairs(p1, q1, p2, q2, det))
                    assert same_motion(got, m) == (det == m.determinant_sign())
                with pytest.raises(DistanceMismatch):
                    from_two_pairs(p1, q1, p2, P(q2.x + 1, q2.y), 1)
                with pytest.raises(CoincidentSources):
                    from_two_pairs(p1, q1, p1, q2, 1)

    def test_sqrt2_fold_motions(self):
        # The fold onto (sqrt 2, sqrt 2) cannot be posed: no Point holds
        # its swing image.  test_fold_motions poses it on (6/5, 8/5).
        with pytest.raises(ValueError):
            fold_boundary_region(
                [P(0, 0), P(2, 0), P(0, 2)],
                P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), P(sqrt(2), sqrt(2)),
            )

    def test_fold_motions(self):
        fr = fold()
        assert fr.fold_line is not None
        a, b, pivot, swing = P(0, 0), P(0, 0), P(2, 0), P(0, 2)
        gswing = P("6/5", "8/5")
        for det in (1, -1):
            got = from_two_pairs(a, b, pivot, pivot, det)
            assert same_motion(got, ref_from_two_pairs(a, b, pivot, pivot, det))
            got = from_two_pairs(a, b, swing, gswing, det)
            assert same_motion(got, ref_from_two_pairs(a, b, swing, gswing, det))
            for p in (pivot, swing, gswing, P(1, 1)):
                assert same_point(got.apply(p), ref_apply(got, p))
        mirror = reflection_across_line(fr.fold_line)
        assert same_motion(mirror, ref_reflection(fr.fold_line))
        assert same_motion(fr.reflected_part, ref_compose(fr.rigid_part, mirror))
        assert same_motion(compose(mirror, mirror), ref_compose(mirror, mirror))
        for p in (*fr.polygon, gswing):
            for m in (fr.rigid_part, fr.reflected_part, mirror):
                assert same_point(m.apply(p), ref_apply(m, p))
        assert fr.reflected_part.apply(swing) == gswing

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_random_lines_and_points(self, a, b, c, e, f, h, px, py):
        if (a == 0 and b == 0) or (e == 0 and f == 0):
            return
        first = reflection_across_line(Line(a, b, c))
        second = reflection_across_line(Line(e, f, h))
        assert same_motion(first, ref_reflection(Line(a, b, c)))
        turn = compose(first, second)
        assert same_motion(turn, ref_compose(first, second))
        glide = compose(Motion.translation(px, h), turn)
        assert same_motion(glide, ref_compose(Motion.translation(px, h), turn))
        probe = P(px, py)
        for m in (first, turn, glide, inverse(glide)):
            assert same_point(m.apply(probe), ref_apply(m, probe))

    def test_equal_exactly_when_forms_are_equal(self):
        for g, _, _ in suite_steps():
            ms = g.motions
            for m in ms:
                copy = Motion.unchecked(m.rows, (m.tx, m.ty))
                assert copy == m and copy.form() == m.form()
                moved = Motion.unchecked(m.rows, (m.tx + Fraction(1, 10**9), m.ty))
                assert moved != m and moved.form() != m.form()
            for i, m in enumerate(ms):
                for n in ms[:i]:
                    same = all(x == y for x, y in zip(entries(m), entries(n)))
                    assert (m == n) == same == (m.form() == n.form())

    def test_equality_across_denominators_and_number_forms(self):
        # Unchecked rows with the same numerators over another d, and a
        # rational value held as an ExactNumber.  A rational value held
        # as an irrational-form expression is refused like any other.
        half = Motion.unchecked((("1/2", 0), (0, "1/2")), (0, 0))
        assert half != Motion.unchecked(((1, 0), (0, 1)), (0, 0))
        third = ExactNumber(1) / 3
        assert Motion.translation(third, 0) == Motion.translation("1/3", 0)
        assert Motion.translation(third, 0) != Motion.translation("1/2", 0)
        with pytest.raises(ValueError):
            Motion.translation(sqrt(2) * sqrt(2) / 6, 0)

    def test_rational_form_is_canonical(self):
        for g, _, _ in suite_steps():
            for m in g.motions:
                *scaled, d = m.form()
                assert d == lcm(*(v.denominator for v in entries(m)))
                assert all(type(x) is int for x in scaled)
                assert [Fraction(x, d) for x in scaled] == list(entries(m))

    def test_motion_ids_match_the_old_key(self):
        for g, a, b in suite_steps():
            listed = [g.restrict_motion(t) for t in range(len(g))]
            listed += [Motion.unchecked(m.rows, (m.tx, m.ty)) for m in g.motions]
            listed += [compose(m, Motion.identity()) for m in g.motions[::2]]
            listed += [
                Motion.unchecked(((1, 0), (0, 1)), (0, 0)),
                Motion.unchecked((("1/2", 0), (0, "1/2")), (0, 0)),
            ]
            ids, distinct = motion_ids(listed)
            ref_ids, ref_distinct = ref_motion_ids(listed)
            assert ids == ref_ids
            assert all(x is y for x, y in zip(distinct, ref_distinct))
            assert len(distinct) == len(ref_distinct) > len(g.motions)
