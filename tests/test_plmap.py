"""PLMap container: lookup, evaluation, structural validation."""

from __future__ import annotations

import pytest

from isofold.geometry import ConvexPolygon, Line, Point, Triangle
from isofold.motions import Motion, reflection_across_line
from isofold.plmap import (
    IndexOutOfRange,
    OutsideDomain,
    PLMap,
    assemble,
)


def P(x, y) -> Point:
    return Point(x, y)


def square_map() -> PLMap:
    """Unit square split along the diagonal, identity both sides."""
    dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
    ident = Motion.identity()
    return assemble(
        dom,
        [
            (Triangle(P(0, 0), P(2, 0), P(2, 2)), ident),
            (Triangle(P(0, 0), P(2, 2), P(0, 2)), ident),
        ],
    )


def folded_map() -> PLMap:
    """Square folded across its diagonal: upper triangle reflected."""
    dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
    mirror = reflection_across_line(Line(1, -1, 0))
    return assemble(
        dom,
        [
            (Triangle(P(0, 0), P(2, 0), P(2, 2)), Motion.identity()),
            (Triangle(P(0, 0), P(2, 2), P(0, 2)), mirror),
        ],
    )


class TestAssembleAndAccess:
    def test_dedup(self):
        m = square_map()
        assert len(m.vertices) == 4
        assert len(m.motions) == 1
        assert len(m) == 2

    def test_cell_and_restrict(self):
        m = folded_map()
        assert m.cell(0).v1 == P(2, 0)
        assert m.restrict_motion(1).determinant_sign() == -1
        with pytest.raises(IndexOutOfRange):
            m.cell(5)
        with pytest.raises(IndexOutOfRange):
            m.restrict_motion(-1)

    def test_index_bounds_checked_at_build(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(0, 2)])
        with pytest.raises(IndexOutOfRange):
            PLMap(dom, [P(0, 0), P(2, 0), P(0, 2)], [(0, 1, 7, 0)], [Motion.identity()])
        with pytest.raises(IndexOutOfRange):
            PLMap(dom, [P(0, 0), P(2, 0), P(0, 2)], [(0, 1, 2, 3)], [Motion.identity()])

    def test_assemble_rejects_clockwise(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(0, 2)])
        with pytest.raises(ValueError):
            assemble(dom, [(Triangle(P(0, 0), P(0, 2), P(2, 0)), Motion.identity())])


class TestEvaluate:
    def test_interior_points(self):
        m = folded_map()
        assert m.evaluate(P(1, "1/2")) == P(1, "1/2")
        assert m.evaluate(P("1/2", 1)) == P(1, "1/2")

    def test_diagonal_agrees(self):
        m = folded_map()
        assert m.evaluate(P(1, 1)) == P(1, 1)

    def test_outside(self):
        m = folded_map()
        with pytest.raises(OutsideDomain):
            m.evaluate(P(3, 3))
        with pytest.raises(OutsideDomain):
            m.evaluate(P(-1, 0))

    def test_locate(self):
        m = folded_map()
        assert m.locate(P(1, "1/2")) == 0
        assert m.locate(P("1/2", 1)) == 1


class TestValidate:
    def test_good_map_passes(self):
        for builder in (square_map, folded_map):
            rep = builder().validate()
            assert rep.all_passed, rep.failures()
            assert [name for name, _, _ in rep.checks] == [
                "triangle-orientation",
                "area-sum",
                "intersection-dimension",
                "motion-orthogonality",
                "edge-agreement",
            ]

    def test_orientation_failure(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(0, 2)])
        m = PLMap.unchecked(
            dom, [P(0, 0), P(2, 0), P(0, 2)], [(0, 2, 1, 0)], [Motion.identity()]
        )
        rep = m.validate()
        assert not rep.all_passed
        assert rep.checks[0][0] == "triangle-orientation"
        assert not rep.checks[0][1]

    def test_area_failure(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        m = PLMap.unchecked(
            dom,
            [P(0, 0), P(2, 0), P(2, 2)],
            [(0, 1, 2, 0)],
            [Motion.identity()],
        )
        rep = m.validate()
        assert not rep.all_passed
        assert ("area-sum", False) in [(n, ok) for n, ok, _ in rep.checks]

    def test_overlap_failure(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        m = PLMap.unchecked(
            dom,
            [P(0, 0), P(2, 0), P(2, 2), P(0, 2), P(2, 1)],
            [(0, 1, 2, 0), (0, 1, 4, 0), (0, 2, 3, 0)],
            [Motion.identity()],
        )
        rep = m.validate()
        assert not rep.all_passed
        failed = [n for n, ok, _ in rep.checks if not ok]
        assert "intersection-dimension" in failed

    def test_bad_motion_reported(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(0, 2)])
        scale = Motion.unchecked(((2, 0), (0, 2)), (0, 0))
        m = PLMap.unchecked(dom, [P(0, 0), P(2, 0), P(0, 2)], [(0, 1, 2, 0)], [scale])
        rep = m.validate()
        assert not rep.all_passed
        assert "motion-orthogonality" in [n for n, ok, _ in rep.checks if not ok]

    def test_edge_disagreement(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        # Translation on one side of the diagonal, identity on the other.
        m = PLMap.unchecked(
            dom,
            [P(0, 0), P(2, 0), P(2, 2), P(0, 2)],
            [(0, 1, 2, 0), (0, 2, 3, 1)],
            [Motion.identity(), Motion.translation(1, 0)],
        )
        rep = m.validate()
        assert not rep.all_passed
        assert "edge-agreement" in [n for n, ok, _ in rep.checks if not ok]

    def test_vertex_only_contact_checked(self):
        # Two triangles sharing one vertex; motions must agree there.
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(4, 4), P(0, 4)])
        mirror = reflection_across_line(Line(1, -1, 0))
        m = PLMap.unchecked(
            dom,
            [P(0, 0), P(2, 0), P(2, 2), P(2, 4), P(0, 4)],
            [(0, 1, 2, 0), (2, 3, 4, 1)],
            [Motion.identity(), Motion.translation(0, -1)],
        )
        rep = m.validate()
        assert "edge-agreement" in [n for n, ok, _ in rep.checks if not ok]
        del mirror

    def test_cell_outside_domain_fails_area_sum(self):
        # Areas sum to the domain's (2 + 6 = 8) and no cells overlap, yet
        # half the domain is uncovered and one cell lies outside it.
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        ident = Motion.identity()
        m = assemble(dom, [
            (Triangle(P(0, 0), P(2, 0), P(0, 2)), ident),
            (Triangle(P(5, 0), P(9, 0), P(5, 3)), ident),
        ])
        rep = m.validate()
        assert [n for n, ok, _ in rep.checks if not ok] == ["area-sum"]
        assert "outside the domain" in dict(rep.failures())["area-sum"]

    def test_report_dict(self):
        rep = square_map().validate()
        d = rep.as_dict()
        assert d["all_passed"] is True
        assert len(d["checks"]) == 5


class TestEquality:
    def test_equal_roundtrip_shape(self):
        assert square_map() == square_map()
        assert not (square_map() == folded_map())

    def test_motion_entries_compared_exactly(self):
        a = folded_map()
        b = folded_map()
        assert a == b
