"""PLMap container: lookup, evaluation, structural validation."""

from __future__ import annotations

import math
import random

import pytest

from fractions import Fraction

from instancegen import instance_suite, random_instance
from isofold import extend_all, sqrt
from isofold.geometry import ConvexPolygon, Line, Point, Triangle, orientation
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

    @pytest.mark.parametrize("row", [
        (0, 1, 2, False),
        (True, 1, 2, 0),
        (0, 1.0, 2, 0),
        (0, 1, 2),
        (0, 1, 2, 0, 0),
    ])
    def test_rows_are_int_quadruples(self, row):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(0, 2)])
        with pytest.raises((TypeError, ValueError)):
            PLMap(dom, [P(0, 0), P(2, 0), P(0, 2)], [row], [Motion.identity()])

    def test_assemble_fans_convex_polygon_from_first_vertex(self):
        square = ConvexPolygon([P(2, 0), P(2, 2), P(0, 2), P(0, 0)])
        m = assemble(square, [(square, Motion.identity())])
        assert m.vertices == (P(2, 0), P(2, 2), P(0, 2), P(0, 0))
        assert m.triangles == ((0, 1, 2, 0), (0, 2, 3, 0))
        assert m.validate().all_passed


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
        m = PLMap(
            dom, [P(0, 0), P(2, 0), P(0, 2)], [(0, 2, 1, 0)], [Motion.identity()]
        )
        rep = m.validate()
        assert not rep.all_passed
        assert rep.checks[0][0] == "triangle-orientation"
        assert not rep.checks[0][1]

    def test_area_failure(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        m = PLMap(
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
        m = PLMap(
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
        m = PLMap(dom, [P(0, 0), P(2, 0), P(0, 2)], [(0, 1, 2, 0)], [scale])
        rep = m.validate()
        assert not rep.all_passed
        assert "motion-orthogonality" in [n for n, ok, _ in rep.checks if not ok]

    def test_edge_disagreement(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        # Translation on one side of the diagonal, identity on the other.
        m = PLMap(
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
        m = PLMap(
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

    def test_crossing_overlap_with_exact_areas(self):
        # Two crossing halves of the square: areas sum exactly and every
        # vertex lies in the domain, yet a strip along the top is bare.
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(4, 4), P(0, 4)])
        m = PLMap(
            dom,
            [P(0, 0), P(4, 0), P(0, 4), P(4, 4), P(0, 3)],
            [(0, 1, 2, 0), (3, 4, 1, 0)],
            [Motion.identity()],
        )
        rep = m.validate()
        assert [n for n, ok, _ in rep.checks if not ok] == ["intersection-dimension"]

    @staticmethod
    def t_junction_map(last: Motion) -> PLMap:
        # (2, 2) is a vertex of the two upper-left cells and lies inside
        # the diagonal edge of the lower-right one.
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(4, 4), P(0, 4)])
        ident = Motion.identity()
        return assemble(dom, [
            (Triangle(P(0, 0), P(4, 0), P(4, 4)), ident),
            (Triangle(P(0, 0), P(2, 2), P(0, 4)), ident),
            (Triangle(P(2, 2), P(4, 4), P(0, 4)), last),
        ])

    def test_t_junction_tiling_passes(self):
        rep = self.t_junction_map(Motion.identity()).validate()
        assert rep.all_passed, rep.failures()

    def test_t_junction_disagreement(self):
        rep = self.t_junction_map(Motion.translation(1, 0)).validate()
        assert [n for n, ok, _ in rep.checks if not ok] == ["edge-agreement"]

    def test_one_determinant_per_cell(self, monkeypatch):
        # The area sum reuses the determinant that checked each cell's
        # orientation, so validate neither builds a Triangle nor takes a
        # cell's determinant twice.
        f = extend_all(random_instance(random.Random(5), 10))
        calls = []
        built = []

        def counted(p, q, r):
            calls.append((p, q, r))
            return orientation(p, q, r)

        init = Triangle.__init__

        def counted_init(self, *vertices):
            built.append(vertices)
            init(self, *vertices)

        monkeypatch.setattr("isofold.geometry.orientation", counted)
        monkeypatch.setattr("isofold.plmap.orientation", counted)
        monkeypatch.setattr(Triangle, "__init__", counted_init)
        assert f.validate().all_passed
        assert len(calls) <= len(f)
        assert built == []

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


def diagonal_fold_map(t) -> PLMap:
    """The folded square with its diagonal split at (t, t)."""
    v = P(t, t)
    dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
    mirror = reflection_across_line(Line(1, -1, 0))
    ident = Motion.identity()
    return assemble(dom, [
        (Triangle(P(0, 0), P(2, 0), v), ident),
        (Triangle(P(2, 0), P(2, 2), v), ident),
        (Triangle(P(0, 0), v, P(0, 2)), mirror),
        (Triangle(v, P(2, 2), P(0, 2)), mirror),
    ])


def covering_cells(m: PLMap, p: Point):
    """Every cell containing p, by a scan with no bounding-box filter.

    Cells are read from their rows, not built as Triangles, so that
    degenerate cells of broken maps are scanned too.
    """
    out = []
    for t, (i, j, k, _) in enumerate(m.triangles):
        a, b, c = m.vertices[i], m.vertices[j], m.vertices[k]
        if orientation(a, b, p) >= 0 and orientation(b, c, p) >= 0 \
                and orientation(c, a, p) >= 0:
            out.append(t)
    return out


class TestIrrationalCoordinates:
    """Irrational coordinates never reach a map.

    Point refuses a coordinate built as an irrational expression, even
    one whose value is rational, such as ``one`` below, and a fold split
    at (sqrt 2, sqrt 2).  The fold split at (7/5, 7/5) locates and
    evaluates rational queries.
    """

    one = (sqrt(2) + 1) * (sqrt(2) - 1)

    def queries(self):
        return [
            P(1, "1/2"), P("1/2", 1), P(1, 1), P("7/5", "7/5"),
            P("33/20", "7/20"), P("3/2", "1/2"), P(2, 2),
        ]

    def test_query_coordinate_stays_irrational(self):
        assert not isinstance(self.one, Fraction)
        assert self.one == 1
        with pytest.raises(ValueError):
            P(self.one, self.one / 2)

    def test_validate(self):
        with pytest.raises(ValueError):
            diagonal_fold_map(sqrt(2))
        m = diagonal_fold_map(Fraction(7, 5))
        assert len(m.vertices) == 5
        rep = m.validate()
        assert rep.all_passed, rep.failures()

    def test_locate_and_evaluate_match_scan(self):
        m = diagonal_fold_map(Fraction(7, 5))
        for p in self.queries():
            cells = covering_cells(m, p)
            assert cells, p
            assert m.locate(p) in cells
            images = [m.restrict_motion(t).apply(p) for t in cells]
            assert all(m.evaluate(p) == image for image in images)

    def test_images(self):
        m = diagonal_fold_map(Fraction(7, 5))
        assert m.evaluate(P(1, "1/2")) == P(1, "1/2")
        assert m.evaluate(P("1/2", 1)) == P(1, "1/2")

    def test_outside(self):
        m = diagonal_fold_map(Fraction(7, 5))
        for p in (P(3, 0), P("-3/5", 1)):
            assert covering_cells(m, p) == []
            with pytest.raises(OutsideDomain):
                m.locate(p)

    def test_locate_is_first_covering_cell(self):
        m = diagonal_fold_map(Fraction(7, 5))
        assert locate_matches_scan(m, self.queries() + probe_points(m)) > 0


def probe_points(m: PLMap):
    """Cell vertices, edge midpoints, centroids, and points just outside
    the domain across the middle of each domain edge."""
    pts = list(m.vertices)
    for i, j, k, _ in m.triangles:
        a, b, c = m.vertices[i], m.vertices[j], m.vertices[k]
        pts += [P((u.x + v.x) / 2, (u.y + v.y) / 2) for u, v in ((a, b), (b, c), (c, a))]
        pts.append(P((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3))
    tiny = Fraction(1, 10**12)
    vs = m.domain.vertices
    for i in range(len(vs)):
        u, v = vs[i], vs[(i + 1) % len(vs)]
        mx, my = (u.x + v.x) / 2, (u.y + v.y) / 2
        pts.append(P(mx + (v.y - u.y) * tiny, my - (v.x - u.x) * tiny))
    return pts


def locate_matches_scan(m: PLMap, points) -> int:
    """Check locate against covering_cells; returns the uncovered count."""
    outside = 0
    for p in points:
        cells = covering_cells(m, p)
        if cells:
            assert m.locate(p) == cells[0], p
        else:
            outside += 1
            with pytest.raises(OutsideDomain):
                m.locate(p)
    return outside


def four_triangle_fold() -> PLMap:
    """A square cut into four triangles about its centre, the bottom one
    reflected in y = 0: a broken map whose cells still tile the square."""
    dom = ConvexPolygon([P(0, 0), P(4, 0), P(4, 4), P(0, 4)])
    centre, ident = P(2, 2), Motion.identity()
    mirror = reflection_across_line(Line(0, 1, 0))
    corners = dom.vertices
    return assemble(dom, [
        (Triangle(corners[i], corners[(i + 1) % 4], centre), mirror if i == 0 else ident)
        for i in range(4)
    ])


def broken_maps():
    """Maps that fail validate, each a different way for a scan to find
    its first covering cell.  Most add cells to an eight-cell tiling of
    a square, so that the grid has 3 x 3 buckets."""
    from test_verification import tiling_hole_map

    dom = ConvexPolygon([P(0, 0), P(8, 0), P(8, 8), P(0, 8)])
    lattice = [P(4 * c, 4 * r) for r in range(3) for c in range(3)]
    tiling = []
    for i in (0, 1, 3, 4):
        tiling += [(i, i + 1, i + 4), (i, i + 4, i + 3)]

    def cells(extra, rows):
        vertices = lattice + extra
        return PLMap(dom, vertices, [row + (0,) for row in rows], [Motion.identity()])

    return [
        tiling_hole_map(),
        four_triangle_fold(),
        # a clockwise cell ahead of the tiling
        cells([], [(0, 4, 1)] + tiling),
        # a duplicated cell, which overlaps its copy everywhere
        cells([], tiling + [tiling[3]]),
        # a vertex far outside the domain's box
        cells([P(40, -9)], tiling + [(0, 9, 4)]),
        # collinear vertices: the cell covers the whole line y = x
        cells([P(2, 2)], [(0, 9, 4)] + tiling),
        # coincident vertices: the cell covers the whole plane
        cells([], tiling[:3] + [(4, 4, 4)] + tiling[3:]),
    ]


def grid_probe_points(m: PLMap, rng: random.Random, samples: int):
    """probe_points plus audit samples, and 48 points beyond the domain's
    box, near and far, on all four sides and past all four corners,
    which the grid clamps to its edge buckets."""
    from isofold.verification import _fan, _sample_point

    fan = _fan(m.domain)
    pts = probe_points(m) + [_sample_point(rng, fan) for _ in range(samples)]

    def across(values, far):
        lo, hi = min(values), max(values)
        return [lo - far * (hi - lo), lo, (lo + hi) / 2, hi, hi + far * (hi - lo)]

    for far in (Fraction(1, 10**9), Fraction(1, 3), Fraction(10)):
        xs = across([v.x for v in m.domain.vertices], far)
        ys = across([v.y for v in m.domain.vertices], far)
        pts += [P(x, y) for i, x in enumerate(xs) for j, y in enumerate(ys) if {i, j} & {0, 4}]
    return pts


class TestLocateMatchesOrientationScan:
    """locate reads a bucket grid; a plain scan of every cell must give
    the same first covering cell, or find none where locate raises."""

    def maps(self):
        from test_acceptance import CANONICAL

        rng = random.Random(23)
        built = [extend_all(random_instance(rng, 7)) for _ in range(4)]
        built += [extend_all(i) for i in CANONICAL + instance_suite(11, 6, max_points=8)]
        return [square_map(), folded_map()] + built

    def test_first_covering_cell(self):
        rng = random.Random(29)
        for m in self.maps():
            outside = locate_matches_scan(m, grid_probe_points(m, rng, 60))
            assert outside == len(m.domain) + 48

    def test_broken_maps(self):
        rng = random.Random(31)
        for m in broken_maps():
            assert not m.validate().all_passed
            locate_matches_scan(m, grid_probe_points(m, rng, 60))

    def test_broken_maps_reach_past_first_cells(self):
        maps = broken_maps()
        assert all(len(m) == 9 for m in maps[2:])
        # the bottom cell of the fold, and the cells that the clockwise
        # and duplicated ones do not hide
        assert maps[1].locate(P(2, 1)) == 0
        assert maps[2].locate(P(3, 1)) == 1
        assert maps[3].locate(P(5, 7)) == 7
        # the far vertex's cell covers points beyond the box's corner
        assert maps[4].locate(P(20, -4)) == 8
        # the collinear cell covers its line beyond its vertices' buckets
        # and beyond the box; the coincident cell every point that the
        # three cells before it miss
        assert [maps[5].locate(P(t, t)) for t in (-3, 0, 7, 8, 30)] == [0] * 5
        assert maps[6].locate(P(7, 7)) == 3
        assert maps[6].locate(P(-50, 80)) == 3

    def test_grid_built_lazily_once(self):
        f = extend_all(random_instance(random.Random(5), 10))
        m = PLMap(f.domain, f.vertices, f.triangles, f.motions)
        assert m._grid is None
        assert m.validate().all_passed
        assert m._grid is None
        m.locate(m.vertices[0])
        grid = m._grid
        assert grid is not None
        for v in m.vertices:
            m.locate(v)
        m.validate()
        assert m._grid is grid
        scale, buckets = grid
        assert scale[0] ** 2 == len(buckets)
        assert scale[0] == max(1, math.isqrt(len(m)))

    def test_forms_built_once(self):
        m = folded_map()
        m.locate(P(1, "1/2"))
        forms = m._forms
        m.locate(P("1/2", 1))
        assert m._forms is forms and len(forms) == len(m)


class TestMotionDedup:
    def test_equal_rational_motions_share_an_index(self):
        dom = ConvexPolygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        shift = Motion.translation("1/2", 0)
        m = assemble(dom, [
            (Triangle(P(0, 0), P(2, 0), P(2, 2)), shift),
            (Triangle(P(0, 0), P(2, 2), P(0, 2)), Motion.translation("2/4", 0)),
        ])
        assert len(m.motions) == 1
        assert [row[3] for row in m.triangles] == [0, 0]


def ref_vertex_rows(pieces):
    """assemble's vertex list and (i, j, k) rows, with vertices keyed on
    the integer pairs of their Fraction coordinates."""
    vertices = []
    index = {}
    rows = []
    for piece, _ in pieces:
        ids = []
        for p in piece.vertices:
            key = (p.x.as_integer_ratio(), p.y.as_integer_ratio())
            if key not in index:
                index[key] = len(vertices)
                vertices.append(p)
            ids.append(index[key])
        rows += [(ids[0], ids[k], ids[k + 1]) for k in range(1, len(ids) - 1)]
    return vertices, rows


class TestVertexDedup:
    def test_vertex_ids_match_the_old_key(self, monkeypatch):
        calls = []

        def recorded(domain, pieces):
            pieces = list(pieces)
            calls.append((domain, pieces))
            return assemble(domain, pieces)

        monkeypatch.setattr("isofold.extension.assemble", recorded)
        for instance in instance_suite(7, 6, max_points=8):
            extend_all(instance)
        assert len(calls) > 20
        shared = 0
        for domain, pieces in calls:
            f = assemble(domain, pieces)
            vertices, rows = ref_vertex_rows(pieces)
            assert all(p is q for p, q in zip(f.vertices, vertices))
            assert len(f.vertices) == len(vertices)
            assert [row[:3] for row in f.triangles] == rows
            shared += sum(len(piece.vertices) for piece, _ in pieces) - len(vertices)
        assert shared > 0
