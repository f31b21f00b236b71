"""Audit oracles and the brute-force cross-check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofold import sqrt, verification
from isofold.exactreal import GT, compare
from isofold.extension import Instance, Violation, check_nonexpansive, extend_all
from isofold.geometry import ConvexPolygon, Point, Triangle, squared_distance
from isofold.motions import Motion
from isofold.plmap import OutsideDomain, PLMap, assemble
from isofold.verification import (
    CHOICE_BITS,
    DENOMINATOR_BITS,
    MAX_WITNESSES,
    AuditConfig,
    AuditReport,
    _fmt,
    _fmt_point,
    audit_interpolation,
    audit_lipschitz,
    audit_structure,
    brute_force_feasibility,
)

from instancegen import instance_suite, random_instance
from test_acceptance import CANONICAL
from test_fileio import fold_map


def P(x, y) -> Point:
    return Point(x, y)


def inst(sources, targets) -> Instance:
    return Instance([P(*s) for s in sources], [P(*t) for t in targets])


GOLDEN = inst([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (2, 2)])


@pytest.fixture(scope="module")
def golden_map() -> PLMap:
    return extend_all(GOLDEN)


def doubled_map() -> PLMap:
    """A dilation by 2, which no audit should accept as non-expansive."""
    dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
    scaled = Motion.unchecked(((2, 0), (0, 2)), (0, 0))
    return assemble(dom, [(Triangle(P(0, 0), P(4, 0), P(0, 4)), scaled)])


class TestConfig:
    def test_defaults(self):
        cfg = AuditConfig()
        assert cfg.sample_count == 1000
        assert cfg.rng_seed == 0

    def test_sample_count_positive(self):
        with pytest.raises(ValueError):
            AuditConfig(sample_count=0)


class TestInterpolation:
    def test_identity(self):
        i = inst([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (0, 4)])
        assert audit_interpolation(extend_all(i), i).all_passed

    def test_golden(self, golden_map):
        assert audit_interpolation(golden_map, GOLDEN).all_passed

    def test_tampered_target_fails_with_witness(self, golden_map):
        bad = inst([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (2, 3)])
        report = audit_interpolation(golden_map, bad)
        assert not report.all_passed
        failures = report.failures()
        assert len(failures) == 1
        name, ok, witness = failures[0]
        assert name == "interpolation[2]"
        assert witness["index"] == 2
        assert witness["expected"] == {"x": "2", "y": "3"}
        assert witness["got"] == {"x": "2", "y": "2"}

    def test_source_outside_domain(self, golden_map):
        bad = inst([(9, 9)], [(9, 9)])
        report = audit_interpolation(golden_map, bad)
        assert not report.all_passed
        assert report.failures()[0][2]["error"] == "outside domain"


class TestLipschitz:
    def test_identity_map(self):
        dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
        f = assemble(dom, [(Triangle(P(0, 0), P(4, 0), P(0, 4)), Motion.identity())])
        cfg = AuditConfig(sample_count=50, rng_seed=7)
        assert audit_lipschitz(f, cfg).all_passed

    def test_golden_exact(self, golden_map):
        cfg = AuditConfig(sample_count=1000, rng_seed=42)
        report = audit_lipschitz(golden_map, cfg)
        assert report.all_passed
        assert report.checks[0][0] == "lipschitz_exact"

    def test_dilation_fails_with_witness(self):
        cfg = AuditConfig(sample_count=25, rng_seed=1)
        report = audit_lipschitz(doubled_map(), cfg)
        assert not report.all_passed
        witness = report.checks[0][2]
        assert witness, "expected concrete witness pairs"
        first = witness[0]
        assert set(first) == {"sample", "p", "q", "gap_squared", "image_gap_squared"}
        # The witness re-fails in isolation.
        px = Fraction(first["p"]["x"])
        py = Fraction(first["p"]["y"])
        qx = Fraction(first["q"]["x"])
        qy = Fraction(first["q"]["y"])
        assert 4 * ((px - qx) ** 2 + (py - qy) ** 2) > (px - qx) ** 2 + (py - qy) ** 2

    def test_deterministic_serialization(self, golden_map):
        cfg = AuditConfig(sample_count=40, rng_seed=9)
        a = audit_lipschitz(golden_map, cfg).to_json()
        b = audit_lipschitz(golden_map, cfg).to_json()
        assert a == b

    def test_seed_changes_samples(self, golden_map):
        # Different seeds draw different points; both still pass, so
        # compare the drawn points via the internal sampler.
        from isofold.verification import _fan, _sample_point

        fan = _fan(golden_map.domain)
        p1 = _sample_point(random.Random(1), fan)
        p2 = _sample_point(random.Random(2), fan)
        assert p1 != p2


def fan_from_first_vertex(poly: ConvexPolygon):
    vs = poly.vertices
    return [Triangle(vs[0], vs[k], vs[k + 1]) for k in range(1, len(vs) - 1)]


def reference_audit_lipschitz(f: PLMap, cfg: AuditConfig) -> AuditReport:
    """The sampled audit as a loop over Points with Fraction coordinates.

    The same draws as ``audit_lipschitz``: a fan triangle by a random
    fraction of the domain's area, then u and v on the 2^-16 grid.
    """
    rng = random.Random(cfg.rng_seed)
    fan = []
    total = 0
    for tri in fan_from_first_vertex(f.domain):
        a, b, c = tri.vertices
        total = total + tri.area2()
        fan.append((total, (a.x, a.y), (b.x - a.x, b.y - a.y), (c.x - a.x, c.y - a.y)))

    def sample_point():
        r = Fraction(rng.getrandbits(CHOICE_BITS), 1 << CHOICE_BITS) * fan[-1][0]
        _, (ax, ay), (bx, by), (cx, cy) = next(piece for piece in fan if r < piece[0])
        scale = 1 << DENOMINATOR_BITS
        u = rng.randint(0, scale)
        v = rng.randint(0, scale)
        if u + v > scale:
            u, v = scale - u, scale - v
        u = Fraction(u, scale)
        v = Fraction(v, scale)
        return Point(ax + u * bx + v * cx, ay + u * by + v * cy)

    violations = []
    for k in range(cfg.sample_count):
        if len(violations) == MAX_WITNESSES:
            break
        p = sample_point()
        q = sample_point()
        gap2 = squared_distance(p, q)
        try:
            image_gap2 = squared_distance(f.evaluate(p), f.evaluate(q))
        except OutsideDomain:
            violations.append({
                "sample": k,
                "p": _fmt_point(p),
                "q": _fmt_point(q),
                "error": "outside domain",
            })
            continue
        if compare(image_gap2, gap2) == GT:
            violations.append({
                "sample": k,
                "p": _fmt_point(p),
                "q": _fmt_point(q),
                "gap_squared": _fmt(gap2),
                "image_gap_squared": _fmt(image_gap2),
            })
    return AuditReport([("lipschitz_exact", not violations, violations or None)])


def stretched(f: PLMap, index: int = 0) -> PLMap:
    """f with the diagonal of motion index scaled by 3/2."""
    motions = list(f.motions)
    m = motions[index]
    half = Fraction(3, 2)
    motions[index] = Motion.unchecked(
        ((half * m.r00, m.r01), (m.r10, half * m.r11)), (m.tx, m.ty)
    )
    return PLMap(f.domain, f.vertices, f.triangles, motions)


def tiling_hole_map() -> PLMap:
    """Cells with the domain's area, one of them outside the domain."""
    dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
    ident = Motion.identity()
    return assemble(dom, [
        (Triangle(P(0, 0), P(2, 0), P(0, 2)), ident),
        (Triangle(P(5, 0), P(9, 0), P(5, 3)), ident),
    ])


def rotation_map(scale=1) -> PLMap:
    """The rotation by (4/5, 3/5), its diagonal times scale, on a triangle."""
    c, s = Fraction(4, 5), Fraction(3, 5)
    dom = ConvexPolygon([P(0, 0), P(4, 0), P(0, 4)])
    turn = Motion.unchecked(((scale * c, -s), (s, scale * c)), (1, "1/3"))
    return assemble(dom, [(Triangle(P(0, 0), P(4, 0), P(0, 4)), turn)])


class TestLipschitzReference:
    """The integer audit gives the Point loop's report, byte for byte."""

    @staticmethod
    def same_report(f, cfg):
        report = audit_lipschitz(f, cfg)
        assert report.to_json() == reference_audit_lipschitz(f, cfg).to_json()
        return report

    def test_tool_maps(self):
        for k, instance in enumerate(CANONICAL + instance_suite(7, 6, max_points=8)):
            cfg = AuditConfig(sample_count=300, rng_seed=k)
            assert self.same_report(extend_all(instance), cfg).all_passed

    def test_stretched_maps(self):
        failed = 0
        for seed in range(40):
            f = stretched(extend_all(random_instance(random.Random(seed), 7)))
            cfg = AuditConfig(sample_count=300, rng_seed=seed)
            failed += not self.same_report(f, cfg).all_passed
        assert failed >= 30

    def test_outside_domain(self):
        report = self.same_report(tiling_hole_map(), AuditConfig(sample_count=200, rng_seed=3))
        witnesses = report.checks[0][2]
        assert len(witnesses) == MAX_WITNESSES
        assert any(w.get("error") == "outside domain" for w in witnesses)

    def test_fold_and_rotation_images(self):
        cfg = AuditConfig(sample_count=100, rng_seed=5)
        assert self.same_report(fold_map(), cfg).all_passed
        assert self.same_report(rotation_map(), cfg).all_passed
        report = self.same_report(rotation_map(Fraction(3, 2)), cfg)
        assert "/" in report.checks[0][2][0]["image_gap_squared"]

    def test_irrational_images(self):
        # The 45-degree rotation has irrational entries, so no map or
        # audit can hold it.
        s = sqrt(2) / 2
        with pytest.raises(ValueError):
            Motion.unchecked(((s, -s), (s, s)), (1, "1/3"))


def test_audit_stays_in_integers(monkeypatch, golden_map):
    """A passing audit builds no Point and locates each sample once."""
    points = []
    locates = []
    real_point = verification.Point
    real_locate = PLMap.locate_homogeneous

    def point(*args):
        points.append(args)
        return real_point(*args)

    def locate_homogeneous(self, *args):
        locates.append(args)
        return real_locate(self, *args)

    monkeypatch.setattr(verification, "Point", point)
    monkeypatch.setattr(PLMap, "locate_homogeneous", locate_homogeneous)
    report = audit_lipschitz(golden_map, AuditConfig(sample_count=50, rng_seed=4))
    assert report.all_passed
    assert points == []
    assert len(locates) == 100


class TestStructure:
    def test_golden(self, golden_map):
        report = audit_structure(golden_map)
        assert report.all_passed
        names = [name for name, _, _ in report.checks]
        assert all(n.startswith("structure.") for n in names)
        assert len(names) == 5

    def test_overlap_detected(self):
        # Two triangles sharing interior area.
        vs = (P(0, 0), P(4, 0), P(0, 4), P(4, 4))
        ident = Motion.identity()
        f = PLMap(
            ConvexPolygon([P(0, 0), P(4, 0), P(4, 4), P(0, 4)]),
            vs,
            ((0, 1, 2, 0), (0, 1, 3, 0), (1, 3, 2, 0)),
            (ident,),
        )
        report = audit_structure(f)
        assert not report.all_passed
        assert any("intersection" in name for name, ok, _ in report.failures())


class TestBruteForce:
    def test_identity_ok(self):
        i = inst([(0, 0), (3, 1)], [(0, 0), (3, 1)])
        assert brute_force_feasibility(i) is None

    def test_stretch(self):
        i = inst([(0, 0), (1, 0)], [(0, 0), (3, 0)])
        assert brute_force_feasibility(i) == Violation(0, 1)

    def test_golden_ok(self):
        assert brute_force_feasibility(GOLDEN) is None

    coord = st.fractions(
        min_value=-8, max_value=8, max_denominator=8
    )

    @given(
        st.lists(st.tuples(coord, coord, coord, coord), min_size=1, max_size=5)
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_construction_check(self, rows):
        i = Instance(
            [P(ax, ay) for ax, ay, _, _ in rows],
            [P(bx, by) for _, _, bx, by in rows],
        )
        assert brute_force_feasibility(i) == check_nonexpansive(i)
