"""Audit oracles and the brute-force cross-check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofold.extension import Instance, Violation, check_nonexpansive, extend_all
from isofold.geometry import ConvexPolygon, Point, Triangle
from isofold.motions import Motion
from isofold.plmap import PLMap, assemble
from isofold.verification import (
    AuditConfig,
    audit_interpolation,
    audit_lipschitz,
    audit_structure,
    brute_force_feasibility,
)


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
