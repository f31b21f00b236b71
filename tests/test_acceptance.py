"""Acceptance gate: one test per criterion, reported line by line.

The summary hook in conftest prints a PASS/FAIL line per criterion after
the run.  Shared suites are cached at module level so the timed
criterion measures construction cost once.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

from isofold import ExactNumber, compare, sign, sqrt
from isofold.cli import main
from isofold.exactreal import EQ
from isofold.extension import (
    Instance,
    base_case,
    extend_all,
    extend_all_traced,
    extend_step,
    refit_region,
)
from isofold.geometry import (
    ConvexPolygon,
    Line,
    Point,
    Triangle,
    convex_hull,
    squared_distance,
)
from isofold.motions import reflection_across_line
from isofold.verification import (
    AuditConfig,
    _fan,
    _sample_point,
    audit_interpolation,
    audit_lipschitz,
    audit_structure,
)
from instancegen import instance_suite

SUITE_SEED = 20260814


def P(x, y) -> Point:
    return Point(x, y)


def inst(sources, targets) -> Instance:
    return Instance([P(*s) for s in sources], [P(*t) for t in targets])


GOLDEN = inst([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (2, 2)])

CANONICAL = [
    GOLDEN,
    inst([(0, 0), (8, 0), (4, 2), (0, 6)], [(0, 0), (4, 0), (2, 1), (0, 6)]),
    inst([(0, 0), (4, 2), (8, 0), (4, 6)], [(0, 0), (4, "1/2"), (6, 0), (3, 4)]),
    inst([(0, 0), (8, 0), (0, 8), (4, 4)], [(0, 0), (4, 0), (0, 4), (2, 2)]),
    inst([(0, 0), (6, 0), (3, 3)], [(0, 0), (2, 0), (1, 1)]),
]


@lru_cache(maxsize=1)
def suite_200():
    return tuple(instance_suite(SUITE_SEED, 200))


@lru_cache(maxsize=1)
def maps_200():
    return tuple(extend_all(i) for i in suite_200())


def induction_steps(instance: Instance):
    """(g, a_n, b_n) for every step that actually changes the map."""
    normalized = instance.normalize()
    hull = convex_hull(list(normalized.sources))
    assert isinstance(hull, ConvexPolygon)
    pairs = list(normalized.pairs())
    g = base_case(pairs[0][0], pairs[0][1], hull)
    out = []
    for a, b in pairs[1:]:
        if g.evaluate(a) == b:
            continue
        out.append((g, a, b))
        g = extend_step(g, a, b)
    return out


def omega_excess(g, a_n, b_n, x) -> ExactNumber:
    """Positive exactly on the region where g must change."""
    return squared_distance(b_n, g.evaluate(x)) - squared_distance(a_n, x)


def test_criterion_1():
    """extend_all + exact interpolation audit on 200 random feasible instances."""
    started = time.monotonic()
    maps = maps_200()
    for instance, f in zip(suite_200(), maps):
        report = audit_interpolation(f, instance)
        assert report.all_passed, report.failures()
    elapsed = time.monotonic() - started
    assert len(maps) == 200
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2():
    """Exact Lipschitz audit, 1000 seeded pairs on each of 50 instances, zero violations."""
    for k, f in enumerate(maps_200()[:50]):
        cfg = AuditConfig(sample_count=1000, rng_seed=k)
        report = audit_lipschitz(f, cfg)
        assert report.all_passed, report.failures()


def test_criterion_3():
    """Structure audit passes on every produced map."""
    for f in maps_200():
        report = audit_structure(f)
        assert report.all_passed, report.failures()
    for instance in CANONICAL:
        assert audit_structure(extend_all(instance)).all_passed


def test_criterion_4():
    """Golden instance yields the hand-traced quad-plus-reflection map."""
    f = extend_all(GOLDEN)

    mirror = reflection_across_line(Line(1, -1, -2))
    kinds = sorted(m.kind() for m in f.motions)
    assert kinds == ["identity", "reflection"]
    assert any(m == mirror for m in f.motions)

    quad_corners = [P(0, 0), P(4, 0), P(1, 3), P(0, 2)]
    identity_area2 = ExactNumber(0)
    mirror_cells = []
    for t in range(len(f)):
        tri = f.cell(t)
        if f.restrict_motion(t).kind() == "identity":
            assert all(v in quad_corners for v in (tri.v0, tri.v1, tri.v2))
            identity_area2 = identity_area2 + tri.area2()
        else:
            mirror_cells.append(tri)
    assert identity_area2 == ExactNumber(14)
    assert len(mirror_cells) == 1
    tri = mirror_cells[0]
    fan_corners = [P(0, 2), P(1, 3), P(0, 4)]
    assert all(v in fan_corners for v in (tri.v0, tri.v1, tri.v2))
    assert len({(str(v.x), str(v.y))
                for v in (tri.v0, tri.v1, tri.v2)}) == 3

    assert f.evaluate(P(0, 4)) == P(2, 2)
    assert f.evaluate(P(0, 2)) == P(0, 2)
    assert f.evaluate(P(2, 0)) == P(2, 0)


def test_criterion_5():
    """Star-shapedness about the new source, 100 exact pairs on 20 instances."""
    rng = random.Random(5)
    chosen = []
    for instance in CANONICAL + list(suite_200()):
        if induction_steps(instance):
            chosen.append(instance)
        if len(chosen) == 20:
            break
    assert len(chosen) == 20

    for instance in chosen:
        pairs_checked = 0
        steps = induction_steps(instance)
        while pairs_checked < 100:
            for g, a_n, b_n in steps:
                fan = _fan(g.domain)
                for _ in range(40):
                    x = _sample_point(rng, fan)
                    if sign(omega_excess(g, a_n, b_n, x)) != 1:
                        continue
                    t = Fraction(rng.randint(1, 8), 8)
                    y = P(
                        a_n.x + (x.x - a_n.x) * t,
                        a_n.y + (x.y - a_n.y) * t,
                    )
                    assert sign(omega_excess(g, a_n, b_n, y)) == 1
                    pairs_checked += 1
                if pairs_checked >= 100:
                    break


def test_criterion_6():
    """New and old maps agree exactly at 100 points on every boundary chord."""
    suite = CANONICAL + list(suite_200()[:5])
    chords_seen = 0
    for instance in suite:
        for g, a_n, b_n in induction_steps(instance):
            region = refit_region(g, a_n, b_n)
            f = extend_step(g, a_n, b_n)
            for seg, _ in region.boundary_segments:
                chords_seen += 1
                for j in range(1, 101):
                    t = Fraction(j, 101)
                    x = P(
                        seg.p.x + (seg.q.x - seg.p.x) * t,
                        seg.p.y + (seg.q.y - seg.p.y) * t,
                    )
                    assert f.evaluate(x) == g.evaluate(x)
    assert chords_seen > 0


def test_refit_split_covers_every_cell():
    # Each cell is split once: its inside piece and outside part add up
    # to the cell, an untouched cell is passed on whole, in index order.
    for instance in CANONICAL:
        for g, a_n, b_n in induction_steps(instance):
            region = refit_region(g, a_n, b_n)
            inside = dict(region.pieces)
            outside = dict(region.outside)
            order = [t for t, _ in region.outside]
            assert order == sorted(outside)
            assert set(inside) | set(outside) == set(range(len(g)))
            for t in range(len(g)):
                cell = g.cell(t)
                if t not in inside:
                    assert isinstance(outside[t], Triangle) and outside[t] == cell
                    continue
                rest = outside[t].area2() if t in outside else 0
                assert inside[t].area2() + rest == cell.area2()


def test_criterion_7():
    """Every decidability branch is hit and observed through step traces."""
    hit = {"early_exit": False, "empty_cell": False, "fold": False, "rigid": False}
    for instance in CANONICAL:
        _, trace = extend_all_traced(instance)
        for step in trace.steps:
            hit["early_exit"] = hit["early_exit"] or step.early_exit
            hit["empty_cell"] = hit["empty_cell"] or step.empty_cells > 0
            hit["fold"] = hit["fold"] or step.folded_chains > 0
            hit["rigid"] = hit["rigid"] or step.rigid_chains > 0
    assert all(hit.values()), hit


def _random_value(rng, depth, sqrt_left):
    if depth == 0 or rng.random() < 0.35:
        return ExactNumber(Fraction(rng.randint(-12, 12), rng.randint(1, 9)))
    roll = rng.random()
    if roll < 0.2 and sqrt_left[0] > 0:
        sqrt_left[0] -= 1
        base = _random_value(rng, depth - 1, sqrt_left)
        return sqrt(base * base)
    a = _random_value(rng, depth - 1, sqrt_left)
    b = _random_value(rng, depth - 1, sqrt_left)
    if roll < 0.4:
        return a + b
    if roll < 0.6:
        return a - b
    if roll < 0.8:
        return a * b
    while sign(b) == 0:
        b = b + 1
    return a / b


def test_criterion_8():
    """Field laws and sqrt rules hold on 10^4+ random exact values."""
    assert sqrt(ExactNumber(1) - Fraction(9, 25)) == ExactNumber(Fraction(4, 5))
    assert compare(sqrt(Fraction(16, 25)), Fraction(4, 5)) == EQ

    rng = random.Random(8)
    cases = 0
    for _ in range(1500):
        budget = [4]
        a = _random_value(rng, 3, budget)
        b = _random_value(rng, 3, budget)
        c = _random_value(rng, 3, budget)

        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert sign(a - b) == -sign(b - a)
        square = a * a
        root = sqrt(square)
        assert root * root == square
        assert sqrt(square * (b * b)) == root * sqrt(b * b)
        if sign(b) != 0:
            assert (a / b) * b == a
            cases += 1
        cases += 6
    assert cases >= 10_000, cases


def test_criterion_9(tmp_path, capsys):
    """Infeasible, degenerate and corrupted inputs exit 2, 3 and 4."""
    def write_points(name, rows):
        path = tmp_path / name
        path.write_text(json.dumps({"points": [
            {"a": [str(ax), str(ay)], "b": [str(bx), str(by)]}
            for ax, ay, bx, by in rows
        ]}))
        return str(path)

    stretched = write_points("s.json", [(0, 0, 0, 0), (1, 0, 3, 0)])
    assert main(["extend", "--input", stretched]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["pair"] == [0, 1]

    collinear = write_points(
        "c.json", [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)]
    )
    assert main(["extend", "--input", collinear]) == 3
    capsys.readouterr()

    golden = write_points(
        "g.json", [(0, 0, 0, 0), (4, 0, 4, 0), (0, 4, 2, 2)]
    )
    map_path = tmp_path / "g.map.json"
    assert main([
        "extend", "--input", golden, "--output", str(map_path),
        "--samples", "30",
    ]) == 0
    doc = json.loads(map_path.read_text())
    doc["map"]["motions"][0]["r"][0][0] = "2"
    map_path.write_text(json.dumps(doc))
    assert main([
        "verify", "--map", str(map_path), "--instance", golden,
        "--samples", "30",
    ]) == 4
    capsys.readouterr()


def test_criterion_10(tmp_path):
    """Repeated runs produce byte-identical map and SVG files."""
    instance_path = tmp_path / "golden.json"
    instance_path.write_text(json.dumps({"points": [
        {"a": ["0", "0"], "b": ["0", "0"]},
        {"a": ["4", "0"], "b": ["4", "0"]},
        {"a": ["0", "4"], "b": ["2", "2"]},
    ]}))
    outputs = []
    for tag in ("first", "second"):
        map_path = tmp_path / f"{tag}.map.json"
        svg_path = tmp_path / f"{tag}.svg"
        code = subprocess.run(
            [sys.executable, "-m", "isofold", "extend",
             "--input", str(instance_path), "--output", str(map_path),
             "--svg", str(svg_path), "--samples", "200"],
            capture_output=True,
        ).returncode
        assert code == 0
        outputs.append((map_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
