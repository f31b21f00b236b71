"""Independent certification of produced maps.

Three audits (interpolation, sampled non-expansiveness, structure) plus a
brute-force feasibility check kept deliberately separate from the
pre-flight check inside the construction, so the two can cross-validate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactreal import GT, approximate, compare, decimal_string, number, scientific_string
from .extension import Instance, Violation
from .geometry import Point, squared_distance, triangulate_fan
from .plmap import OutsideDomain, PLMap

__all__ = [
    "AuditConfig",
    "AuditReport",
    "audit_interpolation",
    "audit_lipschitz",
    "audit_structure",
    "brute_force_feasibility",
]

DENOMINATOR_BITS = 16
# A fan triangle is chosen by comparing a random fraction on this grid
# against the domain's cumulative area.
CHOICE_BITS = 32
# A failed sampled check reports its first few failing samples only; the
# verdict needs one, and a broken map can fail nearly every sample.
MAX_WITNESSES = 10


@dataclass(frozen=True)
class AuditConfig:
    sample_count: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


class AuditReport:
    """Ordered check results; failures carry concrete witnesses."""

    __slots__ = ("checks",)

    def __init__(self, checks):
        self.checks = tuple(checks)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [c for c in self.checks if not c[1]]

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": name, "passed": ok, "witness": witness}
                for name, ok, witness in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def __repr__(self):
        state = "pass" if self.all_passed else "FAIL"
        return f"AuditReport({state}, {len(self.checks)} checks)"


def _fmt(x) -> str:
    """"p/q" for a rational, 12 decimal places for an irrational value.

    A value whose digits pass Python's limit on writing an int as a
    string is written "~d.ddddddddddde+N" instead: 12 significant
    digits, rounded half-up.
    """
    x = number(x)
    try:
        return str(x) if type(x) is Fraction else decimal_string(x, 12)
    except ValueError:
        # An irrational value fails only when huge, so an error of 1 is negligible.
        return "~" + scientific_string(x if type(x) is Fraction else approximate(x, 1))


def _fmt_point(p: Point) -> dict:
    return {"x": _fmt(p.x), "y": _fmt(p.y)}


def audit_interpolation(f: PLMap, inst: Instance) -> AuditReport:
    """One exact equality check per constraint pair."""
    checks = []
    for i, (a, b) in enumerate(inst.pairs()):
        try:
            image = f.evaluate(a)
        except OutsideDomain:
            checks.append((
                f"interpolation[{i}]",
                False,
                {"index": i, "source": _fmt_point(a), "error": "outside domain"},
            ))
            continue
        ok = image == b
        witness = None
        if not ok:
            witness = {
                "index": i,
                "source": _fmt_point(a),
                "expected": _fmt_point(b),
                "got": _fmt_point(image),
            }
        checks.append((f"interpolation[{i}]", ok, witness))
    return AuditReport(checks)


def _fan(domain):
    """The domain's fan triangles a, b, c from its first vertex, as
    (cumulative area2, a, b - a, c - a) with exact coordinate pairs."""
    fan = []
    total = 0
    for tri in triangulate_fan(domain, domain.vertices[0]):
        a, b, c = tri.vertices
        total = total + tri.area2()
        fan.append((total, (a.x, a.y), (b.x - a.x, b.y - a.y), (c.x - a.x, c.y - a.y)))
    return fan


def _sample_point(rng: random.Random, fan) -> Point:
    """A point of the domain with fan triangles fan, drawn without rejection.

    A fan triangle is picked with probability proportional to its area,
    then the point a + u(b - a) + v(c - a) with u and v on the 2^-16
    grid, folded to (1 - u, 1 - v) when u + v > 1.
    """
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


def audit_lipschitz(f: PLMap, cfg: AuditConfig = AuditConfig()) -> AuditReport:
    """Sampled pairwise non-expansiveness over the domain.

    Points are drawn inside the domain from its fan triangles, so every
    comparison stays exact.  Sampling stops at the MAX_WITNESSES-th
    failing sample.
    """
    rng = random.Random(cfg.rng_seed)
    fan = _fan(f.domain)
    violations = []
    for k in range(cfg.sample_count):
        if len(violations) == MAX_WITNESSES:
            break
        p = _sample_point(rng, fan)
        q = _sample_point(rng, fan)
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


def audit_structure(f: PLMap) -> AuditReport:
    """Re-expose the map's own validation as an audit.

    A pass is an exact proof that f is 1-Lipschitz on its whole domain.
    The checks establish three conditions: every motion is orthogonal,
    cells sharing a point agree on it, and the cells tile the convex
    domain exactly.  A segment between two points of the domain stays
    in it and crosses finitely many cells; f is continuous, and on each
    piece it is an isometry, so the image of the segment is a path no
    longer than the segment, and the triangle inequality bounds the
    image distance by that length.  Sampling in audit_lipschitz is an
    independent cross-check of this argument, not the proof.
    """
    report = f.validate()
    checks = []
    for name, ok, detail in report.checks:
        checks.append((f"structure.{name}", ok, None if ok else detail))
    return AuditReport(checks)


def brute_force_feasibility(inst: Instance) -> Optional[Violation]:
    """Exhaustive pairwise feasibility over raw rational arithmetic.

    Intentionally not a wrapper around the construction's own pre-check;
    this recomputes every comparison from Fractions.
    """
    src = [(p.x, p.y) for p in inst.sources]
    dst = [(p.x, p.y) for p in inst.targets]
    n = len(src)
    for i in range(n):
        for j in range(i + 1, n):
            ax, ay = src[i][0] - src[j][0], src[i][1] - src[j][1]
            bx, by = dst[i][0] - dst[j][0], dst[i][1] - dst[j][1]
            if bx * bx + by * by > ax * ax + ay * ay:
                return Violation(i, j)
    return None
