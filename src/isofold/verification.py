"""Independent certification of produced maps.

Three audits (interpolation, sampled non-expansiveness, structure) plus a
brute-force feasibility check kept deliberately separate from the
pre-flight check inside the construction, so the two can cross-validate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .exactreal import GT, approximate, compare, decimal_string
from .extension import Instance, Violation
from .geometry import Location, Point, point_in_polygon, squared_distance
from .plmap import OutsideDomain, PLMap

__all__ = [
    "ExactMode",
    "ApproximateMode",
    "AuditConfig",
    "AuditReport",
    "audit_interpolation",
    "audit_lipschitz",
    "audit_structure",
    "brute_force_feasibility",
]

DENOMINATOR_BITS = 16


@dataclass(frozen=True)
class ExactMode:
    """Compare squared distances exactly."""


@dataclass(frozen=True)
class ApproximateMode:
    """Allow an additive slack on approximated squared distances."""

    tolerance: Fraction

    def __post_init__(self):
        object.__setattr__(self, "tolerance", Fraction(self.tolerance))
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class AuditConfig:
    sample_count: int = 1000
    rng_seed: int = 0
    mode: Union[ExactMode, ApproximateMode] = field(default_factory=ExactMode)

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
    if x.is_rational:
        return str(x.as_fraction())
    return decimal_string(x, 12)


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


def _sample_point(rng: random.Random, bounds, domain) -> Point:
    xmin, xmax, ymin, ymax = bounds
    scale = 1 << DENOMINATOR_BITS
    xlo, xhi = -(-xmin.numerator * scale // xmin.denominator), xmax.numerator * scale // xmax.denominator
    ylo, yhi = -(-ymin.numerator * scale // ymin.denominator), ymax.numerator * scale // ymax.denominator
    while True:
        p = Point(
            Fraction(rng.randint(xlo, xhi), scale),
            Fraction(rng.randint(ylo, yhi), scale),
        )
        if point_in_polygon(p, domain) is not Location.OUTSIDE:
            return p


def _domain_bounds(f: PLMap):
    eps = Fraction(1, 1 << 40)
    xs = []
    ys = []
    for v in f.domain.vertices:
        xs.append(v.x.as_fraction() if v.x.is_rational else approximate(v.x, eps))
        ys.append(v.y.as_fraction() if v.y.is_rational else approximate(v.y, eps))
    return min(xs), max(xs), min(ys), max(ys)


def audit_lipschitz(f: PLMap, cfg: AuditConfig = AuditConfig()) -> AuditReport:
    """Sampled pairwise non-expansiveness over the domain.

    Points are drawn on the 2^-16 rational grid by rejection inside the
    domain, so every comparison stays exact in Exact mode.
    """
    rng = random.Random(cfg.rng_seed)
    bounds = _domain_bounds(f)
    tolerance = (
        cfg.mode.tolerance if isinstance(cfg.mode, ApproximateMode) else None
    )
    violations = []
    for k in range(cfg.sample_count):
        p = _sample_point(rng, bounds, f.domain)
        q = _sample_point(rng, bounds, f.domain)
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
        if tolerance is None:
            bad = compare(image_gap2, gap2) == GT
        else:
            bad = float(image_gap2) > float(gap2) + float(tolerance)
        if bad:
            violations.append({
                "sample": k,
                "p": _fmt_point(p),
                "q": _fmt_point(q),
                "gap_squared": _fmt(gap2),
                "image_gap_squared": _fmt(image_gap2),
            })
    witness = violations if violations else None
    name = "lipschitz_exact" if tolerance is None else "lipschitz_approximate"
    return AuditReport([(name, not violations, witness)])


def audit_structure(f: PLMap) -> AuditReport:
    """Re-expose the map's own validation as an audit."""
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
    src = [(p.x.as_fraction(), p.y.as_fraction()) for p in inst.sources]
    dst = [(p.x.as_fraction(), p.y.as_fraction()) for p in inst.targets]
    n = len(src)
    for i in range(n):
        for j in range(i + 1, n):
            ax, ay = src[i][0] - src[j][0], src[i][1] - src[j][1]
            bx, by = dst[i][0] - dst[j][0], dst[i][1] - dst[j][1]
            if bx * bx + by * by > ax * ax + ay * ay:
                return Violation(i, j)
    return None
