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
from math import lcm
from typing import Optional

from .exactreal import scientific_string, sign
from .extension import Instance, Violation
from .geometry import Point, homogeneous, squared_distance
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
SCALE = 1 << DENOMINATOR_BITS
# A fan triangle is chosen by comparing a random fraction on this grid
# against the domain's cumulative area.
CHOICE_BITS = 32
CHOICES = 1 << CHOICE_BITS
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


def _fmt(x: Fraction) -> str:
    """"p/q", or "~d.ddddddddddde+N" for a value whose digits pass
    Python's limit on writing an int as a string: 12 significant
    digits, rounded half-up.
    """
    try:
        return str(x)
    except ValueError:
        return "~" + scientific_string(x)


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
    """The domain's fan from its first vertex, over one denominator.

    Returns (w, pieces).  The vertices are scaled to a common
    denominator w0, the lcm of their homogeneous ones, so their
    numerators are ints; w = w0 * 2^DENOMINATOR_BITS is the denominator
    of every sample.  Each fan triangle a, b, c is a piece (cumulative
    area2, a * 2^DENOMINATOR_BITS, b - a, c - a) in those numerators, so
    the areas carry a factor w0^2.
    """
    coords = [homogeneous(v) for v in domain.vertices]
    w0 = lcm(*(w for _, _, w in coords))
    (ax, ay), *rest = [(x * (w0 // w), y * (w0 // w)) for x, y, w in coords]
    pieces = []
    total = 0
    for (bx, by), (cx, cy) in zip(rest, rest[1:]):
        bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
        total = total + (bx * cy - by * cx)
        pieces.append((total, (ax * SCALE, ay * SCALE), (bx, by), (cx, cy)))
    return w0 * SCALE, pieces


def _sample(rng: random.Random, fan):
    """A point of the domain, drawn from its fan without rejection.

    A fan triangle is picked with probability proportional to its area,
    then the point a + u(b - a) + v(c - a) with u and v on the 2^-16
    grid, folded to (1 - u, 1 - v) when u + v > 1.  Returns its
    numerators (X, Y) over the fan's w.
    """
    pieces = fan[1]
    r = rng.getrandbits(CHOICE_BITS) * pieces[-1][0]
    _, (ax, ay), (bx, by), (cx, cy) = next(
        piece for piece in pieces if r < piece[0] * CHOICES
    )
    u = rng.randint(0, SCALE)
    v = rng.randint(0, SCALE)
    if u + v > SCALE:
        u, v = SCALE - u, SCALE - v
    return ax + u * bx + v * cx, ay + u * by + v * cy


def _sample_point(rng: random.Random, fan) -> Point:
    """The next sample of rng as a Point."""
    w = fan[0]
    x, y = _sample(rng, fan)
    return Point(Fraction(x, w), Fraction(y, w))


def _image(form, x, y, w):
    """(P_x, P_y, d): P/(d w) is the image of (x/w, y/w) under the motion
    with integer form form (``Motion.form``)."""
    r00, r01, r10, r11, tx, ty, d = form
    return r00 * x + r01 * y + tx * w, r10 * x + r11 * y + ty * w, d


def audit_lipschitz(f: PLMap, cfg: AuditConfig = AuditConfig()) -> AuditReport:
    """Sampled pairwise non-expansiveness over the domain.

    Points are drawn inside the domain from its fan triangles, so every
    comparison stays exact.  Samples and motions are integer numerators
    over common denominators: with images P/(d_p w) and Q/(d_q w), a
    pair fails when |P d_q - Q d_p|^2 exceeds
    (d_p d_q)^2 |(X_p, Y_p) - (X_q, Y_q)|^2, which is its squared
    distances scaled by (d_p d_q w)^2.  A failing
    pair is drawn again as Points from a second generator for its
    witness.  Sampling stops at the MAX_WITNESSES-th failing sample.
    """
    rng = random.Random(cfg.rng_seed)
    replay = random.Random(cfg.rng_seed)
    replayed = 0
    fan = _fan(f.domain)
    w = fan[0]
    forms = [m.form() for m in f.motions]
    rows = f.triangles
    violations = []
    for k in range(cfg.sample_count):
        if len(violations) == MAX_WITNESSES:
            break
        xp, yp = _sample(rng, fan)
        xq, yq = _sample(rng, fan)
        try:
            px, py, dp = _image(forms[rows[f.locate_homogeneous(xp, yp, w)][3]], xp, yp, w)
            qx, qy, dq = _image(forms[rows[f.locate_homogeneous(xq, yq, w)][3]], xq, yq, w)
        except OutsideDomain:
            outside = True
        else:
            ex, ey = px * dq - qx * dp, py * dq - qy * dp
            gx, gy = xp - xq, yp - yq
            if sign(ex * ex + ey * ey - (dp * dq) ** 2 * (gx * gx + gy * gy)) <= 0:
                continue
            outside = False
        for _ in range(2 * (k - replayed)):
            _sample(replay, fan)
        replayed = k + 1
        p = _sample_point(replay, fan)
        q = _sample_point(replay, fan)
        witness = {"sample": k, "p": _fmt_point(p), "q": _fmt_point(q)}
        if outside:
            witness["error"] = "outside domain"
        else:
            witness["gap_squared"] = _fmt(squared_distance(p, q))
            witness["image_gap_squared"] = _fmt(
                squared_distance(f.evaluate(p), f.evaluate(q))
            )
        violations.append(witness)
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
