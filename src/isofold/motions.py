"""Planar isometries x -> R x + t with rational orthogonal R, det = +-1.

Motions stay rational end to end: the two-point constructor solves for
the rotation or reflection entries with squared distances only, so no
square root ever enters, and every constructor rejects an irrational
entry with ValueError.

Each motion keeps its entries as Fractions and builds, once, its
integer form (r00, r01, r10, r11, tx, ty, d): the entries times their
common denominator d > 0 (``exactreal.common_denominator``).  Images,
compositions, reflections and two-point solves are integer expressions
over these forms, the lines' forms and ``geometry.homogeneous``, each
result entry turned into a number by one ``quotient``; the form is
canonical, so it keys the motion exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .exactreal import common_denominator, number, quotient, sign
from .geometry import Line, Point, homogeneous, orientation

__all__ = [
    "Motion",
    "DistanceMismatch",
    "CollinearSources",
    "CoincidentSources",
    "compose",
    "reflection_across_line",
    "from_two_pairs",
    "from_three_points",
]


class DistanceMismatch(ValueError):
    """The requested point correspondence does not preserve distance."""


class CollinearSources(ValueError):
    """Three-point constructor needs non-collinear source points."""


class CoincidentSources(ValueError):
    """Two-point constructor needs distinct source points."""


class Motion:
    """An isometry of the plane.

    Entries are Fractions, the normal form of ``exactreal.number``; an
    irrational entry is a ValueError.  The checked constructor verifies
    orthogonality; parse paths that must surface broken files to the
    structural audit use ``Motion.unchecked``.
    """

    __slots__ = ("r00", "r01", "r10", "r11", "tx", "ty", "_det", "_form")

    def __new__(cls, rows, translation):
        m = cls.unchecked(rows, translation)
        if not m.is_orthogonal():
            raise ValueError("rotation part must be orthogonal")
        return m

    @classmethod
    def unchecked(cls, rows, translation) -> "Motion":
        (a, b), (c, d) = rows
        tx, ty = translation
        entries = number(a), number(b), number(c), number(d), number(tx), number(ty)
        for v in entries:
            if type(v) is not Fraction:
                raise ValueError("motion entries must be rational")
        m = object.__new__(cls)
        m.r00, m.r01, m.r10, m.r11, m.tx, m.ty = entries
        m._det = None
        m._form = None
        return m

    @classmethod
    def identity(cls) -> "Motion":
        return cls(((1, 0), (0, 1)), (0, 0))

    @classmethod
    def translation(cls, dx, dy) -> "Motion":
        return cls(((1, 0), (0, 1)), (dx, dy))

    def form(self):
        """(r00, r01, r10, r11, tx, ty, d): the entries times d > 0.

        Built once: ints over the lcm d of the reduced denominators,
        which makes the form canonical.
        """
        f = self._form
        if f is None:
            entries, d = common_denominator(
                (self.r00, self.r01, self.r10, self.r11, self.tx, self.ty)
            )
            f = self._form = (*entries, d)
        return f

    def is_orthogonal(self) -> bool:
        r00, r01, r10, r11, _, _, d = self.form()
        return (
            sign(r00 * r00 + r10 * r10 - d * d) == 0
            and sign(r01 * r01 + r11 * r11 - d * d) == 0
            and sign(r00 * r01 + r10 * r11) == 0
        )

    @property
    def rows(self):
        return ((self.r00, self.r01), (self.r10, self.r11))

    def determinant_sign(self) -> int:
        if self._det is None:
            r00, r01, r10, r11 = self.form()[:4]
            self._det = sign(r00 * r11 - r01 * r10)
        return self._det

    def apply(self, p: Point) -> Point:
        """The image R p + t: the form at homogeneous(p), over d * W."""
        r00, r01, r10, r11, tx, ty, d = self.form()
        x, y, w = homogeneous(p)
        dw = d * w
        return Point(
            quotient(r00 * x + r01 * y + tx * w, dw),
            quotient(r10 * x + r11 * y + ty * w, dw),
        )

    __call__ = apply

    def kind(self) -> str:
        r00, r01, r10, r11, tx, ty, d = self.form()
        ident = (
            sign(r00 - d) == 0
            and sign(r01) == 0
            and sign(r10) == 0
            and sign(r11 - d) == 0
        )
        if ident:
            if sign(tx) == 0 and sign(ty) == 0:
                return "identity"
            return "translation"
        if self.determinant_sign() == 1:
            return "rotation"
        # Mirror direction spans the +1 eigenspace of R; of the two
        # candidate eigenvectors (times d) at least one is nonzero.
        dx, dy = r01, d - r00
        if sign(dx) == 0 and sign(dy) == 0:
            dx, dy = d + r00, r10
        if sign(tx * dx + ty * dy) == 0:
            return "reflection"
        return "glide_reflection"

    def __eq__(self, other):
        # Entry by entry, the forms cross-multiplied by the other's d.
        if not isinstance(other, Motion):
            return NotImplemented
        *mine, d = self.form()
        *theirs, e = other.form()
        return all(sign(x * e - y * d) == 0 for x, y in zip(mine, theirs))

    __hash__ = None

    def __repr__(self):
        return (
            f"Motion((({self.r00!r}, {self.r01!r}), ({self.r10!r}, {self.r11!r})), "
            f"({self.tx!r}, {self.ty!r}))"
        )


def compose(outer: Motion, inner: Motion) -> Motion:
    """The motion applying inner first, then outer.

    Each entry is one integer expression in the two forms over the
    product of their d.
    """
    a00, a01, a10, a11, ax, ay, da = outer.form()
    b00, b01, b10, b11, bx, by, db = inner.form()
    d = da * db
    return Motion.unchecked(
        (
            (quotient(a00 * b00 + a01 * b10, d), quotient(a00 * b01 + a01 * b11, d)),
            (quotient(a10 * b00 + a11 * b10, d), quotient(a10 * b01 + a11 * b11, d)),
        ),
        (
            quotient(a00 * bx + a01 * by + ax * db, d),
            quotient(a10 * bx + a11 * by + ay * db, d),
        ),
    )


def reflection_across_line(line: Line) -> Motion:
    """The mirror in line, from its integer form (a, b, c).

    Every entry is a ratio with a^2 + b^2 as denominator, so any
    nonzero scaling of the form gives the same motion.
    """
    a, b, c = line.form()
    d2 = a * a + b * b
    s = quotient(-2 * a * b, d2)
    return Motion.unchecked(
        ((quotient(b * b - a * a, d2), s), (s, quotient(a * a - b * b, d2))),
        (quotient(2 * a * c, d2), quotient(2 * b * c, d2)),
    )


def from_two_pairs(p1: Point, q1: Point, p2: Point, q2: Point, det: int) -> Motion:
    """The unique motion of determinant sign det with p1 -> q1, p2 -> q2.

    Entries come out of linear solves over squared distances, so
    no square root is taken.  In homogeneous coordinates
    u = p2 - p1 = (ux, uy) / uw and v = q2 - q1 = (vx, vy) / vw; the
    rotation part is (u.v, u x v) / |u|^2 for det = +1, with v mirrored
    for det = -1, which is (ux vx + uy vy) uw / (vw |(ux, uy)|^2) and
    so on; the translation is q1 - R p1 over one denominator.
    """
    if det not in (-1, 1):
        raise ValueError("det must be +1 or -1")
    px1, py1, pw1 = homogeneous(p1)
    px2, py2, pw2 = homogeneous(p2)
    ux, uy, uw = px2 * pw1 - px1 * pw2, py2 * pw1 - py1 * pw2, pw1 * pw2
    if sign(ux) == 0 and sign(uy) == 0:
        raise CoincidentSources("need two distinct source points")
    qx1, qy1, qw1 = homogeneous(q1)
    qx2, qy2, qw2 = homogeneous(q2)
    vx, vy, vw = qx2 * qw1 - qx1 * qw2, qy2 * qw1 - qy1 * qw2, qw1 * qw2
    n = ux * ux + uy * uy
    if sign(n * vw * vw - (vx * vx + vy * vy) * uw * uw) != 0:
        raise DistanceMismatch("pairs are not congruent")
    if det == 1:
        c = (ux * vx + uy * vy) * uw
        s = (ux * vy - uy * vx) * uw
        n00, n01, n10, n11 = c, -s, s, c
    else:
        c = (ux * vx - uy * vy) * uw
        s = (uy * vx + ux * vy) * uw
        n00, n01, n10, n11 = c, s, s, -c
    k = vw * n
    kw = k * pw1
    return Motion.unchecked(
        ((quotient(n00, k), quotient(n01, k)), (quotient(n10, k), quotient(n11, k))),
        (
            quotient(qx1 * kw - qw1 * (n00 * px1 + n01 * py1), qw1 * kw),
            quotient(qy1 * kw - qw1 * (n10 * px1 + n11 * py1), qw1 * kw),
        ),
    )


def from_three_points(
    p1: Point, q1: Point, p2: Point, q2: Point, p3: Point, q3: Point
) -> Motion:
    """The motion with p_i -> q_i, for non-collinear sources."""
    if orientation(p1, p2, p3) == 0:
        raise CollinearSources("source points are collinear")
    m = from_two_pairs(p1, q1, p2, q2, 1)
    if m.apply(p3) == q3:
        return m
    m = from_two_pairs(p1, q1, p2, q2, -1)
    if m.apply(p3) == q3:
        return m
    raise DistanceMismatch("no isometry maps the three pairs")
