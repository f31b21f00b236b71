"""Planar isometries x -> R x + t with exact orthogonal R, det = +-1.

Motions built from rational data stay rational end to end: the
two-point constructor solves for the rotation or reflection entries
with squared distances only, so no square root ever enters.
"""

from __future__ import annotations

from fractions import Fraction

from .exactreal import equals, number, sign
from .geometry import Line, Point, orientation, squared_distance

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

    Entries are exact numbers in the normal form of ``exactreal.number``.
    The checked constructor verifies orthogonality; parse paths that must
    surface broken files to the structural audit use ``Motion.unchecked``.
    """

    __slots__ = ("r00", "r01", "r10", "r11", "tx", "ty", "_det")

    def __new__(cls, rows, translation):
        m = cls.unchecked(rows, translation)
        if not m.is_orthogonal():
            raise ValueError("rotation part must be orthogonal")
        return m

    @classmethod
    def unchecked(cls, rows, translation) -> "Motion":
        m = object.__new__(cls)
        (a, b), (c, d) = rows
        tx, ty = translation
        m.r00 = number(a)
        m.r01 = number(b)
        m.r10 = number(c)
        m.r11 = number(d)
        m.tx = number(tx)
        m.ty = number(ty)
        m._det = None
        return m

    @classmethod
    def identity(cls) -> "Motion":
        return cls(((1, 0), (0, 1)), (0, 0))

    @classmethod
    def translation(cls, dx, dy) -> "Motion":
        return cls(((1, 0), (0, 1)), (dx, dy))

    def is_orthogonal(self) -> bool:
        return (
            equals(self.r00 * self.r00 + self.r10 * self.r10, 1)
            and equals(self.r01 * self.r01 + self.r11 * self.r11, 1)
            and sign(self.r00 * self.r01 + self.r10 * self.r11) == 0
        )

    @property
    def rows(self):
        return ((self.r00, self.r01), (self.r10, self.r11))

    def determinant_sign(self) -> int:
        if self._det is None:
            self._det = sign(self.r00 * self.r11 - self.r01 * self.r10)
        return self._det

    def is_orientation_preserving(self) -> bool:
        return self.determinant_sign() == 1

    def apply(self, p: Point) -> Point:
        return Point(
            self.r00 * p.x + self.r01 * p.y + self.tx,
            self.r10 * p.x + self.r11 * p.y + self.ty,
        )

    __call__ = apply

    def inverse(self) -> "Motion":
        # R orthogonal, so the inverse rotation part is the transpose.
        return Motion.unchecked(
            ((self.r00, self.r10), (self.r01, self.r11)),
            (
                -(self.r00 * self.tx + self.r10 * self.ty),
                -(self.r01 * self.tx + self.r11 * self.ty),
            ),
        )

    def is_rational(self) -> bool:
        return all(
            type(v) is Fraction
            for v in (self.r00, self.r01, self.r10, self.r11, self.tx, self.ty)
        )

    def kind(self) -> str:
        ident = (
            equals(self.r00, 1)
            and sign(self.r01) == 0
            and sign(self.r10) == 0
            and equals(self.r11, 1)
        )
        if ident:
            if sign(self.tx) == 0 and sign(self.ty) == 0:
                return "identity"
            return "translation"
        if self.determinant_sign() == 1:
            return "rotation"
        # Mirror direction spans the +1 eigenspace of R; of the two
        # candidate eigenvectors at least one is nonzero.
        dx, dy = self.r01, 1 - self.r00
        if sign(dx) == 0 and sign(dy) == 0:
            dx, dy = 1 + self.r00, self.r10
        if sign(self.tx * dx + self.ty * dy) == 0:
            return "reflection"
        return "glide_reflection"

    def __eq__(self, other):
        if not isinstance(other, Motion):
            return NotImplemented
        return (
            equals(self.r00, other.r00)
            and equals(self.r01, other.r01)
            and equals(self.r10, other.r10)
            and equals(self.r11, other.r11)
            and equals(self.tx, other.tx)
            and equals(self.ty, other.ty)
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"Motion((({self.r00!r}, {self.r01!r}), ({self.r10!r}, {self.r11!r})), "
            f"({self.tx!r}, {self.ty!r}))"
        )


def compose(outer: Motion, inner: Motion) -> Motion:
    """The motion applying inner first, then outer."""
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


def reflection_across_line(line: Line) -> Motion:
    a, b, c = line.a, line.b, line.c
    d2 = a * a + b * b
    ab2 = 2 * a * b / d2
    return Motion.unchecked(
        (
            ((b * b - a * a) / d2, -ab2),
            (-ab2, (a * a - b * b) / d2),
        ),
        (2 * a * c / d2, 2 * b * c / d2),
    )


def from_two_pairs(p1: Point, q1: Point, p2: Point, q2: Point, det: int) -> Motion:
    """The unique motion of determinant sign det with p1 -> q1, p2 -> q2.

    Entries come out of linear solves over squared distances, so
    rational inputs give a rational motion.
    """
    if det not in (-1, 1):
        raise ValueError("det must be +1 or -1")
    if p1 == p2:
        raise CoincidentSources("need two distinct source points")
    d2 = squared_distance(p1, p2)
    if not equals(d2, squared_distance(q1, q2)):
        raise DistanceMismatch("pairs are not congruent")
    ux = p2.x - p1.x
    uy = p2.y - p1.y
    vx = q2.x - q1.x
    vy = q2.y - q1.y
    if det == 1:
        c = (ux * vx + uy * vy) / d2
        s = (ux * vy - uy * vx) / d2
        rows = ((c, -s), (s, c))
    else:
        c = (ux * vx - uy * vy) / d2
        s = (uy * vx + ux * vy) / d2
        rows = ((c, s), (s, -c))
    (r00, r01), (r10, r11) = rows
    tx = q1.x - (r00 * p1.x + r01 * p1.y)
    ty = q1.y - (r10 * p1.x + r11 * p1.y)
    return Motion.unchecked(rows, (tx, ty))


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
