"""Seeded instance generator owned by the benchmark.

Independent of the test suite's generator, so a change to the tests
never shifts the benchmark's inputs.  It uses the same coordinate
bounds: sources on a grid of +-16 with denominators 1, 2 and 4, targets
with numerator and denominator bounded by 64.  Targets come from a
non-expansive transform (or a chain of two) applied to the sources, so
every instance is feasible; feasibility is still re-checked over plain
Fractions.

Sources whose convex hull fills less than MIN_FILL of its bounding box
are redrawn.  The Lipschitz audit samples points by rejection from that
box, so a thin domain multiplies its cost: one n=3 instance with a
sliver hull took 14 s against a 0.6 s median job, enough to swamp a
run.  Thin domains need a workload of their own.

An instance is a list of ((ax, ay), (bx, by)) Fraction pairs with
exactly n distinct sources.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from check import hull_area2

COORD_BOUND = 64
MIN_FILL = Fraction(1, 8)

PYTHAGOREAN = [
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(4, 5), Fraction(-3, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
]


def _identity(rng):
    return lambda p: p


def _constant(rng):
    c = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
    return lambda p: c


def _translate(rng):
    dx = Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
    dy = Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
    return lambda p: (p[0] + dx, p[1] + dy)


def _contract(rng):
    lam = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)])
    cx = Fraction(rng.randint(-4, 4))
    cy = Fraction(rng.randint(-4, 4))
    return lambda p: (cx + lam * (p[0] - cx), cy + lam * (p[1] - cy))


def _rotate(rng):
    c, s = rng.choice(PYTHAGOREAN)
    if rng.random() < 0.5:
        s = -s
    cx = Fraction(rng.randint(-2, 2))
    cy = Fraction(rng.randint(-2, 2))

    def apply(p):
        dx, dy = p[0] - cx, p[1] - cy
        return (cx + c * dx - s * dy, cy + s * dx + c * dy)

    return apply


def _reflect(rng):
    c, s = rng.choice(PYTHAGOREAN)
    return lambda p: (c * p[0] + s * p[1], s * p[0] - c * p[1])


def _project_axis(rng):
    level = Fraction(rng.randint(-4, 4))
    if rng.random() < 0.5:
        return lambda p: (p[0], level)
    return lambda p: (level, p[1])


def _project_diagonal(rng):
    def apply(p):
        m = (p[0] + p[1]) / 2
        return (m, m)

    return apply


def _clamp(rng):
    lo = Fraction(rng.randint(-4, 0))
    hi = Fraction(rng.randint(1, 4))

    def pin(v):
        return min(max(v, lo), hi)

    return lambda p: (pin(p[0]), pin(p[1]))


ISOMETRIC = [_identity, _translate, _rotate, _reflect]
NON_ISOMETRIC = [_constant, _contract, _project_axis, _project_diagonal, _clamp]
ALL_FAMILIES = ISOMETRIC + NON_ISOMETRIC


def hull_fill(points) -> Fraction:
    """Area of the convex hull over the area of the bounding box."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    box = (max(xs) - min(xs)) * (max(ys) - min(ys))
    return hull_area2(points) / (2 * box) if box else Fraction(0)


def _bounded(q: Fraction) -> bool:
    return abs(q.numerator) <= COORD_BOUND and q.denominator <= COORD_BOUND


def _d2(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _feasible(pairs) -> bool:
    for i, (ai, bi) in enumerate(pairs):
        for aj, bj in pairs[i + 1:]:
            if _d2(bi, bj) > _d2(ai, aj):
                return False
    return True


def random_instance(rng: random.Random, n: int, first, families, chain_prob: float = 0.4):
    """An instance with exactly n distinct sources.

    Targets come from the transform family ``first``, followed with
    probability chain_prob by one drawn from ``families``.
    """
    for _ in range(1000):
        raw = set()
        while len(raw) < n:
            raw.add((
                Fraction(rng.randint(-16, 16), rng.choice([1, 2, 4])),
                Fraction(rng.randint(-16, 16), rng.choice([1, 2, 4])),
            ))
        sources = sorted(raw)
        if hull_fill(sources) < MIN_FILL:
            continue
        chain = [first(rng)]
        if rng.random() < chain_prob:
            chain.append(rng.choice(families)(rng))
        targets = []
        for p in sources:
            for step in chain:
                p = step(p)
            targets.append(p)
        if not all(_bounded(v) for p in sources + targets for v in p):
            continue
        pairs = list(zip(sources, targets))
        if not _feasible(pairs):
            raise RuntimeError("transform chain produced an infeasible instance")
        return pairs
    raise RuntimeError("rejection sampling failed to produce an instance")


def instance_json(pairs) -> str:
    return json.dumps({"points": [
        {"a": [str(a[0]), str(a[1])], "b": [str(b[0]), str(b[1])]}
        for a, b in pairs
    ]}, indent=2) + "\n"

