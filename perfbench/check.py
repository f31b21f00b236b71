"""Independent check of a written map file, outside every timed region.

Uses only ``json`` and ``fractions.Fraction``: none of isofold's
geometry, motions or plmap code.  A map passes when

- every number is a rational literal, every triangle row indexes
  existing vertices and motions;
- every motion is orthogonal;
- every cell has positive area and the areas sum to the area of the
  sources' convex hull, computed here;
- every source lies in at least one cell, and every cell containing it
  sends it to its target.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


class Malformed(ValueError):
    pass


def _num(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise Malformed(f"not a rational literal: {text!r}")
    return Fraction(text)


def _cross(o, p, q) -> Fraction:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def hull_area2(points) -> Fraction:
    """Twice the area of the convex hull (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return Fraction(0)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    ring = half(pts) + half(reversed(pts))
    return sum(
        (ring[i][0] * ring[(i + 1) % len(ring)][1] - ring[(i + 1) % len(ring)][0] * ring[i][1]
         for i in range(len(ring))),
        Fraction(0),
    )


def _bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def check_map(text: str, pairs) -> dict:
    """Problems found in a map document for the instance ``pairs``."""
    problems = []
    try:
        body = json.loads(text)["map"]
        verts = [(_num(x), _num(y)) for x, y in body["vertices"]]
        motions = []
        for m in body["motions"]:
            (a, b), (c, d) = m["r"]
            motions.append((_num(a), _num(b), _num(c), _num(d), _num(m["t"][0]), _num(m["t"][1])))
        rows = [tuple(r) for r in body["triangles"]]
        for r in rows:
            if len(r) != 4 or not all(isinstance(i, int) for i in r):
                raise Malformed(f"bad triangle row {r!r}")
            if not all(0 <= i < len(verts) for i in r[:3]) or not 0 <= r[3] < len(motions):
                raise Malformed(f"triangle row out of range {r!r}")
    except (Malformed, KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "problems": [f"malformed map: {exc}"], "sizes": None}

    for k, (a, b, c, d, _, _) in enumerate(motions):
        if a * a + c * c != 1 or b * b + d * d != 1 or a * b + c * d != 0:
            problems.append(f"motion {k} is not orthogonal")

    cells = []
    total = Fraction(0)
    for t, (i, j, k, m) in enumerate(rows):
        p, q, r = verts[i], verts[j], verts[k]
        area2 = _cross(p, q, r)
        if area2 <= 0:
            problems.append(f"cell {t} has non-positive area")
        total += area2
        cells.append((p, q, r, motions[m]))
    expected = hull_area2([a for a, _ in pairs])
    if total != expected:
        problems.append(f"cell areas sum to {total / 2}, the sources' hull has {expected / 2}")

    for s, (a, target) in enumerate(pairs):
        holders = 0
        for p, q, r, (m00, m01, m10, m11, tx, ty) in cells:
            if _cross(p, q, a) < 0 or _cross(q, r, a) < 0 or _cross(r, p, a) < 0:
                continue
            holders += 1
            image = (m00 * a[0] + m01 * a[1] + tx, m10 * a[0] + m11 * a[1] + ty)
            if image != target:
                problems.append(f"source {s} is not sent to its target")
                break
        if holders == 0:
            problems.append(f"source {s} lies in no cell")

    coords = [v for xy in verts for v in xy] + [v for m in motions for v in m]
    return {
        "ok": not problems,
        "problems": problems,
        "sizes": {
            "cells": len(rows),
            "vertices": len(verts),
            "motions": len(motions),
            "coord_bits": max((_bits(v) for v in coords), default=0),
        },
    }


def check_svg(text: str) -> list:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"svg root element is {root.tag!r}"]
    return []


def embedded_audits_passed(text: str) -> bool:
    audits = json.loads(text).get("audits")
    return isinstance(audits, dict) and audits.get("all_passed") is True
