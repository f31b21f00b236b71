"""JSON file formats for instances and produced maps.

Every number, in instances and maps alike, travels as a "p/q" string,
so nothing is ever rounded; anything else where a number belongs is a
parse error.  Serialization is canonical (sorted keys, fixed
indentation), so equal objects produce byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .extension import Instance
from .geometry import ConvexPolygon, Point
from .motions import Motion
from .plmap import PLMap

__all__ = [
    "TOOL_VERSION",
    "ParseError",
    "NumberTooLong",
    "MapDocument",
    "serialize_instance",
    "parse_instance",
    "instance_hash",
    "serialize_map",
    "parse_map",
    "read_text",
    "write_text",
]

TOOL_VERSION = "0.1.0"

# ASCII digits over the whole string: \d would take any Unicode digit,
# and $ a final newline, both of which Fraction accepts.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ParseError(ValueError):
    """The document is not a well-formed instance or map file."""


class NumberTooLong(ValueError):
    """A number has more digits than a map file can carry and be parsed back."""


def _canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _parse_rational(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None
    except ValueError as exc:
        # Python's limit on the digits of an int parsed from a string.
        raise ParseError(f"rational literal too long: {exc}") from None


def _rational_text(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError as exc:
        # Python's limit on the digits of an int written as a string is
        # the one under which _parse_rational reads it back.
        raise NumberTooLong(f"number too long for a map file: {exc}") from None


def _point_to_json(p: Point) -> list:
    return [_rational_text(p.x), _rational_text(p.y)]


def _point_from_json(obj) -> Point:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(f"a point is a two-element list, got {obj!r}")
    return Point(_parse_rational(obj[0]), _parse_rational(obj[1]))


# --- instances ----------------------------------------------------------


def serialize_instance(inst: Instance) -> str:
    rows = []
    for a, b in inst.pairs():
        rows.append({
            "a": [str(a.x), str(a.y)],
            "b": [str(b.x), str(b.y)],
        })
    return _canonical({"points": rows})


def parse_instance(text: str) -> Instance:
    doc = _load_json(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise ParseError('instance file must be {"points": [...]}')
    sources = []
    targets = []
    for row in doc["points"]:
        if not isinstance(row, dict) or "a" not in row or "b" not in row:
            raise ParseError('each point row needs "a" and "b" coordinates')
        for key, into in (("a", sources), ("b", targets)):
            pair = row[key]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f'"{key}" must be a two-element list')
            into.append(Point(_parse_rational(pair[0]), _parse_rational(pair[1])))
    try:
        return Instance(sources, targets)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def instance_hash(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()


# --- maps ---------------------------------------------------------------


class MapDocument(NamedTuple):
    map: PLMap
    instance_hash: str
    tool_version: str
    audits: Optional[dict]


def serialize_map(f: PLMap, inst_hash: str, audits: Optional[dict] = None) -> str:
    doc = {
        "instance_hash": inst_hash,
        "tool_version": TOOL_VERSION,
        "map": {
            "domain": [_point_to_json(v) for v in f.domain.vertices],
            "vertices": [_point_to_json(v) for v in f.vertices],
            "triangles": [list(row) for row in f.triangles],
            "motions": [
                {
                    "r": [
                        [_rational_text(m.r00), _rational_text(m.r01)],
                        [_rational_text(m.r10), _rational_text(m.r11)],
                    ],
                    "t": [_rational_text(m.tx), _rational_text(m.ty)],
                }
                for m in f.motions
            ],
        },
    }
    if audits is not None:
        doc["audits"] = audits
    return _canonical(doc)


def _motion_from_json(obj) -> Motion:
    if not isinstance(obj, dict):
        raise ParseError("a motion is an object with r and t")
    r = obj.get("r")
    t = obj.get("t")
    ok = (
        isinstance(r, list) and len(r) == 2
        and all(isinstance(row, list) and len(row) == 2 for row in r)
        and isinstance(t, list) and len(t) == 2
    )
    if not ok:
        raise ParseError("a motion needs a 2x2 r matrix and a 2-vector t")
    return Motion.unchecked(
        (
            (_parse_rational(r[0][0]), _parse_rational(r[0][1])),
            (_parse_rational(r[1][0]), _parse_rational(r[1][1])),
        ),
        (_parse_rational(t[0]), _parse_rational(t[1])),
    )


def parse_map(text: str) -> MapDocument:
    """Rebuild a stored map without enforcing semantic invariants.

    Motions come back through ``Motion.unchecked`` and triangle rows pass
    only the ``PLMap`` row gate, so a corrupted file still parses and can
    be fed to the audits; only shape, type and index-range errors fail
    here.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("map file must be a JSON object")
    for key in ("instance_hash", "tool_version", "map"):
        if key not in doc:
            raise ParseError(f"map file lacks {key!r}")
    body = doc["map"]
    if not isinstance(body, dict):
        raise ParseError('"map" must be an object')
    for key in ("domain", "vertices", "triangles", "motions"):
        if not isinstance(body.get(key), list):
            raise ParseError(f'map body lacks the {key!r} list')
    try:
        domain = ConvexPolygon([_point_from_json(v) for v in body["domain"]])
    except ValueError as exc:
        raise ParseError(f"bad domain polygon: {exc}") from None
    vertices = [_point_from_json(v) for v in body["vertices"]]
    motions = [_motion_from_json(m) for m in body["motions"]]
    try:
        f = PLMap(domain, vertices, body["triangles"], motions)
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad triangle row: {exc}") from None
    audits = doc.get("audits")
    if audits is not None and not isinstance(audits, dict):
        raise ParseError('"audits" must be an object when present')
    return MapDocument(f, doc["instance_hash"], doc["tool_version"], audits)


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
