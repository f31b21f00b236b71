"""JSON file formats for instances and produced maps.

Rationals travel as "p/q" strings so nothing is ever rounded.
Irrational algebraic values travel as flat expression DAGs: a node list
in dependency order whose args are indices of earlier nodes, with the
value at the final node and a decimal sidecar attached purely as a human
annotation.  Keeping the DAG flat preserves subexpression sharing;
expanding shared nodes into trees would grow files exponentially and
make exact zero tests on reparsed values intractably slow.
Serialization is canonical (sorted keys, fixed indentation), so equal
objects produce byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactreal import (
    DivisionByZero,
    ExactNumber,
    NegativeRadicand,
    _OP_NAMES,
    add,
    decimal_string,
    div,
    mul,
    number,
    sqrt,
    sub,
)
from .extension import Instance
from .geometry import ConvexPolygon, Point
from .motions import Motion
from .plmap import PLMap

__all__ = [
    "TOOL_VERSION",
    "ParseError",
    "NumberTooLong",
    "MapDocument",
    "number_to_json",
    "number_from_json",
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
_OPS = {"add": add, "sub": sub, "mul": mul, "div": div}

# Deciding that a value is zero refines it to a separation bound of
# degree 2**k for k distinct sqrt nodes (Burnikel et al., "A strong and
# easily computable separation bound for arithmetic expressions
# involving radicals", 2000).  On a Xeon under Python 3.11 one zero test
# took 0.08 s with 12 nodes, 1.2 s with 14, 19 s with 16 and over 4
# minutes with 18.  One predicate may combine numbers from several
# rows, so the cap counts a whole document.  A fold map onto
# (sqrt 2, sqrt 2) already holds 16.
MAX_SQRT_NODES = 16


class ParseError(ValueError):
    """The document is not a well-formed instance or map file."""


class NumberTooLong(ValueError):
    """A number has more digits than a map file can carry and be parsed back."""


def _canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def number_to_json(x):
    x = number(x)
    if type(x) is Fraction:
        return _rational_text(x)
    rows = []
    seen = {}

    def visit(node) -> int:
        key = id(node)
        if key in seen:
            return seen[key]
        leaf = number(node)
        if type(leaf) is Fraction:
            rows.append(_rational_text(leaf))
        else:
            args = [visit(a) for a in node._args]
            rows.append({"op": _OP_NAMES[node._op], "args": args})
        seen[key] = len(rows) - 1
        return seen[key]

    visit(x)
    return {"nodes": rows, "approx": decimal_string(x, 12)}


def number_from_json(obj, roots=None):
    """Rebuild a number; the value is the final node of the DAG.

    roots collects the irrational square roots built so far and is
    shared by every number of one document.
    """
    if roots is None:
        roots = []
    if isinstance(obj, str):
        return _parse_rational(obj)
    if not isinstance(obj, dict):
        raise ParseError(f"not a number encoding: {obj!r}")
    nodes = obj.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ParseError("expression needs a nonempty node list")
    built = []
    for row in nodes:
        if isinstance(row, str):
            built.append(ExactNumber(_parse_rational(row)))
            continue
        if not isinstance(row, dict):
            raise ParseError(f"bad expression node: {row!r}")
        op = row.get("op")
        args = row.get("args")
        indices_ok = isinstance(args, list) and all(
            isinstance(a, int) and not isinstance(a, bool) and 0 <= a < len(built)
            for a in args
        )
        if not indices_ok:
            raise ParseError("expression args must index earlier nodes")
        children = [built[a] for a in args]
        try:
            if op == "sqrt":
                if len(children) != 1:
                    raise ParseError("sqrt takes one argument")
                root = sqrt(children[0])
                if type(number(root)) is not Fraction:
                    roots.append(root)
                    if len(roots) > MAX_SQRT_NODES:
                        raise ParseError(f"more than {MAX_SQRT_NODES} square roots")
                built.append(root)
            elif op in _OPS:
                if len(children) != 2:
                    raise ParseError(f"{op} takes two arguments")
                built.append(_OPS[op](children[0], children[1]))
            else:
                raise ParseError(f"unknown operation: {op!r}")
        except (DivisionByZero, NegativeRadicand) as exc:
            raise ParseError(str(exc)) from None
    return built[-1]


def _point_to_json(p: Point) -> list:
    return [number_to_json(p.x), number_to_json(p.y)]


def _point_from_json(obj, roots) -> Point:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(f"a point is a two-element list, got {obj!r}")
    return Point(number_from_json(obj[0], roots), number_from_json(obj[1], roots))


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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
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
                        [number_to_json(m.r00), number_to_json(m.r01)],
                        [number_to_json(m.r10), number_to_json(m.r11)],
                    ],
                    "t": [number_to_json(m.tx), number_to_json(m.ty)],
                }
                for m in f.motions
            ],
        },
    }
    if audits is not None:
        doc["audits"] = audits
    return _canonical(doc)


def _motion_from_json(obj, roots) -> Motion:
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
            (number_from_json(r[0][0], roots), number_from_json(r[0][1], roots)),
            (number_from_json(r[1][0], roots), number_from_json(r[1][1], roots)),
        ),
        (number_from_json(t[0], roots), number_from_json(t[1], roots)),
    )


def parse_map(text: str) -> MapDocument:
    """Rebuild a stored map without enforcing semantic invariants.

    Motions come back through ``Motion.unchecked`` and triangle rows pass
    only the ``PLMap`` row gate, so a corrupted file still parses and can
    be fed to the audits; only shape, type and index-range errors fail
    here.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
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
    roots = []
    try:
        domain = ConvexPolygon([_point_from_json(v, roots) for v in body["domain"]])
    except ValueError as exc:
        raise ParseError(f"bad domain polygon: {exc}") from None
    vertices = [_point_from_json(v, roots) for v in body["vertices"]]
    motions = [_motion_from_json(m, roots) for m in body["motions"]]
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
