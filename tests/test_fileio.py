"""File format round-trips and strictness."""

from __future__ import annotations

import json

import pytest

from isofold.extension import Instance, extend_all, fold_boundary_region, cone_pieces
from isofold.fileio import (
    MapDocument,
    ParseError,
    _parse_rational,
    _rational_text,
    instance_hash,
    parse_instance,
    parse_map,
    serialize_instance,
    serialize_map,
)
from isofold.geometry import ConvexPolygon, Point
from isofold.plmap import assemble
from isofold.verification import audit_structure


def P(x, y) -> Point:
    return Point(x, y)


GOLDEN = Instance(
    [P(0, 0), P(4, 0), P(0, 4)], [P(0, 0), P(4, 0), P(2, 2)]
)


def fold_map():
    """The cone over (2, 0), (0, 2) with (2, 0) fixed and (0, 2) sent to
    (6/5, 8/5), at distance 2 from the fixed apex: one fold."""
    fr = fold_boundary_region(
        [P(0, 0), P(2, 0), P(0, 2)],
        P(2, 0), P(0, 2), P(0, 0), P(0, 0), P(2, 0), P("6/5", "8/5"),
    )
    pieces, _ = cone_pieces(fr)
    return assemble(ConvexPolygon([P(0, 0), P(2, 0), P(0, 2)]), pieces)


def map_with_number(number) -> str:
    """The golden map's file with its first vertex's x replaced."""
    doc = json.loads(serialize_map(extend_all(GOLDEN), instance_hash(GOLDEN)))
    doc["map"]["vertices"][0][0] = number
    return json.dumps(doc)


# Expression-node encodings of sqrt(2) and (sqrt(2) + 1) / sqrt(3).
SQRT2_NODES = {"nodes": ["2", {"op": "sqrt", "args": [0]}], "approx": "1.414213562373"}
NESTED_NODES = {
    "nodes": [
        "2", {"op": "sqrt", "args": [0]}, "1", {"op": "add", "args": [1, 2]},
        "3", {"op": "sqrt", "args": [4]}, {"op": "div", "args": [3, 5]},
    ],
    "approx": "1.393867894830",
}


class TestNumberCodec:
    @pytest.mark.parametrize("text", ["0", "7", "-3", "3/4", "-22/7"])
    def test_rational_round_trip(self, text):
        x = _parse_rational(text)
        assert _rational_text(x) == text

    def test_normalization(self):
        assert _rational_text(_parse_rational("2/4")) == "1/2"

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "", "abc", "1/0", "--3", "1/ 2"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ParseError):
            _parse_rational(bad)

    # Fraction reads a final newline and any Unicode digit, but a
    # literal is ASCII digits only.
    @pytest.mark.parametrize("bad", ["1/2\n", "3\n", "\u0661/\u0662", "\u0663"])
    def test_rejects_newline_and_non_ascii_digits(self, bad):
        with pytest.raises(ParseError):
            _parse_rational(bad)
        with pytest.raises(ParseError):
            parse_instance(json.dumps({"points": [{"a": [bad, "0"], "b": ["0", "0"]}]}))

    def test_rejects_raw_numbers(self):
        with pytest.raises(ParseError):
            _parse_rational(5)

    def test_sqrt_encoding(self):
        # The expression-node form of sqrt(2) is not a number of any file.
        with pytest.raises(ParseError):
            _parse_rational(SQRT2_NODES)
        with pytest.raises(ParseError):
            parse_map(map_with_number(SQRT2_NODES))

    def test_nested_expression(self):
        with pytest.raises(ParseError):
            _parse_rational(NESTED_NODES)
        with pytest.raises(ParseError):
            parse_map(map_with_number(NESTED_NODES))

    def test_approx_is_annotation_only(self):
        # The decimal sidecar never stands in for the value, even when it
        # reads as a rational literal.
        for doc in ({**SQRT2_NODES, "approx": "7/5"}, {"approx": "7/5"}):
            with pytest.raises(ParseError):
                _parse_rational(doc)

    def test_collapsing_node_is_stable(self):
        # A node list with a rational value is refused like any other.
        doc = {"nodes": ["16/25", {"op": "sqrt", "args": [0]}]}
        with pytest.raises(ParseError):
            _parse_rational(doc)
        with pytest.raises(ParseError):
            parse_map(map_with_number(doc))

    @pytest.mark.parametrize("bad", [
        {"op": "sqrt", "args": [0]},
        {"nodes": []},
        {"nodes": ["2", {"op": "pow", "args": [0, 0]}]},
        {"nodes": ["2", {"op": "sqrt", "args": [0, 0]}]},
        {"nodes": ["2", {"op": "add", "args": [0]}]},
        {"nodes": ["2", {"op": "add"}]},
        {"nodes": ["2", {"op": "add", "args": [0, 1]}]},
        {"nodes": ["2", {"op": "add", "args": [0, "0"]}]},
        {"nodes": ["2", {"op": "add", "args": [0, True]}]},
        {"nodes": ["-1", {"op": "sqrt", "args": [0]}]},
        {"nodes": ["1", "0", {"op": "div", "args": [0, 1]}]},
        {"nodes": [7]},
        [],
        None,
    ])
    def test_malformed_nodes(self, bad):
        with pytest.raises(ParseError):
            _parse_rational(bad)

    @pytest.mark.parametrize("nodes", [
        SQRT2_NODES,
        {"nodes": ["1/3", "1/3", {"op": "add", "args": [0, 1]}]},
        {"nodes": ["1/3", {"op": "mul", "args": [0, 0]}]},
    ])
    def test_expression_nodes_rejected_in_every_slot(self, nodes):
        f = extend_all(GOLDEN)
        for put in (
            lambda d: d["map"]["domain"][0].__setitem__(1, nodes),
            lambda d: d["map"]["vertices"][2].__setitem__(1, nodes),
            lambda d: d["map"]["motions"][0]["r"][1].__setitem__(0, nodes),
            lambda d: d["map"]["motions"][0]["t"].__setitem__(1, nodes),
        ):
            doc = json.loads(serialize_map(f, instance_hash(GOLDEN)))
            put(doc)
            with pytest.raises(ParseError, match="not a rational literal"):
                parse_map(json.dumps(doc))


class TestInstanceFiles:
    def test_round_trip(self):
        text = serialize_instance(GOLDEN)
        back = parse_instance(text)
        assert back.sources == GOLDEN.sources
        assert back.targets == GOLDEN.targets
        assert serialize_instance(back) == text

    def test_shape(self):
        doc = json.loads(serialize_instance(GOLDEN))
        assert doc == {
            "points": [
                {"a": ["0", "0"], "b": ["0", "0"]},
                {"a": ["4", "0"], "b": ["4", "0"]},
                {"a": ["0", "4"], "b": ["2", "2"]},
            ]
        }

    def test_fractions_survive(self):
        i = Instance([P("1/3", "-2/7")], [P("1/3", "-2/7")])
        assert parse_instance(serialize_instance(i)).sources[0] == P("1/3", "-2/7")

    @pytest.mark.parametrize("text", [
        "not json",
        "{}",
        '{"points": {}}',
        '{"points": []}',
        '{"points": [{"a": ["0", "0"]}]}',
        '{"points": [{"a": ["0"], "b": ["0", "0"]}]}',
        '{"points": [{"a": ["0", "0"], "b": ["0", "0.5"]}]}',
        '{"points": [{"a": [0, 0], "b": [0, 0]}]}',
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_hash_stability(self):
        h = instance_hash(GOLDEN)
        assert len(h) == 64 and int(h, 16) >= 0
        same = Instance(list(GOLDEN.sources), list(GOLDEN.targets))
        assert instance_hash(same) == h
        other = Instance([P(0, 0)], [P(0, 0)])
        assert instance_hash(other) != h


class TestMapFiles:
    def test_round_trip_exact_equality(self):
        f = extend_all(GOLDEN)
        text = serialize_map(f, instance_hash(GOLDEN))
        doc = parse_map(text)
        assert isinstance(doc, MapDocument)
        assert doc.map == f
        assert doc.instance_hash == instance_hash(GOLDEN)
        assert doc.tool_version == "0.1.0"
        assert doc.audits is None
        assert serialize_map(doc.map, doc.instance_hash, doc.audits) == text

    def test_audits_embedded(self):
        f = extend_all(GOLDEN)
        audits = {"all_passed": True, "checks": []}
        text = serialize_map(f, instance_hash(GOLDEN), audits)
        doc = parse_map(text)
        assert doc.audits == audits
        assert serialize_map(doc.map, doc.instance_hash, doc.audits) == text

    def test_irrational_round_trip(self):
        # A map with an irrational number no longer parses, so none
        # round-trips; test_fold_round_trip keeps the fold's coverage.
        doc = json.loads(serialize_map(fold_map(), "0" * 64))
        doc["map"]["motions"][1]["t"][0] = SQRT2_NODES
        with pytest.raises(ParseError):
            parse_map(json.dumps(doc))

    def test_fold_round_trip(self):
        f = fold_map()
        assert len(f.motions) == 2
        text = serialize_map(f, "0" * 64)
        assert '"op"' not in text
        doc = parse_map(text)
        assert doc.map == f
        assert doc.map.validate().all_passed
        assert serialize_map(doc.map, doc.instance_hash, doc.audits) == text

    def test_corrupted_motion_parses_but_fails_audit(self):
        f = extend_all(GOLDEN)
        doc = json.loads(serialize_map(f, instance_hash(GOLDEN)))
        doc["map"]["motions"][0]["r"][0][0] = "2"
        broken = parse_map(json.dumps(doc))
        assert not audit_structure(broken.map).all_passed

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("instance_hash"),
        lambda d: d.pop("map"),
        lambda d: d["map"].pop("motions"),
        lambda d: d["map"]["triangles"].append([0, 1, 99, 0]),
        lambda d: d["map"]["triangles"].append([0, 1, 2, 5]),
        lambda d: d["map"]["triangles"].append([0, 1, True, 0]),
        lambda d: d["map"]["triangles"].append([0, 1, 2]),
        lambda d: d["map"]["motions"].append({"r": [["1"]], "t": ["0", "0"]}),
        lambda d: d["map"]["vertices"].append(["1/2"]),
        lambda d: d.__setitem__("audits", 7),
        lambda d: d["map"]["triangles"].__setitem__(0, [True, 1, 2, 0]),
        lambda d: d["map"]["triangles"].__setitem__(0, [0, 1, 2, 0.0]),
        lambda d: d["map"]["triangles"].__setitem__(0, "0120"),
        lambda d: d["map"]["triangles"].__setitem__(0, 7),
        lambda d: d["map"]["triangles"].__setitem__(0, None),
        # Past Python's 4300-digit limit on parsing an int from a string.
        lambda d: d["map"]["vertices"][0].__setitem__(0, "1" * 5000),
    ])
    def test_shape_errors(self, mutate):
        f = extend_all(GOLDEN)
        doc = json.loads(serialize_map(f, instance_hash(GOLDEN)))
        mutate(doc)
        with pytest.raises(ParseError):
            parse_map(json.dumps(doc))

    def test_truncated(self):
        f = extend_all(GOLDEN)
        text = serialize_map(f, instance_hash(GOLDEN))
        with pytest.raises(ParseError):
            parse_map(text[: len(text) // 2])

    def test_nonconvex_domain_rejected(self):
        f = extend_all(GOLDEN)
        doc = json.loads(serialize_map(f, instance_hash(GOLDEN)))
        doc["map"]["domain"].append(["0", "0"])
        with pytest.raises(ParseError):
            parse_map(json.dumps(doc))
