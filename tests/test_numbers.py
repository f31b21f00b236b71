"""The number form: rationals are Fractions, ExactNumber is irrational,
and points, lines and motions hold Fractions only."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from isofold import ExactNumber, sqrt
from isofold.exactreal import number, sign
from isofold.geometry import Line, Point
from isofold.motions import Motion

SRC = Path(__file__).resolve().parents[1] / "src"


class TestNormalForm:
    def test_rationals_become_fractions(self):
        for value in (3, "6/4", Fraction(3, 2), ExactNumber("3/2"), sqrt(Fraction(9, 4))):
            x = number(value)
            assert type(x) is Fraction
        assert number("6/4") == Fraction(3, 2)

    def test_irrational_kept(self):
        r = sqrt(2)
        assert number(r) is r

    @pytest.mark.parametrize("bad", [1.5, True, None])
    def test_rejected(self, bad):
        with pytest.raises(TypeError):
            number(bad)

    def test_point_line_motion_store_fractions(self):
        p = Point(ExactNumber("3/2"), 1)
        assert type(p.x) is Fraction and p.x == Fraction(3, 2)
        assert type(p.y) is Fraction
        line = Line(ExactNumber(2), "1/2", 0)
        assert all(type(v) is Fraction for v in (line.a, line.b, line.c))
        m = Motion(((0, ExactNumber(-1)), (1, 0)), ("1/3", 0))
        assert all(type(v) is Fraction for v in (m.r00, m.r01, m.r10, m.r11, m.tx, m.ty))
        with pytest.raises(ValueError):
            Point(sqrt(2), 0)

    def test_irrational_values_rejected(self):
        r = sqrt(2)
        for make in (
            lambda: Point(r, 0),
            lambda: Point(0, r),
            lambda: Line(r, 1, 0),
            lambda: Line(1, 0, r),
            lambda: Motion.unchecked(((r, 0), (0, 1)), (0, 0)),
            lambda: Motion.unchecked(((1, 0), (0, 1)), (0, r)),
            # Rational in value, irrational in form: refused all the same.
            lambda: Point((r + 1) * (r - 1), 0),
        ):
            with pytest.raises(ValueError, match="rational"):
                make()
        three_halves = sqrt(Fraction(9, 4))
        assert type(three_halves) is ExactNumber
        assert Point(three_halves, 0) == Point("3/2", 0)
        assert Line(three_halves, 0, 3) == Line(1, 0, 2)
        m = Motion.unchecked(((1, 0), (0, 1)), (three_halves, ExactNumber("1/2")))
        assert (m.tx, m.ty) == (Fraction(3, 2), Fraction(1, 2))

    def test_sign_of_int(self):
        assert [sign(v) for v in (-(10**40), -1, 0, 1, 10**40)] == [-1, -1, 0, 1, 1]
        with pytest.raises(TypeError):
            sign(True)
        with pytest.raises(TypeError):
            sign(False)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Point(0.5, 0)
        with pytest.raises(TypeError):
            Line(1, 0.5, 0)
        with pytest.raises(TypeError):
            Motion(((1, 0), (0, 1)), (0.25, 0))
        with pytest.raises(TypeError):
            Motion.unchecked(((1.0, 0), (0, 1)), (0, 0))


def test_representation_lives_in_exactreal():
    # Only exactreal looks inside an ExactNumber's rational slot, and
    # there is one rational backend.
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "isofold").glob("*.py"))
        if path.name != "exactreal.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_rat"
    ]
    assert reads == []
    mentions = [
        str(path) for path in sorted(SRC.rglob("*.py"))
        if "gmpy2" in path.read_text()
    ]
    assert mentions == []


# Where a Fraction's integer parts may be read: the number layer and the
# homogeneous coordinates behind geometry's integer edge forms.
INTEGER_READERS = {
    "geometry.py": {"homogeneous"},
}


def test_integer_forms_live_in_one_place():
    reads = []
    for path in sorted((SRC / "isofold").glob("*.py")):
        if path.name == "exactreal.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in INTEGER_READERS.get(
                path.name, ()
            ):
                allowed.update(id(n) for n in ast.walk(node))
        reads += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("numerator", "denominator")
            and id(node) not in allowed
        ]
    assert reads == []


# The construction and the audits run on plain ints and Fractions: what
# they may take from exactreal is the constructors' gate, the integer
# form of a tuple of Fractions, and the audit's number format.
NATIVE_MODULES = ("geometry.py", "motions.py", "extension.py", "plmap.py", "verification.py")
EXACTREAL_MODULES = ("exactreal", "isofold.exactreal")
EXACTREAL_ALLOWED = {"to_fraction", "common_denominator", "scientific_string"}
EXACTREAL_FORBIDDEN = {"sign", "compare", "equals", "quotient"}


def test_construction_uses_native_numbers():
    stray = []
    for name in NATIVE_MODULES:
        for node in ast.walk(ast.parse((SRC / "isofold" / name).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in EXACTREAL_MODULES:
                stray += [
                    f"{name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name not in EXACTREAL_ALLOWED
                ]
            elif isinstance(node, ast.Name) and node.id in EXACTREAL_FORBIDDEN:
                stray.append(f"{name}:{node.lineno} uses {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in EXACTREAL_FORBIDDEN:
                stray.append(f"{name}:{node.lineno} uses {node.attr}")
    assert stray == []
