"""Exact real arithmetic: field laws, sqrt identities, sign decisions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofold import (
    EQ,
    GT,
    LT,
    DivisionByZero,
    ExactNumber,
    NegativeRadicand,
    approximate,
    compare,
    decimal_string,
    equals,
    rational,
    sign,
    sqrt,
)
from isofold.exactreal import scientific_string

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=16
)
nonneg_rationals = st.fractions(min_value=0, max_value=20, max_denominator=16)


class TestConstruction:
    def test_from_int_str_fraction(self):
        assert equals(ExactNumber(3), ExactNumber("3"))
        assert equals(ExactNumber("-7/2"), ExactNumber(Fraction(-7, 2)))
        assert ExactNumber("3/6").as_fraction() == Fraction(1, 2)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ExactNumber(1.5)
        with pytest.raises(TypeError):
            ExactNumber(2) + 0.25

    def test_bools_rejected(self):
        with pytest.raises(TypeError):
            ExactNumber(True)

    def test_rational_constructor_rejects_irrational(self):
        with pytest.raises(ValueError):
            rational(sqrt(2))


class TestComparisons:
    def test_rational_fast_path(self):
        assert compare(ExactNumber("1/3"), ExactNumber("2/6")) == EQ
        assert compare(ExactNumber("1/3"), ExactNumber("1/2")) == LT
        assert ExactNumber(5) > 4
        assert ExactNumber("-1/2") < 0

    def test_sqrt_fifty_vs_seven(self):
        assert compare(sqrt(50), ExactNumber(7)) == GT

    def test_nested_radical_identity(self):
        # sqrt2 + sqrt3 = sqrt(5 + 2*sqrt6)
        lhs = sqrt(2) + sqrt(3)
        rhs = sqrt(ExactNumber(5) + ExactNumber(2) * sqrt(6))
        assert sign(lhs - rhs) == 0
        assert equals(lhs, rhs)

    def test_sum_of_roots(self):
        assert compare(sqrt(2) + sqrt(8), sqrt(18)) == EQ

    def test_close_but_unequal(self):
        # 99/70 is a convergent of sqrt2; the gap is ~7e-5.
        assert compare(sqrt(2), ExactNumber("99/70")) == LT
        assert compare(sqrt(2), ExactNumber("140/99")) == GT

    def test_equality_with_plain_numbers(self):
        assert ExactNumber("4/2") == 2
        assert ExactNumber("4/2") == Fraction(2)
        assert not (sqrt(2) == 1)
        assert sqrt(4) == 2


class TestSqrt:
    def test_perfect_square_collapses(self):
        x = sqrt(ExactNumber(1) - ExactNumber("9/25"))
        assert x.is_rational
        assert x.as_fraction() == Fraction(4, 5)

    def test_rational_square_root_detected(self):
        assert equals(ExactNumber("4/5"), sqrt(ExactNumber("16/25")))

    def test_sqrt_zero(self):
        assert sign(sqrt(ExactNumber(0))) == 0
        assert sqrt(ExactNumber(0)).is_rational

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            sqrt(-1)
        with pytest.raises(NegativeRadicand):
            sqrt(sqrt(2) - sqrt(8))

    def test_sqrt_of_zero_difference(self):
        # Collapses through the sign engine, not through luck.
        x = sqrt(2) + sqrt(3) - sqrt(ExactNumber(5) + ExactNumber(2) * sqrt(6))
        assert sign(sqrt(x * x)) == 0

    @given(nonneg_rationals, nonneg_rationals)
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, a, b):
        assert equals(sqrt(a) * sqrt(b), sqrt(Fraction(a) * Fraction(b)))

    @given(nonneg_rationals)
    @settings(max_examples=60, deadline=None)
    def test_square_then_root(self, a):
        x = ExactNumber(a)
        assert equals(sqrt(x * x), abs_value(x))


def abs_value(x: ExactNumber) -> ExactNumber:
    return x if sign(x) >= 0 else -x


class TestFieldLaws:
    @given(rationals, rationals, rationals)
    @settings(max_examples=100, deadline=None)
    def test_ring_laws_rational(self, a, b, c):
        x, y, z = ExactNumber(a), ExactNumber(b), ExactNumber(c)
        assert equals(x + y, y + x)
        assert equals((x + y) + z, x + (y + z))
        assert equals(x * (y + z), x * y + x * z)

    @given(nonneg_rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_laws_with_one_radical(self, a, b):
        x = sqrt(a)
        y = ExactNumber(b)
        assert equals(x + y, y + x)
        assert equals((x + y) - y, x)
        assert equals(x * y, y * x)

    def test_division_inverse(self):
        x = sqrt(3) + 1
        assert equals(x / x, ExactNumber(1))
        assert equals((sqrt(7) / sqrt(7)), ExactNumber(1))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ExactNumber(1) / 0
        with pytest.raises(DivisionByZero):
            sqrt(2) / (sqrt(8) - ExactNumber(2) * sqrt(2))

    def test_subtraction_of_identical_node(self):
        x = sqrt(2)
        assert (x - x).is_rational
        assert sign(x - x) == 0


class TestSignAndHash:
    def test_sign_values(self):
        assert sign(ExactNumber(0)) == 0
        assert sign(ExactNumber("-3/7")) == -1
        assert sign(sqrt(2) - 1) == 1
        assert sign(ExactNumber(1) - sqrt(2)) == -1

    def test_bool(self):
        assert not ExactNumber(0)
        assert ExactNumber("1/9")
        assert sqrt(2) - 1

    def test_rational_hash_matches_value(self):
        a = ExactNumber("3/2")
        b = ExactNumber(6) / 4
        assert hash(a) == hash(b)

    def test_irrational_unhashable(self):
        with pytest.raises(TypeError):
            hash(sqrt(2))

    def test_float_conversion(self):
        assert math.isclose(float(sqrt(2)), math.sqrt(2), rel_tol=1e-12)
        assert float(ExactNumber("1/4")) == 0.25


class TestApproximate:
    def test_rational_returned_verbatim(self):
        assert approximate(ExactNumber("22/7"), Fraction(1, 10)) == Fraction(22, 7)

    def test_irrational_within_bound(self):
        for k in (3, 9, 20, 45):
            eps = Fraction(1, 10**k)
            mid = approximate(sqrt(2), eps)
            assert isinstance(mid, Fraction)
            # |mid - sqrt2| <= eps, checked exactly on squares.
            assert (mid - eps) ** 2 <= 2
            assert (mid + eps) ** 2 >= 2

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            approximate(sqrt(2), Fraction(0))
        with pytest.raises(ValueError):
            approximate(sqrt(2), Fraction(-1, 4))

    @given(st.fractions(min_value=Fraction(1, 10**9), max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_bounds(self, eps):
        mid = approximate(sqrt(3) + sqrt(5), eps)
        lo, hi = mid - eps, mid + eps
        x = sqrt(3) + sqrt(5)
        assert sign(x - lo) >= 0
        assert sign(ExactNumber(hi) - x) >= 0


class TestDecimalString:
    def test_sqrt_two(self):
        assert decimal_string(sqrt(2)) == "1.414213562373"

    def test_rationals(self):
        assert decimal_string(ExactNumber("1/3")) == "0.333333333333"
        assert decimal_string(ExactNumber("2/3")) == "0.666666666667"
        assert decimal_string(ExactNumber("-1/8")) == "-0.125000000000"
        assert decimal_string(ExactNumber(4)) == "4.000000000000"

    def test_half_rounds_up(self):
        assert decimal_string(ExactNumber("1/2"), places=0) == "1"
        assert decimal_string(ExactNumber("5/4"), places=1) == "1.3"
        assert decimal_string(ExactNumber("-1/2"), places=0) == "-1"

    def test_other_places(self):
        assert decimal_string(sqrt(2), places=3) == "1.414"
        assert decimal_string(sqrt(3), places=1) == "1.7"


class TestScientificString:
    def test_rationals(self):
        assert scientific_string(Fraction(1, 3)) == "3.33333333333e-1"
        assert scientific_string(Fraction(-7)) == "-7.00000000000e+0"
        assert scientific_string(Fraction(999999999999500), digits=12) == "1.00000000000e+15"
        assert scientific_string(Fraction(123456, 1000), digits=3) == "1.23e+2"

    def test_past_the_int_string_limit(self):
        assert scientific_string(Fraction(10**8000 + 5 * 10**7988)) == "1.00000000001e+8000"
        assert scientific_string(Fraction(1, 3 * 10**5000)) == "3.33333333333e-5001"


class TestRepr:
    def test_rational_repr(self):
        assert "3/2" in repr(ExactNumber("3/2"))

    def test_irrational_repr_mentions_op(self):
        assert "sqrt" in repr(sqrt(2))
