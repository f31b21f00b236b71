"""Kernel-level tests: directed dyadic rounding and interval evaluation.

Ground truth comes from Fraction arithmetic (exact) and, for composite
irrational programs, from mpmath at a precision far beyond the widest
interval under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from isofold import exactreal
from isofold.exactreal import (
    OP_ADD,
    OP_DIV,
    OP_LEAF,
    OP_MUL,
    OP_SQRT,
    OP_SUB,
)

# The interval kernel lives in exactreal.  The parameter id keeps the names
# these tests carried while a compiled twin was parametrised alongside it.
KERNEL = pytest.mark.parametrize("kernel", [exactreal], ids=["isofold._refine_py"])


def dyadic(m: int, e: int) -> Fraction:
    return Fraction(m) * Fraction(2) ** e


class Program:
    """Builder for the flat register programs the kernel consumes."""

    def __init__(self):
        self.ops: list[int] = []
        self.arg1: list[int] = []
        self.arg2: list[int] = []
        self.nums: list[int] = []
        self.dens: list[int] = []

    def leaf(self, value) -> int:
        q = Fraction(value)
        self.ops.append(OP_LEAF)
        self.arg1.append(len(self.nums))
        self.arg2.append(0)
        self.nums.append(q.numerator)
        self.dens.append(q.denominator)
        return len(self.ops) - 1

    def op(self, opcode: int, i: int, j: int = 0) -> int:
        self.ops.append(opcode)
        self.arg1.append(i)
        self.arg2.append(j)
        return len(self.ops) - 1

    def run(self, kernel, prec: int):
        return kernel.eval_interval(
            self.ops, self.arg1, self.arg2, self.nums, self.dens, prec
        )


def interval(result) -> tuple[Fraction, Fraction]:
    lo_m, lo_e, hi_m, hi_e = result
    return dyadic(lo_m, lo_e), dyadic(hi_m, hi_e)


@KERNEL
class TestDirectedRounding:
    def test_hand_values(self, kernel):
        assert kernel.round_down(23, 0, 3) == (5, 2)
        assert kernel.round_up(23, 0, 3) == (6, 2)
        assert kernel.round_down(-23, 0, 3) == (-6, 2)
        assert kernel.round_up(-23, 0, 3) == (-5, 2)

    def test_short_mantissa_untouched(self, kernel):
        assert kernel.round_down(23, -4, 8) == (23, -4)
        assert kernel.round_up(23, -4, 8) == (23, -4)
        assert kernel.round_down(0, 7, 4) == (0, 7)

    def test_direction(self, kernel):
        rng = random.Random(7)
        for _ in range(500):
            m = rng.randrange(-(1 << 40), 1 << 40)
            e = rng.randrange(-30, 30)
            prec = rng.randrange(1, 24)
            dm, de = kernel.round_down(m, e, prec)
            um, ue = kernel.round_up(m, e, prec)
            v = dyadic(m, e)
            assert dyadic(dm, de) <= v <= dyadic(um, ue)
            assert abs(dm) <= (1 << prec)
            assert abs(um) <= (1 << prec)


@KERNEL
class TestEvalInterval:
    def test_leaf_exact(self, kernel):
        p = Program()
        p.leaf(Fraction(3, 4))
        lo, hi = interval(p.run(kernel, 16))
        assert lo == hi == Fraction(3, 4)

    def test_leaf_rounded(self, kernel):
        p = Program()
        p.leaf(Fraction(1, 3))
        lo, hi = interval(p.run(kernel, 16))
        assert lo <= Fraction(1, 3) <= hi
        assert lo < hi
        assert hi - lo <= Fraction(1, 1 << 14)

    def test_sqrt_two_enclosure(self, kernel):
        p = Program()
        p.op(OP_SQRT, p.leaf(2))
        for prec in (8, 16, 64, 128):
            lo, hi = interval(p.run(kernel, prec))
            assert lo >= 0
            assert lo * lo <= 2 <= hi * hi
            assert hi - lo <= Fraction(1, 1 << (prec - 4))

    def test_difference_of_square_roots(self, kernel):
        # (1 + sqrt 2)(1 - sqrt 2) = -1.
        p = Program()
        one = p.leaf(1)
        r = p.op(OP_SQRT, p.leaf(2))
        prod = p.op(OP_MUL, p.op(OP_ADD, one, r), p.op(OP_SUB, one, r))
        assert prod == len(p.ops) - 1
        lo, hi = interval(p.run(kernel, 64))
        assert lo <= -1 <= hi
        assert hi - lo <= Fraction(1, 1 << 50)

    def test_product_of_roots(self, kernel):
        # sqrt 2 * sqrt 8 = 4.
        p = Program()
        p.op(OP_MUL, p.op(OP_SQRT, p.leaf(2)), p.op(OP_SQRT, p.leaf(8)))
        lo, hi = interval(p.run(kernel, 96))
        assert lo <= 4 <= hi
        assert hi - lo <= Fraction(1, 1 << 80)

    def test_division_signs(self, kernel):
        for x, y in [(1, 3), (1, -3), (-2, 3), (-2, -3), (7, 5)]:
            p = Program()
            p.op(OP_DIV, p.leaf(x), p.leaf(y))
            lo, hi = interval(p.run(kernel, 40))
            want = Fraction(x, y)
            assert lo <= want <= hi
            assert hi - lo <= Fraction(1, 1 << 30)

    def test_division_by_zero_interval(self, kernel):
        p = Program()
        p.op(OP_DIV, p.leaf(1), p.leaf(0))
        assert p.run(kernel, 64) is None

    def test_division_by_straddling_interval(self, kernel):
        # sqrt2 - sqrt2 evaluated positionally straddles zero at any prec.
        p = Program()
        r1 = p.op(OP_SQRT, p.leaf(2))
        r2 = p.op(OP_SQRT, p.leaf(2))
        p.op(OP_DIV, p.leaf(1), p.op(OP_SUB, r1, r2))
        assert p.run(kernel, 64) is None
        assert p.run(kernel, 4096) is None

    def test_sqrt_of_negative(self, kernel):
        p = Program()
        p.op(OP_SQRT, p.leaf(-1))
        assert p.run(kernel, 64) is None

    def test_sqrt_lower_clamp(self, kernel):
        # sqrt(sqrt2 - sqrt2): interval dips below zero, lower end clamps.
        p = Program()
        r1 = p.op(OP_SQRT, p.leaf(2))
        r2 = p.op(OP_SQRT, p.leaf(2))
        p.op(OP_SQRT, p.op(OP_SUB, r1, r2))
        lo, hi = interval(p.run(kernel, 64))
        assert lo == 0
        assert hi >= 0
        assert hi <= Fraction(1, 1 << 20)

    def test_wide_exponent_gap_addition(self, kernel):
        big = 1 << 200
        p = Program()
        p.op(OP_ADD, p.leaf(big), p.leaf(1))
        lo, hi = interval(p.run(kernel, 8))
        assert lo <= big + 1 <= hi
        assert hi - lo <= Fraction(2) ** (200 - 8 + 4)

    def test_rational_only_random_programs(self, kernel):
        rng = random.Random(2024)
        for _ in range(200):
            p = Program()
            truth: list[Fraction] = []
            p.leaf(Fraction(rng.randrange(-50, 51), rng.randrange(1, 30)))
            truth.append(Fraction(p.nums[0], p.dens[0]))
            for _ in range(rng.randrange(1, 12)):
                pick = rng.randrange(4)
                i = rng.randrange(len(truth))
                j = rng.randrange(len(truth))
                if pick == 0:
                    truth.append(truth[i] + truth[j])
                    p.op(OP_ADD, i, j)
                elif pick == 1:
                    truth.append(truth[i] - truth[j])
                    p.op(OP_SUB, i, j)
                elif pick == 2:
                    truth.append(truth[i] * truth[j])
                    p.op(OP_MUL, i, j)
                else:
                    if abs(truth[j]) < Fraction(1, 1000):
                        q = Fraction(rng.randrange(1, 9))
                        truth.append(q)
                        p.leaf(q)
                    else:
                        truth.append(truth[i] / truth[j])
                        p.op(OP_DIV, i, j)
            lo, hi = interval(p.run(kernel, 300))
            assert lo <= truth[-1] <= hi
            assert hi - lo <= Fraction(1, 1 << 64)

    def test_mixed_random_programs_against_mpmath(self, kernel):
        rng = random.Random(99)
        margin = mpmath.mpf(2) ** -400
        with mpmath.workprec(1200):
            for _ in range(120):
                p = Program()
                vals = [mpmath.mpf(2)]
                p.leaf(2)
                for _ in range(rng.randrange(2, 10)):
                    pick = rng.randrange(5)
                    i = rng.randrange(len(vals))
                    j = rng.randrange(len(vals))
                    if pick == 0:
                        vals.append(vals[i] + vals[j])
                        p.op(OP_ADD, i, j)
                    elif pick == 1:
                        vals.append(vals[i] - vals[j])
                        p.op(OP_SUB, i, j)
                    elif pick == 2:
                        vals.append(vals[i] * vals[j])
                        p.op(OP_MUL, i, j)
                    elif pick == 3 and abs(vals[j]) > mpmath.mpf("0.01"):
                        vals.append(vals[i] / vals[j])
                        p.op(OP_DIV, i, j)
                    elif pick == 4 and vals[i] > mpmath.mpf("0.01"):
                        vals.append(mpmath.sqrt(vals[i]))
                        p.op(OP_SQRT, i)
                    else:
                        q = Fraction(rng.randrange(1, 20), rng.randrange(1, 10))
                        vals.append(mpmath.mpf(q.numerator) / q.denominator)
                        p.leaf(q)
                    if abs(vals[-1]) > mpmath.mpf(2) ** 128:
                        vals.pop()
                        if p.ops.pop() == OP_LEAF:
                            p.nums.pop()
                            p.dens.pop()
                        p.arg1.pop()
                        p.arg2.pop()
                out = p.run(kernel, 512)
                if out is None:
                    continue
                lo, hi = interval(out)
                truth = vals[-1]
                assert mpmath.mpf(lo.numerator) / lo.denominator <= truth + margin
                assert truth - margin <= mpmath.mpf(hi.numerator) / hi.denominator
