"""Exact real algebraic arithmetic with decidable sign and order.

Values are immutable expression DAGs: arbitrary-precision rational
leaves combined by +, -, *, / and square roots.  Rational
subexpressions collapse eagerly, so trees only persist where a square
root is genuinely irrational.  The sign of an irrational expression is
decided by refining a dyadic interval enclosure until it either
excludes zero or becomes narrower than a separation bound below which a
nonzero value of that shape cannot hide; in the latter case the value
is exactly zero.  There is no epsilon and no float anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "ExactNumber",
    "DivisionByZero",
    "NegativeRadicand",
    "LT",
    "EQ",
    "GT",
    "rational",
    "add",
    "sub",
    "mul",
    "div",
    "sqrt",
    "sign",
    "compare",
    "equals",
    "approximate",
    "decimal_string",
    "rational_backend",
    "kernel_backend",
]

LT = -1
EQ = 0
GT = 1

try:
    from gmpy2 import mpq as _rat

    _RAT_BACKEND = "gmpy2"
except ImportError:
    _rat = Fraction
    _RAT_BACKEND = "fraction"

# Opcodes of the flattened expression programs evaluated by eval_interval.
OP_LEAF = 0
OP_ADD = 1
OP_SUB = 2
OP_MUL = 3
OP_DIV = 4
OP_SQRT = 5


def rational_backend() -> str:
    """Name of the rational arithmetic backend ('gmpy2' or 'fraction')."""
    return _RAT_BACKEND


def kernel_backend() -> str:
    """Name of the interval kernel; there is one, written in Python."""
    return "python"


class DivisionByZero(ArithmeticError):
    """Divisor is exactly zero."""


class NegativeRadicand(ArithmeticError):
    """Square root of a strictly negative value."""


_OP_NAMES = {
    OP_ADD: "add",
    OP_SUB: "sub",
    OP_MUL: "mul",
    OP_DIV: "div",
    OP_SQRT: "sqrt",
}


class ExactNumber:
    """An exact real algebraic value.

    Construct from ints, Fractions or 'p/q' strings, or by arithmetic on
    existing values.  All predicates (sign, comparisons, equality) are
    exact.  Irrational values are unhashable on purpose: hashing would
    need a canonical form, while equality only needs a sign.
    """

    __slots__ = ("_op", "_args", "_rat", "_sign", "_sep", "_flat")

    def __new__(cls, value=0):
        return _coerce(value)

    # --- arithmetic operators -------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return sub(_ZERO, self)

    def __pos__(self):
        return self

    # --- exact predicates -----------------------------------------------

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return compare(self, other) == EQ

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    def __lt__(self, other):
        return compare(self, _coerce(other)) == LT

    def __le__(self, other):
        return compare(self, _coerce(other)) != GT

    def __gt__(self, other):
        return compare(self, _coerce(other)) == GT

    def __ge__(self, other):
        return compare(self, _coerce(other)) != LT

    def __hash__(self):
        if self._rat is None:
            raise TypeError("irrational ExactNumber is unhashable; compare exactly instead")
        return hash(self._rat)

    def __bool__(self):
        return sign(self) != 0

    # --- inspection -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._rat is not None

    def as_fraction(self) -> Fraction:
        """Exact Fraction value; raises ValueError on irrational values."""
        if self._rat is None:
            raise ValueError("value is irrational")
        return Fraction(int(self._rat.numerator), int(self._rat.denominator))

    def __float__(self):
        return float(approximate(self, Fraction(1, 1 << 60)))

    def __repr__(self):
        if self._rat is not None:
            return f"ExactNumber({self._rat})"
        return f"ExactNumber(<{_OP_NAMES[self._op]}> ~{float(self):.6g})"


def _leaf(q) -> ExactNumber:
    x = object.__new__(ExactNumber)
    x._op = OP_LEAF
    x._args = ()
    x._rat = q
    n = q.numerator
    x._sign = -1 if n < 0 else (0 if n == 0 else 1)
    x._sep = None
    x._flat = None
    return x


def _node(op, args, sgn) -> ExactNumber:
    x = object.__new__(ExactNumber)
    x._op = op
    x._args = args
    x._rat = None
    x._sign = sgn
    x._sep = None
    x._flat = None
    return x


_ZERO = _leaf(_rat(0))
_ONE = _leaf(_rat(1))


def _coerce(value) -> ExactNumber:
    if isinstance(value, ExactNumber):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a number here")
    if isinstance(value, int):
        return _leaf(_rat(value))
    if isinstance(value, (str, Fraction)):
        return _leaf(_rat(value))
    if type(value).__name__ == "mpq":
        return _leaf(_rat(value))
    if isinstance(value, float):
        raise TypeError("floats are inexact; pass an int, Fraction or 'p/q' string")
    raise TypeError(f"cannot make an ExactNumber from {type(value).__name__}")


def rational(value) -> ExactNumber:
    """Exact rational value from an int, Fraction or 'p/q' string."""
    x = _coerce(value)
    if x._rat is None:
        raise ValueError("value is not rational")
    return x


def add(x, y) -> ExactNumber:
    x = _coerce(x)
    y = _coerce(y)
    if x._rat is not None and y._rat is not None:
        return _leaf(x._rat + y._rat)
    if x._rat is not None and x._rat == 0:
        return y
    if y._rat is not None and y._rat == 0:
        return x
    sx, sy = x._sign, y._sign
    if sx is not None and sy is not None:
        if sx == 0:
            sgn = sy
        elif sy == 0 or sx == sy:
            sgn = sx
        else:
            sgn = None
    else:
        sgn = None
    return _node(OP_ADD, (x, y), sgn)


def sub(x, y) -> ExactNumber:
    x = _coerce(x)
    y = _coerce(y)
    if x is y:
        return _ZERO
    if x._rat is not None and y._rat is not None:
        return _leaf(x._rat - y._rat)
    if y._rat is not None and y._rat == 0:
        return x
    sx, sy = x._sign, y._sign
    if sx is not None and sy is not None:
        if sy == 0:
            sgn = sx
        elif sx == 0 or sx == -sy:
            sgn = -sy
        else:
            sgn = None
    else:
        sgn = None
    return _node(OP_SUB, (x, y), sgn)


def mul(x, y) -> ExactNumber:
    x = _coerce(x)
    y = _coerce(y)
    if x._rat is not None and y._rat is not None:
        return _leaf(x._rat * y._rat)
    if x._rat is not None:
        if x._rat == 0:
            return _ZERO
        if x._rat == 1:
            return y
    if y._rat is not None:
        if y._rat == 0:
            return _ZERO
        if y._rat == 1:
            return x
    sx, sy = x._sign, y._sign
    sgn = sx * sy if sx is not None and sy is not None else None
    return _node(OP_MUL, (x, y), sgn)


def div(x, y) -> ExactNumber:
    x = _coerce(x)
    y = _coerce(y)
    if sign(y) == 0:
        raise DivisionByZero("exact division by zero")
    if x._rat is not None and y._rat is not None:
        return _leaf(x._rat / y._rat)
    if x._rat is not None and x._rat == 0:
        return _ZERO
    if y._rat is not None and y._rat == 1:
        return x
    sx = x._sign
    sgn = sx * y._sign if sx is not None else None
    return _node(OP_DIV, (x, y), sgn)


def sqrt(x) -> ExactNumber:
    x = _coerce(x)
    s = sign(x)
    if s < 0:
        raise NegativeRadicand("square root of a negative value")
    if s == 0:
        return _ZERO
    if x._rat is not None:
        p = int(x._rat.numerator)
        q = int(x._rat.denominator)
        rp = isqrt(p)
        rq = isqrt(q)
        if rp * rp == p and rq * rq == q:
            return _leaf(_rat(rp) / _rat(rq))
    return _node(OP_SQRT, (x,), 1)


# --- dyadic interval kernel ------------------------------------------------
#
# A bound is an integer pair (m, e) standing for m * 2**e.  Every rounding
# is directed outward, so the interval computed for a program always
# encloses the exact value of the expression it encodes.  A program is a
# flattened postorder walk of an expression DAG held in parallel lists:
# opcode, first argument, second argument.  For leaves the first argument
# indexes the rational tables leaf_num / leaf_den; for interior nodes both
# arguments are register indices (instruction positions evaluated earlier).


def round_down(m, e, prec):
    """Round m*2**e toward -inf, keeping at most prec mantissa bits."""
    k = m.bit_length() - prec
    if k <= 0:
        return m, e
    return m >> k, e + k


def round_up(m, e, prec):
    """Round m*2**e toward +inf, keeping at most prec mantissa bits."""
    k = m.bit_length() - prec
    if k <= 0:
        return m, e
    return -((-m) >> k), e + k


def _dyadic_add(m1, e1, m2, e2, prec, up):
    if m1 == 0:
        m, e = m2, e2
    elif m2 == 0:
        m, e = m1, e1
    else:
        if e1 < e2:
            m1, e1, m2, e2 = m2, e2, m1, e1
        gap = e1 - e2
        if gap > prec + m2.bit_length() + 8:
            # The small term is far below one ulp of the rounded large
            # term; absorb it into a one-ulp outward nudge.
            if up:
                m, e = round_up(m1, e1, prec)
                return m + 1, e
            m, e = round_down(m1, e1, prec)
            return m - 1, e
        m = (m1 << gap) + m2
        e = e2
    if up:
        return round_up(m, e, prec)
    return round_down(m, e, prec)


def _dyadic_div(m1, e1, m2, e2, prec, up):
    # m2 != 0.  Directed rounding of (m1*2**e1) / (m2*2**e2).
    neg = (m1 < 0) != (m2 < 0)
    a = -m1 if m1 < 0 else m1
    b = -m2 if m2 < 0 else m2
    shift = prec + 4 + max(0, b.bit_length() - a.bit_length())
    scaled = a << shift
    q = scaled // b
    # Round the magnitude away from zero exactly when the directed
    # rounding asks for it (up for positive values, down for negative).
    if up != neg and q * b != scaled:
        q += 1
    if neg:
        q = -q
    if up:
        return round_up(q, e1 - e2 - shift, prec)
    return round_down(q, e1 - e2 - shift, prec)


def _dyadic_sqrt(m, e, prec, up):
    # m >= 0.
    if m == 0:
        return 0, 0
    j = 2 * (prec + 2) - m.bit_length()
    if j < 0:
        j = 0
    if (e - j) & 1:
        j += 1
    scaled = m << j
    r = isqrt(scaled)
    if up and r * r != scaled:
        r += 1
    if up:
        return round_up(r, (e - j) >> 1, prec)
    return round_down(r, (e - j) >> 1, prec)


def _dyadic_lt(m1, e1, m2, e2):
    # Exact comparison m1*2**e1 < m2*2**e2.
    if e1 >= e2:
        return (m1 << (e1 - e2)) < m2
    return m1 < (m2 << (e2 - e1))


def eval_interval(ops, arg1, arg2, leaf_num, leaf_den, prec):
    """Evaluate a program, returning (lo_m, lo_e, hi_m, hi_e) or None.

    None means a divisor interval still straddled zero at this
    precision; the caller should retry with a higher one.
    """
    n = len(ops)
    lom = [0] * n
    loe = [0] * n
    him = [0] * n
    hie = [0] * n
    for i in range(n):
        op = ops[i]
        if op == OP_LEAF:
            num = leaf_num[arg1[i]]
            den = leaf_den[arg1[i]]
            if den == 1:
                a, b = round_down(num, 0, prec)
                c, d = round_up(num, 0, prec)
            else:
                a, b = _dyadic_div(num, 0, den, 0, prec, False)
                c, d = _dyadic_div(num, 0, den, 0, prec, True)
        elif op == OP_ADD:
            x = arg1[i]
            y = arg2[i]
            a, b = _dyadic_add(lom[x], loe[x], lom[y], loe[y], prec, False)
            c, d = _dyadic_add(him[x], hie[x], him[y], hie[y], prec, True)
        elif op == OP_SUB:
            x = arg1[i]
            y = arg2[i]
            a, b = _dyadic_add(lom[x], loe[x], -him[y], hie[y], prec, False)
            c, d = _dyadic_add(him[x], hie[x], -lom[y], loe[y], prec, True)
        elif op == OP_MUL:
            x = arg1[i]
            y = arg2[i]
            # Products of dyadics are exact; pick extremes, then round.
            mn_m, mn_e = lom[x] * lom[y], loe[x] + loe[y]
            mx_m, mx_e = mn_m, mn_e
            for pm, pe in (
                (lom[x] * him[y], loe[x] + hie[y]),
                (him[x] * lom[y], hie[x] + loe[y]),
                (him[x] * him[y], hie[x] + hie[y]),
            ):
                if _dyadic_lt(pm, pe, mn_m, mn_e):
                    mn_m, mn_e = pm, pe
                if _dyadic_lt(mx_m, mx_e, pm, pe):
                    mx_m, mx_e = pm, pe
            a, b = round_down(mn_m, mn_e, prec)
            c, d = round_up(mx_m, mx_e, prec)
        elif op == OP_DIV:
            x = arg1[i]
            y = arg2[i]
            lxm, lxe, hxm, hxe = lom[x], loe[x], him[x], hie[x]
            lym, lye, hym, hye = lom[y], loe[y], him[y], hie[y]
            if hym < 0:
                # Negative divisor: x/y = (-x)/(-y).
                lxm, lxe, hxm, hxe = -hxm, hxe, -lxm, lxe
                lym, lye, hym, hye = -hym, hye, -lym, lye
            if lym <= 0:
                return None
            if lxm >= 0:
                a, b = _dyadic_div(lxm, lxe, hym, hye, prec, False)
            else:
                a, b = _dyadic_div(lxm, lxe, lym, lye, prec, False)
            if hxm >= 0:
                c, d = _dyadic_div(hxm, hxe, lym, lye, prec, True)
            else:
                c, d = _dyadic_div(hxm, hxe, hym, hye, prec, True)
        else:  # OP_SQRT
            x = arg1[i]
            lm, le = lom[x], loe[x]
            if lm < 0:
                # The argument is certified nonnegative; the spill below
                # zero is interval slack.
                lm, le = 0, 0
            if him[x] < 0:
                return None
            a, b = _dyadic_sqrt(lm, le, prec, False)
            c, d = _dyadic_sqrt(him[x], hie[x], prec, True)
        lom[i] = a
        loe[i] = b
        him[i] = c
        hie[i] = d
    i = n - 1
    return lom[i], loe[i], him[i], hie[i]


# --- sign decision ---------------------------------------------------------


def _flatten(x: ExactNumber):
    if x._flat is not None:
        return x._flat
    ops: list[int] = []
    a1: list[int] = []
    a2: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    index: dict[int, int] = {}
    stack = [x]
    while stack:
        node = stack[-1]
        if id(node) in index:
            stack.pop()
            continue
        if node._op == OP_LEAF:
            index[id(node)] = len(ops)
            ops.append(OP_LEAF)
            a1.append(len(nums))
            a2.append(0)
            nums.append(int(node._rat.numerator))
            dens.append(int(node._rat.denominator))
            stack.pop()
            continue
        pending = [c for c in node._args if id(c) not in index]
        if pending:
            stack.extend(pending)
            continue
        index[id(node)] = len(ops)
        ops.append(node._op)
        a1.append(index[id(node._args[0])])
        a2.append(index[id(node._args[1])] if len(node._args) > 1 else 0)
        stack.pop()
    x._flat = (ops, a1, a2, nums, dens)
    return x._flat


def _sep_budget_bits(x: ExactNumber) -> int:
    """Bits b such that a nonzero value of this shape exceeds 2**-b.

    Per node, (u, l) bound the conjugates of an algebraic-integer
    numerator and denominator representation; a nonzero value is then at
    least 1 / (l * u**(D-1)) where D = 2**(number of distinct sqrt
    nodes).
    """
    if x._sep is not None:
        return x._sep
    ops, a1, a2, nums, dens = _flatten(x)
    us: list[int] = [0] * len(ops)
    ls: list[int] = [0] * len(ops)
    sqrt_count = 0
    for i, op in enumerate(ops):
        if op == OP_LEAF:
            n = nums[a1[i]]
            u, l = (-n if n < 0 else n), dens[a1[i]]
        elif op in (OP_ADD, OP_SUB):
            u = us[a1[i]] * ls[a2[i]] + us[a2[i]] * ls[a1[i]]
            l = ls[a1[i]] * ls[a2[i]]
        elif op == OP_MUL:
            u = us[a1[i]] * us[a2[i]]
            l = ls[a1[i]] * ls[a2[i]]
        elif op == OP_DIV:
            u = us[a1[i]] * ls[a2[i]]
            l = ls[a1[i]] * us[a2[i]]
        else:  # OP_SQRT
            sqrt_count += 1
            u0, l0 = us[a1[i]], ls[a1[i]]
            prod = u0 * l0
            r = isqrt(prod)
            if r * r != prod:
                r += 1
            if u0 >= l0:
                u, l = r, l0
            else:
                u, l = u0, r
        us[i] = u
        ls[i] = l
    degree = 1 << sqrt_count
    budget = ls[-1].bit_length() + (degree - 1) * us[-1].bit_length() + 2
    x._sep = budget
    return budget


def _width_at_most(lo_m, lo_e, hi_m, hi_e, texp) -> bool:
    # Exact check: (hi - lo) <= 2**texp.
    e = lo_e if lo_e < hi_e else hi_e
    w = (hi_m << (hi_e - e)) - (lo_m << (lo_e - e))
    if w <= 0:
        return True
    shift = texp - e
    if shift < 0:
        return False
    return w <= (1 << shift)


def _refine_sign(x: ExactNumber) -> int:
    ops, a1, a2, nums, dens = _flatten(x)
    budget = _sep_budget_bits(x)
    prec = 64
    cap = 8 * (budget + 64)
    while True:
        res = eval_interval(ops, a1, a2, nums, dens, prec)
        if res is not None:
            lo_m, lo_e, hi_m, hi_e = res
            if lo_m > 0:
                return 1
            if hi_m < 0:
                return -1
            if _width_at_most(lo_m, lo_e, hi_m, hi_e, -(budget + 1)):
                return 0
        if prec > cap:
            raise RuntimeError("interval refinement failed to converge; kernel bug")
        prec *= 2


def sign(x) -> int:
    """Exact sign: -1, 0 or +1."""
    x = _coerce(x)
    if x._sign is not None:
        return x._sign
    s = _refine_sign(x)
    x._sign = s
    return s


def compare(x, y) -> int:
    """Exact order: LT, EQ or GT."""
    x = _coerce(x)
    y = _coerce(y)
    if x._rat is not None and y._rat is not None:
        a, b = x._rat, y._rat
        return LT if a < b else (EQ if a == b else GT)
    return sign(sub(x, y))


def equals(x, y) -> bool:
    return compare(x, y) == EQ


def approximate(x, error_bound) -> Fraction:
    """A Fraction within error_bound of x.

    Rational values are returned verbatim.  Otherwise the enclosing
    interval is refined until its width is at most error_bound and the
    midpoint is returned, so the result always lies inside the final
    interval.
    """
    x = _coerce(x)
    if isinstance(error_bound, ExactNumber):
        error_bound = error_bound.as_fraction()
    err = Fraction(error_bound)
    if err <= 0:
        raise ValueError("error bound must be positive")
    if x._rat is not None:
        return x.as_fraction()
    ops, a1, a2, nums, dens = _flatten(x)
    prec = 64
    while True:
        res = eval_interval(ops, a1, a2, nums, dens, prec)
        if res is not None:
            lo_m, lo_e, hi_m, hi_e = res
            e = lo_e if lo_e < hi_e else hi_e
            lo = lo_m << (lo_e - e)
            hi = hi_m << (hi_e - e)
            # Exact check: (hi - lo) * 2**e <= err.
            w = (hi - lo) * err.denominator
            bound = err.numerator
            if e >= 0:
                w <<= e
            else:
                bound <<= -e
            if w <= bound:
                two_e = Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
                return Fraction(lo + hi, 2) * two_e
        prec *= 2


def decimal_string(x, places: int = 12) -> str:
    """Fixed-point decimal string accurate to 10**-places, half-up.

    Deterministic: for rational x this is exact rounding; otherwise x is
    first approximated to 10**-(places+1).
    """
    x = _coerce(x)
    if x._rat is not None:
        q = x.as_fraction()
    else:
        q = approximate(x, Fraction(1, 10 ** (places + 1)))
    neg = q < 0
    if neg:
        q = -q
    scaled = q * 10**places
    # Half-up rounding (ties away from zero) of the exact magnitude.
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    if places == 0:
        out = str(n)
    else:
        digits = str(n).rjust(places + 1, "0")
        out = f"{digits[:-places]}.{digits[-places:]}"
    return "-" + out if neg and n else out
