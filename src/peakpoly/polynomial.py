"""Dense univariate polynomial arithmetic over the integers.

A polynomial is a tuple of `int` coefficients, index i holding the x^i
coefficient.  Every family in this package counts permutations, so Z[x] is
the only coefficient ring: the constructor takes anything with `__index__`
(an `int` or a `bool`) and raises TypeError on anything else, a `Fraction`
or a `float` included.  Division stays in Z[x] too: `divmod` and
`exact_div` raise NonzeroRemainder when a quotient coefficient would not be
an integer, which never happens for a divisor with leading coefficient +-1
and, for a primitive divisor, only when it does not divide (Gauss's lemma).
A greatest common divisor is primitive with a positive leading coefficient.
Rationals appear only as values.  There is one evaluation, `Poly.__call__`,
at an int or a Fraction and nothing else: at p/q it is homogeneous integer
Horner, q^d f(p/q), reduced once at the end, and at an integer point it is
the int value, whose sign is what the Sturm tests read.  Composition is that
Horner over Z[x] (subst_cleared with denominator 1).  A Poly product and
each entry of a Hurwitz product share one schoolbook loop over ints.

Trailing zeros are stripped on construction, so equality is structural; the
zero polynomial stores no coefficients at all and its degree is the sentinel
-inf (never -1, which would compare like a valid degree).  Every operation is
exact and returns a new value; nothing here mutates, so polynomials can be
shared freely between concurrent tasks.  A Poly is an immutable value on the
package's one value base: equal, hashed and pickled as its coefficients.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from . import _Value, _at_least

NEG_INF = float("-inf")


class NonzeroRemainder(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class DivisionByZeroPoly(ZeroDivisionError):
    """Division by the zero polynomial."""


class Poly(_Value):
    """A univariate polynomial with int coefficients, constant term first.

    >>> Poly([1, 4, 5, 2])
    Poly('1 + 4x + 5x^2 + 2x^3')
    >>> Poly([1, 1]) ** 2
    Poly('1 + 2x + x^2')
    >>> Poly([]).degree
    -inf
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(operator.index, coeffs))
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> Poly:
        return cls((c,))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> Poly:
        """coeff * x**power."""
        _at_least("power", power, 0)
        return cls((0,) * power + (coeff,))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, i: int) -> int:
        """The x^i coefficient (zero beyond the stored length)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Poly | int) -> Poly:
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly | int) -> Poly:
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> Poly:
        return _coerce(other) + (-self)

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        return _sum_of_products(((1, self.coeffs, other.coeffs),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        _at_least("n", n, 0)
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> Poly:
        """Formal derivative; drops the degree of a nonconstant input by one.

        >>> Poly([1, 4, 5, 2]).derivative()
        Poly('4 + 10x + 6x^2')
        """
        return Poly(tuple(c * i for i, c in enumerate(self.coeffs) if i >= 1))

    def __call__(self, x: Fraction | int) -> Fraction | int:
        """Evaluate at an exact rational point: the package's one evaluation.

        x is a Fraction or, like a coefficient, anything with `__index__`;
        a float, a Decimal or a string raises TypeError.  At x = p/q (q > 0)
        homogeneous Horner computes q^d f(p/q) in integers.  At an integer
        point that is the value, an int; otherwise it is divided by q^d and
        reduced once.
        """
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
        else:
            num, den = operator.index(x), 1
        acc = 0
        den_pow = 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * den_pow
            den_pow *= den
        if den == 1 or not self.coeffs:
            return acc
        return Fraction(acc, den ** (len(self.coeffs) - 1))

    def compose(self, other: Poly) -> Poly:
        """The substitution self(other), as an exact polynomial: subst_cleared
        with denominator 1."""
        return self.subst_cleared(other, Poly.one())

    # -- division ----------------------------------------------------------

    def __divmod__(self, d: Poly) -> tuple[Poly, Poly]:
        """Quotient and remainder in Z[x] with deg(remainder) < deg(d).

        Raises NonzeroRemainder when lc(d) fails to divide a leading term on
        the way: then d does not divide self in Z[x].
        """
        if d.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        rem = list(self.coeffs)
        d_coeffs = d.coeffs
        dd = len(d_coeffs) - 1
        lead = d_coeffs[-1]
        if len(rem) <= dd:
            return Poly.zero(), self
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            f, r = divmod(c, lead)
            if r:
                raise NonzeroRemainder(f"{self!r} is not divisible by {d!r}")
            quot[i - dd] = f
            for j, dc in enumerate(d_coeffs):
                rem[i - dd + j] -= f * dc
        return Poly(quot), Poly(rem)

    def exact_div(self, d: Poly) -> Poly:
        """Divide exactly in Z[x], raising NonzeroRemainder if d does not
        divide self there.  For a primitive d that is the same as not
        dividing over the rationals (Gauss's lemma).

        >>> Poly([1, 2, 1]).exact_div(Poly([1, 1]))
        Poly('1 + x')
        """
        q, r = divmod(self, d)
        if not r.is_zero():
            raise NonzeroRemainder(f"{self!r} is not divisible by {d!r}")
        return q

    # -- denominator-cleared substitution ------------------------------------

    def subst_cleared(self, num: Poly, den: Poly) -> Poly:
        """den**d * self(num/den) with d = deg self, as an exact polynomial.

        This is sum_k c_k * num**k * den**(d - k), computed by the homogeneous
        Horner of evaluation at a rational point.  The zero polynomial gives
        zero and a constant gives itself.
        """
        acc = Poly.zero()
        den_pow = Poly.one()
        for c in reversed(self.coeffs):
            acc = acc * num + den_pow * c
            den_pow = den_pow * den
        return acc

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly('0')"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "" if c > 0 else "-"
            mag = abs(c)
            var = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            body = str(mag) if (i == 0 or mag != 1) else ""
            parts.append(sign + body + var)
        return f"Poly('{''.join(parts)}')"


def _coerce(v: Poly | int) -> Poly:
    return v if isinstance(v, Poly) else Poly.constant(v)


def primitive_part(p: Poly) -> Poly:
    """p divided by the gcd of its coefficients, so they become coprime.

    The gcd is positive, so the sign of every value p(x) is preserved; this
    is what keeps Sturm sign variations intact while taming coefficient
    growth.
    """
    if p.is_zero():
        return p
    g = gcd(*p.coeffs)
    return Poly([c // g for c in p.coeffs])


def pseudo_remainder(a: Poly, b: Poly) -> Poly:
    """A positive integer multiple of the remainder of a by b, in Z[x].

    Each elimination step scales the running remainder by |lc(b)|/g instead
    of dividing by lc(b) (g the gcd with the coefficient being cancelled), so
    no fraction is formed and the result has the sign of the true remainder
    at every point -- the property Sturm chains need.
    """
    if b.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    rem = list(a.coeffs)
    b_coeffs = b.coeffs
    db = len(b_coeffs) - 1
    lead = b_coeffs[-1]
    abs_lead = abs(lead)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        if not c:
            continue
        g = gcd(c, abs_lead)
        scale = abs_lead // g
        f = c // g if lead > 0 else -(c // g)
        if scale != 1:
            rem = [v * scale for v in rem]
        base = i - db
        rem[base:] = [v - f * w for v, w in zip(rem[base:], b_coeffs)]
    return Poly(rem)


def remainder_sequence(a: Poly, b: Poly) -> tuple[Poly, ...]:
    """The signed remainder sequence a, b, -rem(a, b), ... up to its last
    nonzero member, every member reduced to its primitive part.

    A primitive pseudo-remainder sequence over Z (Collins 1967): each member
    is a positive multiple of the true signed remainder, so no division by a
    leading coefficient is made and every sign the sequence takes at a point
    is the true one.  The last member is gcd(a, b) up to sign.
    """
    seq = [primitive_part(a)]
    b = primitive_part(b)
    while not b.is_zero():
        seq.append(b)
        b = primitive_part(-pseudo_remainder(seq[-2], b))
    return tuple(seq)


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor of p and q in Z[x]: primitive, with a positive
    leading coefficient (gcd(p, 0) is the primitive part of +-p)."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    g = remainder_sequence(p, q)[-1]
    return -g if g.leading() < 0 else g


def _sum_of_products(terms: Iterable[tuple[int, Sequence[int], Sequence[int]]]) -> Poly:
    """sum c a b over the (c, a, b) of terms, a and b coefficient tuples: the
    one schoolbook product loop, on a single list of ints, and one Poly."""
    out: list[int] = []
    for c, a, b in terms:
        if a and b:
            out.extend([0] * (len(a) + len(b) - 1 - len(out)))
            for i, u in enumerate(a):
                if u:
                    u *= c
                    for j, v in enumerate(b, i):
                        out[j] += u * v
    return Poly(out)


def _hurwitz_entry(m: int, a: Sequence[Poly], b: Sequence[Poly], ks: Iterable[int]) -> Poly:
    """sum_(k in ks) C(m, k) a_k b_(m-k): entry m of a Hurwitz product, or the
    part of it over ks.  The package's one binomial convolution."""
    return _sum_of_products((math.comb(m, k), a[k].coeffs, b[m - k].coeffs) for k in ks)


def hurwitz_mul(a: Sequence[Poly], b: Sequence[Poly], order: int) -> list[Poly]:
    """Product of two Hurwitz series of Polys, truncated after entry `order`.

    Entry m of a Hurwitz series holds m! times its z^m coefficient, so the
    product is the binomial convolution sum_k C(m, k) a_k b_(m-k): it stays
    in Z[x] and no 1/m! ever appears.  Entries past the end of a or b count
    as zero.
    """
    _at_least("order", order, 0)
    return [_hurwitz_entry(m, a, b, range(max(0, m - len(b) + 1), min(m + 1, len(a)))) for m in range(order + 1)]
