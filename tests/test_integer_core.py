"""The integer core: int storage, Hurwitz series and independent oracles.

Poly arithmetic is compared with a pure-Fraction reference kept in this file
and, where sympy is installed, with sympy.Poly; real-root counts of G_n are
compared with sympy's count_roots.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakpoly import families as F
from peakpoly import series as S
from peakpoly.polynomial import Poly, gcd_poly, hurwitz_mul
from peakpoly.roots import count_real_roots, isolate_roots, sturm_chain

# ---------------------------------------------------------------------------
# pure-Fraction reference arithmetic on coefficient lists, constant term first
# ---------------------------------------------------------------------------


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return ref_trim(out)


def ref_divmod(a, b):
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        f = rem[i + len(b) - 1] / b[-1]
        quot[i] = f
        for j, v in enumerate(b):
            rem[i + j] -= f * v
    return ref_trim(quot), ref_trim(rem)


def ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def stored_as_contract(p: Poly) -> bool:
    """Integral coefficients are ints, the others Fractions."""
    return all(
        type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction
        for c in p.coeffs
    )


scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=30),
)
coeff_lists = st.lists(scalars, max_size=7)
int_lists = st.lists(st.integers(min_value=-10**9, max_value=10**9), max_size=8)
points = st.fractions(min_value=-20, max_value=20, max_denominator=64)


@settings(max_examples=200)
@given(coeff_lists, coeff_lists, points)
def test_poly_matches_fraction_reference(a, b, x):
    p, q = Poly(a), Poly(b)
    fa, fb = ref_trim(a), ref_trim(b)
    results = [
        (p + q, ref_add(fa, fb)),
        (p - q, ref_add(fa, [-c for c in fb])),
        (p * q, ref_mul(fa, fb)),
        (p.derivative(), ref_trim(i * c for i, c in enumerate(fa) if i)),
    ]
    if fb:
        quot, rem = divmod(p, q)
        want_q, want_r = ref_divmod(fa, fb)
        results += [(quot, want_q), (rem, want_r)]
    for got, want in [(p, fa), (q, fb)] + results:
        assert list(got.coeffs) == want
        assert stored_as_contract(got)
    assert p(x) == ref_eval(fa, x)
    value = ref_eval(fa, x)
    assert p.sign_at(x) == (value > 0) - (value < 0)


@given(int_lists, int_lists, st.integers(min_value=-50, max_value=50))
def test_integral_inputs_stay_in_int(a, b, x):
    p, q = Poly(a), Poly(b)
    outputs = [p + q, p - q, -p, p * q, p * 7, p**2, p.derivative(), p.compose(q)]
    if not q.is_zero():
        outputs.append((p * q).exact_div(q))
    if not p.is_zero():
        outputs.append(p.subst_cleared(q, Poly((1, 1)), int(p.degree)))
    for out in outputs:
        assert all(type(c) is int for c in out.coeffs)
        assert out.is_integral()
    assert type(p(x)) is int
    assert p(x) == ref_eval(ref_trim(a), x)


def test_hurwitz_mul_multiplies_exponentials():
    # exp(az) exp(bz) = exp((a+b)z): in Hurwitz form the entries are powers
    a, b, order = 3, -5, 12
    assert hurwitz_mul([a**m for m in range(order + 1)], [b**m for m in range(order + 1)], order) == [
        (a + b) ** m for m in range(order + 1)
    ]
    c1, c2 = Poly((1, -1)), Poly((0, 2))
    assert S.exp_series(c1, 8) * S.exp_series(c2, 8) == S.exp_series(c1 + c2, 8)


def test_family_series_have_integer_hurwitz_entries():
    order = 12
    for family in S.EGFS:
        den, rhs = S.closed_form_sides(family, order)
        engine = S.engine_series(family, order)
        for series in (den, rhs, engine):
            for entry in series.coeffs:
                assert all(type(c) is int for c in entry.coeffs), family


def test_sturm_chain_members_are_integral():
    for n in range(1, 26):
        for p in sturm_chain(F.reduced_tan_sec_poly(n)).polys:
            assert all(type(c) is int for c in p.coeffs), n


def test_sturm_chain_with_negative_leading_coefficients():
    # -(x+2)(x-1)(x-3): the negated product keeps the same roots
    p = -(Poly((2, 1)) * Poly((-1, 1)) * Poly((-3, 1)))
    intervals = isolate_roots(p)
    assert len(intervals) == 3
    for (a, b), r in zip(intervals, (-2, 1, 3)):
        assert a < r < b
    assert count_real_roots(p, 0, 2) == 1


# ---------------------------------------------------------------------------
# sympy as an independent oracle
# ---------------------------------------------------------------------------


def to_sympy(p: Poly, sympy):
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], x, domain=sympy.QQ)


def from_sympy(p) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def random_polys(rng, rational: bool, count: int):
    def one():
        deg = rng.randint(0, 10)
        if rational:
            return Poly(Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(deg + 1))
        return Poly(rng.randint(-10**6, 10**6) for _ in range(deg + 1))

    return [(one(), one()) for _ in range(count)]


@pytest.mark.parametrize("rational", [False, True])
def test_arithmetic_and_gcd_match_sympy(rational):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4021 + rational)
    pairs = random_polys(rng, rational, 60)
    # pairs with a planted common factor, so gcds are not all trivial
    pairs += [(p * c, q * c) for (p, q), (c, _) in zip(pairs[:30], random_polys(rng, rational, 30))]
    for p, q in pairs:
        if q.is_zero():
            continue
        sp, sq = to_sympy(p, sympy), to_sympy(q, sympy)
        assert p * q == from_sympy(sp * sq)
        quot, rem = divmod(p, q)
        want_q, want_r = sp.div(sq)
        assert (quot, rem) == (from_sympy(want_q), from_sympy(want_r))
        g = gcd_poly(p, q)
        assert g == from_sympy(sp.gcd(sq))  # both monic
        for out in (p * q, quot, rem, g):
            assert stored_as_contract(out)


def test_real_root_counts_of_reduced_family_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 31):
        g = F.reduced_tan_sec_poly(n)
        expected = (n + 1) // 2 - 1
        sg = to_sympy(g, sympy)
        assert sg.count_roots() == expected, n
        assert sg.count_roots(-1, 0) == expected, n
        assert len(isolate_roots(g)) == expected, n
        if g.degree >= 1:
            assert count_real_roots(g, -1, 0) == expected, n
