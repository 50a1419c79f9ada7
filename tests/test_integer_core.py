"""The integer core: int storage, Hurwitz series and independent oracles.

Poly arithmetic is compared with a pure-Fraction reference kept in this file
(at the sizes verify runs, with int-list ones too) and, where sympy is
installed, with sympy.Poly over ZZ; real-root counts of G_n and of seeded
polynomials are compared with sympy's count_roots, the interlacing
certificate with sympy's exact real_roots, and remainder sequences with
sympy's Sturm sequences.  Long division is compared on divisors with
leading coefficient +-1, where it never leaves Z[x], and exact division on
planted products for general divisors.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peakpoly import families as F
from peakpoly import series as S
from peakpoly.polynomial import Poly, _hurwitz_entry, gcd_poly, hurwitz_mul, pseudo_remainder, remainder_sequence
from peakpoly.roots import certify_interlacing, sturm_chain

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


def stored_as_ints(p: Poly) -> bool:
    return all(type(c) is int for c in p.coeffs)


coeff_lists = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=7)
# nonzero divisors with leading coefficient +-1
unit_lead_lists = st.tuples(coeff_lists, st.sampled_from((1, -1))).map(lambda t: t[0] + [t[1]])
int_lists = st.lists(st.integers(min_value=-10**9, max_value=10**9), max_size=8)
points = st.fractions(min_value=-20, max_value=20, max_denominator=64)


@settings(max_examples=200)
@given(coeff_lists, coeff_lists, unit_lead_lists, points)
def test_poly_matches_fraction_reference(a, b, u, x):
    p, q, d = Poly(a), Poly(b), Poly(u)
    fa, fb, fd = ref_trim(a), ref_trim(b), ref_trim(u)
    quot, rem = divmod(p, d)
    want_q, want_r = ref_divmod(fa, fd)
    results = [
        (p + q, ref_add(fa, fb)),
        (p - q, ref_add(fa, [-c for c in fb])),
        (p * q, ref_mul(fa, fb)),
        (p.derivative(), ref_trim(i * c for i, c in enumerate(fa) if i)),
        (quot, want_q),
        (rem, want_r),
    ]
    if fb:
        results.append(((p * q).exact_div(q), ref_divmod(ref_mul(fa, fb), fb)[0]))
    for got, want in [(p, fa), (q, fb)] + results:
        assert list(got.coeffs) == want
        assert stored_as_ints(got)
    assert p(x) == ref_eval(fa, x)


@given(int_lists, int_lists, st.integers(min_value=-50, max_value=50))
def test_integral_inputs_stay_in_int(a, b, x):
    p, q = Poly(a), Poly(b)
    outputs = [p + q, p - q, -p, p * q, p * 7, p**2, p.derivative(), p.compose(q), p.subst_cleared(q, Poly((1, 1)))]
    if not q.is_zero():
        outputs.append((p * q).exact_div(q))
    for out in outputs:
        assert stored_as_ints(out)
    assert type(p(x)) is int
    assert p(x) == ref_eval(ref_trim(a), x)


def test_hurwitz_mul_multiplies_exponentials():
    # exp(az) exp(bz) = exp((a+b)z): in Hurwitz form the entries are powers
    a, b, order = Poly.constant(3), Poly.constant(-5), 12
    assert hurwitz_mul([a**m for m in range(order + 1)], [b**m for m in range(order + 1)], order) == [
        (a + b) ** m for m in range(order + 1)
    ]
    c1, c2 = Poly((1, -1)), Poly((0, 2))
    assert hurwitz_mul([c1**m for m in range(9)], [c2**m for m in range(9)], 8) == [
        (c1 + c2) ** m for m in range(9)
    ]


poly_series = st.lists(coeff_lists.map(Poly), max_size=6)


@settings(max_examples=200, deadline=None)
@given(poly_series, poly_series, st.integers(min_value=0, max_value=8))
def test_hurwitz_mul_is_the_binomial_convolution_of_reference_products(a, b, order):
    # unequal lengths, zero entries and negative coefficients; an entry past
    # the end of either series counts as zero
    product = hurwitz_mul(a, b, order)
    assert len(product) == order + 1
    for m, entry in enumerate(product):
        expected = []
        for k in range(m + 1):
            if k < len(a) and m - k < len(b):
                expected = ref_add(expected, [math.comb(m, k) * c for c in ref_mul(a[k].coeffs, b[m - k].coeffs)])
        assert stored_as_ints(entry) and list(entry.coeffs) == expected, m


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda order: st.tuples(
    st.lists(coeff_lists.map(Poly), min_size=order + 1, max_size=order + 1),
    st.lists(coeff_lists.map(Poly), min_size=order, max_size=order),
    st.sampled_from((1, -1)),
)))
def test_solving_a_product_by_its_unit_led_factor_gives_back_the_other(case):
    q, rest, unit = case
    order = len(q) - 1
    den = S.TruncSeries(order, (Poly.constant(unit), *rest))
    num = S.TruncSeries(order, tuple(hurwitz_mul(q, den.coeffs, order)))
    assert S.solve_series(num, den).coeffs == tuple(q)


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
    chain = sturm_chain(p)
    assert chain.cauchy_index() == 3
    cuts = [Fraction(c) for c in (-3, 0, 2, 4)]
    assert [chain.count(a, b) for a, b in zip(cuts, cuts[1:])] == [1, 1, 1]


# ---------------------------------------------------------------------------
# system-sized draws: verify multiplies, divides and evaluates polynomials of
# degree up to 130 whose coefficients reach R_128(1) = 2 * 128! ~ 10^216.
# These strategies mix the small lists above with lists of degree 60 to 140
# and coefficients up to 10^250; every test that takes them also runs on a
# fixed system-sized draw.  Budget: the tests of this section and the
# remainder sequences against sympy at the end of the file take under 3 s
# together.
# ---------------------------------------------------------------------------


def system_list(rng: random.Random, degree: int | None = None) -> list[int]:
    """Coefficients of a polynomial of the given degree (60 to 140 if none),
    each up to 10^3, 10^40 or 10^250 in size, about one in ten zero."""
    bound = 10 ** rng.choice((3, 40, 250))
    degree = rng.randint(60, 140) if degree is None else degree
    coeffs = [rng.randint(-bound, bound) if rng.random() > 0.1 else 0 for _ in range(degree)]
    return coeffs + [rng.choice((1, -1)) * rng.randint(1, bound)]


def system_pair(rng: random.Random) -> tuple[list[int], list[int]]:
    """A system-sized dividend and a divisor 0 to 3 degrees below it, as
    in a remainder sequence."""
    a = system_list(rng)
    return a, system_list(rng, len(a) - 1 - rng.randint(0, 3))


system_rngs = st.randoms(use_true_random=False)
sized_lists = st.one_of(coeff_lists, system_rngs.map(system_list))
SYSTEM = [system_list(random.Random(seed)) for seed in range(3)]


def int_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def int_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return int_trim(out)


def int_divmod(a, u):
    """Long division of int lists by u, whose leading coefficient is +-1."""
    rem, quot = list(a), [0] * max(len(a) - len(u) + 1, 0)
    for i in range(len(a) - len(u), -1, -1):
        quot[i] = f = rem[i + len(u) - 1] * u[-1]
        for j, v in enumerate(u):
            rem[i + j] -= f * v
    return int_trim(quot), int_trim(rem)


def int_prem(a, b):
    """lc(b)^(deg a - deg b + 1) times the remainder of a by b, by the
    textbook loop: scale by lc(b), cancel the top term, once per degree."""
    rem = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        rem = [b[-1] * v for v in rem]
        for j, w in enumerate(b):
            rem[i + j] -= c * w
    return int_trim(rem)


@settings(max_examples=15, deadline=None)
@given(sized_lists, sized_lists, st.tuples(sized_lists, st.sampled_from((1, -1))).map(lambda t: t[0] + [t[1]]), points)
@example(SYSTEM[0], SYSTEM[1], SYSTEM[2] + [-1], Fraction(-7, 5))
def test_system_sized_products_divisions_and_signs_match_the_references(a, b, u, x):
    p, q, d = Poly(a), Poly(b), Poly(u)
    product = p * q
    assert list(product.coeffs) == int_mul(int_trim(a), int_trim(b))
    quot, rem = divmod(product, d)
    assert (list(quot.coeffs), list(rem.coeffs)) == int_divmod(list(product.coeffs), u)
    if q:
        assert product.exact_div(q) == p
    for poly, coeffs in ((p, a), (product, product.coeffs)):
        assert poly(x) == ref_eval(ref_trim(coeffs), x)
    if q:  # a root at x
        assert (Poly((-x.numerator, x.denominator)) * q)(x) == 0


@settings(max_examples=10, deadline=None)
@given(st.lists(sized_lists.map(Poly), min_size=1, max_size=3), st.lists(sized_lists.map(Poly), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=4))
@example([Poly(SYSTEM[0]), Poly(SYSTEM[1])], [Poly(SYSTEM[2]), Poly(SYSTEM[0])], 2)
def test_system_sized_hurwitz_entries_are_binomial_convolutions(a, b, m):
    ks = [k for k in range(m + 1) if k < len(a) and m - k < len(b)]
    expected = [0] * 2 * max(len(p.coeffs) for p in a + b)
    for k in ks:
        for i, c in enumerate(int_mul(a[k].coeffs, b[m - k].coeffs)):
            expected[i] += math.comb(m, k) * c
    assert list(_hurwitz_entry(m, a, b, ks).coeffs) == int_trim(expected)


nonzero_lists = coeff_lists.map(int_trim).filter(bool)


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.tuples(coeff_lists, nonzero_lists), system_rngs.map(system_pair)))
@example(system_pair(random.Random(0)))
def test_system_sized_pseudo_remainders_are_positive_multiples_of_the_remainder(pair):
    a, b = pair
    got, prem = list(pseudo_remainder(Poly(a), Poly(b)).coeffs), int_prem(int_trim(a), b)
    k = len(int_trim(a)) - len(b)  # the number of cancelling steps less one
    if b[-1] < 0 and k >= 0 and k % 2 == 0:  # lc(b)^(k + 1) < 0
        prem = [-c for c in prem]
    assert len(got) == len(prem) < len(b)
    if prem:  # got = c * prem with c > 0
        t = len(prem) - 1
        assert (got[t] > 0) == (prem[t] > 0)
        assert all(g * prem[t] == c * got[t] for g, c in zip(got, prem))


# ---------------------------------------------------------------------------
# sympy as an independent oracle
# ---------------------------------------------------------------------------


def to_sympy(p: Poly, sympy):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], sympy.Symbol("x"), domain=sympy.ZZ)


def from_sympy(p) -> Poly:
    # sympy Integers have __index__; a non-integral coefficient raises TypeError
    return Poly(reversed(p.all_coeffs()))


def random_polys(rng, count: int):
    def one():
        return Poly(rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 10) + 1))

    return [(one(), one()) for _ in range(count)]


def seeded_pairs():
    rng = random.Random(4021)
    pairs = random_polys(rng, 60)
    # pairs with a planted common factor, so gcds are not all trivial
    pairs += [(p * c, q * c) for (p, q), (c, _) in zip(pairs[:30], random_polys(rng, 30))]
    return rng, pairs


def test_arithmetic_and_gcd_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng, pairs = seeded_pairs()
    for p, q in pairs:
        if q.is_zero():
            continue
        sp, sq = to_sympy(p, sympy), to_sympy(q, sympy)
        assert p * q == from_sympy(sp * sq)
        assert (p * q).exact_div(q) == p == from_sympy((sp * sq).exquo(sq))
        unit = Poly(q.coeffs[:-1] + (rng.choice((1, -1)),))
        quot, rem = divmod(p, unit)
        want_q, want_r = sp.div(to_sympy(unit, sympy))
        assert (quot, rem) == (from_sympy(want_q), from_sympy(want_r))
        g = gcd_poly(p, q)
        assert g == from_sympy(sp.gcd(sq).primitive()[1])  # both primitive
        assert g.leading() > 0
        for out in (p * q, quot, rem, g):
            assert stored_as_ints(out)


def test_real_root_counts_of_reduced_family_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 31):
        g = F.reduced_tan_sec_poly(n)
        expected = (n + 1) // 2 - 1
        sg = to_sympy(g, sympy)
        assert sg.count_roots() == expected, n
        assert sg.count_roots(-1, 0) == expected, n
        chain = sturm_chain(g)
        assert chain.cauchy_index() == expected, n
        if g.degree >= 1:
            assert chain.count(Fraction(-1), Fraction(0)) == expected, n


def root_bound(p: Poly) -> int:
    """A power of two B with every real root of p strictly inside (-B, B).

    Rounding the Cauchy-type bound 2 + max|c|/|lead| up to a power of two
    makes every bisection point dyadic.
    """
    lead = abs(p.leading())
    bound = 2 + math.ceil(max(abs(c) for c in p.coeffs) / Fraction(lead))
    return 1 << (bound - 1).bit_length()


def test_sturm_index_matches_count_and_sympy():
    sympy = pytest.importorskip("sympy")
    _, pairs = seeded_pairs()
    for p in [p for pair in pairs for p in pair if not p.is_zero()]:
        chain = sturm_chain(p)  # these draws are squarefree
        bound = Fraction(root_bound(p))
        distinct = chain.cauchy_index()
        assert distinct == chain.count(-bound, bound) == to_sympy(p, sympy).count_roots(), p


def test_family_interlacing_matches_sympy_real_roots():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 17):
        roots_n, roots_n1 = (
            to_sympy(F.reduced_tan_sec_poly(m), sympy).real_roots() for m in (n, n + 1)
        )
        merged = sorted(
            [(r, "r") for r in roots_n] + [(s, "s") for s in roots_n1],
            key=lambda item: item[0],
            reverse=True,
        )
        assert [label for _, label in merged] == ["sr"[i % 2] for i in range(len(merged))], n
        assert certify_interlacing(n) is None, n


def test_remainder_sequences_of_g_match_sympys_sturm_sequences():
    # the degrees and leading signs, all that a Cauchy index reads, of
    # (G_(n+1), G_n) and (G_n, G_n'); sympy takes about 50 s at n = 64 and
    # 0.4 s at n = 32
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sturm_q

    def shape(polys):
        return [(p.degree(), p.LC() > 0) for p in polys]

    n, x = 32, sympy.Symbol("x")
    g, g1 = F.reduced_tan_sec_poly(n), F.reduced_tan_sec_poly(n + 1)
    for ours, theirs in (
        (remainder_sequence(g1, g), sturm_q(to_sympy(g1, sympy).as_expr(), to_sympy(g, sympy).as_expr(), x)),
        (remainder_sequence(g, g.derivative()), sympy.sturm(to_sympy(g, sympy))),
    ):
        assert [(p.degree, p.leading() > 0) for p in ours] == shape(sympy.Poly(p, x) for p in theirs)
