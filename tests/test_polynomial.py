import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peakpoly.polynomial import (
    DivisionByZeroPoly,
    NonzeroRemainder,
    Poly,
    gcd_poly,
    primitive_part,
    pseudo_remainder,
)
from peakpoly.roots import sturm_chain
from peakpoly.series import TruncSeries

ONE_PLUS_X = Poly((1, 1))

integers = st.integers(min_value=-1000, max_value=1000)
small_polys = st.lists(integers, max_size=6).map(Poly)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)


def test_construction_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0)) == Poly.zero()
    assert Poly.zero().coeffs == ()


def test_degree_of_zero_is_minus_infinity():
    assert Poly.zero().degree == float("-inf")
    assert Poly.zero().degree < -1
    assert Poly.one().degree == 0
    assert Poly((0, 0, 3)).degree == 2


def test_constructor_rejects_non_integer_coefficients():
    # an integral Fraction is refused as well: the check is on type, not value
    for bad in (Fraction(1, 2), Fraction(4, 2), 0.5):
        with pytest.raises(TypeError):
            Poly((bad,))
    p = Poly((True, 2))
    assert p.coeffs == (1, 2) and type(p.coeffs[0]) is int


def test_multiplying_by_a_fraction_raises():
    with pytest.raises(TypeError):
        Poly.one() * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * Poly.one()


def test_degree_of_product_adds():
    p = Poly((1, 4, 5, 2))
    q = Poly((0, 0, 7))
    assert (p * q).degree == p.degree + q.degree


def test_derivative_of_cubic():
    # termwise power rule on 1 + 4x + 5x^2 + 2x^3
    assert Poly((1, 4, 5, 2)).derivative() == Poly((4, 10, 6))


def test_derivative_of_constant_is_zero():
    assert Poly.one().derivative() == Poly.zero()


def test_derivative_of_binomial_power_at_one():
    # d/dx (1+x)^4 = 4(1+x)^3, which evaluates to 32 at x = 1
    assert (ONE_PLUS_X**4).derivative()(1) == 32


def test_exact_div_square():
    assert Poly((1, 2, 1)).exact_div(ONE_PLUS_X) == ONE_PLUS_X


def test_exact_div_known_factorization():
    # (1 + 8x + 18x^2 + 16x^3 + 5x^4) / (1+x)^3 = 1 + 5x
    assert Poly((1, 8, 18, 16, 5)).exact_div(ONE_PLUS_X**3) == Poly((1, 5))


def test_exact_div_nonzero_remainder():
    with pytest.raises(NonzeroRemainder):
        ONE_PLUS_X.exact_div(Poly((1, 2)))


def test_exact_div_stays_in_integers():
    # 1 + x = (2 + 2x) / 2 over the rationals, but 2 + 2x does not divide it in Z[x]
    with pytest.raises(NonzeroRemainder):
        Poly((1, 1)).exact_div(Poly((2, 2)))
    with pytest.raises(NonzeroRemainder):
        divmod(Poly((0, 0, 1)), Poly((1, 2)))
    assert Poly((2, 2)).exact_div(Poly((1, 1))) == Poly.constant(2)


def test_division_by_zero_poly():
    with pytest.raises(DivisionByZeroPoly):
        divmod(ONE_PLUS_X, Poly.zero())


# Every refusal of the arithmetic layers that no other test reaches: the call,
# the exception type and its message.  The Sturm chains and the truncated
# series are here too, so that one table holds them all.
REFUSALS = {
    "leading of zero": (lambda: Poly.zero().leading(), ValueError, "zero polynomial has no leading coefficient"),
    "pseudo_remainder by zero": (lambda: pseudo_remainder(ONE_PLUS_X, Poly.zero()), DivisionByZeroPoly,
                                 "polynomial division by zero"),
    "gcd of zeros": (lambda: gcd_poly(Poly.zero(), Poly.zero()), ValueError, "gcd of two zero polynomials"),
    # a unit-led divisor: divmod finishes, and exact_div's own remainder test refuses
    "exact_div remainder": (lambda: ONE_PLUS_X.exact_div(Poly.x()), NonzeroRemainder,
                            "Poly('1 + x') is not divisible by Poly('x')"),
    "sturm_chain of zero": (lambda: sturm_chain(Poly.zero()), ValueError, "zero polynomial"),
    "count over a = b": (lambda: sturm_chain(Poly((-1, 0, 1))).count(Fraction(1), Fraction(1)), ValueError,
                         "need a < b"),
    "count over a > b": (lambda: sturm_chain(Poly((-1, 0, 1))).count(Fraction(2), Fraction(-2)), ValueError,
                         "need a < b"),
    "truncate past the order": (lambda: TruncSeries.const(1, 3).truncate(4), ValueError,
                                "cannot extend a truncated series"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_each_refusal_raises_its_type_and_message(name):
    call, kind, text = REFUSALS[name]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == text


def test_subst_cleared_peak_to_eulerian_shape():
    # hand expansion: 4(1+x)^2 + 2(4x) = 4 + 16x + 4x^2 = 4 (1 + 4x + x^2)
    p = Poly((4, 2))
    out = p.subst_cleared(Poly((0, 4)), ONE_PLUS_X**2)
    assert out == Poly((4, 16, 4))
    assert out == 4 * Poly((1, 4, 1))


def test_subst_cleared_identity_cases():
    assert Poly.one().subst_cleared(Poly((0, 4)), ONE_PLUS_X) == Poly.one()
    assert Poly.x().subst_cleared(Poly((0, 0, 1)), Poly.one()) == Poly((0, 0, 1))


def test_subst_cleared_zero_polynomial():
    assert Poly.zero().subst_cleared(Poly.x(), ONE_PLUS_X) == Poly.zero()


@given(small_polys, small_polys, small_polys)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(small_polys, small_polys)
def test_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


@given(small_polys, small_polys, rationals)
def test_evaluation_homomorphism(p, q, r):
    assert (p * q)(r) == p(r) * q(r)
    assert (p + q)(r) == p(r) + q(r)


@given(small_polys, st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_product(p, k):
    expected = Poly.one()
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_exact_div_roundtrip_500_random_pairs():
    rng = random.Random(20250808)

    def rand_poly(max_deg):
        deg = rng.randint(0, max_deg)
        return Poly(rng.randint(-1000, 1000) for _ in range(deg + 1))

    checked = 0
    while checked < 500:
        p = rand_poly(12)
        d = rand_poly(12)
        if d.is_zero():
            continue
        assert (p * d).exact_div(d) == p
        checked += 1


@given(small_polys, st.lists(integers, min_size=1, max_size=4).map(Poly))
def test_subst_cleared_with_unit_denominator_is_composition(p, q):
    assert p.subst_cleared(q, Poly.one()) == p.compose(q)


# nonconstant denominators: a nonzero coefficient on top of up to three others
nonunit_polys = st.tuples(st.lists(integers, min_size=1, max_size=3), integers.filter(bool)).map(
    lambda t: Poly(t[0] + [t[1]])
)


@given(small_polys, small_polys, nonunit_polys)
def test_subst_cleared_is_the_literal_sum_over_a_nonunit_denominator(p, num, den):
    # den^d p(num/den) = sum_k c_k num^k den^(d-k), d = deg p, term by term
    d = max(p.degree, 0)
    expected = sum((c * num**k * den ** (d - k) for k, c in enumerate(p.coeffs)), Poly.zero())
    assert p.subst_cleared(num, den) == expected


def test_compose_example():
    # (1 + x^2) composed with 2x is 1 + 4x^2
    assert Poly((1, 0, 1)).compose(Poly((0, 2))) == Poly((1, 0, 4))


def test_primitive_part_scales_positively():
    assert primitive_part(Poly((6, -12))) == Poly((1, -2))
    assert primitive_part(Poly((-6, 9))) == Poly((-2, 3))
    assert primitive_part(Poly((0, 0, -4))) == Poly((0, 0, -1))


def test_gcd_poly():
    p = ONE_PLUS_X**2 * Poly((1, 5))
    q = ONE_PLUS_X * Poly((1, 2))
    assert gcd_poly(p, q) == ONE_PLUS_X
    assert gcd_poly(p, Poly((1, 2))) == Poly.one()
    # primitive with a positive leading coefficient, not monic
    assert gcd_poly(p, Poly.zero()) == ONE_PLUS_X**2 * Poly((1, 5))
    assert gcd_poly(-p, Poly.zero()) == ONE_PLUS_X**2 * Poly((1, 5))
    assert gcd_poly(Poly((2, 2)), Poly((4, 4))) == Poly((1, 1))
    assert gcd_poly(-3 * p, 6 * q) == ONE_PLUS_X
