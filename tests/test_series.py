import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakpoly import families as F
from peakpoly import series as S
from peakpoly.polynomial import Poly
from peakpoly.series import (
    OrderExceedsComputedFamilies,
    PrecisionInsufficient,
    ToleranceExceeded,
    TruncSeries,
    UnknownFamily,
    exp_series,
    hyperbolic_blocks,
    numeric_spotcheck,
    solve_series,
)

small_coeffs = st.integers(min_value=-5, max_value=5)
small_polys = st.lists(small_coeffs, max_size=3).map(Poly)


def ordinary(s):
    """The ordinary coefficients [z^m] of a series, whose entry m is m! [z^m]."""
    return tuple(c * Fraction(1, math.factorial(m)) for m, c in enumerate(s.coeffs))


def from_ordinary(order, cs):
    return TruncSeries(order, tuple(c * math.factorial(m) for m, c in enumerate(cs)))


def series_strategy(order):
    return st.lists(small_polys, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TruncSeries(order, tuple(cs))
    )


def test_hyperbolic_blocks_unit_weight():
    cosh_s, sinh_s = hyperbolic_blocks(Poly.one(), 4)
    assert ordinary(cosh_s) == (
        Poly.one(),
        Poly.zero(),
        Poly.constant(Fraction(1, 2)),
        Poly.zero(),
        Poly.constant(Fraction(1, 24)),
    )
    assert cosh_s.coeffs == (Poly.one(), Poly.zero()) * 2 + (Poly.one(),)
    assert ordinary(sinh_s)[1] == Poly.one()
    assert ordinary(sinh_s)[3] == Poly.constant(Fraction(1, 6))


def test_hyperbolic_blocks_zero_weight():
    cosh_s, sinh_s = hyperbolic_blocks(Poly.zero(), 3)
    assert cosh_s == TruncSeries.const(1, 3)
    assert sinh_s.coeffs == (Poly.zero(), Poly.one(), Poly.zero(), Poly.zero())


def test_hyperbolic_blocks_polynomial_weight():
    _, sinh_s = hyperbolic_blocks(Poly((1, -1)), 3)
    assert ordinary(sinh_s)[3] == Poly((1, -1)) * Fraction(1, 6)


def test_exp_series_cases():
    assert exp_series(Poly.zero(), 3) == TruncSeries.const(1, 3)
    e = exp_series(Poly((1, -1)), 2)
    assert ordinary(e) == (
        Poly.one(),
        Poly((1, -1)),
        Poly((1, -1)) ** 2 * Fraction(1, 2),
    )
    e2 = exp_series(Poly((2, -2)), 2)
    assert ordinary(e2)[2] == Poly((2, -2)) ** 2 * Fraction(1, 2)


def test_series_addition_and_scaling():
    a = TruncSeries.from_egf([Poly.one(), Poly.x()], 1)
    b = TruncSeries.const(1, 1)
    assert (a + b).coeffs[0] == Poly.constant(2)
    assert (a - b).coeffs[1] == Poly.x()
    assert a.scale(2).coeffs[1] == 2 * Poly.x()


def test_series_shift_and_derivatives():
    s = from_ordinary(2, (Poly.one(), Poly.x(), Poly((0, 0, 1))))
    shifted = s.shift_z()
    assert ordinary(shifted) == (Poly.zero(), Poly.one(), Poly.x())
    dz = s.dz()
    assert dz.order == 1
    assert ordinary(dz) == (Poly.x(), 2 * Poly((0, 0, 1)))
    dx = s.dx()
    assert ordinary(dx) == (Poly.zero(), Poly.one(), Poly((0, 2)))


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncSeries.const(1, 2) + TruncSeries.const(1, 3)


@settings(max_examples=60)
@given(series_strategy(4), series_strategy(4))
def test_series_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=40)
@given(series_strategy(3), series_strategy(3), series_strategy(3))
def test_series_multiplication_associates_under_truncation(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40)
@given(series_strategy(3), series_strategy(3), series_strategy(3))
def test_series_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_solve_series_roundtrip():
    den = TruncSeries(3, (Poly((1, -1)), Poly((0, 2)), Poly.one(), Poly.zero()))
    q = TruncSeries(3, (Poly((1, 1)), Poly((0, 3)), Poly.zero(), Poly((2,))))
    assert solve_series(q * den, den) == q


def test_verify_gf_all_families_to_order_16():
    for family in S.EGFS:
        assert S.verify_gf(family, 16) is None, family


def test_verify_gf_low_order_coefficients():
    # z^3 coefficient of the peak series is W_3/3! = (4+2x)/6
    den, rhs = S.closed_form_sides("W", 8)
    w = solve_series(rhs, den)
    assert w.egf_poly(3) == Poly((4, 2))
    # t^0 coefficient of the combined series is R_1 = 1 + x
    den, rhs = S.closed_form_sides("R", 6)
    r = solve_series(rhs, den)
    assert r.egf_poly(0) == Poly((1, 1))


def test_verify_gf_order_zero_trivial():
    assert S.verify_gf("A", 0) is None


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        S.verify_gf("B", 4)
    with pytest.raises(OrderExceedsComputedFamilies):
        S.verify_gf("A", S.MAX_ORDER + 1)


def test_solved_families_match_engine_routes():
    # the closed form re-derives every family that has a recurrence route
    for n in range(1, 13):
        assert S.solved_family_polys("W", 12)[n] == F.peak_poly(n)
        assert S.solved_family_polys("WL", 12)[n] == F.left_peak_poly(n)
        assert S.solved_family_polys("A", 12)[n] == F.eulerian_poly(n)
        assert S.solved_family_polys("P", 12)[n] == F.tan_sec_poly(n)
        assert S.solved_family_polys("R", 12)[n - 1] == F.tan_sec_poly(n)


def test_solved_family_polys_slices_and_extends_the_longest_solve(monkeypatch):
    # entry m of a truncated series does not depend on the truncation order,
    # so a shorter order is a slice of a longer solve and a longer order
    # extends a shorter one, whichever is asked first
    big = 8
    for family in S.EGFS:
        den, rhs = S.closed_form_sides(family, big)
        direct = solve_series(rhs, den).coeffs
        for k in range(big):
            for first, second in ((big, k), (k, big)):
                monkeypatch.setattr(S, "_SOLVED", {})
                answers = {first: S.solved_family_polys(family, first)}
                answers[second] = S.solved_family_polys(family, second)
                assert answers[big] == direct, family
                assert answers[k] == direct[: k + 1], (family, k)


def test_odd_even_split_of_combined_series():
    # the z^n coefficient of the combined series splits into x W_n(x^2)
    # (odd part) plus Wl_n(x^2) (even part)
    p = S.engine_series("P", 8)
    for n in range(1, 9):
        poly = p.egf_poly(n)
        w = F.peak_poly(n)
        wl = F.left_peak_poly(n)
        for j, c in enumerate(poly.coeffs):
            if j % 2:
                assert c == w.coeff((j - 1) // 2)
            else:
                assert c == wl.coeff(j // 2)


def test_verify_pde():
    assert S.verify_pde(8) is None
    assert S.verify_pde(16) is None
    with pytest.raises(ValueError):
        S.verify_pde(1)


def test_pde_constant_term_by_hand():
    # the z^0 component of the identity reads R_1 = R_0 + x, i.e. 1+x = 1+x
    assert F.tan_sec_poly(1) == F.tan_sec_poly(0) + Poly.x()


def test_verify_t_vs_eulerian():
    assert S.verify_t_vs_eulerian(10, poly_nmax=6) is None
    one_plus_x = Poly((1, 1))
    assert F.signed_interleave_poly(1) == one_plus_x**2 * F.eulerian_poly(1)
    assert F.signed_interleave_poly(2) == one_plus_x**3 * F.eulerian_poly(2)


def test_numeric_spotcheck_reference_points():
    rep = numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 20, 1e-15)
    assert rep.rel_error <= 1e-15
    assert rep.remainder_bound <= 1e-15
    rep = numeric_spotcheck(Fraction(7, 10), Fraction(1, 10), 24, 1e-12)
    assert rep.rel_error <= 1e-12


def test_numeric_spotcheck_zero_offset():
    # at t0 = 0 the closed form collapses to R_1(x0) = 1 + x0
    rep = numeric_spotcheck(Fraction(1, 2), 0, 4, 1e-30)
    assert rep.rel_error < 1e-30


def test_numeric_spotcheck_guards():
    with pytest.raises(ValueError):
        numeric_spotcheck(Fraction(3, 2), Fraction(1, 20), 8, 1e-6)
    with pytest.raises(ValueError):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 2), 8, 1e-6)
    with pytest.raises(PrecisionInsufficient):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 5), 2, 1e-12)


def test_numeric_spotcheck_detects_corrupt_series(monkeypatch):
    good = F.tan_sec_polys(13)
    corrupt = good[:3] + (good[3] + Poly.one(),) + good[4:]
    monkeypatch.setattr(F, "tan_sec_polys", lambda nmax: corrupt[: nmax + 1])
    with pytest.raises(ToleranceExceeded):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 12, 1e-15)


def test_engine_series_requires_enough_polys():
    with pytest.raises(OrderExceedsComputedFamilies):
        TruncSeries.from_egf([Poly.one()], 3)
