import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakpoly import LimitExceeded
from peakpoly import families as F
from peakpoly import identities as I
from peakpoly import series as S
from peakpoly.polynomial import Poly
from peakpoly.series import (
    PrecisionInsufficient,
    ToleranceExceeded,
    TruncSeries,
    UnknownFamily,
    numeric_spotcheck,
    solve_series,
)

small_coeffs = st.integers(min_value=-5, max_value=5)
small_polys = st.lists(small_coeffs, max_size=3).map(Poly)


def ordinary(s):
    """The ordinary coefficients [z^m] of a series, whose entry m is m! [z^m],
    each a tuple of the x-coefficients (rational, so not a Poly)."""
    return tuple(
        tuple(Fraction(c, math.factorial(m)) for c in p.coeffs) for m, p in enumerate(s.coeffs)
    )


def from_ordinary(order, cs):
    return TruncSeries(order, tuple(c * math.factorial(m) for m, c in enumerate(cs)))


def series_strategy(order):
    return st.lists(small_polys, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TruncSeries(order, tuple(cs))
    )


def test_series_addition_and_scaling():
    a = TruncSeries(1, (Poly.one(), Poly.x()))
    b = TruncSeries.const(1, 1)
    assert (a + b).coeffs[0] == Poly.constant(2)
    assert (a - b).coeffs[1] == Poly.x()
    assert a.scale(2).coeffs[1] == 2 * Poly.x()


def test_series_shift_and_derivatives():
    s = from_ordinary(2, (Poly.one(), Poly.x(), Poly((0, 0, 1))))
    shifted = s.shift_z()
    assert ordinary(shifted) == ((), (1,), (0, 1))  # 0, 1, x
    dz = s.dz()
    assert dz.order == 1
    assert ordinary(dz) == ((0, 1), (0, 0, 2))  # x, 2x^2
    dx = s.dx()
    assert ordinary(dx) == ((), (1,), (0, 2))  # 0, 1, 2x


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncSeries.const(1, 2) + TruncSeries.const(1, 3)


def test_egf_poly_reads_up_to_the_order_and_refuses_above_it():
    series = TruncSeries(3, (Poly.one(), Poly.x(), Poly.zero(), Poly.constant(5)))
    assert [series.egf_poly(m) for m in range(4)] == list(series.coeffs)
    with pytest.raises(LimitExceeded) as info:
        series.egf_poly(4)
    assert str(info.value) == "m 4 above cap 3"


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


def test_check_gf_all_families_to_order_16():
    for family in S.EGFS:
        assert I.check_gf(16, family) is None, family


def _closed_forms(sympy, x, z):
    """The literal closed form of each EGF row as sympy (den, rhs)."""
    def hyperbolic(w):
        return sympy.cosh(z * sympy.sqrt(w)), sympy.sinh(z * sympy.sqrt(w)) / sympy.sqrt(w)

    u, v = 1 - x, 1 - x**2
    e_u, e_v = sympy.exp(u * z), sympy.exp(v * z)
    (cosh_u, sinh_u), (cosh_v, sinh_v) = hyperbolic(u), hyperbolic(v)
    return {
        "A": (1 - x * e_u, u * e_u),
        "W": (cosh_u - sinh_u, sinh_u),
        "WL": (cosh_u - sinh_u, sympy.Integer(1)),
        "P": (cosh_v - sinh_v, 1 + x * sinh_v),
        "C": (1 - x * sympy.exp(2 * u * z), u * e_u),
        "CT": (1 - x * sympy.exp(2 * u * z), u),
        "T": (1 - x * e_v, e_v - x),
        "R": (cosh_v - sympy.sqrt(v) * sympy.sinh(z * sympy.sqrt(v)) - x, v),
    }


def test_every_egf_row_is_its_literal_closed_form():
    # hand values in Hurwitz form: e^((1-x)z), cosh - sinh at w = 1 - x
    # (sinh's z^3 entry is (1-x)/3! in ordinary form) and e^(2(1-x)z)
    u = Poly((1, -1))
    den_a, rhs_a = S.closed_form_sides("A", 2)
    assert den_a.coeffs == (u, -Poly.x() * u, -Poly.x() * Poly((1, -2, 1)))
    assert rhs_a.coeffs == (u, Poly((1, -2, 1)), u**3)
    den_w, rhs_w = S.closed_form_sides("W", 4)
    assert den_w.coeffs == (Poly.one(), -Poly.one(), u, -u, Poly((1, -2, 1)))
    assert rhs_w.coeffs == (Poly.zero(), Poly.one(), Poly.zero(), u, Poly.zero())
    assert S.closed_form_sides("C", 2)[0].coeffs[2] == -Poly.x() * Poly((4, -8, 4))
    # entry m of den and rhs is the m-th z-derivative at 0 of the closed
    # form, taken by sympy from exp, cosh and sinh with the square roots in
    sympy = pytest.importorskip("sympy")
    x, z = sympy.symbols("x z")
    order = 10
    forms = _closed_forms(sympy, x, z)
    assert list(forms) == list(S.EGFS)
    for gf_id, closed in forms.items():
        sides = S.closed_form_sides(gf_id, order)
        for side, expr in zip(sides, closed):
            for m in range(order + 1):
                entry = sum(c * x**i for i, c in enumerate(side.coeffs[m].coeffs))
                assert sympy.expand(expr.subs(z, 0) - entry) == 0, (gf_id, m)
                expr = expr.diff(z)


def test_every_table_row_is_the_pde_of_its_closed_form():
    # F_{n+1} = (alpha + n beta) F_n + b F_n' for n >= o is, on the EGF
    # F(x, z) = sum_n F_(n+o) z^n/n!, the PDE
    # dF/dz = (alpha + o beta) F + beta z dF/dz + b dF/dx, up to the terms of
    # dF/dz a seed gives that the step does not: W_1 = 1 from W_0 = 0, and
    # R_1 = 1 + x from R_0 = 1 in gf_P (R at offset 0).  With the low-order
    # agreement of the gf suite this proves each row for every n.  P and Q
    # are tan(theta + z) and sec(theta + z)/sec(theta) at x = tan(theta).
    sympy = pytest.importorskip("sympy")
    x, z = sympy.symbols("x z")
    cases = [
        (gf_id, S.EGFS[gf_id].family, S.EGFS[gf_id].offset, rhs / den)
        for gf_id, (den, rhs) in _closed_forms(sympy, x, z).items()
        if S.EGFS[gf_id].family in F.RECURRENCES
    ]
    cases += [
        ("P", "P", 0, (x + sympy.tan(z)) / (1 - x * sympy.tan(z))),
        ("Q", "Q", 0, 1 / (sympy.cos(z) - x * sympy.sin(z))),
    ]
    assert sorted(family for _, family, _, _ in cases) == sorted([*F.RECURRENCES, "R"])
    seed_terms = {("W", "W"): 1, ("P", "R"): x}
    for gf_id, family, offset, closed in cases:
        alpha, beta, b = (sum(c * x**i for i, c in enumerate(p.coeffs)) for p in F.RECURRENCES[family][1:])
        dz = closed.diff(z)
        residual = dz - ((alpha + offset * beta) * closed + beta * z * dz + b * closed.diff(x))
        expected = seed_terms.get((gf_id, family), 0)
        assert sympy.simplify(residual.rewrite(sympy.exp)) == expected, (gf_id, family)


def test_solve_series_low_order_coefficients():
    # z^3 coefficient of the peak series is W_3/3! = (4+2x)/6
    den, rhs = S.closed_form_sides("W", 8)
    w = solve_series(rhs, den)
    assert w.egf_poly(3) == Poly((4, 2))
    # t^0 coefficient of the combined series is R_1 = 1 + x
    den, rhs = S.closed_form_sides("R", 6)
    r = solve_series(rhs, den)
    assert r.egf_poly(0) == Poly((1, 1))


def test_check_gf_order_zero_trivial():
    assert I.check_gf(0, "A") is None


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        I.check_gf(4, "B")
    with pytest.raises(LimitExceeded, match=f"^order {S.MAX_ORDER + 1} above cap {S.MAX_ORDER}$"):
        I.check_gf(S.MAX_ORDER + 1, "A")


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
        step = S._SOLVES[family].step
        for k in range(big):
            for first, second in ((big, k), (k, big)):
                monkeypatch.setitem(S._SOLVES, family, F.Memo((), step))
                answers = {first: S.solved_family_polys(family, first)}
                answers[second] = S.solved_family_polys(family, second)
                assert answers[big] == direct, family
                assert answers[k] == direct[: k + 1], (family, k)


def test_each_memo_solve_equals_the_generic_solve():
    order = 24
    for family in S.EGFS:
        den, rhs = S.closed_form_sides(family, order)
        assert S.solved_family_polys(family, order) == solve_series(rhs, den).coeffs, family


def test_solve_memo_never_rebuilds_an_entry(monkeypatch):
    # solved_family_polys and the gf routes read one memo per EGF id, which
    # builds each entry once, whatever order they are asked in
    for family in S.EGFS:
        steps = []

        def counting_step(q, m, step=S._SOLVES[family].step):
            steps.append(m)
            return step(q, m)

        monkeypatch.setitem(S._SOLVES, family, F.Memo((), counting_step))
        for order in (3, 16, 0, 9, 24, 24):
            S.solved_family_polys(family, order)
        S._solved(family, 30, 0)
        assert steps == list(range(31)), family


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


def test_check_pde():
    assert I.check_pde(0) is None  # P through z^1 checks z-order 0
    assert I.check_pde(7) is None
    assert I.check_pde(15) is None
    with pytest.raises(ValueError):
        I.check_pde(-1)


def test_pde_at_order_one_sees_a_corrupted_z1_term(monkeypatch):
    # z-order 0 of the identity reads R_1 = R_0 + x, so an x^2 added to the
    # z^1 term of P (R_1) is the witness
    real = S.engine_series

    def corrupt(family, order):
        p = real(family, order)
        return TruncSeries(order, (p.coeffs[0], p.coeffs[1] + Poly.monomial(1, 2), *p.coeffs[2:]))

    monkeypatch.setattr(S, "engine_series", corrupt)
    assert I.check_pde(0) == I.Witness(0, 2, "1", "0")


def test_pde_constant_term_by_hand():
    # the z^0 component of the identity reads R_1 = R_0 + x, i.e. 1+x = 1+x
    assert F.tan_sec_poly(1) == F.tan_sec_poly(0) + Poly.x()


def test_check_t_vs_eulerian():
    assert I.check_t_vs_eulerian(10) is None
    one_plus_x = Poly((1, 1))
    assert F.signed_interleave_poly(1) == one_plus_x**2 * F.eulerian_poly(1)
    assert F.signed_interleave_poly(2) == one_plus_x**3 * F.eulerian_poly(2)


def test_t_vs_eulerian_sees_a_corrupted_t3(monkeypatch):
    # entry 3 of the series comparison is T_3 = (1+x)^4 A_3 itself; the
    # coefficient 23 of x^2 raised to 24 gives the witness at z-order 3
    real = F.signed_interleave_poly
    monkeypatch.setattr(
        F, "signed_interleave_poly", lambda n: real(n) + (Poly.monomial(1, 2) if n == 3 else Poly.zero())
    )
    assert I.check_t_vs_eulerian(16) == I.Witness(3, 2, "24", "23")


@pytest.mark.parametrize("memo", ["_TYPE_B_POLYS", "_AFFINE_POLYS"])
def test_gf_checks_see_a_wrong_signed_recurrence_past_the_enumeration_cap(monkeypatch, memo):
    # The first route of C and CT is a recurrence at every n, so a wrong term
    # far past the signed enumeration cap (n = 7) fails the closed-form checks.
    assert I.check_gf(16, "C") is None and I.check_gf(16, "CT") is None
    assert I.check_gf(16, "T") is None and I.check_t_vs_eulerian(16) is None
    real = getattr(F, memo)

    def corrupt(terms, m):
        return real.step(terms, m) + (Poly.monomial(1, 9) if m == 9 else Poly.zero())

    monkeypatch.setattr(F, memo, F.Memo(real.terms[:1], corrupt))
    family = "C" if memo == "_TYPE_B_POLYS" else "CT"
    assert I.check_gf(16, family).n == 9
    assert I.check_gf(16, "T").n == 9
    assert I.check_t_vs_eulerian(16).n == 9


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


@pytest.mark.parametrize("x0, t0, order, tol", [
    # the two points verify checks, at their orders and tolerances
    *((*check.args[:2], check.top, check.args[2]) for check in I.CHECKS if check.fn == "check_numeric_spot"),
    # low orders, where the truncation error dominates the relative error
    (Fraction(1, 2), Fraction(1, 20), 4, 1e-3),
    (Fraction(7, 10), Fraction(-1, 10), 6, 1e-2),
    (Fraction(1, 3), Fraction(1, 8), 3, 1.0),
    (Fraction(9, 10), Fraction(-3, 16), 5, 1.0),
])
def test_numeric_spotcheck_rel_error_agrees_with_mpmath(x0, t0, order, tol):
    # mpmath's acosh and cosh at 320 bits evaluate the same closed form by
    # code the spot-check does not share
    mpmath = pytest.importorskip("mpmath")
    partial = sum(F.tan_sec_poly(n + 1)(x0) * t0**n / math.factorial(n) for n in range(order + 1))
    with mpmath.workprec(320):
        xm = mpmath.mpf(x0.numerator) / x0.denominator
        tm = mpmath.mpf(t0.numerator) / t0.denominator
        z = -tm * mpmath.sqrt(1 - xm * xm) + mpmath.acosh(1 / xm)
        closed = (1 - xm * xm) / (xm * (mpmath.cosh(z) - 1))
        expected = float(abs(closed - mpmath.mpf(partial.numerator) / partial.denominator) / abs(closed))
    assert expected > 0
    assert math.isclose(numeric_spotcheck(x0, t0, order, tol).rel_error, expected, rel_tol=1e-9)


def test_numeric_spotcheck_guards():
    with pytest.raises(ValueError):
        numeric_spotcheck(Fraction(3, 2), Fraction(1, 20), 8, 1e-6)
    with pytest.raises(ValueError):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 2), 8, 1e-6)
    with pytest.raises(PrecisionInsufficient):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 5), 2, 1e-12)


def test_numeric_spotcheck_detects_corrupt_series(monkeypatch):
    real = F.tan_sec_poly
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: real(n) + Poly.one() if n == 3 else real(n))
    with pytest.raises(ToleranceExceeded):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 12, 1e-15)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0],
                         ids=["nan", "inf", "-inf", "0", "-0", "-1"])
def test_numeric_spotcheck_refuses_a_tolerance_not_finite_and_positive(monkeypatch, tol):
    # R_3 off by 1000 is a relative error of 0.77 at (1/2, 1/20): a finite
    # tolerance sees it, and a NaN or infinite one must not pass it; no
    # remainder bound certifies a tolerance of 0 or less, so that is a bad
    # argument too, not PrecisionInsufficient
    real = F.tan_sec_poly
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: real(n) + 1000 if n == 3 else real(n))
    with pytest.raises(ToleranceExceeded):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 12, 1e-15)
    with pytest.raises(ValueError) as info:
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 12, tol)
    assert type(info.value) is ValueError and str(info.value) == "tol must be finite and positive"

    # refused before any work: no row of R is read
    def unread(n):
        raise RuntimeError(f"R_{n} read")

    monkeypatch.setattr(F, "tan_sec_poly", unread)
    with pytest.raises(ValueError, match="^tol must be finite and positive$"):
        numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 12, tol)


def test_series_entries_must_be_polys():
    # an int entry would pass addition and fail deep inside a product or dx
    for coeffs in ((1, 2), (Poly.one(), 2), (Poly.one(), Fraction(1, 2)), (Poly.one(), (1, 2))):
        with pytest.raises(TypeError, match="^series entries must be Polys$"):
            TruncSeries(1, coeffs)
    s = TruncSeries(1, (Poly.one(), Poly.x()))
    assert (s * s).coeffs == (Poly.one(), 2 * Poly.x()) and s.dx().coeffs == (Poly.zero(), Poly.one())


def test_a_series_given_a_list_is_the_series_of_its_tuple():
    entries = [Poly.one(), Poly.x()]
    s = TruncSeries(1, entries)
    entries[0] = Poly.zero()
    assert s.coeffs == (Poly.one(), Poly.x()) and s == TruncSeries(1, (Poly.one(), Poly.x()))
    assert hash(s) == hash(TruncSeries(1, (Poly.one(), Poly.x())))


def test_engine_series_requires_enough_polys():
    # engine_series builds its series with the constructor, which refuses any
    # count of entries but order + 1
    for coeffs in ((Poly.one(),), (Poly.one(),) * 5):
        with pytest.raises(ValueError) as info:
            TruncSeries(3, coeffs)
        assert type(info.value) is ValueError and str(info.value) == "coefficient count must equal order + 1"
