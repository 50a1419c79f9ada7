from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakpoly import families as F
from peakpoly.polynomial import Poly
from peakpoly.roots import (
    ClosedFormViolation,
    EndpointIsRoot,
    InterlacingViolation,
    NonSquarefreeInput,
    StructureViolation,
    certify_interlacing,
    certify_root_structure,
    clt_stats,
    count_real_roots,
    isolate_roots,
    mode_bracket,
    multiplicity_at,
    squarefree_part,
    sturm_chain,
)

ONE_PLUS_X = Poly((1, 1))


def test_multiplicity_at_minus_one():
    assert multiplicity_at(F.tan_sec_poly(4), -1) == 3
    assert multiplicity_at(F.tan_sec_poly(3), -1) == 2
    assert multiplicity_at(F.tan_sec_poly(3), 0) == 0


def test_multiplicity_at_rational_point():
    # (2x+1)^2 (x-3): the divisor for r = -1/2 is the primitive 2x + 1
    p = Poly((1, 2)) ** 2 * Poly((-3, 1))
    assert multiplicity_at(p, Fraction(-1, 2)) == 2
    assert multiplicity_at(p, 3) == 1
    assert multiplicity_at(p, Fraction(1, 2)) == 0


def test_count_real_roots_examples():
    assert count_real_roots(Poly((1, 5)), -1, 0) == 1
    g5 = F.reduced_tan_sec_poly(5)
    assert count_real_roots(g5, -1, 0) == 2
    assert count_real_roots(Poly((1, 0, 1)), -10, 10) == 0


def test_count_real_roots_partitions():
    p = Poly((0, 1)) * Poly((-1, 1))  # roots at 0 and 1
    assert count_real_roots(p, Fraction(-1, 2), Fraction(3, 2)) == 2
    assert count_real_roots(p, Fraction(1, 2), 2) == 1
    assert count_real_roots(p, -2, Fraction(-1, 2)) == 0


def test_endpoint_root_rejected():
    with pytest.raises(EndpointIsRoot):
        count_real_roots(Poly((0, 1)), 0, 1)


def test_non_squarefree_rejected():
    with pytest.raises(NonSquarefreeInput):
        sturm_chain(ONE_PLUS_X**2)


def test_squarefree_part():
    p = ONE_PLUS_X**3 * Poly((1, 5))
    sf = squarefree_part(p)
    assert multiplicity_at(sf, -1) == 1
    assert sf(Fraction(-1, 5)) == 0
    assert sf.degree == 2


def test_isolate_roots_linear_and_quadratic():
    intervals = isolate_roots(Poly((1, 5)))
    assert len(intervals) == 1
    a, b = intervals[0]
    assert a < Fraction(-1, 5) < b
    g5 = F.reduced_tan_sec_poly(5)
    intervals = isolate_roots(g5)
    assert len(intervals) == 2
    # sign-check oracle: G_5(-1) = 4 > 0, G_5(-1/2) = -3/2 < 0, G_5(0) = 1 > 0,
    # so there is one root on each side of -1/2
    assert g5(-1) == 4
    assert g5(Fraction(-1, 2)) == Fraction(-3, 2)
    assert g5(0) == 1
    (a1, b1), (a2, b2) = intervals
    assert b1 <= a2
    assert g5(a1) * g5(b1) < 0 and g5(a2) * g5(b2) < 0


def test_isolate_roots_constant():
    assert isolate_roots(Poly.one()) == []


def test_isolate_roots_hits_rational_root_at_midpoint():
    # roots at -1/2 and 1/2; the first midpoint of a symmetric interval is 0,
    # and the midpoint of (a, 0] style halves lands exactly on roots often
    p = Poly((-1, 0, 4))  # 4x^2 - 1
    intervals = isolate_roots(p)
    assert len(intervals) == 2
    for (a, b), root in zip(intervals, (Fraction(-1, 2), Fraction(1, 2))):
        assert a < root < b


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
def test_sturm_chain_self_test_on_split_polynomials(roots_list):
    p = Poly.one()
    for r in roots_list:
        p = p * Poly((-r.numerator, r.denominator))  # root r, kept in Z[x]
    intervals = isolate_roots(p)
    assert len(intervals) == len(roots_list)
    for (a, b), r in zip(intervals, sorted(roots_list)):
        assert a < r < b
    lo, hi = Fraction(-9), Fraction(9)
    assert count_real_roots(p, lo, hi) == len(roots_list)
    # count over interval pieces agrees with interval membership
    mid = Fraction(1, 7)
    if p(mid) != 0:
        left = count_real_roots(p, lo, mid)
        assert left == sum(1 for r in roots_list if r <= mid)


def test_certify_root_structure_small_cases():
    rep1 = certify_root_structure(1)
    assert rep1.mult_minus1 == 1 and rep1.isolating_intervals == ()
    rep4 = certify_root_structure(4)
    assert rep4.mult_minus1 == 3
    assert len(rep4.isolating_intervals) == 1
    a, b = rep4.isolating_intervals[0]
    assert a < Fraction(-1, 5) < b
    rep5 = certify_root_structure(5)
    assert rep5.mult_minus1 == 3
    assert len(rep5.isolating_intervals) == 2


def test_certify_root_structure_full_range():
    for n in range(1, 26):
        rep = certify_root_structure(n)
        assert rep.mult_minus1 == n // 2 + 1
        assert len(rep.isolating_intervals) == (n + 1) // 2 - 1
        assert rep.all_in_range
        for a, b in rep.isolating_intervals:
            assert Fraction(-1) < a < b < Fraction(0)
        # intervals pairwise disjoint
        for (a1, b1), (a2, b2) in zip(rep.isolating_intervals, rep.isolating_intervals[1:]):
            assert b1 <= a2 or b2 <= a1


def test_certify_interlacing_full_range():
    for n in range(1, 26):
        assert certify_interlacing(n)


def test_interlacing_violation_on_unrelated_polys(monkeypatch):
    # roots that do not alternate: (x+1/2)(x+1/4) against (x+1/5)(x+1/6),
    # whose roots both sit right of both roots of the first polynomial
    fake = {
        2: ONE_PLUS_X**2 * Poly((1, 6, 8)),
        3: ONE_PLUS_X**3 * Poly((1, 11, 30)),
    }
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: fake[n])
    monkeypatch.setattr(
        F,
        "reduced_tan_sec_poly",
        lambda n: fake[n].exact_div(ONE_PLUS_X ** (n // 2 + 1)),
    )
    with pytest.raises(InterlacingViolation):
        certify_interlacing(2)


def test_structure_violation_on_corrupted_polynomial(monkeypatch):
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: Poly((1, 3, 3, 1)))
    with pytest.raises(StructureViolation):
        certify_root_structure(3)


def test_clt_stats_rejects_corrupted_polynomial(monkeypatch):
    # R_5 with its x^2 coefficient raised by one: R(1) is no longer 2 n!
    good = F.tan_sec_poly(5)
    corrupt = good + Poly.monomial(1, 2)
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: corrupt)
    with pytest.raises(ClosedFormViolation):
        clt_stats(5)
    # the same polynomial rebalanced so R(1) holds and R'(1) fails
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: corrupt - Poly.monomial(1, 1))
    with pytest.raises(ClosedFormViolation):
        clt_stats(5)


def test_clt_stats_reference_values():
    s4 = clt_stats(4)
    assert s4.value_at_1 == 48
    assert s4.deriv1_at_1 == 112
    assert s4.mu == Fraction(7, 3)
    assert s4.sigma2 == Fraction(8, 9)
    assert clt_stats(5).mu == 3
    s2 = clt_stats(2)
    assert s2.mu == 1
    assert s2.sigma2 == Fraction(1, 2)


def test_clt_closed_forms_through_30():
    for n in range(4, 31):
        s = clt_stats(n)
        assert s.mu == Fraction(2 * n - 1, 3)
        assert s.sigma2 == Fraction(8 * n + 8, 45)


def test_clt_small_cases_computed_but_not_asserted():
    # n = 2, 3 fall outside the closed-form range; the generic statistics
    # still exist and the n >= 4 variance formula genuinely fails there
    s3 = clt_stats(3)
    assert s3.mu == Fraction(5, 3)
    assert s3.sigma2 == Fraction(13, 18)
    assert s3.sigma2 != Fraction(8 * 3 + 8, 45)


def test_variance_grows_linearly():
    values = [clt_stats(n).sigma2 for n in range(4, 31)]
    diffs = {b - a for a, b in zip(values, values[1:])}
    assert diffs == {Fraction(8, 45)}


def test_mode_bracket_reference_rows():
    assert mode_bracket(5).argmax == (3,)
    assert mode_bracket(6).argmax == (4,)
    assert mode_bracket(2).argmax == (1,)
    for n in range(2, 26):
        result = mode_bracket(n)
        assert result.ok
        assert not result.tie
