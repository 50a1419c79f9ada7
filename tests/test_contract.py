"""The input contract of the library.

Every public function that takes a count accepts its minimum and refuses one
below it with peakpoly.LimitExceeded, worded `<name> <value> below minimum
<minimum>` with the name of its own argument.  The tables below give every
public name of the package (`peakpoly.__all__`) and every public function of
families, roots and series a contract: a count and its minimum, the value at
an empty input, a relation between two counts with its own ValueError, or no
count at all.  A public name missing from them fails here.  The module also
runs under `python -O`, so no bound it checks rests on `assert`.
"""

import inspect
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peakpoly
from peakpoly import LimitExceeded
from peakpoly import families as F
from peakpoly import permutations as P
from peakpoly import roots as R
from peakpoly import series as S
from peakpoly.polynomial import Poly, hurwitz_mul

# Each function that takes a count: (a call of it at that count, the
# argument its refusal names, the least count it accepts).
COUNTS = {
    "polynomial.Poly.monomial": (lambda n: Poly.monomial(1, n), "power", 0),
    "polynomial.Poly.__pow__": (lambda n: Poly((1, 1)) ** n, "n", 0),
    "polynomial.hurwitz_mul": (lambda n: hurwitz_mul((1, 2), (3,), n), "order", 0),
    "permutations.distribution": (lambda n: [P.distribution(n, stat) for stat in P.PERM_STATS], "n", 1),
    "permutations.signed_distribution": (lambda n: [P.signed_distribution(n, s) for s in P.SIGNED_STATS], "n", 1),
    "permutations.count_alternating": (lambda n: (P.count_alternating(n), P.count_alternating(n, reverse=True)),
                                       "n", 1),
    "families.Memo.upto": (lambda n: F.Memo((1,), lambda terms, m: terms[-1] + 1).upto(n), "n", 0),
    "families.tangent_derivative_poly": (F.tangent_derivative_poly, "n", 0),
    "families.secant_derivative_poly": (F.secant_derivative_poly, "n", 0),
    "families.euler_numbers": (F.euler_numbers, "nmax", 0),
    "families.tan_sec_polys": (F.tan_sec_polys, "nmax", 0),
    "families.tan_sec_poly": (F.tan_sec_poly, "n", 0),
    "families.peak_poly": (F.peak_poly, "n", 1),
    "families.left_peak_poly": (F.left_peak_poly, "n", 1),
    "families.eulerian_poly": (F.eulerian_poly, "n", 1),
    "families.type_b_eulerian_poly": (F.type_b_eulerian_poly, "n", 1),
    "families.affine_eulerian_poly": (F.affine_eulerian_poly, "n", 1),
    "families.signed_interleave_poly": (F.signed_interleave_poly, "n", 1),
    "families.tangent_poly_from_peaks": (F.tangent_poly_from_peaks, "n", 0),
    "families.secant_poly_from_peaks": (F.secant_poly_from_peaks, "n", 0),
    "families.type_b_poly_from_peaks": (F.type_b_poly_from_peaks, "n", 1),
    "families.affine_poly_from_peaks": (F.affine_poly_from_peaks, "n", 1),
    "families.type_b_poly_from_eulerian": (F.type_b_poly_from_eulerian, "n", 1),
    "families.peak_transform": (lambda m: [F.peak_transform(p, m, F.FOUR_X, F.ONE_PLUS_X)
                                           for p in (Poly.zero(), Poly.one())], "m", 0),
    "families.cvijovic_polys": (F.cvijovic_polys, "n", 0),
    "families.tan_sec_poly_from_bell": (F.tan_sec_poly_from_bell, "n", 1),
    "families.factorial_bell_sum": (F.factorial_bell_sum, "n", 0),
    "families.reduced_tan_sec_poly": (F.reduced_tan_sec_poly, "n", 1),
    "roots.certify_root_structure": (R.certify_root_structure, "n", 1),
    "roots.certify_interlacing": (R.certify_interlacing, "n", 1),
    "roots.clt_stats": (R.clt_stats, "n", 1),
    "roots.mode_bracket": (R.mode_bracket, "n", 2),
    "series.closed_form_sides": (lambda n: [S.closed_form_sides(gf_id, n) for gf_id in S.EGFS], "order", 0),
    "series.engine_series": (lambda n: [S.engine_series(gf_id, n) for gf_id in S.EGFS], "order", 0),
    "series.solved_family_polys": (lambda n: [S.solved_family_polys(gf_id, n) for gf_id in S.EGFS], "order", 0),
    "series.numeric_spotcheck": (lambda n: S.numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), n, 0.5), "order", 0),
    "series.TruncSeries": (lambda n: S.TruncSeries(n, (Poly.one(),) * (n + 1)), "order", 0),
    "series.TruncSeries.const": (lambda n: S.TruncSeries.const(1, n), "order", 0),
    # the first route of each family, the one `peakpoly poly` prints, and
    # every route: none reads an entry of an EGF below the family's minimum
    **{f"series.Family.poly[{name}]": (family.poly, "n", family.min_n) for name, family in S.FAMILIES.items()},
    **{f"series.FAMILIES[{name}].{route_name}": (route, "n", family.min_n)
       for name, family in S.FAMILIES.items() for route_name, route in family.routes.items()},
}

# Each function of a sequence: its value at the empty one.
EMPTY = {
    "permutations.perm_stats": (lambda: P.perm_stats(()), P.PermStats(0, 0, 0)),
    "permutations.signed_stats": (lambda: P.signed_stats(()), P.SignedStats(0, 0)),
}

# Each function of two counts n and k that needs 0 <= k <= n: a call of it
# and the ValueError text of its refusal.
RELATIONS = {
    "families.stirling2": (F.stirling2, "need 0 <= k <= n"),
    "families.bell_partial": (lambda n, k: F.bell_partial(n, k, (1,) * 8), "need 0 <= k <= n"),
    "families.tangent_numbers_table": (F.tangent_numbers_table, "need 0 <= kmax <= nmax"),
    "families.secant_numbers_table": (F.secant_numbers_table, "need 0 <= kmax <= nmax"),
}

# The public names that take no count, and why.
NO_COUNT = {
    **dict.fromkeys(("polynomial.Poly", "polynomial.NonzeroRemainder", "polynomial.DivisionByZeroPoly",
                     "permutations.PermStats", "permutations.SignedStats", "permutations.StatDistribution",
                     "permutations.NotAPermutation", "permutations.NotASignedPermutation", "peakpoly.LimitExceeded"),
                    "a class; the methods that take a count are rows of COUNTS"),
    **dict.fromkeys(("polynomial.gcd_poly", "polynomial.primitive_part", "roots.sturm_chain", "roots.multiplicity_at",
                     "series.solve_series"), "takes polynomials or series"),
    "families.interleave_rows": "takes two rows",
}


def _key(obj) -> str:
    return f"{obj.__module__.removeprefix('peakpoly.')}.{obj.__name__}"


def _public_names() -> set[str]:
    names = {_key(getattr(peakpoly, name)) for name in peakpoly.__all__
             if not isinstance(getattr(peakpoly, name), (types.ModuleType, str))}
    for module in (F, R, S):
        names |= {_key(obj) for name, obj in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__}
    return names


def _refusal(name: str, n: int) -> str:
    _, arg, minimum = COUNTS[name]
    return f"{arg} {n} below minimum {minimum}"


def test_every_public_name_has_a_contract():
    tables = (COUNTS, EMPTY, RELATIONS, NO_COUNT)
    assert _public_names() - {name for table in tables for name in table} == set()
    assert sum(map(len, tables)) == len({name for table in tables for name in table})  # no name twice


def test_one_exception_type_for_both_ends():
    assert peakpoly.LimitExceeded is P.LimitExceeded
    assert "LimitExceeded" in peakpoly.__all__ and issubclass(LimitExceeded, ValueError)
    with pytest.raises(LimitExceeded) as info:
        P.distribution(P.S_N_LIMIT + 1, "pk")
    assert str(info.value) == f"n {P.S_N_LIMIT + 1} above cap {P.S_N_LIMIT}"


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_each_count_is_accepted_at_its_minimum_and_refused_below_it(name):
    call, _, minimum = COUNTS[name]
    call(minimum)
    with pytest.raises(LimitExceeded) as info:
        call(minimum - 1)
    assert str(info.value) == _refusal(name, minimum - 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COUNTS)), st.data())
def test_a_count_near_its_minimum_raises_nothing_but_the_refusal(name, data):
    call, _, minimum = COUNTS[name]
    n = data.draw(st.integers(min_value=-3, max_value=minimum + 3))
    if n >= minimum:
        call(n)
        return
    with pytest.raises(LimitExceeded) as info:
        call(n)
    assert str(info.value) == _refusal(name, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RELATIONS)), st.integers(min_value=-3, max_value=6), st.integers(min_value=-3, max_value=6))
def test_a_relation_of_two_counts_refuses_with_its_own_text(name, n, k):
    call, text = RELATIONS[name]
    if 0 <= k <= n:
        call(n, k)
        return
    with pytest.raises(ValueError) as info:
        call(n, k)
    assert type(info.value) is ValueError and str(info.value) == text


@pytest.mark.parametrize("name", sorted(EMPTY))
def test_the_empty_sequence_has_zero_statistics(name):
    call, value = EMPTY[name]
    assert call() == value


def test_every_route_of_every_family_agrees_up_to_min_cap_64():
    # from min_n up: below it every route refuses, as the route rows of COUNTS check
    disagree = []
    for name, family in S.FAMILIES.items():
        for n in range(family.min_n, min(family.cap, 64) + 1):
            values = set()
            for route_name, route in family.routes.items():
                try:
                    values.add(route(n))
                except LimitExceeded:  # only an oracle route, past its enumeration cap
                    if route_name != "oracle":
                        raise
            if len(values) != 1:
                disagree.append((name, n))
    assert disagree == []
