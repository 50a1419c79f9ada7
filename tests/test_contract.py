"""The input contract of the library.

Every public function that takes a count accepts its minimum and refuses one
below it with peakpoly.LimitExceeded, worded `<name> <value> below minimum
<minimum>` with the name of its own argument.  The tables below give every
public name of the package (`peakpoly.__all__`) and every public function of
families, roots, series and identities a contract: a count and its minimum,
the value at an empty input, or no count at all.  A public name missing from
them fails here.  A count with a cap as well accepts it and refuses one above
it, worded `<name> <value> above cap <cap>`; only peakpoly's two helpers word
either refusal, and the CLI its family caps.  No bound checked here rests
on `assert`: tests/test_no_assert.py forbids it in the package, so a
`python -O` run refuses what a plain run refuses.
"""

import ast
import inspect
import re
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peakpoly
from peakpoly import LimitExceeded
from peakpoly import families as F
from peakpoly import identities as I
from peakpoly import permutations as P
from peakpoly import roots as R
from peakpoly import series as S
from peakpoly.polynomial import Poly, hurwitz_mul

# Each function that takes a count: (a call of it at that count, the
# argument its refusal names, the least count it accepts).
COUNTS = {
    "polynomial.Poly.monomial": (lambda n: Poly.monomial(1, n), "power", 0),
    "polynomial.Poly.__pow__": (lambda n: Poly((1, 1)) ** n, "n", 0),
    "polynomial.hurwitz_mul": (lambda n: hurwitz_mul((Poly.one(), Poly.constant(2)), (Poly.constant(3),), n),
                               "order", 0),
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
    "families.bell_sum": (lambda n: [F.bell_sum(n, c, w) for c, w in ((1, 1), (2, 0))], "n", 0),
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
    "series.TruncSeries.shift_z": (lambda k: S.TruncSeries.const(1, 3).shift_z(k), "k", 0),
    "series.TruncSeries.egf_poly": (lambda m: S.TruncSeries.const(1, 3).egf_poly(m), "m", 0),
    # dz refuses the order of its series; a stand-in holds any order, a negative one too
    "series.TruncSeries.dz": (
        lambda n: S.TruncSeries.dz(types.SimpleNamespace(order=n, coeffs=(Poly.one(),) * (n + 1))), "order", 1),
    # the first route of each family, the one `peakpoly poly` prints, and
    # every route: none reads an entry of an EGF below the family's minimum
    **{f"series.Family.poly[{name}]": (family.poly, "n", family.min_n) for name, family in S.FAMILIES.items()},
    **{f"series.FAMILIES[{name}].{route_name}": (route, "n", family.min_n)
       for name, family in S.FAMILIES.items() for route_name, route in family.routes.items()},
    # every check of identities; one that reads routes reads one fixed set of them
    "identities.check_row_interleave": (I.check_row_interleave, "n", 1),
    "identities.check_stembridge": (I.check_stembridge, "n", 1),
    "identities.check_bell_expansion": (I.check_bell_expansion, "n", 1),
    "identities.check_bell_x0": (I.check_bell_x0, "n", 0),
    "identities.check_bell_x1": (I.check_bell_x1, "n", 0),
    "identities.check_routes_agree": (lambda n: I.check_routes_agree(n, "C.oracle", "C.gf", "W.oracle", "W.triangle"),
                                      "n", 1),
    "identities.check_oracle_alternating": (I.check_oracle_alternating, "n", 1),
    "identities.check_oracle_internal_zeros": (
        lambda n: I.check_oracle_internal_zeros(n, "W.oracle", "WL.oracle", "A.oracle"), "n", 1),
    "identities.check_oracle_by_definition": (I.check_oracle_by_definition, "n", 1),
    "identities.check_gf": (lambda n: [I.check_gf(n, gf_id) for gf_id in S.EGFS], "order", 0),
    "identities.check_t_vs_eulerian": (I.check_t_vs_eulerian, "order", 0),
    "identities.check_pde": (I.check_pde, "order", 0),
    "identities.check_numeric_spot": (lambda n: I.check_numeric_spot(n, Fraction(1, 2), Fraction(1, 20), 0.5),
                                      "order", 0),
    "identities.check_mode_bracket": (I.check_mode_bracket, "n", 2),
    "identities.check_clt_moments": (I.check_clt_moments, "n", 4),
}

# Each row of COUNTS with a cap too: the cap.
CAPS = {
    "permutations.distribution": P.S_N_LIMIT,
    "permutations.signed_distribution": P.SIGNED_LIMIT,
    "permutations.count_alternating": P.S_N_LIMIT,
    "series.TruncSeries.egf_poly": 3,  # the order of the series of its COUNTS row
    **dict.fromkeys(("series.closed_form_sides", "series.engine_series", "series.solved_family_polys"), S.MAX_ORDER),
    **{f"series.FAMILIES[{name}].gf": S.MAX_ORDER for name, family in S.FAMILIES.items() if "gf" in family.routes},
    **{f"series.FAMILIES[{name}].oracle": P.SIGNED_LIMIT if name in ("C", "CT") else P.S_N_LIMIT
       for name, family in S.FAMILIES.items() if "oracle" in family.routes},
}

# Each function of a sequence: its value at the empty one.
EMPTY = {
    "permutations.perm_stats": (lambda: P.perm_stats(()), P.PermStats(0, 0, 0)),
}

# The public names that take no count, and why.
NO_COUNT = {
    **dict.fromkeys(("polynomial.Poly", "polynomial.NonzeroRemainder", "polynomial.DivisionByZeroPoly",
                     "permutations.PermStats", "permutations.StatDistribution", "permutations.NotAPermutation",
                     "peakpoly.LimitExceeded", "peakpoly.Violation"),
                    "a class; the methods that take a count are rows of COUNTS"),
    **dict.fromkeys(("polynomial.gcd_poly", "polynomial.primitive_part", "roots.sturm_chain",
                     "series.solve_series"), "takes polynomials or series"),
    "families.interleave_rows": "takes two rows",
    "identities.first_difference": "its n only labels the witness",
    "identities.has_internal_zeros": "takes a sequence of counts",
    "identities.aggregate_verdict": "takes check results",
    **dict.fromkeys(("identities.plan", "identities.run"),
                    "takes the RANGES knobs, which plan refuses below 1 and above their caps (tested below)"),
}


def _key(obj) -> str:
    return f"{obj.__module__.removeprefix('peakpoly.')}.{obj.__name__}"


def _public_names() -> set[str]:
    names = {_key(getattr(peakpoly, name)) for name in peakpoly.__all__
             if not isinstance(getattr(peakpoly, name), (types.ModuleType, str))}
    for module in (F, R, S, I):
        names |= {_key(obj) for name, obj in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__}
    return names


def _refusal(name: str, n: int) -> str:
    _, arg, minimum = COUNTS[name]
    return f"{arg} {n} below minimum {minimum}"


def test_every_public_name_has_a_contract():
    tables = (COUNTS, EMPTY, NO_COUNT)
    assert _public_names() - {name for table in tables for name in table} == set()
    assert sum(map(len, tables)) == len({name for table in tables for name in table})  # no name twice


def _readme_minimums() -> dict[str, int]:
    """The README's table of minimums as {COUNTS key: minimum}.

    A cell groups names by module (`families`: `a`, `b`; ...); a name
    outside a group is exported by peakpoly or starts with its module.
    Parenthesised notes are dropped.  The families' routes are not in the
    table: the text under it gives each the family's min_n.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| minimum | functions |\n", 1)[1].split("\n\n", 1)[0]
    minimums = {}
    for minimum, cell in re.findall(r"^\| (\d+) \| (.+) \|$", table, re.M):
        for group in re.sub(r"\([^)]*\)", "", cell).split(";"):
            module = re.match(r"\s*`(\w+)`:", group)
            for name in re.findall(r"`([^`]+)`", group[module.end():] if module else group):
                obj = getattr(peakpoly, module[1]) if module else peakpoly
                for part in name.replace(" ** n", ".__pow__").split("."):
                    obj = getattr(obj, part)
                minimums[f"{obj.__module__.removeprefix('peakpoly.')}.{obj.__qualname__}"] = int(minimum)
    return minimums


def test_the_readme_table_of_minimums_is_counts():
    routes = ("series.Family.poly[", "series.FAMILIES[")
    assert _readme_minimums() == {name: row[2] for name, row in COUNTS.items() if not name.startswith(routes)}


def test_one_exception_type_for_both_ends():
    assert "LimitExceeded" in peakpoly.__all__ and issubclass(LimitExceeded, ValueError)
    with pytest.raises(LimitExceeded) as info:
        P.distribution(P.S_N_LIMIT + 1, "pk")
    assert str(info.value) == f"n {P.S_N_LIMIT + 1} above cap {P.S_N_LIMIT}"
    gf = S.FAMILIES["A"].routes["gf"]
    for n, text in ((0, "n 0 below minimum 1"), (S.MAX_ORDER + 1, f"n {S.MAX_ORDER + 1} above cap {S.MAX_ORDER}")):
        with pytest.raises(LimitExceeded) as info:
            gf(n)
        assert str(info.value) == text


def test_only_the_two_helpers_and_the_family_caps_of_the_cli_construct_the_refusal():
    sources = Path(peakpoly.__file__).parent.glob("*.py")
    constructed = Counter(
        path.name for path in sources for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "LimitExceeded" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    assert constructed == {"__init__.py": 2, "cli.py": 1}


SUITES = ("all", *dict.fromkeys(check.suite for check in I.CHECKS))


def _no_work(*args, **kwargs):
    raise AssertionError("a check ran")


@pytest.mark.parametrize("knob", I.RANGES, ids=lambda knob: knob.name)
def test_the_library_run_refuses_each_knob_above_its_cap_before_any_check(monkeypatch, knob):
    monkeypatch.setattr(I, "_aggregate", _no_work)
    for suite in SUITES:
        with pytest.raises(LimitExceeded) as info:
            I.run(suite, **{knob.name: knob.cap + 1})
        assert str(info.value) == f"{knob.name} {knob.cap + 1} above cap {knob.cap}", suite


@pytest.mark.parametrize("knob", I.RANGES, ids=lambda knob: knob.name)
def test_the_library_run_refuses_each_knob_below_one_before_any_check(monkeypatch, knob):
    monkeypatch.setattr(I, "_aggregate", _no_work)
    for suite in SUITES:
        for value in (0, -5):
            with pytest.raises(LimitExceeded) as info:
                I.run(suite, **{knob.name: value})
            assert str(info.value) == f"{knob.name} {value} below minimum 1", (suite, value)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_each_count_is_accepted_at_its_minimum_and_refused_below_it(name):
    call, _, minimum = COUNTS[name]
    call(minimum)
    # two below too: the refusal names the value given, not one a later call
    # derives from it, and a check never returns a witness there (a false fail)
    for n in (minimum - 1, minimum - 2):
        with pytest.raises(LimitExceeded) as info:
            call(n)
        assert str(info.value) == _refusal(name, n)


@pytest.mark.parametrize("name", sorted(CAPS))
def test_each_capped_count_is_accepted_at_its_cap_and_refused_above_it(name):
    call, arg, _ = COUNTS[name]
    cap = CAPS[name]
    call(cap)  # an order-64 solve is shared with the every-route test below, through the memos of series._SOLVES
    with pytest.raises(LimitExceeded) as info:
        call(cap + 1)
    assert str(info.value) == f"{arg} {cap + 1} above cap {cap}"


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
