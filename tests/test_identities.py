import ast
import itertools
import json
import math
import types
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peakpoly import LimitExceeded, Violation, cli
from peakpoly import families as F
from peakpoly import identities as I
from peakpoly import permutations as perms
from peakpoly import roots as R
from peakpoly import series as S
from peakpoly.polynomial import NonzeroRemainder, Poly

ONE_PLUS_X = Poly((1, 1))

small_polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=5).map(Poly)


def _corrupt_row(monkeypatch, accessor, n, change):
    """Rebind families.<accessor> so that its polynomial at n has the
    coefficients change(its row)."""
    real = getattr(F, accessor)
    monkeypatch.setattr(F, accessor, lambda m: Poly(change(real(m).coeffs)) if m == n else real(m))


def _top_two_of_r5_swapped(row):
    # R_5 = (1, 16, 58, 88, 61, 16) with its two largest entries swapped
    return (*row[:3], row[4], row[3], *row[5:])


def test_row_interleave_reference_row():
    # row 4 merges the two peak rows: odd slots [8, 16], even slots [1, 18, 5]
    assert F.interleave_rows((8, 16), (1, 18, 5)) == (1, 8, 18, 16, 5)
    assert I.check_row_interleave(4) is None


def test_row_interleave_euler_corner():
    assert I.check_row_interleave(2) is None
    assert I.check_row_interleave(6) is None


def test_row_interleave_detects_corruption(monkeypatch):
    _corrupt_row(monkeypatch, "tan_sec_poly", 5, lambda row: [v + (k == 2) for k, v in enumerate(row)])
    witness = I.check_row_interleave(5)
    assert witness is not None
    assert witness.n == 5 and witness.index == 2
    assert witness.lhs == "59" and witness.rhs == "58"


def _plus_one_at(k):
    return lambda row: [v + (i == k) for i, v in enumerate(row)]


def _row_and_peak_row(monkeypatch, peak_accessor, k, peak_k):
    """R_5 and the peak row it interleaves, each with one entry raised by
    one, so that the interleave holds and only a row fact can fail."""
    _corrupt_row(monkeypatch, "tan_sec_poly", 5, _plus_one_at(k))
    _corrupt_row(monkeypatch, peak_accessor, 5, _plus_one_at(peak_k))


def _euler_plus_one(monkeypatch, n):
    real = F.euler_numbers
    monkeypatch.setattr(F, "euler_numbers", lambda m: tuple(v + (i == n) for i, v in enumerate(real(m))))


# R_5 = (1, 16, 58, 88, 61, 16): its even entries are WL_5 = (1, 58, 61) and
# its odd ones W_5 = (16, 88, 16); E_5 = 16, and R_4 = (1, 8, 18, 16, 5).
@pytest.mark.parametrize("corrupt, witness", [
    pytest.param(lambda mp: _row_and_peak_row(mp, "left_peak_poly", 0, 0), I.Witness(5, 0, "2", "1"), id="leading_1"),
    pytest.param(lambda mp: _row_and_peak_row(mp, "peak_poly", 1, 0), I.Witness(5, 1, "17", "16"), id="second_2^(n-1)"),
    pytest.param(lambda mp: _row_and_peak_row(mp, "left_peak_poly", 2, 1), I.Witness(5, -1, "241", "240"),
                 id="row_sum_2n!"),
    pytest.param(lambda mp: _euler_plus_one(mp, 5), I.Witness(5, 5, "16", "17"), id="E_n_last_entry_of_R_n"),
    pytest.param(lambda mp: _corrupt_row(mp, "tan_sec_poly", 4, _plus_one_at(3)), I.Witness(4, 3, "17", "16"),
                 id="E_n_at_n-2_of_R_(n-1)"),
])
def test_row_interleave_reports_each_row_fact_that_fails_alone(monkeypatch, corrupt, witness):
    assert I.check_row_interleave(5) is None
    corrupt(monkeypatch)
    assert I.check_row_interleave(5) == witness


def test_triangle_rows_at_the_cap_sum_and_interleave(capsys):
    # row_interleave stops at nmax_exact <= 64; the rows the CLI prints up to
    # its cap of 128 are checked here
    rows = {}
    for family in ("R", "W", "WL"):
        assert cli.main(["triangle", "--family", family, "--nmax", "128"]) == 0
        rows[family] = [tuple(map(int, line.split(","))) for line in capsys.readouterr().out.splitlines()]
    assert [len(rows[family]) for family in ("R", "W", "WL")] == [129, 128, 128]
    for n in range(1, 129):
        w_row, wl_row, r_row = rows["W"][n - 1], rows["WL"][n - 1], rows["R"][n]
        assert sum(w_row) == sum(wl_row) == math.factorial(n), n
        assert sum(r_row) == 2 * math.factorial(n), n
        assert r_row == F.interleave_rows(w_row, wl_row), n
    assert rows["R"][0] == (1,)


def test_every_agreement_row_reads_whole_pairs():
    # check_routes_agree compares reads[::2] with reads[1::2], so an odd last
    # read would never be compared
    for check in I.CHECKS:
        if check.fn == "check_routes_agree":
            assert check.reads and len(check.reads) % 2 == 0, check.check_id


@pytest.mark.parametrize("fn, reads, text", [
    ("check_routes_agree", (), "need pairs of reads, got 0"),
    ("check_routes_agree", ("A.oracle",), "need pairs of reads, got 1"),
    ("check_routes_agree", ("A.oracle", "A.recurrence", "W.oracle"), "need pairs of reads, got 3"),
    ("check_oracle_internal_zeros", (), "need at least one read, got 0"),
], ids=["agree-0", "agree-1", "agree-3", "internal-zeros-0"])
def test_a_check_given_nothing_to_compare_refuses_instead_of_passing(fn, reads, text):
    with pytest.raises(ValueError) as info:
        getattr(I, fn)(3, *reads)
    assert type(info.value) is ValueError and str(info.value) == text


@given(small_polys, st.integers(min_value=0, max_value=3), small_polys, small_polys)
def test_peak_transform_is_the_literal_sum(p, spare, a, b):
    m = 2 * max(p.degree, 0) + spare
    expected = sum((c * a**k * b ** (m - 2 * k) for k, c in enumerate(p.coeffs)), Poly.zero())
    assert F.peak_transform(p, m, a, b) == expected
    if p.degree >= 1:  # a row with an entry past floor(m/2) is refused
        with pytest.raises(F.RowTooLong):
            F.peak_transform(p, 2 * p.degree - 1, a, b)


W_CHECKS = {"row_interleave", "peak_to_derivative", "stembridge", "dilks_affine_gf"}
WL_CHECKS = {"row_interleave", "peak_to_derivative", "petersen", "dilks_type_b_gf"}


@pytest.mark.parametrize(
    "accessor, change, failing, too_long",
    [
        ("peak_poly", lambda row: (row[0], row[1] + 1, *row[2:]), W_CHECKS, False),
        ("left_peak_poly", lambda row: (row[0], row[1] + 1, *row[2:]), WL_CHECKS, False),
        ("peak_poly", lambda row: [0] * len(row), W_CHECKS, False),
        # a row longer than its degree allows: the transform refuses it, and
        # the interleaved row has an entry R_5 lacks
        ("peak_poly", lambda row: (*row, 1), W_CHECKS, True),
    ],
    ids=["W5_entry", "WL5_entry", "W5_zero", "W5_too_long"],
)
def test_each_peak_transform_check_sees_a_corrupted_row_5(monkeypatch, accessor, change, failing, too_long):
    _corrupt_row(monkeypatch, accessor, 5, change)
    flagged = {r.check_id: r for r in I.run("identities", nmax_exact=8, signed_nmax=4) if r.verdict != "pass"}
    assert set(flagged) == failing
    assert all(r.verdict == "fail" and r.witness.n == 5 for r in flagged.values())
    if too_long:
        assert flagged.pop("row_interleave").witness == I.Witness(5, 6, "None", "1")
        assert all(r.witness[1:3] == (-1, "RowTooLong") for r in flagged.values())


AGREEMENTS = [(check, name) for check in I.CHECKS if check.fn == "check_routes_agree" for name in check.reads]
# a case is named by its route, and by route@row where an earlier row reads the route too
AGREEMENT_IDS = [
    name if name not in [earlier for _, earlier in AGREEMENTS[:i]] else f"{name}@{row.check_id}"
    for i, (row, name) in enumerate(AGREEMENTS)
]


@pytest.mark.parametrize("row, name", AGREEMENTS, ids=AGREEMENT_IDS)
def test_each_route_an_agreement_row_reads_can_fail_it(monkeypatch, row, name):
    # The row's own suite, with signed_nmax below 4 where the row starts past
    # it; exactly the agreement rows that read the route over a range holding
    # n = 4 fail, there.
    family, route = name.split(".")
    real = S.FAMILIES[family].routes[route]
    monkeypatch.setitem(S.FAMILIES[family].routes, route, lambda n: real(n) + 1 if n == 4 else real(n))
    ranges = dict(nmax_exact=6, oracle_nmax=6, signed_nmax=3 if row.lo == "signed_nmax" else 4)
    spans = I.plan(row.suite, {knob.name: knob.default for knob in I.RANGES} | ranges)
    expected = [
        check.check_id for check, lo, hi in spans
        if check.fn == "check_routes_agree" and name in check.reads and lo <= 4 <= hi
    ]
    assert row.check_id in expected
    flagged = [r for r in I.run(row.suite, **ranges) if r.verdict != "pass"]
    assert [(r.check_id, r.verdict, r.witness.n) for r in flagged] == [(check_id, "fail", 4) for check_id in expected]


def test_an_oracle_row_with_an_internal_zero_fails_the_rows_that_read_it(monkeypatch):
    real = S.FAMILIES["W"].routes["oracle"]
    monkeypatch.setitem(S.FAMILIES["W"].routes, "oracle", lambda n: Poly((1, 0, 1)) if n == 4 else real(n))
    flagged = {r.check_id: r.witness for r in I.run("oracle", oracle_nmax=6, signed_nmax=4) if r.verdict != "pass"}
    assert flagged == {
        "oracle_peak_rows": I.Witness(4, 0, "1", "8"),
        "oracle_no_internal_zeros": I.Witness(4, 0, "W.oracle", "internal zero"),
    }


def test_the_oracle_checks_refuse_above_the_cap_before_any_reference_work(monkeypatch):
    # the package's enumeration holds the cap and runs first, so neither the
    # by-definition enumeration of S_n nor E_n is built for an n it refuses
    calls = []

    def record(name):
        return lambda *args, **kwargs: calls.append(name) or ()

    monkeypatch.setattr(I, "itertools", types.SimpleNamespace(permutations=record("permutations"),
                                                              product=record("product")))
    monkeypatch.setattr(F, "euler_numbers", record("euler_numbers"))
    for check in (I.check_oracle_by_definition, I.check_oracle_alternating):
        with pytest.raises(LimitExceeded) as info:
            check(11)
        assert str(info.value) == "n 11 above cap 10"
    assert calls == []


def _count_alternating_off_by_one(monkeypatch, n):
    real = perms.count_alternating
    monkeypatch.setattr(perms, "count_alternating",
                        lambda m, reverse=False: real(m, reverse=reverse) + (reverse and m == n))


def _tan_sec_poly_plus_x2(monkeypatch, n):
    real = F.tan_sec_poly
    monkeypatch.setattr(F, "tan_sec_poly", lambda m: real(m) + Poly((0, 0, 1)) if m == n else real(m))


def _identity_with_one_descent(monkeypatch, n):
    # the check counts descents over identities' itertools.permutations, which
    # here yields S_n's identity as (2, 1, 3, ..., n), a one-descent permutation
    identity, swapped = tuple(range(1, n + 1)), (2, 1, *range(3, n + 1))

    def permutations(items):
        return (swapped if pi == identity else pi for pi in itertools.permutations(items))

    monkeypatch.setattr(I, "itertools", types.SimpleNamespace(permutations=permutations, product=itertools.product))


@pytest.mark.parametrize("suite, ranges, corrupt, failed", [
    # R_5 with its two largest entries swapped: the largest sits at 4, one
    # place right of the bracket {(2*5-1)/3}.  The two root checks read R_5
    # through tan_sec_poly too, and -1 is no longer a zero of it of
    # multiplicity 3.
    pytest.param("roots", dict(roots_nmax=8), lambda mp: _corrupt_row(mp, "tan_sec_poly", 5, _top_two_of_r5_swapped),
                 [I.CheckResult("root_structure", (1, 8), "fail", I.Witness(
                     5, -1, "StructureViolation", "multiplicity: -1 is a zero of R_5 of multiplicity below 3")),
                  I.CheckResult("interlacing", (1, 8), "fail", I.Witness(
                      4, -1, "InterlacingViolation", "at n=4: -1 is a zero of R_5 of multiplicity below 3")),
                  I.CheckResult("mode_bracket", (2, 8), "fail", I.Witness(5, 4, "(4,)", "(3,)"))], id="mode_bracket"),
    # one reverse alternating permutation of S_4 too many: 6 against E_4 = 5
    pytest.param("oracle", dict(oracle_nmax=6, signed_nmax=4), lambda mp: _count_alternating_off_by_one(mp, 4),
                 [I.CheckResult("oracle_alternating", (1, 6), "fail", I.Witness(4, 1, "6", "5"))],
                 id="oracle_alternating"),
    # R_6 plus x^2: its total R_6(1) reads 1441 against the closed form 2 * 6! = 1440
    pytest.param("clt", dict(clt_nmax=8), lambda mp: _tan_sec_poly_plus_x2(mp, 6),
                 [I.CheckResult("clt_moments", (6, 6), "fail", I.Witness(6, 0, "1441", "1440"))], id="clt_moments"),
    # the identity of S_6 counted with one descent: the definition's des = 0 count is 1, the walk's 0
    pytest.param("oracle", dict(oracle_nmax=6, signed_nmax=4), lambda mp: _identity_with_one_descent(mp, 6),
                 [I.CheckResult("oracle_shard_determinism", (6, 6), "fail", I.Witness(6, 0, "1", "0"))],
                 id="oracle_shard_determinism"),
])
def test_a_check_reading_its_input_directly_fails_on_it_alone(monkeypatch, suite, ranges, corrupt, failed):
    corrupt(monkeypatch)
    assert [r for r in I.run(suite, **ranges) if r.verdict != "pass"] == failed


@pytest.mark.parametrize("accessor, route, change", [
    ("tan_sec_poly", "R.triangle", _top_two_of_r5_swapped),
    ("peak_poly", "W.triangle", lambda row: (row[0], row[1] + 1, *row[2:])),
    ("left_peak_poly", "WL.triangle", lambda row: (row[0], row[1] + 1, *row[2:])),
], ids=["R", "W", "WL"])
def test_a_corrupted_route_function_reaches_every_check_that_reads_the_route(monkeypatch, accessor, route, change):
    # The function a family's first route calls is the one name through which
    # every check reads the family, so corrupting it at n = 5 fails each check
    # whose reads name the route, with a counterexample and not an error.
    row = getattr(F, accessor)(5).coeffs
    _corrupt_row(monkeypatch, accessor, 5, change)
    family, route_name = route.split(".")
    assert S.FAMILIES[family].routes[route_name](5).coeffs == tuple(change(row))
    readers = {check.check_id for check in I.CHECKS if route in check.reads}
    results = I.run("all", nmax_exact=6, oracle_nmax=6, signed_nmax=4, gf_order=6, roots_nmax=6, clt_nmax=6)
    flagged = {r.check_id: r.verdict for r in results if r.verdict != "pass"}
    assert set(flagged.values()) == {"fail"}
    if family == "R":  # nothing else reads R_5
        assert set(flagged) == readers and len(readers) == 11
    else:  # the peak routes of P, Q, C and CT read the peak rows too
        assert readers <= set(flagged)


def test_peak_to_derivative_hand_expansions():
    # n = 3: 4 y^2 (1+y^2) + 2 (1+y^2)^2 = 2 + 8y^2 + 6y^4
    lhs = 4 * Poly((0, 0, 1)) * Poly((1, 0, 1)) + 2 * Poly((1, 0, 1)) ** 2
    assert lhs == Poly((2, 0, 8, 0, 6)) == F.tangent_poly_from_peaks(3) == F.tangent_derivative_poly(3)
    # n = 1: the left-peak side is the single term y
    assert F.secant_poly_from_peaks(1) == Poly.x() == F.secant_derivative_poly(1)
    assert F.tangent_poly_from_peaks(1) == Poly((1, 0, 1)) == F.tangent_derivative_poly(1)
    # n = 4: y^4 + 18y^2(1+y^2) + 5(1+y^2)^2 = 5 + 28y^2 + 24y^4
    lhs = Poly((0, 0, 0, 0, 1)) + 18 * Poly((0, 0, 1)) * Poly((1, 0, 1)) + 5 * Poly((1, 0, 1)) ** 2
    assert lhs == Poly((5, 0, 28, 0, 24)) == F.secant_poly_from_peaks(4) == F.secant_derivative_poly(4)
    assert I.check_routes_agree(4, "P.peaks", "P.recurrence", "Q.peaks", "Q.recurrence") is None


def test_stembridge_hand_values():
    # n = 3: 4(1+x)^2 + 8x = 4 + 16x + 4x^2 = 4 A_3
    assert 4 * ONE_PLUS_X**2 + Poly((0, 8)) == 4 * Poly((1, 4, 1))
    for n in (1, 3, 4, 9):
        assert I.check_stembridge(n) is None


def test_petersen_hand_values():
    # n = 2: (1+x)^2 + 4x = 1 + 6x + x^2 on both sides
    lhs = ONE_PLUS_X**2 + Poly((0, 4))
    rhs = Poly((1, -1)) ** 2 + 4 * Poly((0, 1, -1)) + 4 * Poly((0, 1, 1))
    assert lhs == rhs == Poly((1, 6, 1))
    assert F.type_b_poly_from_eulerian(2) == F.type_b_poly_from_peaks(2) == lhs
    for n in (1, 2, 5, 8):
        assert F.type_b_poly_from_eulerian(n) == F.type_b_poly_from_peaks(n)


def test_dilks_checks_against_oracle():
    for n in range(1, 6):
        for family in ("C", "CT"):
            assert S.FAMILIES[family].routes["peaks"](n) == S.FAMILIES[family].routes["oracle"](n), (family, n)


def test_dilks_checks_against_gf_beyond_oracle():
    for n in (8, 9, 10):
        for family in ("C", "CT"):
            assert S.FAMILIES[family].routes["peaks"](n) == S.FAMILIES[family].routes["gf"](n), (family, n)


def test_bell_checks():
    for n in range(1, 9):
        assert I.check_bell_expansion(n) is None
        assert I.check_bell_x0(n) is None
        assert I.check_bell_x1(n) is None


def test_bell_x0_check_sees_a_wrong_stirling_number(monkeypatch):
    rows = list(F._PEAK_BELL_ROWS.upto(5))
    rows[5] = rows[5][:3] + (rows[5][3] + 1,) + rows[5][4:]  # S(5, 3) = B_{5,3}(w = 1) off by one
    monkeypatch.setattr(F, "_PEAK_BELL_ROWS", F.Memo(rows, F._PEAK_BELL_ROWS.step))
    assert I.check_bell_x0(4) is None
    # the k = 3 term of n = 5 is +3! S(5, 3), so the sum rises by 6
    assert I.check_bell_x0(5) == I.Witness(5, 0, "7", "1")


def test_bell_x1_check_reports_the_wrong_sum(monkeypatch):
    rows = list(F._PEAK_BELL_ROWS.upto(5))
    rows[5] = rows[5][:3] + (rows[5][3] + 1,) + rows[5][4:]  # B_{5,3} off by one
    monkeypatch.setattr(F, "_PEAK_BELL_ROWS", F.Memo(rows, F._PEAK_BELL_ROWS.step))
    assert I.check_bell_x1(4) is None
    # the k = 3 term of n = 5 is +3! 2^3 B_{5,3}, so the sum rises by 48
    assert I.check_bell_x1(5) == I.Witness(5, 0, "768", "720")


@pytest.mark.parametrize("bump, expected", [
    # B_{5,3} + 1 is seen at every point: in R_6 it adds 3! (1+x)^4, so 1 + 6 at
    # x^0; at w = 1 it adds 3! to the Stirling sum, at w = 0 it adds 3! 2^3.
    (Poly.one(), {"bell_expansion": I.Witness(5, 0, "7", "1"), "bell_stirling_x0": I.Witness(5, 0, "7", "1"),
                  "bell_factorial_x1": I.Witness(5, 0, "768", "720")}),
    # w (1 - w) vanishes at w = 1 and at w = 0, so only the peak arguments see it:
    # at w = 1 - x^2 it is x^2 - x^4, and R_6 gains 6 x^2 + ... (179 + 6 at x^2)
    (Poly((0, 1, -1)), {"bell_expansion": I.Witness(5, 2, "185", "179")}),
], ids=["plus-one", "plus-w(1-w)"])
def test_a_corrupted_bell_row_fails_the_checks_that_can_see_it(monkeypatch, bump, expected):
    rows = list(F._PEAK_BELL_ROWS.upto(5))
    rows[5] = rows[5][:3] + (rows[5][3] + bump,) + rows[5][4:]
    monkeypatch.setattr(F, "_PEAK_BELL_ROWS", F.Memo(rows, F._PEAK_BELL_ROWS.step))
    results = I.run("identities", nmax_exact=6, signed_nmax=3)
    failed = {r.check_id: r.witness for r in results if r.verdict != "pass"}
    assert failed == expected
    assert all(r.verdict == "fail" for r in results if r.verdict != "pass")


def test_identity_suite_passes_at_defaults():
    results = I.run("identities")
    assert all(r.verdict == "pass" for r in results)
    ids = [r.check_id for r in results]
    assert "row_interleave" in ids
    assert "dilks_affine_gf" in ids


def test_identity_suite_degenerate_range():
    results = I.run("identities", nmax_exact=1, signed_nmax=1)
    assert all(r.verdict == "pass" for r in results)


def test_gf_suite_passes():
    results = I.run("gf", gf_order=10)
    assert all(r.verdict == "pass" for r in results)
    assert [r.check_id for r in results][:8] == [
        "gf_A", "gf_W", "gf_WL", "gf_P", "gf_C", "gf_CT", "gf_T", "gf_R",
    ]


def test_roots_and_clt_suites():
    assert all(r.verdict == "pass" for r in I.run("roots", roots_nmax=10))
    clt = I.run("clt", clt_nmax=12)
    assert len(clt) == 9
    assert all(r.verdict == "pass" for r in clt)
    assert clt[0].n_range == (4, 4)


def _corrupt_r(monkeypatch, k, r_k):
    real = F.tan_sec_poly
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: r_k if n == k else real(n))


@pytest.mark.parametrize("clause, n, r_n", [
    # (1+x)^4 (1+3x): one factor 1+x more at -1 than floor(5/2)+1 = 3
    pytest.param("multiplicity", 5, ONE_PLUS_X**4 * Poly((1, 3)), id="multiplicity"),
    # (1+x)^3 (1+2x)^2: G_5 = (1+2x)^2 has a double zero
    pytest.param("squarefree", 5, ONE_PLUS_X**3 * Poly((1, 2)) ** 2, id="squarefree"),
    # (1+x)^3 (1+x+x^2): G_5 is squarefree with positive coefficients and no real zero
    pytest.param("simple-zero count", 5, ONE_PLUS_X**3 * Poly((1, 1, 1)), id="simple-zero-count"),
    # (1+x)^3 (4x^2+8x+3): G_5 has positive coefficients and real zeros -3/2
    # and -1/2, so only the range (-1, 0) rejects it
    pytest.param("zero range", 5, ONE_PLUS_X**3 * Poly((3, 8, 4)), id="zero-range"),
    # (1+x)^3 (1+5x) (1+x^2): the right multiplicity at -1, a squarefree
    # G_4 with positive coefficients and its one real zero in (-1, 0), but
    # degree 3, so two zeros are not real
    pytest.param("degree", 4, ONE_PLUS_X**3 * Poly((1, 5)) * Poly((1, 0, 1)), id="degree"),
])
def test_root_structure_fails_on_non_real_zeros(monkeypatch, clause, n, r_n):
    _corrupt_r(monkeypatch, n, r_n)
    with pytest.raises(R.StructureViolation) as raised:
        R.certify_root_structure(n)
    assert raised.value.clause == clause
    structure = I.run("roots", roots_nmax=6)[0]
    assert (structure.check_id, structure.verdict) == ("root_structure", "fail")
    assert structure.witness.n == n
    assert structure.witness.lhs == "StructureViolation"


def test_nonpositive_reduced_coefficient_is_a_fail(monkeypatch):
    # (1+x)^3 (x-1): G_4 = x - 1 breaks the positivity claim
    _corrupt_r(monkeypatch, 4, ONE_PLUS_X**3 * Poly((-1, 1)))
    structure, interlacing, _ = I.run("roots", roots_nmax=6)
    for result, n in ((structure, 4), (interlacing, 3)):
        assert result.verdict == "fail", result
        assert (result.witness.n, result.witness.lhs) == (n, "NonpositiveCoefficient")


def test_missing_factor_at_minus_one_is_an_interlacing_fail(monkeypatch):
    # (1+x)^3 (1+2x)(1+3x)(1+4x): R_6 needs (1+x)^4, so root_structure fails
    # its multiplicity clause at 6; the step 3 -> 3 from R_5 is allowed, and
    # dividing R_6 by (1+x)^4 fails, which is an interlacing fail at 5
    _corrupt_r(monkeypatch, 6, ONE_PLUS_X**3 * Poly((1, 2)) * Poly((1, 3)) * Poly((1, 4)))
    structure, interlacing, _ = I.run("roots", roots_nmax=8)
    assert (structure.verdict, structure.witness.n, structure.witness.lhs) == ("fail", 6, "StructureViolation")
    assert "multiplicity" in structure.witness.rhs
    assert (interlacing.verdict, interlacing.witness.n, interlacing.witness.lhs) == (
        "fail", 5, "InterlacingViolation")


def test_oracle_suite_passes():
    results = I.run("oracle", oracle_nmax=6, signed_nmax=4)
    assert all(r.verdict == "pass" for r in results)


def test_run_all_aggregate_and_order_stability():
    ranges = dict(nmax_exact=8, oracle_nmax=6, signed_nmax=4, gf_order=8, roots_nmax=8, clt_nmax=8)
    results_a = I.run("all", **ranges)
    results_b = I.run("all", **ranges)
    assert I.aggregate_verdict(results_a) == "pass"
    assert [r.to_json() for r in results_a] == [r.to_json() for r in results_b]


SMALL = dict(nmax_exact=8, oracle_nmax=6, signed_nmax=4, gf_order=8, roots_nmax=8, clt_nmax=8)
SUITES = ["oracle", "identities", "gf", "roots", "clt"]  # in table order


def test_every_read_names_a_family_route_or_a_declared_route():
    for check in I.CHECKS:
        assert check.reads, check.check_id
        for name in check.reads:
            family, _, route = name.partition(".")
            assert name in I.ROUTES or family in S.FAMILIES and route in S.FAMILIES[family].routes, (check, name)
    assert set(I.ROUTES) == {name for check in I.CHECKS for name in check.reads if name in I.ROUTES}


def test_check_ids_are_unique_and_every_suite_has_checks():
    ids = [check.check_id for check in I.CHECKS]
    assert len(ids) == len(set(ids)) == 33
    assert list(dict.fromkeys(check.suite for check in I.CHECKS)) == SUITES
    assert sorted(suite for knob in I.RANGES for suite in knob.nmax_of) == sorted(SUITES + ["all"])
    knobs = {knob.name for knob in I.RANGES}
    for check in I.CHECKS:
        assert check.knob in knobs | {None} and check.unit in ("range", "order", "n"), check
        assert callable(getattr(I, check.fn)), check
    assert {name for name in dir(I) if name.startswith("check_")} <= {check.fn for check in I.CHECKS}


def test_all_is_the_suites_in_table_order():
    together = I.run("all", **SMALL)
    assert together == [r for suite in SUITES for r in I.run(suite, **SMALL)]
    assert [r.check_id for r in together if r.check_id != "clt_moments"] == [
        check.check_id for check in I.CHECKS if check.check_id != "clt_moments"
    ]


def test_a_check_function_is_looked_up_when_the_check_runs(monkeypatch):
    monkeypatch.setattr(I, "check_stembridge", lambda n: I.Witness(n, 0, "1", "2") if n == 3 else None)
    verdicts = {r.check_id: r for r in I.run("identities", nmax_exact=5, signed_nmax=3)}
    assert verdicts["stembridge"] == I.CheckResult("stembridge", (1, 5), "fail", I.Witness(3, 0, "1", "2"))
    assert all(r.verdict == "pass" for check_id, r in verdicts.items() if check_id != "stembridge")


def test_empty_ranges_with_a_fixed_start_are_refused():
    ranges = {knob.name: knob.default for knob in I.RANGES}
    for suite, knob, lowest in (("roots", "roots_nmax", 2), ("clt", "clt_nmax", 4)):
        for value in range(1, lowest):
            with pytest.raises(ValueError, match="empty"):
                I.plan(suite, {**ranges, knob: value})
            with pytest.raises(ValueError, match="empty"):
                I.plan("all", {**ranges, knob: value})
        assert I.plan(suite, {**ranges, knob: lowest})
    # the Dilks GF tail starts after signed_nmax and is left out when empty
    ids = [check.check_id for check, _, _ in I.plan("identities", {**ranges, "nmax_exact": 7})]
    assert "dilks_affine_gf" not in ids and "dilks_affine_oracle" in ids
    with pytest.raises(ValueError, match="unknown suite"):
        I.plan("bogus", ranges)
    with pytest.raises(TypeError, match="unknown ranges"):
        I.run("roots", roots=4)


def test_check_result_serialization():
    witness = I.Witness(3, 1, "5", "4")
    res = I.CheckResult("demo", (1, 3), "fail", witness)
    doc = res.to_json()
    assert doc == {
        "check_id": "demo",
        "n_range": [1, 3],
        "verdict": "fail",
        "witness": {"n": 3, "index": 1, "lhs": "5", "rhs": "4"},
    }
    assert I.CheckResult("demo", (1, 3), "pass").to_json() == {
        "check_id": "demo",
        "n_range": [1, 3],
        "verdict": "pass",
    }


def test_aggregate_reports_smallest_failing_n():
    calls = []

    def flaky(n):
        calls.append(n)
        if n >= 4:
            return I.Witness(n, 0, "bad", "good")
        return None

    result = I._aggregate("demo", (1, 9), range(1, 10), flaky)
    assert result.verdict == "fail"
    assert result.witness.n == 4
    assert calls == [1, 2, 3, 4]


def test_aggregate_turns_exceptions_into_errors(monkeypatch):
    def boom(n):
        raise ValueError("injected")

    result = I._aggregate("demo", (2, 5), range(2, 6), boom)
    assert result.verdict == "error"
    assert result.witness == I.Witness(2, -1, "ValueError", "injected")
    # an order check runs at its hi alone, and an exception is reported there
    monkeypatch.setattr(I, "check_t_vs_eulerian", boom)
    [single] = [r for r in I.run("gf", gf_order=8) if r.check_id == "t_vs_eulerian"]
    assert single == I.CheckResult("t_vs_eulerian", (0, 8), "error", I.Witness(8, -1, "ValueError", "injected"))

    def violated(n):
        if n == 3:
            raise R.StructureViolation("multiplicity", "n=3")
        return None

    # a violation raised by a lower layer is a counterexample, not an error
    result = I._aggregate("demo", (2, 5), range(2, 6), violated)
    assert result.verdict == "fail"
    assert result.witness == I.Witness(3, -1, "StructureViolation", "multiplicity: n=3")


def test_exactly_the_counterexample_classes_are_violations():
    from peakpoly import polynomial

    modules = (polynomial, perms, F, S, R, I, cli)
    violations = {obj for module in modules for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Violation) and obj is not Violation}
    assert violations == {F.NonpositiveCoefficient, F.RowTooLong, R.StructureViolation, R.InterlacingViolation,
                          S.ToleranceExceeded}


class _NewViolation(Violation):
    """A counterexample class that identities has never heard of."""


@pytest.mark.parametrize("exc, verdict", [
    (_NewViolation("at n=3"), "fail"),
    (NonzeroRemainder("at n=3"), "error"),
    (S.PrecisionInsufficient("at n=3"), "error"),
    (R.EndpointIsRoot("at n=3"), "error"),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else value)
def test_a_violation_raised_inside_a_range_is_a_fail_and_any_other_exception_an_error(monkeypatch, exc, verdict):
    real = I.certify_interlacing

    def certify(n):
        if n == 3:
            raise exc
        return real(n)

    monkeypatch.setattr(I, "certify_interlacing", certify)
    [result] = [r for r in I.run("roots", roots_nmax=4) if r.check_id == "interlacing"]
    assert result == I.CheckResult("interlacing", (1, 4), verdict, I.Witness(3, -1, type(exc).__name__, "at n=3"))


def test_every_check_function_returns_none_on_a_pass():
    # run reads a returned value as the witness, so a certificate that
    # returned True again would reach CheckResult.to_json and crash verify
    spans = I.plan("all", {knob.name: knob.default for knob in I.RANGES})
    assert [check for check, _, _ in spans] == list(I.CHECKS)
    for check, lo, hi in spans:
        n = hi if check.unit == "order" else lo  # the least n that run calls fn at
        assert getattr(I, check.fn)(n, *check.args) is None, check.check_id


def test_aggregate_verdict_is_fail_before_error():
    def result(verdict):
        return I.CheckResult(verdict, (1, 1), verdict)

    assert I.aggregate_verdict([result("pass")] * 2) == "pass"
    assert I.aggregate_verdict([result("pass"), result("error")]) == "error"
    assert I.aggregate_verdict([result("error"), result("fail"), result("pass")]) == "fail"
    assert I.aggregate_verdict([result("fail")]) == "fail"


def test_a_raising_family_function_is_an_error_verdict(monkeypatch, capsys):
    def broken(nmax):
        raise RuntimeError("injected")

    monkeypatch.setattr(F, "euler_numbers", broken)
    code = cli.main(["verify", "--suite", "oracle", "--nmax", "5", "--signed-nmax", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["aggregate"] == "error"
    [errored] = [r for r in doc["results"] if r["verdict"] != "pass"]
    assert errored == {
        "check_id": "oracle_alternating",
        "n_range": [1, 5],
        "verdict": "error",
        "witness": {"n": 1, "index": -1, "lhs": "RuntimeError", "rhs": "injected"},
    }


def test_only_the_check_table_names_the_witness_type():
    # the layers below compute and raise; every comparison, and so every
    # Witness, is written here
    package = Path(I.__file__).parent
    named = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "Witness"
    }
    assert named == {"identities.py"}
