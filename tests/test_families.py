import itertools
import math
from fractions import Fraction

import pytest

from peakpoly import LimitExceeded
from peakpoly import families as F
from peakpoly import identities as I
from peakpoly import permutations as perms
from peakpoly import series as S
from peakpoly.polynomial import NonzeroRemainder, Poly

ONE_PLUS_X = Poly((1, 1))

# rows 0..6 of the combined triangle, used as the fixed reference table
R_TABLE = [
    (1,),
    (1, 1),
    (1, 2, 1),
    (1, 4, 5, 2),
    (1, 8, 18, 16, 5),
    (1, 16, 58, 88, 61, 16),
    (1, 32, 179, 416, 479, 272, 61),
]

EULER = (1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521)


def test_tan_sec_triangle_reference_rows():
    assert tuple(F.tan_sec_poly(n).coeffs for n in range(7)) == tuple(R_TABLE)


def test_tan_sec_triangle_row_zero():
    assert F.tan_sec_poly(0).coeffs == (1,)


def test_peak_triangle_rows():
    assert tuple(F.peak_poly(n).coeffs for n in range(1, 5)) == ((1,), (2,), (4, 2), (8, 16))
    assert tuple(F.left_peak_poly(n).coeffs for n in range(1, 5)) == ((1,), (1, 1), (1, 5), (1, 18, 5))


def test_peak_row_sums_are_factorials():
    for n in range(1, 12):
        assert sum(F.peak_poly(n).coeffs) == math.factorial(n)
        assert sum(F.left_peak_poly(n).coeffs) == math.factorial(n)


def test_degree_contracts():
    for n in range(1, 20):
        assert F.peak_poly(n).degree == (n - 1) // 2
        assert F.left_peak_poly(n).degree == n // 2
        assert F.tan_sec_poly(n).degree == n


def test_tan_sec_poly_examples():
    assert F.tan_sec_poly(0) == Poly.one()
    assert F.tan_sec_poly(3) == Poly((1, 4, 5, 2))
    assert F.tan_sec_poly(5) == Poly((1, 16, 58, 88, 61, 16))


def _entry(row, k):
    return row[k] if 0 <= k < len(row) else 0


def test_polynomial_recurrence_matches_triangle_route():
    # The package builds W and WL as rows of the polynomial recurrence table;
    # the paper also gives them entry by entry, from row 1 = [1]:
    # W[n][k] = (2k+2) W[n-1][k] + (n-2k) W[n-1][k-1],
    # Wl[n][k] = (2k+1) Wl[n-1][k] + (n-2k+1) Wl[n-1][k-1].
    w, wl = [(1,)], [(1,)]
    for n in range(2, 41):
        w.append(tuple((2 * k + 2) * _entry(w[-1], k) + (n - 2 * k) * _entry(w[-1], k - 1)
                       for k in range((n - 1) // 2 + 1)))
        wl.append(tuple((2 * k + 1) * _entry(wl[-1], k) + (n - 2 * k + 1) * _entry(wl[-1], k - 1)
                        for k in range(n // 2 + 1)))
    assert tuple(F.peak_poly(n).coeffs for n in range(1, 41)) == tuple(w)
    assert tuple(F.left_peak_poly(n).coeffs for n in range(1, 41)) == tuple(wl)


def test_triangle_rows_match_polynomial_recurrence():
    # R_n from the table's row, against the paper's entry recurrence
    # R[n+1][k] = (k+1) R[n][k] + (n-k+2) R[n][k-2] from R_1 = [1, 1]
    rows = [(1,), (1, 1)]
    for n in range(1, 40):
        rows.append(tuple((k + 1) * _entry(rows[-1], k) + (n - k + 2) * _entry(rows[-1], k - 2)
                          for k in range(n + 2)))
    assert tuple(F.tan_sec_poly(n).coeffs for n in range(41)) == tuple(rows)


def test_derivative_polys_low_orders():
    ps = [F.tangent_derivative_poly(n) for n in range(5)]
    qs = [F.secant_derivative_poly(n) for n in range(5)]
    assert ps[0] == Poly.x()
    assert ps[1] == Poly((1, 0, 1))
    assert ps[3] == Poly((2, 0, 8, 0, 6))
    assert qs[0] == Poly.one()
    assert qs[1] == Poly.x()
    assert qs[4] == Poly((5, 0, 28, 0, 24))


def test_euler_numbers_reference():
    assert F.euler_numbers(10) == EULER


def test_derivative_poly_constants_are_euler_numbers():
    for n in range(13):
        p_n, q_n = F.tangent_derivative_poly(n), F.secant_derivative_poly(n)
        expected = F.euler_numbers(12)[n]
        if n % 2:
            assert p_n(0) == expected
            assert q_n(0) == 0
        else:
            assert q_n(0) == expected
            assert p_n(0) == 0


def test_constants_match_alternating_count():
    for n in range(1, 11):
        assert F.euler_numbers(n)[n] == perms.count_alternating(n)


def test_eulerian_polys():
    assert F.eulerian_poly(1) == Poly.one()
    assert F.eulerian_poly(3) == Poly((1, 4, 1))
    assert F.eulerian_poly(4) == Poly((1, 11, 11, 1))
    for n in range(1, 11):
        assert F.eulerian_poly(n)(1) == math.factorial(n)


def test_eulerian_matches_descent_oracle():
    for n in range(1, 10):
        counts = perms.distribution(n, "des").counts
        assert Poly(counts) == F.eulerian_poly(n)


def _signed_routes(n):
    # (C_n, Ct_n) by each route of the family table
    return {
        route: (S.FAMILIES["C"].routes[route](n), S.FAMILIES["CT"].routes[route](n))
        for route in ("recurrence", "oracle", "gf")
    }


def test_signed_eulerian_from_oracle():
    for n, pair in ((1, (ONE_PLUS_X, Poly((0, 2)))), (2, (Poly((1, 6, 1)), Poly((0, 4, 4))))):
        assert (F.type_b_eulerian_poly(n), F.affine_eulerian_poly(n)) == pair
        assert set(_signed_routes(n).values()) == {pair}


def test_signed_eulerian_total_counts():
    for n in range(1, 13):
        c, ct = F.type_b_eulerian_poly(n), F.affine_eulerian_poly(n)
        assert c(1) == 2**n * math.factorial(n)
        assert ct(1) == 2**n * math.factorial(n)


def test_signed_eulerian_oracle_limit():
    for family in ("C", "CT"):
        with pytest.raises(LimitExceeded):
            S.FAMILIES[family].routes["oracle"](8)
        assert S.FAMILIES[family].poly(8) == S.FAMILIES[family].routes["gf"](8)
    with pytest.raises(ValueError):
        F.type_b_eulerian_poly(0)
    with pytest.raises(ValueError):
        F.affine_eulerian_poly(0)


def test_signed_eulerian_gf_agrees_with_oracle_in_overlap():
    # the recurrences equal the enumeration inside its cap and the GF solve
    # far past it
    for n in range(1, 8):
        assert len(set(_signed_routes(n).values())) == 1, n
    for n in range(8, 33):
        assert F.type_b_eulerian_poly(n) == S.FAMILIES["C"].routes["gf"](n), n
        assert F.affine_eulerian_poly(n) == S.FAMILIES["CT"].routes["gf"](n), n


def test_signed_interleave_poly():
    assert F.signed_interleave_poly(1) == Poly((1, 2, 1))
    assert F.signed_interleave_poly(2) == Poly((1, 4, 6, 4, 1))
    for n in range(1, 7):
        assert F.signed_interleave_poly(n)(1) == 2 ** (n + 1) * math.factorial(n)


def test_signed_interleave_requires_zero_constant(monkeypatch):
    # should never fire on real data (every window has an augmented descent),
    # so inject a corrupt Ct_n to see the division by x refuse it
    monkeypatch.setattr(F, "affine_eulerian_poly", lambda n: Poly((1, 2)))
    with pytest.raises(NonzeroRemainder):
        F.signed_interleave_poly(3)


def test_tan_sec_memo_never_rebuilds_a_prefix(monkeypatch):
    memo = F._TAN_SEC_POLYS
    steps = []

    def counting_step(terms, m):
        steps.append(m)
        return memo.step(terms, m)

    monkeypatch.setattr(F, "_TAN_SEC_POLYS", F.Memo(memo.terms[:2], counting_step))
    assert F.tan_sec_poly(128) == memo.upto(128)[128]
    assert steps == list(range(2, 129))  # R_0 and R_1 are the seed
    steps.clear()
    for n in range(1, 129):
        F.tan_sec_poly(n)
    assert steps == []
    assert type(F.tan_sec_polys(5)) is tuple  # a caller cannot change the memo


def test_memo_refuses_a_negative_index():
    # a slice to n + 1 < 0 would hand back all but the last terms
    memo = F.Memo((1,), lambda terms, m: terms[-1] + 1)
    assert memo.upto(3) == (1, 2, 3, 4)
    for n in (-1, -2, -3):
        with pytest.raises(ValueError):
            memo.upto(n)
        with pytest.raises(ValueError):
            F._PEAK_POLYS.upto(n)
    assert memo.terms == (1, 2, 3, 4)


def test_c_and_ct_requests_run_only_their_recurrence(monkeypatch, capsys):
    from peakpoly import cli

    runs = []
    monkeypatch.setattr(perms, "_signed_walk", lambda *args: runs.append("walk"))
    for gf_id in S.EGFS:
        monkeypatch.setitem(S._SOLVES, gf_id, F.Memo((), lambda *args: runs.append("solve")))
    for family in ("C", "CT"):
        assert cli.main(["poly", "--family", family, "--n", "5"]) == 0
    assert runs == []  # neither enumeration nor the GF solve
    assert capsys.readouterr().out == "1,237,1682,1682,237,1\n0,32,832,2112,832,32\n"


def test_bell_rows_memo_never_rebuilds_a_row(monkeypatch):
    memo = F._PEAK_BELL_ROWS
    steps = []

    def counting_step(rows, m):
        steps.append(m)
        return memo.step(rows, m)

    monkeypatch.setattr(F, "_PEAK_BELL_ROWS", F.Memo(memo.terms[:1], counting_step))
    values = [F.tan_sec_poly_from_bell(n) for n in range(1, 65)]
    assert steps == list(range(1, 65))  # row 0 is the seed
    assert values[-1] == F.tan_sec_poly(65)


def test_tangent_secant_tables():
    # row n holds T(n, k) and S(n, k) for k = 0..n
    t = F._TANGENT_ROWS.upto(6)
    s = F._SECANT_ROWS.upto(6)
    assert t[3][1] == 2 and t[5][1] == 16
    assert t[3][3] == 6  # tan^3 = x^3 + ..., so 3! * 1
    assert s[4][0] == 5
    assert s[0][0] == 1
    # order-0 and order-1 columns match the Euler numbers
    for n in range(7):
        if n % 2:
            assert t[n][1] == EULER[n]
        else:
            assert s[n][0] == EULER[n]


def test_order_k_tables_build_one_row_per_new_n(monkeypatch):
    steps = []
    for name in ("_TANGENT_ROWS", "_SECANT_ROWS"):
        memo = getattr(F, name)

        def counting_step(terms, m, name=name, step=memo.step):
            steps.append((name, m))
            return step(terms, m)

        monkeypatch.setattr(F, name, F.Memo(memo.terms[:1], counting_step))
    F.cvijovic_polys(20)
    steps.clear()
    for n in range(21, 30):
        assert F.cvijovic_polys(n) == (F.tangent_derivative_poly(n), F.secant_derivative_poly(n))
        # T up to row n + 1 and S up to row n: one new row of each
        assert sorted(steps) == [("_SECANT_ROWS", n), ("_TANGENT_ROWS", n + 1)]
        steps.clear()
    F._TANGENT_ROWS.upto(12)
    F._SECANT_ROWS.upto(28)
    assert steps == []


def test_order_k_tables_match_sympys_series_of_tan_and_sec():
    # T(n, k) = n! [x^n] tan^k and S(n, k) = n! [x^n] sec tan^k, from sympy's
    # series of tan and sec multiplied here, truncated at x^nmax, in Fractions
    # (sympy's own Rationals would take seconds)
    sympy = pytest.importorskip("sympy")
    x, nmax = sympy.Symbol("x"), 12

    def coefficients(f):
        taylor = sympy.series(f(x), x, 0, nmax + 1).removeO()
        return [Fraction(int(c.p), int(c.q)) for c in (taylor.coeff(x, i) for i in range(nmax + 1))]

    tan, sec = coefficients(sympy.tan), coefficients(sympy.sec)

    def times_tan(series):
        return [sum(series[i] * tan[m - i] for i in range(m + 1)) for m in range(nmax + 1)]

    t_rows, s_rows = F._TANGENT_ROWS.upto(nmax), F._SECANT_ROWS.upto(nmax)
    tan_k, sec_tan_k = [1] + [0] * nmax, sec
    for k in range(nmax + 1):
        for n in range(nmax + 1):
            # row n ends at k = n: tan^k and sec tan^k start at x^k
            t_nk, s_nk = (t_rows[n][k], s_rows[n][k]) if k <= n else (0, 0)
            assert t_nk == math.factorial(n) * tan_k[n], ("T", n, k)
            assert s_nk == math.factorial(n) * sec_tan_k[n], ("S", n, k)
        tan_k, sec_tan_k = times_tan(tan_k), times_tan(sec_tan_k)


def test_cvijovic_rebuild_matches_recurrence():
    for n in range(13):
        p_n, q_n = F.cvijovic_polys(n)
        assert p_n == F.tangent_derivative_poly(n)
        assert q_n == F.secant_derivative_poly(n)


def test_cvijovic_raises_on_a_tangent_number_its_index_does_not_divide(monkeypatch):
    # P_3 reads T(4, k) / k; T(4, 2) = 16 raised to 17 is not divisible by 2
    rows = list(F._TANGENT_ROWS.upto(4))
    assert rows[4][2] == 16
    rows[4] = rows[4][:2] + (17,) + rows[4][3:]
    monkeypatch.setattr(F, "_TANGENT_ROWS", F.Memo(rows, F._order_k_step(0)))
    with pytest.raises(NonzeroRemainder):
        F.cvijovic_polys(3)
    assert F.cvijovic_polys(2) == (F.tangent_derivative_poly(2), F.secant_derivative_poly(2))


def test_bell_partial_worked_example():
    # the memo's row 4 is over Z[w]: (0, w, 3 + 4w, 6, 1); at w = 1 - x^2 it is
    # B_{4,k} at the peak arguments x_i = (1 - x^2)^floor((i-1)/2)
    row = F._PEAK_BELL_ROWS.upto(4)[4]
    assert row == (Poly.zero(), Poly((0, 1)), Poly((3, 4)), Poly.constant(6), Poly.one())
    assert [b.compose(Poly((1, 0, -1))) for b in row[1:]] == [
        Poly((1, 0, -1)), Poly((7, 0, -4)), Poly.constant(6), Poly.one()]


def test_bell_partial_matches_generating_function_definition():
    # oracle: n! [t^n] (sum_i xs_i t^i/i!)^k / k! from direct truncated powers;
    # entry m of a TruncSeries holds m! [t^m], so the base series has entries xs_m
    from peakpoly.series import TruncSeries

    nmax = 8
    xs = tuple(Poly.monomial(1, (i - 1) // 2) for i in range(1, nmax + 1))  # x_i = w^floor((i-1)/2)
    base = TruncSeries(nmax, (Poly.zero(),) + xs)
    power = TruncSeries.const(1, nmax)
    rows = F._PEAK_BELL_ROWS.upto(nmax)
    for k in range(nmax + 1):
        for n in range(k, nmax + 1):
            assert math.factorial(k) * rows[n][k] == power.coeffs[n]
        power = power * base


def _set_partition_count(n: int, k: int) -> int:
    # brute force: enumerate restricted growth strings (element 1 in block 0,
    # each later element in an existing block or the next fresh one) and keep
    # those using exactly k blocks
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for labels in itertools.product(range(n), repeat=n - 1):
        top = 0
        ok = True
        for lab in labels:
            if lab > top + 1:
                ok = False
                break
            top = max(top, lab)
        if ok and top + 1 == k:
            count += 1
    return count


def _stirling2(n: int, k: int) -> int:
    # S(n, k) as the Bell memo's B_{n,k} at all-ones arguments (w = 1)
    return F._PEAK_BELL_ROWS.upto(n)[n][k](1)


def test_stirling2_against_brute_force_partitions():
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert _stirling2(n, k) == _set_partition_count(n, k)
    assert _stirling2(4, 2) == 7
    for n in range(1, 10):
        assert _stirling2(n, n) == 1
    # row n holds exactly k = 0..n, and a row below 0 is refused
    for n in range(0, 10):
        assert len(F._PEAK_BELL_ROWS.upto(n)[n]) == n + 1
    with pytest.raises(ValueError):
        F._PEAK_BELL_ROWS.upto(-1)


def test_stirling_alternating_identity():
    # 1 - 6 + 6 = 1 at n = 3, and exactly for every n up to 12
    assert sum(
        (-1) ** (3 - k) * math.factorial(k) * _stirling2(3, k) for k in range(4)
    ) == 1
    assert F.bell_sum(3, 1, 1) == 1
    for n in range(1, 13):
        assert I.check_bell_x0(n) is None


def test_factorial_bell_identity():
    # n = 2: -2 + 8 = 6 = 3!, with B_{2,k}(1, 1) the Z[w] row at w = 0
    row = F._PEAK_BELL_ROWS.upto(2)[2]
    total = sum((-1) ** (2 - k) * math.factorial(k) * 2**k * row[k].coeff(0) for k in (1, 2))
    assert total == 6
    for n in range(0, 13):
        assert F.bell_sum(n, 2, 0) == math.factorial(n + 1)
    with pytest.raises(ValueError):
        F.bell_sum(-1, 2, 0)


def test_factorial_bell_rows_count_partitions_into_singletons_and_pairs():
    # B_{n,k}(1, 1, 0, ...) counts partitions of [n] into k blocks of sizes 1
    # and 2: n - k pairs and 2k - n singletons; those are the Z[w] rows at w = 0
    rows = F._PEAK_BELL_ROWS.upto(20)
    for n in range(21):
        assert len(rows[n]) == n + 1
        for k in range(n + 1):
            expected = 0
            if 2 * k >= n:
                expected = math.factorial(n) // (math.factorial(n - k) * math.factorial(2 * k - n) * 2 ** (n - k))
            assert rows[n][k].coeff(0) == expected, (n, k)


def test_bell_expansion_reproduces_tan_sec_polys():
    assert F.tan_sec_poly_from_bell(4) == Poly((1, 16, 58, 88, 61, 16))
    assert F.tan_sec_poly_from_bell(1) == ONE_PLUS_X**2
    assert F.tan_sec_poly_from_bell(3) == ONE_PLUS_X**3 * Poly((1, 5))
    for n in range(1, 13):
        assert F.tan_sec_poly_from_bell(n) == F.tan_sec_poly(n + 1)


def test_bell_route_does_not_read_the_r_recurrence(monkeypatch):
    expected = [F.tan_sec_poly_from_bell(n) for n in range(1, 13)]

    def recurrence_called(*args):
        raise AssertionError("the Bell route read the R recurrence")

    monkeypatch.setattr(F._PEAK_BELL_ROWS, "terms", F._PEAK_BELL_ROWS.terms[:1])  # rebuilt under the patch
    monkeypatch.setattr(F, "tan_sec_poly", recurrence_called)
    monkeypatch.setattr(F, "tan_sec_polys", recurrence_called)
    monkeypatch.setattr(F._TAN_SEC_POLYS, "terms", F._TAN_SEC_POLYS.terms[:2])  # only the seed
    monkeypatch.setattr(F._TAN_SEC_POLYS, "step", recurrence_called)
    assert [F.tan_sec_poly_from_bell(n) for n in range(1, 13)] == expected
    assert len(F._PEAK_BELL_ROWS.terms) == 13


def test_one_plus_x_squared_divides_higher_rows():
    for n in range(2, 13):
        F.tan_sec_poly(n).exact_div(ONE_PLUS_X**2)


def test_reduced_poly_values():
    assert F.reduced_tan_sec_poly(3) == Poly((1, 2))
    assert F.reduced_tan_sec_poly(4) == Poly((1, 5))
    assert F.reduced_tan_sec_poly(5) == Poly((1, 13, 16))


def test_reduced_poly_positive_integer_coefficients():
    for n in range(1, 26):
        g = F.reduced_tan_sec_poly(n)
        assert all(c.denominator == 1 and c > 0 for c in g.coeffs)


def test_row_facts():
    for n in range(1, 13):
        row = F.tan_sec_poly(n).coeffs
        assert row[0] == 1
        assert row[1] == 2 ** (n - 1)
        assert sum(row) == 2 * math.factorial(n)
        if n >= 2:
            assert row[n] == F.euler_numbers(n)[n]
            assert F.tan_sec_poly(n - 1).coeffs[n - 2] == F.euler_numbers(n)[n]


def test_triple_agreement_with_oracle():
    # triangle row == GF solve == interleaved enumeration counts
    for n in range(1, 9):
        row = F.tan_sec_poly(n).coeffs
        pk = perms.distribution(n, "pk").counts
        lpk = perms.distribution(n, "lpk").counts
        interleaved = tuple(
            pk[(k - 1) // 2] if k % 2 else lpk[k // 2] for k in range(n + 1)
        )
        assert row == interleaved
        assert Poly(row) == S.FAMILIES["R"].routes["gf"](n)
