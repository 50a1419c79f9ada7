"""Acceptance suite: one test per release criterion, with stated budgets.

Run as `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Every comparison is exact except the numeric closed-form spot-check, whose
tolerance comes with an explicit truncation remainder bound.  The CLI
criteria call cli.main in process: their subject is the request, and
tests/test_cli.py checks the report across processes and hash seeds.
"""

import contextlib
import io
import json
import math
import time
import types
from fractions import Fraction

from peakpoly import cli
from peakpoly import families as F
from peakpoly import identities as I
from peakpoly import permutations as perms
from peakpoly import roots as R
from peakpoly import series as S
from peakpoly.polynomial import Poly

R_TABLE_CSV = "\n".join(
    [
        "1",
        "1,1",
        "1,2,1",
        "1,4,5,2",
        "1,8,18,16,5",
        "1,16,58,88,61,16",
        "1,32,179,416,479,272,61",
    ]
) + "\n"


def run_cli(*argv):
    """The exit code and stdout of cli.main(argv), in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return types.SimpleNamespace(returncode=code, stdout=out.getvalue())


def test_criterion_01_triangle_fidelity():
    start = time.monotonic()
    res = run_cli("triangle", "--family", "R", "--nmax", "6", "--format", "csv")
    elapsed = time.monotonic() - start
    assert res.returncode == 0
    assert res.stdout == R_TABLE_CSV
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 1 (triangle fidelity): PASS")


def test_criterion_02_triple_agreement():
    start = time.monotonic()
    for n in range(1, 10):
        row = F.tan_sec_poly(n).coeffs
        assert S.FAMILIES["R"].routes["gf"](n).coeffs == row
        pk = perms.distribution(n, "pk").counts
        lpk = perms.distribution(n, "lpk").counts
        assert F.interleave_rows(pk, lpk) == row
    for n in range(1, 8):
        for family in ("C", "CT"):
            assert S.FAMILIES[family].routes["peaks"](n) == S.FAMILIES[family].routes["oracle"](n), (family, n)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 2 (triple agreement): PASS")


def test_criterion_03_derivative_polynomial_cross_check():
    ps = [F.tangent_derivative_poly(n) for n in range(13)]
    qs = [F.secant_derivative_poly(n) for n in range(13)]
    for n in range(13):
        assert F.cvijovic_polys(n) == (ps[n], qs[n])
    euler = F.euler_numbers(12)
    for n in range(1, 11):
        constant = ps[n](0) if n % 2 else qs[n](0)
        assert constant == euler[n] == perms.count_alternating(n)
    assert euler[:6] == (1, 1, 1, 2, 5, 16)
    print("ACCEPTANCE 3 (derivative-polynomial cross-check): PASS")


def test_criterion_04_generating_function_suite():
    start = time.monotonic()
    for family in ("A", "W", "WL", "P", "C", "CT", "T", "R"):
        assert I.check_gf(16, family) is None, family
    assert I.check_pde(15) is None  # P through z^16 checks all z-coefficients up to 15
    assert I.check_t_vs_eulerian(16) is None
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 4 (generating functions): PASS")


def test_criterion_05_bell_formula():
    # B_{4,k}, k = 1..4, at the peak arguments: the Z[w] row at w = 1 - x^2
    row = F._PEAK_BELL_ROWS.upto(4)[4]
    assert [b.compose(Poly((1, 0, -1))) for b in row[1:]] == [
        Poly((1, 0, -1)), Poly((7, 0, -4)), Poly.constant(6), Poly.one()]
    assert F.tan_sec_poly_from_bell(4) == Poly((1, 16, 58, 88, 61, 16))
    for n in range(1, 13):
        assert F.tan_sec_poly_from_bell(n) == F.tan_sec_poly(n + 1)
        assert I.check_bell_x0(n) is None
        assert F.bell_sum(n, 2, 0) == math.factorial(n + 1)
    print("ACCEPTANCE 5 (partial-Bell formula): PASS")


def test_criterion_06_root_certification():
    start = time.monotonic()
    for n in range(1, 26):
        assert R.certify_root_structure(n) is True
        p, multiplicity = F.tan_sec_poly(n), 0  # divide out 1 + x while -1 is a zero
        while p(-1) == 0:
            p, multiplicity = p.exact_div(Poly((1, 1))), multiplicity + 1
        assert multiplicity == n // 2 + 1
        g = F.reduced_tan_sec_poly(n)
        if g.degree >= 1:
            assert R.sturm_chain(g).count(Fraction(-1), Fraction(0)) == (n + 1) // 2 - 1
        assert all(c.denominator == 1 and c > 0 for c in g.coeffs)
        assert R.certify_interlacing(n)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 6 (root certification): PASS")


def test_criterion_07_clt_statistics():
    for n in range(4, 31):
        stats = R.clt_stats(n)
        fact = math.factorial(n)
        assert stats.value_at_1 == 2 * fact
        assert stats.deriv1_at_1 == Fraction((4 * n - 2) * fact, 3)
        assert stats.deriv2_at_1 == Fraction(fact * (40 * n * n - 84 * n + 56), 45)
        assert stats.mu == Fraction(2 * n - 1, 3)
        assert stats.sigma2 == Fraction(8 * n + 8, 45)
    print("ACCEPTANCE 7 (CLT statistics): PASS")


def test_criterion_08_mode_corollary():
    for n in range(2, 26):
        assert R.mode_bracket(n).ok
    rows = [F.tan_sec_poly(n).coeffs for n in range(7)]
    assert max(rows[2]) == 2
    assert max(rows[5]) == 88
    assert max(rows[6]) == 479
    print("ACCEPTANCE 8 (mode corollary): PASS")


def test_criterion_09_numeric_spotcheck():
    start = time.monotonic()
    rep1 = S.numeric_spotcheck(Fraction(1, 2), Fraction(1, 20), 20, 1e-12)
    rep2 = S.numeric_spotcheck(Fraction(7, 10), Fraction(1, 10), 24, 1e-12)
    for rep in (rep1, rep2):
        assert rep.rel_error <= 1e-12
        assert rep.remainder_bound <= 1e-12  # the documented truncation bound
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 9 (numeric spot-check): PASS")


def test_criterion_10_determinism():
    first = run_cli("verify", "--suite", "all", "--jobs", "1")
    second = run_cli("verify", "--suite", "all", "--jobs", "1")
    eight = run_cli("verify", "--suite", "all", "--jobs", "8")
    assert first.returncode == second.returncode == eight.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == eight.stdout
    doc = json.loads(first.stdout)
    assert doc["aggregate"] == "pass"
    print("ACCEPTANCE 10 (determinism): PASS")
