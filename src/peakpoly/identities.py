"""Named, individually runnable checks for every cross-family identity.

Each check compares two independently computed sides in exact arithmetic and
returns a CheckResult; a failure carries a witness with the smallest n and
coefficient index where the sides disagree, with both exact values, so it can
be re-evaluated by hand.  Failures are data, not exceptions: the suite
runners catch violations raised by lower layers and fold them into fail
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import families, permutations, roots, series
from .polynomial import Poly
from .series import Witness, first_difference

DEFAULT_NMAX_EXACT = 12
DEFAULT_ORACLE_NMAX = 9
DEFAULT_SIGNED_NMAX = 7
DEFAULT_GF_ORDER = 16
DEFAULT_ROOTS_NMAX = 25
DEFAULT_CLT_NMAX = 30

FOUR_X = Poly((0, 4))
ONE_PLUS_X = Poly((1, 1))
ONE_MINUS_X = Poly((1, -1))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    n_range: tuple[int, int]
    verdict: str
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        doc = {
            "check_id": self.check_id,
            "n_range": list(self.n_range),
            "verdict": self.verdict,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


def _aggregate(check_id: str, lo: int, hi: int, fn: Callable[[int], Witness | None]) -> CheckResult:
    """Run a per-n witness function over lo..hi; first failure wins."""
    for n in range(lo, hi + 1):
        try:
            witness = fn(n)
        except Exception as exc:  # violations from lower layers become data
            witness = Witness(n, -1, type(exc).__name__, str(exc))
        if witness is not None:
            return CheckResult(check_id, (lo, hi), "fail", witness)
    return CheckResult(check_id, (lo, hi), "pass")


def _single(check_id: str, n_range: tuple[int, int], fn: Callable[[], Witness | None]) -> CheckResult:
    """Run one check whose reported range is not an iteration range."""
    try:
        witness = fn()
    except Exception as exc:
        witness = Witness(n_range[0], -1, type(exc).__name__, str(exc))
    return CheckResult(check_id, n_range, "fail" if witness else "pass", witness)


# ---------------------------------------------------------------------------
# row-level identities
# ---------------------------------------------------------------------------

def interleave_rows(w_row: Sequence[int], wl_row: Sequence[int], n: int) -> tuple[int, ...]:
    """Row n of the combined triangle: odd entries from the interior-peak row,
    even entries from the left-peak row."""
    return tuple(
        w_row[(k - 1) // 2] if k % 2 else wl_row[k // 2] for k in range(n + 1)
    )


def check_row_interleave(n: int, *, r_row: Sequence[int] | None = None) -> Witness | None:
    """Row n of the tan_sec triangle interleaves the two peak rows, and the
    row facts hold: leading 1, second entry 2^(n-1), row sum 2 n!, last entry
    the Euler number E_n."""
    if r_row is None:
        r_row = families.tan_sec_triangle(n)[n]
    w_row = families.peak_triangle(n)[n - 1]
    wl_row = families.left_peak_triangle(n)[n - 1]
    expected = interleave_rows(w_row, wl_row, n)
    witness = first_difference(n, tuple(r_row), expected)
    if witness is not None:
        return witness
    poly_route = families.tan_sec_poly(n)
    if tuple(int(c) for c in poly_route.coeffs) != tuple(r_row):
        return first_difference(n, tuple(r_row), tuple(int(c) for c in poly_route.coeffs))
    if r_row[0] != 1:
        return Witness(n, 0, str(r_row[0]), "1")
    if r_row[1] != 2 ** (n - 1):
        return Witness(n, 1, str(r_row[1]), str(2 ** (n - 1)))
    if sum(r_row) != 2 * math.factorial(n):
        return Witness(n, -1, str(sum(r_row)), str(2 * math.factorial(n)))
    if n >= 2:
        e_n = families.euler_numbers(n)[n]
        if r_row[n] != e_n:
            return Witness(n, n, str(r_row[n]), str(e_n))
        prev = families.tan_sec_triangle(n - 1)[n - 1]
        if prev[n - 2] != e_n:
            return Witness(n - 1, n - 2, str(prev[n - 2]), str(e_n))
    return None


def check_peak_to_derivative(n: int) -> Witness | None:
    """The derivative polynomials expand over the peak rows:
    P_n(y) = sum_k W[n][k] y^(n-2k-1) (1+y^2)^(k+1) and
    Q_n(y) = sum_k Wl[n][k] y^(n-2k) (1+y^2)^k."""
    one_plus_y2 = Poly((1, 0, 1))
    p_n, q_n = families.derivative_polys(n)
    lhs_p = Poly.zero()
    for k, w in enumerate(families.peak_triangle(n)[n - 1]):
        lhs_p = lhs_p + w * Poly.monomial(1, n - 2 * k - 1) * one_plus_y2 ** (k + 1)
    witness = first_difference(n, lhs_p, p_n[n])
    if witness is not None:
        return witness
    lhs_q = Poly.zero()
    for k, w in enumerate(families.left_peak_triangle(n)[n - 1]):
        lhs_q = lhs_q + w * Poly.monomial(1, n - 2 * k) * one_plus_y2**k
    return first_difference(n, lhs_q, q_n[n])


def _peak_cleared(n: int) -> Poly:
    """sum_k W[n][k] (4x)^k (1+x)^(n-1-2k), via the cleared substitution."""
    cleared = families.peak_poly(n).subst_cleared(FOUR_X, ONE_PLUS_X**2, (n - 1) // 2)
    return cleared * ONE_PLUS_X ** ((n - 1) % 2)


def _left_peak_cleared(n: int) -> Poly:
    """sum_k Wl[n][k] (4x)^k (1+x)^(n-2k)."""
    cleared = families.left_peak_poly(n).subst_cleared(FOUR_X, ONE_PLUS_X**2, n // 2)
    return cleared * ONE_PLUS_X ** (n % 2)


def check_stembridge(n: int) -> Witness | None:
    """Stembridge's identity, denominator-cleared:
    sum_k W[n][k] (4x)^k (1+x)^(n-1-2k) = 2^(n-1) A_n(x)."""
    return first_difference(n, _peak_cleared(n), 2 ** (n - 1) * families.eulerian_poly(n))


def check_petersen(n: int) -> Witness | None:
    """Petersen's identity, denominator-cleared: the left-peak transform
    equals (1-x)^n + sum_i C(n,i) (1-x)^(n-i) 2^i x A_i(x)."""
    rhs = ONE_MINUS_X**n
    for i in range(1, n + 1):
        rhs = rhs + (
            math.comb(n, i)
            * 2**i
            * ONE_MINUS_X ** (n - i)
            * Poly.x()
            * families.eulerian_poly(i)
        )
    return first_difference(n, _left_peak_cleared(n), rhs)


def check_dilks_affine(n: int, *, source: str = "oracle", jobs: int = 1) -> Witness | None:
    """2x times the interior-peak transform equals the affine Eulerian
    polynomial Ct_n."""
    ct = families.affine_eulerian_poly(n, source=source, jobs=jobs)
    return first_difference(n, Poly((0, 2)) * _peak_cleared(n), ct)


def check_dilks_type_b(n: int, *, source: str = "oracle", jobs: int = 1) -> Witness | None:
    """The left-peak transform equals the type-B Eulerian polynomial C_n."""
    c = families.type_b_eulerian_poly(n, source=source, jobs=jobs)
    return first_difference(n, _left_peak_cleared(n), c)


def check_bell_expansion(n: int) -> Witness | None:
    """The partial-Bell explicit formula reproduces R_{n+1}."""
    return first_difference(n, families.tan_sec_poly_from_bell(n), families.tan_sec_poly(n + 1))


def check_bell_x0(n: int) -> Witness | None:
    total = sum(
        (-1) ** (n - k) * math.factorial(k) * families.stirling2(n, k)
        for k in range(n + 1)
    )
    return None if total == 1 else Witness(n, 0, str(total), "1")


def check_bell_x1(n: int) -> Witness | None:
    if families.factorial_bell_identity(n):
        return None
    return Witness(n, 0, "factorial identity failed", str(math.factorial(n + 1)))


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def run_identity_suite(
    nmax_exact: int = DEFAULT_NMAX_EXACT,
    signed_nmax: int = DEFAULT_SIGNED_NMAX,
    jobs: int = 1,
) -> list[CheckResult]:
    results = [
        _aggregate("row_interleave", 1, nmax_exact, check_row_interleave),
        _aggregate("peak_to_derivative", 1, nmax_exact, check_peak_to_derivative),
        _aggregate("stembridge", 1, nmax_exact, check_stembridge),
        _aggregate("petersen", 1, nmax_exact, check_petersen),
        _aggregate(
            "dilks_affine_oracle",
            1,
            signed_nmax,
            lambda n: check_dilks_affine(n, source="oracle", jobs=jobs),
        ),
        _aggregate(
            "dilks_type_b_oracle",
            1,
            signed_nmax,
            lambda n: check_dilks_type_b(n, source="oracle", jobs=jobs),
        ),
    ]
    if nmax_exact > signed_nmax:
        results += [
            _aggregate(
                "dilks_affine_gf",
                signed_nmax + 1,
                nmax_exact,
                lambda n: check_dilks_affine(n, source="gf"),
            ),
            _aggregate(
                "dilks_type_b_gf",
                signed_nmax + 1,
                nmax_exact,
                lambda n: check_dilks_type_b(n, source="gf"),
            ),
        ]
    results += [
        _aggregate("bell_expansion", 1, nmax_exact, check_bell_expansion),
        _aggregate("bell_stirling_x0", 1, nmax_exact, check_bell_x0),
        _aggregate("bell_factorial_x1", 1, nmax_exact, check_bell_x1),
    ]
    return results


def run_gf_suite(
    gf_order: int = DEFAULT_GF_ORDER,
    signed_nmax: int = DEFAULT_SIGNED_NMAX,
    jobs: int = 1,
) -> list[CheckResult]:
    results = []
    for family in series.EGFS:
        results.append(
            _single(
                f"gf_{family}",
                (0, gf_order),  # the range reported for a series check is the z-order range
                lambda family=family: series.verify_gf(family, gf_order, signed_limit=signed_nmax, jobs=jobs),
            )
        )
    results.append(
        _single(
            "t_vs_eulerian",
            (0, gf_order),
            lambda: series.verify_t_vs_eulerian(
                gf_order, poly_nmax=signed_nmax, signed_limit=signed_nmax, jobs=jobs
            ),
        )
    )
    results.append(_single("pde", (0, gf_order - 1), lambda: series.verify_pde(gf_order)))
    spot_configs = [
        ("numeric_spotcheck_1", Fraction(1, 2), Fraction(1, 20), 20, 1e-15),
        ("numeric_spotcheck_2", Fraction(7, 10), Fraction(1, 10), 24, 1e-12),
    ]
    for check_id, x0, t0, order, tol in spot_configs:
        def spot(x0=x0, t0=t0, order=order, tol=tol) -> Witness | None:
            series.numeric_spotcheck(x0, t0, order, tol)
            return None

        results.append(_single(check_id, (0, order), spot))
    return results


def run_roots_suite(roots_nmax: int = DEFAULT_ROOTS_NMAX) -> list[CheckResult]:
    def structure(n: int) -> Witness | None:
        roots.certify_root_structure(n)
        return None

    def interlacing(n: int) -> Witness | None:
        roots.certify_interlacing(n)
        return None

    def mode(n: int) -> Witness | None:
        result = roots.mode_bracket(n)
        if not result.ok:
            return Witness(n, result.argmax[0], str(result.argmax), str(result.allowed))
        return None

    return [
        _aggregate("root_structure", 1, roots_nmax, structure),
        _aggregate("interlacing", 1, roots_nmax, interlacing),
        _aggregate("mode_bracket", 2, roots_nmax, mode),
    ]


def run_clt_suite(clt_nmax: int = DEFAULT_CLT_NMAX) -> list[CheckResult]:
    """One result per n in 4..clt_nmax comparing the five exact closed forms."""
    results = []
    for n in range(4, clt_nmax + 1):
        def clt_check(n: int = n) -> Witness | None:
            stats = roots.clt_stats(n)
            fact = math.factorial(n)
            expected = [
                Fraction(2 * fact),
                Fraction((4 * n - 2) * fact, 3),
                Fraction(fact * (40 * n * n - 84 * n + 56), 45),
                Fraction(2 * n - 1, 3),
                Fraction(8 * n + 8, 45),
            ]
            actual = [stats.value_at_1, stats.deriv1_at_1, stats.deriv2_at_1, stats.mu, stats.sigma2]
            for idx, (a, b) in enumerate(zip(actual, expected)):
                if a != b:
                    return Witness(n, idx, str(a), str(b))
            return None

        results.append(_single("clt_moments", (n, n), clt_check))
    return results


def run_oracle_suite(
    oracle_nmax: int = DEFAULT_ORACLE_NMAX,
    signed_nmax: int = DEFAULT_SIGNED_NMAX,
    jobs: int = 1,
) -> list[CheckResult]:
    def descent(n: int) -> Witness | None:
        counts = families.cached_distribution(n, "des", jobs=jobs).counts
        return first_difference(n, counts, tuple(int(c) for c in families.eulerian_poly(n).coeffs))

    def peaks(n: int) -> Witness | None:
        counts = families.cached_distribution(n, "pk", jobs=jobs).counts
        witness = first_difference(n, counts, families.peak_triangle(n)[n - 1])
        if witness is not None:
            return witness
        counts = families.cached_distribution(n, "lpk", jobs=jobs).counts
        return first_difference(n, counts, families.left_peak_triangle(n)[n - 1])

    def signed(n: int) -> Witness | None:
        c_gf, ct_gf = series.signed_polys_from_gf(n)
        counts = families.cached_signed_distribution(n, "des_b", jobs=jobs).as_poly()
        witness = first_difference(n, counts, c_gf)
        if witness is not None:
            return witness
        counts = families.cached_signed_distribution(n, "ades", jobs=jobs).as_poly()
        return first_difference(n, counts, ct_gf)

    def alternating(n: int) -> Witness | None:
        e_n = families.euler_numbers(n)[n]
        forward = families.cached_count_alternating(n, False, jobs=jobs)
        backward = families.cached_count_alternating(n, True, jobs=jobs)
        if forward != e_n:
            return Witness(n, 0, str(forward), str(e_n))
        if backward != e_n:
            return Witness(n, 1, str(backward), str(e_n))
        return None

    def internal_zeros(n: int) -> Witness | None:
        for stat in ("pk", "lpk", "des"):
            counts = families.cached_distribution(n, stat, jobs=jobs).counts
            if permutations.has_internal_zeros(counts):
                return Witness(n, 0, stat, "internal zero")
        return None

    def shard_determinism(n: int) -> Witness | None:
        serial = permutations.distribution(n, "des", jobs=1).counts
        sharded = permutations.distribution(n, "des", jobs=2).counts
        if serial != sharded:
            return first_difference(n, serial, sharded)
        s_serial = permutations.signed_distribution(min(n, 4), "ades", jobs=1).counts
        s_sharded = permutations.signed_distribution(min(n, 4), "ades", jobs=2).counts
        return first_difference(n, s_serial, s_sharded)

    return [
        _aggregate("oracle_descent_eulerian", 1, oracle_nmax, descent),
        _aggregate("oracle_peak_rows", 1, oracle_nmax, peaks),
        _aggregate("oracle_signed_rows", 1, signed_nmax, signed),
        _aggregate("oracle_alternating", 1, oracle_nmax, alternating),
        _aggregate("oracle_no_internal_zeros", 1, oracle_nmax, internal_zeros),
        _aggregate("oracle_shard_determinism", 6, 6, shard_determinism),
    ]


def run_all(
    nmax_exact: int = DEFAULT_NMAX_EXACT,
    oracle_nmax: int = DEFAULT_ORACLE_NMAX,
    signed_nmax: int = DEFAULT_SIGNED_NMAX,
    gf_order: int = DEFAULT_GF_ORDER,
    roots_nmax: int = DEFAULT_ROOTS_NMAX,
    clt_nmax: int = DEFAULT_CLT_NMAX,
    jobs: int = 1,
) -> list[CheckResult]:
    """Every suite, in a fixed deterministic order."""
    results = run_oracle_suite(oracle_nmax, signed_nmax, jobs)
    results += run_identity_suite(nmax_exact, signed_nmax, jobs)
    results += run_gf_suite(gf_order, signed_nmax, jobs)
    results += run_roots_suite(roots_nmax)
    results += run_clt_suite(clt_nmax)
    return results


def aggregate_verdict(results: Sequence[CheckResult]) -> str:
    return "pass" if all(r.passed for r in results) else "fail"
