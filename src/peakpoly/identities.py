"""Named, individually runnable checks for every cross-family identity.

Each check compares two independently computed sides in exact arithmetic and
returns a CheckResult; a failure carries a witness with the smallest n and
coefficient index where the sides disagree, with both exact values, so it can
be re-evaluated by hand.  CHECKS lists every check once, with its suite, its
range and the routes it reads; a suite is a filter over it, and `run` runs
one.  RANGES lists the range knobs once.  Failures are data, not exceptions:
`run` catches what lower layers raise inside the range.  A violation (see
VIOLATIONS) is a fail; any other exception is an error, since the code broke
and no counterexample was found.  Either witness has index -1 and names the
exception.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import families, permutations, roots, series
from .polynomial import Poly
from .series import Witness, first_difference


FOUR_X = Poly((0, 4))
ONE_PLUS_X = Poly((1, 1))
ONE_MINUS_X = Poly((1, -1))


class CheckResult(NamedTuple):
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


# The exceptions by which a lower layer reports that a certified property is
# false at n: a counterexample, so a fail verdict.  Any other exception means
# the code broke, an error verdict.
VIOLATIONS = (
    families.NonpositiveCoefficient,
    roots.StructureViolation,
    roots.InterlacingViolation,
    roots.ClosedFormViolation,
    series.ToleranceExceeded,
)


def _raised(check_id: str, n_range: tuple[int, int], n: int, exc: Exception) -> CheckResult:
    verdict = "fail" if isinstance(exc, VIOLATIONS) else "error"
    return CheckResult(check_id, n_range, verdict, Witness(n, -1, type(exc).__name__, str(exc)))


def _aggregate(check_id: str, lo: int, hi: int, fn: Callable[[int], Witness | None]) -> CheckResult:
    """Run a per-n witness function over lo..hi; the first fail or error wins."""
    for n in range(lo, hi + 1):
        try:
            witness = fn(n)
        except Exception as exc:  # reported, not raised
            return _raised(check_id, (lo, hi), n, exc)
        if witness is not None:
            return CheckResult(check_id, (lo, hi), "fail", witness)
    return CheckResult(check_id, (lo, hi), "pass")


def _single(check_id: str, n_range: tuple[int, int], fn: Callable[[], Witness | None]) -> CheckResult:
    """Run one check whose reported range is not an iteration range."""
    try:
        witness = fn()
    except Exception as exc:
        return _raised(check_id, n_range, n_range[0], exc)
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
    if poly_route.coeffs != tuple(r_row):
        return first_difference(n, tuple(r_row), poly_route.coeffs)
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
    equals (1-x)^n + sum_i C(n,i) (1-x)^(n-i) 2^i x A_i(x), built by Horner
    in (1-x)."""
    rhs = Poly.one()
    for i in range(1, n + 1):
        rhs = rhs * ONE_MINUS_X + math.comb(n, i) * 2**i * Poly.x() * families.eulerian_poly(i)
    return first_difference(n, _left_peak_cleared(n), rhs)


def check_dilks_affine(n: int, source: str = "oracle") -> Witness | None:
    """2x times the interior-peak transform equals the affine Eulerian
    polynomial Ct_n, taken from its "oracle" or "gf" route."""
    ct = series.FAMILIES["CT"].routes[source](n)
    return first_difference(n, Poly((0, 2)) * _peak_cleared(n), ct)


def check_dilks_type_b(n: int, source: str = "oracle") -> Witness | None:
    """The left-peak transform equals the type-B Eulerian polynomial C_n,
    taken from its "oracle" or "gf" route."""
    c = series.FAMILIES["C"].routes[source](n)
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
    total, expected = families.factorial_bell_sum(n), math.factorial(n + 1)
    return None if total == expected else Witness(n, 0, str(total), str(expected))

def check_oracle_descent(n: int) -> Witness | None:
    counts = families.cached_distribution(n, "des").counts
    return first_difference(n, counts, families.eulerian_poly(n).coeffs)


def check_oracle_peaks(n: int) -> Witness | None:
    counts = families.cached_distribution(n, "pk").counts
    witness = first_difference(n, counts, families.peak_triangle(n)[n - 1])
    if witness is not None:
        return witness
    counts = families.cached_distribution(n, "lpk").counts
    return first_difference(n, counts, families.left_peak_triangle(n)[n - 1])


def check_oracle_signed(n: int) -> Witness | None:
    counts = families.cached_signed_distribution(n, "des_b").as_poly()
    witness = first_difference(n, counts, series.FAMILIES["C"].routes["gf"](n))
    if witness is not None:
        return witness
    counts = families.cached_signed_distribution(n, "ades").as_poly()
    return first_difference(n, counts, series.FAMILIES["CT"].routes["gf"](n))


def check_oracle_alternating(n: int) -> Witness | None:
    e_n = families.euler_numbers(n)[n]
    forward = families.cached_count_alternating(n)
    backward = families.cached_count_alternating(n, True)
    if forward != e_n:
        return Witness(n, 0, str(forward), str(e_n))
    if backward != e_n:
        return Witness(n, 1, str(backward), str(e_n))
    return None


def check_oracle_internal_zeros(n: int) -> Witness | None:
    for stat in ("pk", "lpk", "des"):
        counts = families.cached_distribution(n, stat).counts
        if permutations.has_internal_zeros(counts):
            return Witness(n, 0, stat, "internal zero")
    return None


def check_oracle_by_definition(n: int) -> Witness | None:
    # The one walk and fold of each request against a count taken one
    # permutation (one signed window) at a time by definition; the check
    # id, oracle_shard_determinism, is kept so that reports stay comparable.
    des = Counter(permutations._perm_counts(pi)[2] for pi in itertools.permutations(range(1, n + 1)))
    witness = first_difference(n, permutations.distribution(n, "des").counts, [des[k] for k in range(n)])
    if witness is not None:
        return witness
    m = min(n, 4)
    ades = Counter(
        permutations._signed_counts(tuple(s * v for s, v in zip(signs, pi)))[1]
        for pi in itertools.permutations(range(1, m + 1))
        for signs in itertools.product((1, -1), repeat=m)
    )
    counts = permutations.signed_distribution(m, "ades").counts
    return first_difference(n, counts, [ades[k] for k in range(m + 1)])


def check_gf(order: int, egf: str) -> Witness | None:
    return series.verify_gf(egf, order)


def check_t_vs_eulerian(order: int) -> Witness | None:
    return series.verify_t_vs_eulerian(order)


def check_pde(order: int) -> Witness | None:
    return series.verify_pde(order + 1)  # P through z^(order+1) checks z-orders 0..order


def check_numeric_spot(order: int, x0: Fraction, t0: Fraction, tol: float) -> Witness | None:
    series.numeric_spotcheck(x0, t0, order, tol)
    return None


def check_root_structure(n: int) -> Witness | None:
    roots.certify_root_structure(n)
    return None


def check_interlacing(n: int) -> Witness | None:
    roots.certify_interlacing(n)
    return None


def check_mode_bracket(n: int) -> Witness | None:
    result = roots.mode_bracket(n)
    if not result.ok:
        return Witness(n, result.argmax[0], str(result.argmax), str(result.allowed))
    return None


def check_clt_moments(n: int) -> Witness | None:
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


# ---------------------------------------------------------------------------
# the range and check tables, and the runner
# ---------------------------------------------------------------------------

class Range(NamedTuple):
    """A verify range knob: its CLI flag (None: only --nmax sets it), its
    default, its cap and the suites whose --nmax sets it."""

    name: str
    flag: str | None
    default: int
    cap: int
    nmax_of: tuple[str, ...] = ()


# The caps: the highest solved z-order (the Dilks GF checks solve C to order nmax_exact), the
# enumeration caps, 64 for roots, whose Sturm certification grows steeply, and the cap of R.
RANGES = (
    Range("nmax_exact", None, 12, series.MAX_ORDER, ("all", "identities")),
    Range("oracle_nmax", "--oracle-nmax", 9, permutations.S_N_LIMIT, ("oracle",)),
    Range("signed_nmax", "--signed-nmax", 7, permutations.SIGNED_LIMIT),
    Range("gf_order", "--gf-order", 16, series.MAX_ORDER, ("gf",)),
    Range("roots_nmax", "--roots-nmax", 25, 64, ("roots",)),
    Range("clt_nmax", "--clt-nmax", 30, series.FAMILIES["R"].cap, ("clt",)),
)


class Check(NamedTuple):
    """One verify check, over n = lo..hi.

    hi is the value of the range knob `knob` plus `top`, or `top` when
    `knob` is None.  lo is a fixed n, or a knob whose value + 1 it is, and
    then an empty range is left out.  `fn` names a check function of this
    module, called as fn(n, *args) and looked up when the check runs, so a
    function rebound on the module (a test's corruption, the benchmark's
    tracer) is the one that runs.  `unit` "range" gives one result, the
    first witness over lo..hi; "order" one result from fn(hi), a series
    check through z-order hi; "n" one result per n.  `reads` names the
    routes the check compares: "F.route" of series.FAMILIES, or a ROUTES name.
    """

    check_id: str
    suite: str
    knob: str | None
    lo: int | str
    fn: str
    reads: tuple[str, ...]
    unit: str = "range"
    top: int = 0
    args: tuple = ()


# The routes the checks read that are not family routes of series.FAMILIES.
ROUTES = frozenset({
    "euler", "oracle.alt", "oracle.des", "oracle.ades", "oracle.by_definition", "bell.peak_rows",
    "bell.stirling_rows", "bell.factorial_rows", "egf.closed_form", "egf.pde", "mpmath.closed_form",
    "sturm", "darroch", "clt.closed_form",
})

# Every check, in report order.  The Dilks checks read the enumeration up to
# signed_nmax and the GF solve past it; gf_P and gf_R both read R's EGF.
CHECKS = (
    Check("oracle_descent_eulerian", "oracle", "oracle_nmax", 1, "check_oracle_descent", ("A.oracle", "A.recurrence")),
    Check("oracle_peak_rows", "oracle", "oracle_nmax", 1, "check_oracle_peaks",
          ("W.oracle", "W.triangle", "WL.oracle", "WL.triangle")),
    Check("oracle_signed_rows", "oracle", "signed_nmax", 1, "check_oracle_signed",
          ("C.oracle", "C.gf", "CT.oracle", "CT.gf")),
    Check("oracle_alternating", "oracle", "oracle_nmax", 1, "check_oracle_alternating", ("oracle.alt", "euler")),
    Check("oracle_no_internal_zeros", "oracle", "oracle_nmax", 1, "check_oracle_internal_zeros",
          ("W.oracle", "WL.oracle", "A.oracle")),
    Check("oracle_shard_determinism", "oracle", None, 6, "check_oracle_by_definition",
          ("oracle.des", "oracle.ades", "oracle.by_definition"), top=6),
    Check("row_interleave", "identities", "nmax_exact", 1, "check_row_interleave",
          ("R.triangle", "R.recurrence", "W.triangle", "WL.triangle", "euler")),
    Check("peak_to_derivative", "identities", "nmax_exact", 1, "check_peak_to_derivative",
          ("P.recurrence", "Q.recurrence", "W.triangle", "WL.triangle")),
    Check("stembridge", "identities", "nmax_exact", 1, "check_stembridge", ("W.triangle", "A.recurrence")),
    Check("petersen", "identities", "nmax_exact", 1, "check_petersen", ("WL.triangle", "A.recurrence")),
    Check("dilks_affine_oracle", "identities", "signed_nmax", 1, "check_dilks_affine", ("W.triangle", "CT.oracle")),
    Check("dilks_type_b_oracle", "identities", "signed_nmax", 1, "check_dilks_type_b", ("WL.triangle", "C.oracle")),
    Check("dilks_affine_gf", "identities", "nmax_exact", "signed_nmax", "check_dilks_affine", ("W.triangle", "CT.gf"),
          args=("gf",)),
    Check("dilks_type_b_gf", "identities", "nmax_exact", "signed_nmax", "check_dilks_type_b", ("WL.triangle", "C.gf"),
          args=("gf",)),
    Check("bell_expansion", "identities", "nmax_exact", 1, "check_bell_expansion", ("bell.peak_rows", "R.recurrence")),
    Check("bell_stirling_x0", "identities", "nmax_exact", 1, "check_bell_x0", ("bell.stirling_rows",)),
    Check("bell_factorial_x1", "identities", "nmax_exact", 1, "check_bell_x1", ("bell.factorial_rows",)),
    *(Check(f"gf_{egf}", "gf", "gf_order", 0, "check_gf", (f"{fam}.{next(iter(series.FAMILIES[fam].routes))}",
            "egf.closed_form"), "order", args=(egf,)) for egf, (fam, _) in series.EGFS.items()),
    Check("t_vs_eulerian", "gf", "gf_order", 0, "check_t_vs_eulerian", ("T.interleave", "A.recurrence"), "order"),
    Check("pde", "gf", "gf_order", 0, "check_pde", ("R.recurrence", "egf.pde"), "order", top=-1),
    Check("numeric_spotcheck_1", "gf", None, 0, "check_numeric_spot", ("R.recurrence", "mpmath.closed_form"), "order",
          20, (Fraction(1, 2), Fraction(1, 20), 1e-15)),
    Check("numeric_spotcheck_2", "gf", None, 0, "check_numeric_spot", ("R.recurrence", "mpmath.closed_form"), "order",
          24, (Fraction(7, 10), Fraction(1, 10), 1e-12)),
    Check("root_structure", "roots", "roots_nmax", 1, "check_root_structure", ("R.recurrence", "G.recurrence", "sturm")),
    Check("interlacing", "roots", "roots_nmax", 1, "check_interlacing", ("R.recurrence", "G.recurrence", "sturm")),
    Check("mode_bracket", "roots", "roots_nmax", 2, "check_mode_bracket", ("R.triangle", "darroch")),
    Check("clt_moments", "clt", "clt_nmax", 4, "check_clt_moments", ("R.recurrence", "clt.closed_form"), "n"),
)


def plan(suite: str, ranges: dict[str, int]) -> list[tuple[Check, int, int]]:
    """The checks of `suite` ("all": every check) in table order, each with
    its lo and hi; ValueError if a fixed lo is above its hi."""
    if suite != "all" and suite not in {check.suite for check in CHECKS}:
        raise ValueError(f"unknown suite {suite!r}")
    spans = []
    for check in CHECKS:
        hi = check.top + (ranges[check.knob] if check.knob else 0)
        lo = ranges[check.lo] + 1 if isinstance(check.lo, str) else check.lo
        if suite not in ("all", check.suite) or (lo > hi and isinstance(check.lo, str)):
            continue
        if lo > hi:
            raise ValueError(f"{check.knob} {ranges[check.knob]} leaves {check.check_id} empty: it starts at {lo}")
        spans.append((check, lo, hi))
    return spans


def run(suite: str = "all", **ranges: int) -> list[CheckResult]:
    """The results of the checks of `suite` ("all": every check), in table
    order; a knob not given is at its RANGES default."""
    values = {knob.name: ranges.pop(knob.name, knob.default) for knob in RANGES}
    if ranges:
        raise TypeError(f"unknown ranges {sorted(ranges)}")
    results = []
    for check, lo, hi in plan(suite, values):
        def fn(n: int, check: Check = check) -> Witness | None:
            return globals()[check.fn](n, *check.args)

        if check.unit == "order":
            results.append(_single(check.check_id, (lo, hi), lambda: fn(hi)))
        elif check.unit == "n":
            results += [_aggregate(check.check_id, n, n, fn) for n in range(lo, hi + 1)]
        else:
            results.append(_aggregate(check.check_id, lo, hi, fn))
    return results


def aggregate_verdict(results: Sequence[CheckResult]) -> str:
    """pass if every check passed, else fail if any check failed, else error."""
    verdicts = {r.verdict for r in results}
    if verdicts <= {"pass"}:
        return "pass"
    return "fail" if "fail" in verdicts else "error"
