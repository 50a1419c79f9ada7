"""Named, individually runnable checks for every cross-family identity.

Each check compares two independently computed sides in exact arithmetic and
returns a CheckResult; a failure carries a witness with the smallest n and
coefficient index where the sides disagree, with both exact values, so it can
be re-evaluated by hand.  The comparisons live here, the generating-function
ones too, and this is the only module that builds a Witness; the layers
below only compute (a certificate of roots or series raises a violation),
and an identity that builds one family from another is a route of
series.FAMILIES, checked by an agreement row.  CHECKS lists every check once,
with its suite, its range and the routes it reads; a check that reads family
routes by name reads them through series.FAMILIES, so a route rebound in that
table is the one it compares.  A suite is a filter over CHECKS, and `run` runs
one.  RANGES lists the range knobs once.  Failures are data, not exceptions:
`run` catches what lower layers raise inside the range.  A peakpoly.Violation
is a fail; any other exception is an error, since the code broke and no
counterexample was found.  Either witness has index -1 and names the
exception.  `plan`, which `run` calls before any check, is the one gate of a
verify request, for the CLI and the library alike.  It refuses, in this
order, a knob below 1 (LimitExceeded), a knob that leaves a check with a
fixed start empty (ValueError) and a knob above its RANGES cap
(LimitExceeded).  Each check function refuses an n below its own minimum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import Violation, _at_least, _at_most, families, permutations, roots, series
from .polynomial import Poly
from .roots import certify_interlacing, certify_root_structure


class Witness(NamedTuple):
    """Where two exactly computed sides first differ: n (the z-order for a
    series), the coefficient index and both exact values as strings.  Index
    -1 marks a violation raised by a lower layer (lhs is its type).  The
    witness type of every check."""

    n: int
    index: int
    lhs: str
    rhs: str


def first_difference(n: int, lhs: Poly | Sequence, rhs: Poly | Sequence) -> Witness | None:
    """The witness at the first index where lhs and rhs differ, or None.

    Polynomials compare coefficient by coefficient (missing coefficients are
    0); plain sequences entry by entry, where a missing entry reads None, so
    a length mismatch is a difference.
    """
    pad = None
    if isinstance(lhs, Poly):
        lhs, rhs, pad = lhs.coeffs, rhs.coeffs, 0
    for j in range(max(len(lhs), len(rhs))):
        a = lhs[j] if j < len(lhs) else pad
        b = rhs[j] if j < len(rhs) else pad
        if a != b:
            return Witness(n, j, str(a), str(b))
    return None


def _series_difference(a: series.TruncSeries, b: series.TruncSeries) -> Witness | None:
    """First differing coefficient of two series; its n is the z-order and
    its values are Hurwitz entries (m! [z^m])."""
    a._require_same_order(b)
    for m in range(a.order + 1):
        witness = first_difference(m, a.coeffs[m], b.coeffs[m])
        if witness is not None:
            return witness
    return None


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
            doc["witness"] = self.witness._asdict()
        return doc


def _aggregate(check_id: str, n_range: tuple[int, int], ns: Sequence[int],
               fn: Callable[[int], Witness | None]) -> CheckResult:
    """Run a per-n witness function over ns; the first fail or error wins."""
    for n in ns:
        try:
            witness = fn(n)
        except Exception as exc:  # reported, not raised
            verdict = "fail" if isinstance(exc, Violation) else "error"
            return CheckResult(check_id, n_range, verdict, Witness(n, -1, type(exc).__name__, str(exc)))
        if witness is not None:
            return CheckResult(check_id, n_range, "fail", witness)
    return CheckResult(check_id, n_range, "pass")


# ---------------------------------------------------------------------------
# row-level identities
# ---------------------------------------------------------------------------

def check_row_interleave(n: int) -> Witness | None:
    """Row n of the tan_sec triangle, the coefficients of R_n, interleaves
    the two peak rows, and the row facts hold: leading 1, second entry
    2^(n-1), row sum 2 n!, last entry the Euler number E_n."""
    _at_least("n", n, 1)
    r_row = families.tan_sec_poly(n).coeffs
    expected = families.interleave_rows(families.peak_poly(n).coeffs, families.left_peak_poly(n).coeffs)
    witness = first_difference(n, r_row, expected)
    if witness is not None:
        return witness
    # (witness n, index, value, closed form), in the order they are checked
    facts = [(n, 0, r_row[0], 1), (n, 1, r_row[1], 2 ** (n - 1)), (n, -1, sum(r_row), 2 * math.factorial(n))]
    if n >= 2:  # E_n is the last entry of R_n and entry n - 2 of R_{n-1}
        e_n = families.euler_numbers(n)[n]
        facts += [(n, n, r_row[n], e_n), (n - 1, n - 2, families.tan_sec_poly(n - 1).coeff(n - 2), e_n)]
    return next((Witness(m, i, str(value), str(closed)) for m, i, value, closed in facts if value != closed), None)


def check_stembridge(n: int) -> Witness | None:
    """Stembridge's identity, denominator-cleared:
    sum_k W[n][k] (4x)^k (1+x)^(n-1-2k) = 2^(n-1) A_n(x)."""
    lhs = families.peak_transform(families.peak_poly(n), n - 1, families.FOUR_X, families.ONE_PLUS_X)
    return first_difference(n, lhs, 2 ** (n - 1) * families.eulerian_poly(n))


def check_bell_expansion(n: int) -> Witness | None:
    """The partial-Bell explicit formula reproduces R_{n+1}."""
    return first_difference(n, families.tan_sec_poly_from_bell(n), families.tan_sec_poly(n + 1))


def check_bell_x0(n: int) -> Witness | None:
    """sum_k (-1)^(n-k) k! S(n, k) = 1: the Bell rows at (c, w) = (1, 1)."""
    return first_difference(n, (families.bell_sum(n, 1, 1),), (1,))


def check_bell_x1(n: int) -> Witness | None:
    """sum_k (-1)^(n-k) k! 2^k B_{n,k}(1, 1, 0, 0, ...) = (n+1)!: the Bell rows at (c, w) = (2, 0)."""
    return first_difference(n, (families.bell_sum(n, 2, 0),), (math.factorial(n + 1),))


def _route(name: str, n: int):
    """family_n by the route "F.route", read through series.FAMILIES."""
    family, route = name.split(".")
    return series.FAMILIES[family].routes[route](n)


def check_routes_agree(n: int, *reads: str) -> Witness | None:
    """Each pair of "F.route" names in reads agrees at n; the witness of the
    first pair that does not.  No reads, or an unpaired last one, would
    compare nothing and pass: ValueError."""
    if not reads or len(reads) % 2:
        raise ValueError(f"need pairs of reads, got {len(reads)}")
    witnesses = (first_difference(n, _route(lhs, n), _route(rhs, n)) for lhs, rhs in zip(reads[::2], reads[1::2]))
    return next((witness for witness in witnesses if witness is not None), None)


def check_oracle_alternating(n: int) -> Witness | None:
    _at_least("n", n, 1)
    counts = (permutations.count_alternating(n), permutations.count_alternating(n, reverse=True))
    e_n = families.euler_numbers(n)[n]
    return first_difference(n, counts, (e_n, e_n))


def has_internal_zeros(counts: Sequence[int]) -> bool:
    """True when a zero sits strictly between two nonzero counts."""
    nz = [i for i, c in enumerate(counts) if c]
    return bool(nz) and any(counts[i] == 0 for i in range(nz[0], nz[-1]))


def check_oracle_internal_zeros(n: int, *reads: str) -> Witness | None:
    """No route named in reads has a zero between two nonzero entries at n.
    No reads would compare nothing and pass: ValueError."""
    if not reads:
        raise ValueError("need at least one read, got 0")
    name = next((name for name in reads if has_internal_zeros(_route(name, n).coeffs)), None)
    return None if name is None else Witness(n, 0, name, "internal zero")


def check_oracle_by_definition(n: int) -> Witness | None:
    # The one walk and fold of each request against a count taken one
    # permutation (one signed window) at a time by definition; the check
    # id, oracle_shard_determinism, is kept so that reports stay comparable.
    # The package's enumeration runs first, so n above its cap is refused
    # before the n! permutations are listed.
    counts = permutations.distribution(n, "des").counts
    des = Counter(sum(a > b for a, b in zip(pi, pi[1:])) for pi in itertools.permutations(range(1, n + 1)))
    witness = first_difference(n, counts, [des[k] for k in range(n)])
    if witness is not None:
        return witness
    m = min(n, 4)
    ades = Counter(
        permutations._signed_counts(tuple(s * v for s, v in zip(signs, pi)))[1]
        for pi in itertools.permutations(range(1, m + 1))
        for signs in itertools.product((1, -1), repeat=m)
    )
    counts = permutations.signed_distribution(m, "ades").counts
    return first_difference(m, counts, [ades[k] for k in range(m + 1)])


# The series checks read series.engine_series and series.closed_form_sides
# through the module, so a function rebound there is the one they compare.

def check_gf(order: int, egf: str) -> Witness | None:
    """The cross-multiplied closed form of EGF id `egf`, family * den = rhs,
    with the family's series assembled from its first route."""
    den, rhs = series.closed_form_sides(egf, order)
    return _series_difference(series.engine_series(egf, order) * den, rhs)


def check_t_vs_eulerian(order: int) -> Witness | None:
    """x + T(x, z) = (1+x) A(x, z(1+x)) through order; its entry n >= 1 is
    the per-coefficient form T_n = (1+x)^(n+1) A_n."""
    a = series.engine_series("A", order)
    rescaled = series.TruncSeries(order, tuple(a.coeffs[m] * families.ONE_PLUS_X**m for m in range(order + 1)))
    lhs = series.engine_series("T", order) + series.TruncSeries.const(Poly.x(), order)
    return _series_difference(lhs, rescaled.scale(families.ONE_PLUS_X))


def check_pde(order: int) -> Witness | None:
    """x(x^2-1) dP/dx + (1 - x^2 z) dP/dz = P + x at z-orders 0..order,
    where P, the EGF of the tan_sec family, is known through z^(order+1)."""
    _at_least("order", order, 0)
    p = series.engine_series("P", order + 1)
    x = Poly.x()
    px = p.dx().truncate(order)
    pz = p.dz()
    lhs = px.scale(Poly((0, -1, 0, 1))) + pz - pz.shift_z(1).scale(x * x)
    rhs = p.truncate(order) + series.TruncSeries.const(x, order)
    return _series_difference(lhs, rhs)


def check_numeric_spot(order: int, x0: Fraction, t0: Fraction, tol: float) -> Witness | None:
    series.numeric_spotcheck(x0, t0, order, tol)
    return None


def check_mode_bracket(n: int) -> Witness | None:
    result = roots.mode_bracket(n)
    if not result.ok:
        return Witness(n, result.argmax[0], str(result.argmax), str(result.allowed))
    return None


CLT_FROM = 4  # the least n at which the closed forms of clt_moments hold together


def check_clt_moments(n: int) -> Witness | None:
    """The closed forms of R_n's coefficient distribution: total R_n(1) = 2 n!,
    mean (2n-1)/3 and variance (8n+8)/45, from n = CLT_FROM.  A witness's
    index names the statistic: 0 the total, 3 the mean, 4 the variance."""
    _at_least("n", n, CLT_FROM)
    stats = roots.clt_stats(n)
    for index, value, closed in (
        (0, stats.value_at_1, 2 * math.factorial(n)),
        (3, stats.mu, Fraction(2 * n - 1, 3)),
        (4, stats.sigma2, Fraction(8 * n + 8, 45)),
    ):
        if value != closed:
            return Witness(n, index, str(value), str(closed))
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
    module, or a roots certificate imported here by name (None on a pass,
    like a check function), called as fn(n, *args) and looked up when the
    check runs, so a function rebound on the module (a test's corruption,
    the benchmark's tracer) is the one that runs.  `unit` "range" gives one
    result, the first witness over lo..hi; "order" one result from fn(hi),
    a series check through z-order hi; "n" one result per n.  `reads` names
    the routes the check compares: "F.route" of series.FAMILIES, or a
    ROUTES name.
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
    "egf.closed_form", "egf.pde", "decimal.closed_form", "sturm", "darroch", "clt.closed_form",
})


def _agree(check_id: str, suite: str, knob: str, lo: int | str, *reads: str) -> Check:
    """A row whose check is that each pair of routes it reads agrees."""
    return Check(check_id, suite, knob, lo, "check_routes_agree", reads, args=reads)


# Every check, in report order.  The Dilks checks read the enumeration up to
# signed_nmax and the GF solve past it; gf_P and gf_R both read R's EGF.
CHECKS = (
    _agree("oracle_descent_eulerian", "oracle", "oracle_nmax", 1, "A.oracle", "A.recurrence"),
    _agree("oracle_peak_rows", "oracle", "oracle_nmax", 1, "W.oracle", "W.triangle", "WL.oracle", "WL.triangle"),
    _agree("oracle_signed_rows", "oracle", "signed_nmax", 1, "C.oracle", "C.gf", "CT.oracle", "CT.gf"),
    Check("oracle_alternating", "oracle", "oracle_nmax", 1, "check_oracle_alternating", ("oracle.alt", "euler")),
    Check("oracle_no_internal_zeros", "oracle", "oracle_nmax", 1, "check_oracle_internal_zeros",
          ("W.oracle", "WL.oracle", "A.oracle"), args=("W.oracle", "WL.oracle", "A.oracle")),
    Check("oracle_shard_determinism", "oracle", None, 6, "check_oracle_by_definition",
          ("oracle.des", "oracle.ades", "oracle.by_definition"), top=6),
    Check("row_interleave", "identities", "nmax_exact", 1, "check_row_interleave",
          ("R.triangle", "W.triangle", "WL.triangle", "euler")),
    _agree("peak_to_derivative", "identities", "nmax_exact", 1, "P.peaks", "P.recurrence", "Q.peaks", "Q.recurrence"),
    Check("stembridge", "identities", "nmax_exact", 1, "check_stembridge", ("W.triangle", "A.recurrence")),
    _agree("petersen", "identities", "nmax_exact", 1, "C.peaks", "C.petersen"),
    _agree("dilks_affine_oracle", "identities", "signed_nmax", 1, "CT.peaks", "CT.oracle"),
    _agree("dilks_type_b_oracle", "identities", "signed_nmax", 1, "C.peaks", "C.oracle"),
    _agree("dilks_affine_gf", "identities", "nmax_exact", "signed_nmax", "CT.peaks", "CT.gf"),
    _agree("dilks_type_b_gf", "identities", "nmax_exact", "signed_nmax", "C.peaks", "C.gf"),
    Check("bell_expansion", "identities", "nmax_exact", 1, "check_bell_expansion", ("bell.peak_rows", "R.triangle")),
    Check("bell_stirling_x0", "identities", "nmax_exact", 1, "check_bell_x0", ("bell.peak_rows",)),
    Check("bell_factorial_x1", "identities", "nmax_exact", 1, "check_bell_x1", ("bell.peak_rows",)),
    *(Check(f"gf_{gf_id}", "gf", "gf_order", 0, "check_gf",
            (f"{egf.family}.{next(iter(series.FAMILIES[egf.family].routes))}", "egf.closed_form"), "order",
            args=(gf_id,)) for gf_id, egf in series.EGFS.items()),
    Check("t_vs_eulerian", "gf", "gf_order", 0, "check_t_vs_eulerian", ("T.interleave", "A.recurrence"), "order"),
    Check("pde", "gf", "gf_order", 0, "check_pde", ("R.triangle", "egf.pde"), "order", top=-1),
    Check("numeric_spotcheck_1", "gf", None, 0, "check_numeric_spot", ("R.triangle", "decimal.closed_form"), "order",
          20, (Fraction(1, 2), Fraction(1, 20), 1e-15)),
    Check("numeric_spotcheck_2", "gf", None, 0, "check_numeric_spot", ("R.triangle", "decimal.closed_form"), "order",
          24, (Fraction(7, 10), Fraction(1, 10), 1e-12)),
    Check("root_structure", "roots", "roots_nmax", 1, "certify_root_structure", ("R.triangle", "G.recurrence", "sturm")),
    Check("interlacing", "roots", "roots_nmax", 1, "certify_interlacing", ("R.triangle", "G.recurrence", "sturm")),
    Check("mode_bracket", "roots", "roots_nmax", 2, "check_mode_bracket", ("R.triangle", "darroch")),
    Check("clt_moments", "clt", "clt_nmax", CLT_FROM, "check_clt_moments", ("R.triangle", "clt.closed_form"), "n"),
)


def plan(suite: str, ranges: dict[str, int]) -> list[tuple[Check, int, int]]:
    """The checks of `suite` ("all": every check) in table order, each with
    its lo and hi.  The one gate of a verify request, which `run` passes
    before any check: LimitExceeded if any knob, whatever the suite, is below
    1; then ValueError if a fixed lo is above its hi; then LimitExceeded if
    any knob is above its cap."""
    if suite != "all" and suite not in {check.suite for check in CHECKS}:
        raise ValueError(f"unknown suite {suite!r}")
    for knob in RANGES:
        _at_least(knob.name, ranges[knob.name], 1)
    spans = []
    for check in CHECKS:
        hi = check.top + (ranges[check.knob] if check.knob else 0)
        lo = ranges[check.lo] + 1 if isinstance(check.lo, str) else check.lo
        if suite not in ("all", check.suite) or (lo > hi and isinstance(check.lo, str)):
            continue
        if lo > hi:
            raise ValueError(f"{check.knob} {ranges[check.knob]} leaves {check.check_id} empty: it starts at {lo}")
        spans.append((check, lo, hi))
    for knob in RANGES:
        _at_most(knob.name, ranges[knob.name], knob.cap)
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

        if check.unit == "n":
            results += [_aggregate(check.check_id, (n, n), (n,), fn) for n in range(lo, hi + 1)]
        else:
            ns = (hi,) if check.unit == "order" else range(lo, hi + 1)
            results.append(_aggregate(check.check_id, (lo, hi), ns, fn))
    return results


def aggregate_verdict(results: Sequence[CheckResult]) -> str:
    """pass if every check passed, else fail if any check failed, else error."""
    verdicts = {r.verdict for r in results}
    if verdicts <= {"pass"}:
        return "pass"
    return "fail" if "fail" in verdicts else "error"
