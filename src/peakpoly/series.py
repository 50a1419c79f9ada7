"""Truncated formal power series in z with polynomial-in-x coefficients.

A TruncSeries of order N keeps z^0..z^N in Hurwitz form (Keigher, "On the
ring of Hurwitz series", 1997): entry m holds m! * [z^m], a Poly in x.  The
exponential generating functions of all families in this package live here,
and in this form entry n of a family series is simply family_n(x), with
integer coefficients.  Products are binomial convolutions, each entry one
polynomial._hurwitz_entry (hurwitz_mul multiplies, a solve divides), so
no 1/m! factor is ever formed and the whole module runs in Z[x].  Like Poly,
a series is an immutable value: equal, hashed and pickled as (order, coeffs).

Square roots never appear: cosh(z*sqrt(w)) and sinh(z*sqrt(w))/sqrt(w) are
both power series in w.  Each closed form is a row of EGFS, cross-multiplied
as family * den = rhs, with den a + b d and d a running product of two
ratios that alternate with the parity of the z-order.  This module only
computes the two sides (closed_form_sides, and engine_series from each
family's first route); identities compares them.  The same relations are
also *solved* coefficient-by-coefficient (division only ever by the
exactly-dividing z^0 entry) to rebuild each family from its closed form,
giving an independent derivation route.  Rationals appear only in the
numeric spot-check's partial sum, a certificate that raises
ToleranceExceeded, a peakpoly.Violation, as the certificates of roots raise
theirs.

The family table lives here too: FAMILIES maps each CLI family id to its
routes, minimum n, CLI cap and EGF entry 0, and each EGFS row names the
family and offset of its EGF.  The ids differ in one place: gf_P and gf_R
are the EGF of R_n at offsets 0 and 1, while CLI family P is the tangent
derivative polynomial P_n.  Each EGF id's solve is one families.Memo in
_SOLVES, extended on demand, as every prefix cache of the package is a Memo;
solve_series is the generic solve the tests compare them with.  Nothing is
solved past z-order MAX_ORDER: an order above it is refused, and so is a
"gf" route's n.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import Violation, _Value, _at_least, _at_most, families, permutations
from .polynomial import Poly, _hurwitz_entry, hurwitz_mul

MAX_ORDER = 64  # highest z-order solved and checked; the CLI cap of the GF-solved families
RECURRENCE_CAP = 128  # the CLI cap of the recurrence families


class UnknownFamily(ValueError):
    """Family identifier is not a key of EGFS."""


class ToleranceExceeded(ArithmeticError, Violation):
    """Numeric spot-check disagreed beyond the requested tolerance."""


class PrecisionInsufficient(ArithmeticError):
    """Truncation remainder bound is too large to certify the tolerance."""


class TruncSeries(_Value):
    """Power series in z truncated after z^order; entry m is m! [z^m], a Poly."""

    __slots__ = ("order", "coeffs")
    order: int
    coeffs: tuple[Poly, ...]

    def __init__(self, order: int, coeffs: Sequence[Poly]):
        _at_least("order", order, 0)
        coeffs = tuple(coeffs)  # a value: a list given is copied, so equal series hash alike
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must equal order + 1")
        if not all(isinstance(p, Poly) for p in coeffs):
            raise TypeError("series entries must be Polys")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(order={self.order!r}, coeffs={self.coeffs!r})"

    @classmethod
    def const(cls, p: Poly | int, order: int) -> TruncSeries:
        p = p if isinstance(p, Poly) else Poly.constant(p)
        return cls(order, (p,) + (Poly.zero(),) * order)

    def egf_poly(self, m: int) -> Poly:
        """m! times the z^m coefficient, for m up to the series' order."""
        _at_least("m", m, 0)
        _at_most("m", m, self.order)
        return self.coeffs[m]

    def _require_same_order(self, other: TruncSeries) -> None:
        if self.order != other.order:
            raise ValueError("series orders differ; truncate explicitly")

    def __add__(self, other: TruncSeries) -> TruncSeries:
        self._require_same_order(other)
        return TruncSeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        self._require_same_order(other)
        return TruncSeries(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        self._require_same_order(other)
        return TruncSeries(self.order, tuple(hurwitz_mul(self.coeffs, other.coeffs, self.order)))

    def scale(self, c: Poly | int) -> TruncSeries:
        return TruncSeries(self.order, tuple(p * c for p in self.coeffs))

    def shift_z(self, k: int = 1) -> TruncSeries:
        """Multiply by z^k, truncating at the same order.

        In Hurwitz form entry m becomes m!/(m-k)! times entry m-k.
        """
        _at_least("k", k, 0)
        out = (Poly.zero(),) * k + tuple(
            math.perm(m, k) * self.coeffs[m - k] for m in range(k, self.order + 1)
        )
        return TruncSeries(self.order, out[: self.order + 1])

    def truncate(self, order: int) -> TruncSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(order, self.coeffs[: order + 1])

    def dz(self) -> TruncSeries:
        """Derivative in z; the order drops by one (in Hurwitz form, a shift)."""
        _at_least("order", self.order, 1)
        return TruncSeries(self.order - 1, self.coeffs[1:])

    def dx(self) -> TruncSeries:
        """Coefficient-wise derivative in x; the order is unchanged."""
        return TruncSeries(self.order, tuple(p.derivative() for p in self.coeffs))


def solve_series(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    """The series q with q * den = num, term by term.

    Entry m solves num_m = sum_k C(m, k) q_k den_(m-k), the Hurwitz product.
    Each step divides by den's z^0 entry with polynomial exact division, so
    the result exists only when the quotient really is a series of
    polynomials (NonzeroRemainder otherwise) -- no rational functions are
    ever formed.  The generic solve: each EGFS row has its own memo of the
    same steps, and the tests compare the two.
    """
    num._require_same_order(den)
    out: list[Poly] = []
    for m in range(num.order + 1):
        out.append((num.coeffs[m] - _hurwitz_entry(m, out, den.coeffs, range(m))).exact_div(den.coeffs[0]))
    return TruncSeries(num.order, tuple(out))


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

class Family(NamedTuple):
    """One polynomial family of the CLI: family_n for min_n <= n <= cap.

    `routes` maps a route name to an independent computation n -> family_n;
    the routes of a family share only the generic arithmetic (Poly and
    hurwitz_mul), and one may be an identity of the paper applied to
    another family.  The first route is the package's own: the one
    `peakpoly poly` prints and engine_series assembles, a recurrence at
    every n up to the cap.  Every route refuses an n below min_n with
    LimitExceeded, a "gf" route one above MAX_ORDER, and an "oracle" route
    one above its enumeration cap.  The rows of `peakpoly triangle` are the
    values of a "triangle" route.
    """

    min_n: int
    cap: int
    routes: dict[str, Callable[[int], Poly]]
    egf0: Poly | None = None  # entry 0 of the EGF, where n = 0 is below min_n

    def poly(self, n: int) -> Poly:
        """family_n by the first route."""
        return next(iter(self.routes.values()))(n)


def _solved(gf_id: str, n: int, min_n: int) -> Poly:
    """Entry n of the solve of EGF gf_id, for a gf route whose family starts
    at min_n: the one check that keeps every gf route to its family's
    minimum, since the EGF has entries below it, and to MAX_ORDER."""
    _at_least("n", n, min_n)
    _at_most("n", n, MAX_ORDER)
    return solved_family_polys(gf_id, n)[n]


# The routes look functions up at call time, so a function rebound on its
# module (a test's corruption, the benchmark's tracer) is the one they run.
FAMILIES = {
    "P": Family(0, RECURRENCE_CAP, {
        "recurrence": lambda n: families.tangent_derivative_poly(n),
        "cvijovic": lambda n: families.cvijovic_polys(n)[0],
        "peaks": lambda n: families.tangent_poly_from_peaks(n),
    }),
    "Q": Family(0, RECURRENCE_CAP, {
        "recurrence": lambda n: families.secant_derivative_poly(n),
        "cvijovic": lambda n: families.cvijovic_polys(n)[1],
        "peaks": lambda n: families.secant_poly_from_peaks(n),
    }),
    "A": Family(1, RECURRENCE_CAP, {
        "recurrence": lambda n: families.eulerian_poly(n),
        "gf": lambda n: _solved("A", n, 1),
        "oracle": lambda n: permutations.distribution(n, "des").as_poly(),
    }, egf0=Poly.one()),
    "R": Family(0, RECURRENCE_CAP, {
        "triangle": lambda n: families.tan_sec_poly(n),
        "gf": lambda n: _solved("P", n, 0),
    }),
    "G": Family(1, RECURRENCE_CAP, {
        "recurrence": lambda n: families.reduced_tan_sec_poly(n),
        "gf": lambda n: _solved("P", n, 1).exact_div(families.ONE_PLUS_X ** (n // 2 + 1)),
    }),
    "T": Family(1, MAX_ORDER, {
        "interleave": lambda n: families.signed_interleave_poly(n),
        "gf": lambda n: _solved("T", n, 1),
    }, egf0=Poly.one()),
    "C": Family(1, MAX_ORDER, {
        "recurrence": lambda n: families.type_b_eulerian_poly(n),
        "oracle": lambda n: permutations.signed_distribution(n, "des_b").as_poly(),
        "gf": lambda n: _solved("C", n, 1),
        "peaks": lambda n: families.type_b_poly_from_peaks(n),
        "petersen": lambda n: families.type_b_poly_from_eulerian(n),
    }, egf0=Poly.one()),
    "CT": Family(1, MAX_ORDER, {
        "recurrence": lambda n: families.affine_eulerian_poly(n),
        "oracle": lambda n: permutations.signed_distribution(n, "ades").as_poly(),
        "gf": lambda n: _solved("CT", n, 1),
        "peaks": lambda n: families.affine_poly_from_peaks(n),
    }, egf0=Poly.one()),
    "W": Family(1, RECURRENCE_CAP, {
        "triangle": lambda n: families.peak_poly(n),
        "gf": lambda n: _solved("W", n, 1),
        "oracle": lambda n: permutations.distribution(n, "pk").as_poly(),
    }, egf0=Poly.zero()),
    "WL": Family(1, RECURRENCE_CAP, {
        "triangle": lambda n: families.left_peak_poly(n),
        "gf": lambda n: _solved("WL", n, 1),
        "oracle": lambda n: permutations.distribution(n, "lpk").as_poly(),
    }, egf0=Poly.one()),
}


# ---------------------------------------------------------------------------
# the closed forms, in cross-multiplied shape: family * den = rhs
# ---------------------------------------------------------------------------

class EGF(NamedTuple):
    """family_series * den = rhs, for the series sum_m family_(m + offset) z^m / m!.

    In Hurwitz form, entry m of den is a [m = 0] + b d_m with d_0 = 1 and
    d_m = d_(m-1) times `odd` or `even` by the parity of m, and entry m of
    rhs is rhs(m).  So 1 - x e^(cz) is (1, -x, c, c) and
    cosh(z sqrt(w)) - sinh(z sqrt(w))/sqrt(w) is (0, 1, -1, -w).
    """

    family: str
    offset: int
    a: Poly
    b: Poly
    odd: Poly
    even: Poly
    rhs: Callable[[int], Poly]


_ZERO, _ONE, _X = Poly.zero(), Poly.one(), Poly.x()
_U, _V = Poly((1, -1)), Poly((1, 0, -1))  # 1 - x and 1 - x^2


def _powers(base: Poly) -> Callable[[int], Poly]:
    """e -> base^e, each power built once."""
    memo = families.Memo((_ONE,), lambda terms, m: terms[-1] * base)
    return lambda e: memo.upto(e)[e]


_U_POW, _V_POW = _powers(_U), _powers(_V)

# The closed forms, in the order the gf suite checks them.  gf_P and gf_R are
# both EGFs of R_n, at offsets 0 and 1; the CLI family P is the tangent
# derivative polynomial P_n, which has no EGF here.  R's den is
# cosh(z sqrt(w)) - sqrt(w) sinh(z sqrt(w)) - x with w = 1 - x^2.
EGFS = {
    "A": EGF("A", 0, _ONE, -_X, _U, _U, lambda m: _U_POW(m + 1)),
    "W": EGF("W", 0, _ZERO, _ONE, -_ONE, -_U, lambda m: _U_POW(m // 2) if m % 2 else _ZERO),
    "WL": EGF("WL", 0, _ZERO, _ONE, -_ONE, -_U, lambda m: _ZERO if m else _ONE),
    "P": EGF("R", 0, _ZERO, _ONE, -_ONE, -_V,
             lambda m: _X * _V_POW(m // 2) if m % 2 else _ZERO if m else _ONE),
    "C": EGF("C", 0, _ONE, -_X, 2 * _U, 2 * _U, lambda m: _U_POW(m + 1)),
    "CT": EGF("CT", 0, _ONE, -_X, 2 * _U, 2 * _U, lambda m: _ZERO if m else _U),
    "T": EGF("T", 0, _ONE, -_X, _V, _V, lambda m: _V_POW(m) if m else _U),
    "R": EGF("R", 1, -_X, _ONE, -_V, -_ONE, lambda m: _ZERO if m else _V),
}


# b d_m of each EGFS row as term m, so a longer order builds only the new terms
_BD = {gf_id: families.Memo((egf.b,), lambda bd, m, egf=egf: bd[-1] * (egf.odd if m % 2 else egf.even))
       for gf_id, egf in EGFS.items()}


def _egf(family: str, order: int) -> EGF:
    """The row of an EGF id; raises on an unknown id or order."""
    if family not in EGFS:
        raise UnknownFamily(f"unknown family {family!r}")
    _at_least("order", order, 0)
    _at_most("order", order, MAX_ORDER)
    return EGFS[family]


def closed_form_sides(family: str, order: int) -> tuple[TruncSeries, TruncSeries]:
    """(den, rhs) with family_series * den = rhs as exact truncated series."""
    egf = _egf(family, order)
    bd = _BD[family].upto(order)
    return TruncSeries(order, (egf.a + bd[0],) + bd[1:]), TruncSeries(order, tuple(map(egf.rhs, range(order + 1))))


def engine_series(family: str, order: int) -> TruncSeries:
    """The family's series assembled from its first route, a recurrence, so
    that it is checked against the closed form and not against a solve of it."""
    egf = _egf(family, order)
    fam, offset = FAMILIES[egf.family], egf.offset
    polys = tuple(fam.egf0 if n < fam.min_n else fam.poly(n) for n in range(offset, order + offset + 1))
    return TruncSeries(order, polys)


# Entry m of the solve of each EGFS row from entries 0..m-1: the Hurwitz
# product at m reads den's entries 1..m, which are the _BD terms, and den's
# entry 0 is a + b.
_SOLVES = {gf_id: families.Memo((), lambda q, m, gf_id=gf_id, egf=egf: (
    egf.rhs(m) - _hurwitz_entry(m, q, _BD[gf_id].upto(m), range(m))).exact_div(egf.a + egf.b))
    for gf_id, egf in EGFS.items()}


def solved_family_polys(family: str, order: int) -> tuple[Poly, ...]:
    """family_0..family_order recovered from the closed form alone.

    Entry n is the Hurwitz entry n! [z^n] of the solved series (for the R
    family that is R_{n+1}; for W it is W_n with entry 0 equal to zero).
    Entry n does not depend on the truncation order, so each family's
    solve is a memo: a longer order solves only the entries past the
    longest one asked for so far.
    """
    _egf(family, order)
    return _SOLVES[family].upto(order)


# ---------------------------------------------------------------------------
# numeric spot-check of the transcendental closed form
# ---------------------------------------------------------------------------

class SpotcheckReport(NamedTuple):
    x0: Fraction
    t0: Fraction
    order: int
    tol: float
    rel_error: float
    remainder_bound: float


def numeric_spotcheck(x0: Fraction | int, t0: Fraction | int, order: int, tol: float) -> SpotcheckReport:
    """Compare the literal closed form (1-x^2)/(x (cosh z - 1)) with
    z = -t sqrt(1-x^2) + arccosh(1/x) against the exact truncated EGF.

    The closed form is evaluated in decimal at 97 significant digits (at
    least 320 bits), with arccosh y = ln(y + sqrt(y^2 - 1)) and
    cosh z = (e^z + e^-z)/2; decimal rounds sqrt, ln and exp correctly and
    shares no code with the rational partial sum.
    The truncation remainder is bounded by 2 sum_{n>N} (n+1) |t|^n using
    |R_{n+1}(x0)| <= R_{n+1}(1) = 2 (n+1)! for x0 in (0, 1); the bound must
    certify the tolerance or PrecisionInsufficient is raised.  An x0 or t0
    out of range, or a tol that is not finite and positive, is refused with
    ValueError.
    """
    _at_least("order", order, 0)
    x0 = Fraction(x0)
    t0 = Fraction(t0)
    if not 0 < x0 < 1:
        raise ValueError("x0 must lie in (0, 1)")
    if abs(t0) >= Fraction(1, 4):
        raise ValueError("|t0| must be < 1/4 for the remainder bound")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    partial = sum(
        (families.tan_sec_poly(n + 1)(x0) * t0**n / math.factorial(n) for n in range(order + 1)),
        start=Fraction(0),
    )
    t = abs(t0)
    tail = 2 * t ** (order + 1) * (Fraction(order + 2) / (1 - t) + t / (1 - t) ** 2)
    with localcontext() as ctx:
        ctx.prec = 97
        xd, td = (Decimal(v.numerator) / v.denominator for v in (x0, t0))
        y = 1 / xd
        z = -td * (1 - xd * xd).sqrt() + (y + (y * y - 1).sqrt()).ln()
        closed = (1 - xd * xd) / (xd * ((z.exp() + (-z).exp()) / 2 - 1))
        approx = Decimal(partial.numerator) / partial.denominator
        rel_error = float(abs(closed - approx) / abs(closed))
        bound_rel = float(Decimal(tail.numerator) / tail.denominator / abs(closed))
    if bound_rel > tol:
        raise PrecisionInsufficient(
            f"remainder bound {bound_rel:.3e} cannot certify tolerance {tol:.3e}"
        )
    if rel_error > tol:
        raise ToleranceExceeded(
            f"relative error {rel_error:.3e} exceeds tolerance {tol:.3e}"
        )
    return SpotcheckReport(x0, t0, order, tol, rel_error, bound_rel)
