"""Truncated formal power series in z with polynomial-in-x coefficients.

A TruncSeries of order N keeps z^0..z^N in Hurwitz form (Keigher, "On the
ring of Hurwitz series", 1997): entry m holds m! * [z^m], a Poly in x.  The
exponential generating functions of all families in this package live here,
and in this form entry n of a family series is simply family_n(x), with
integer coefficients.  Products are binomial convolutions (hurwitz_mul), so
no 1/m! factor is ever formed and the whole module runs in Z[x].

Square roots never appear: cosh(z*sqrt(w)) and sinh(z*sqrt(w))/sqrt(w) are
both power series in w (hyperbolic_blocks), which is what makes every closed
form polynomial-checkable.  Identities are verified by cross-multiplying so
that both sides are plain polynomial coefficients; the same relations are
also *solved* coefficient-by-coefficient (division only ever by the
exactly-dividing z^0 entry) to rebuild each family from its closed form,
giving an independent derivation route.  Rationals appear only in the
numeric spot-check's partial sum.

The family table lives here too: FAMILIES maps each CLI family id to its
routes, minimum n, CLI cap and EGF entry 0, and EGFS maps each EGF id to a
family and an offset.  The ids differ in one place: gf_P and gf_R are the
EGF of R_n at offsets 0 and 1, while CLI family P is the tangent derivative
polynomial P_n.  solved_family_polys keeps each family's longest solve and
extends it on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import families
from .permutations import SIGNED_LIMIT
from .polynomial import Poly, Scalar, hurwitz_mul

MAX_ORDER = 64  # highest z-order solved and checked; the CLI cap of the GF-solved families
RECURRENCE_CAP = 128  # the CLI cap of the recurrence families


class UnknownFamily(ValueError):
    """Family identifier is not a key of EGFS."""


class OrderExceedsComputedFamilies(ValueError):
    """Requested truncation order is outside the supported range."""


class ToleranceExceeded(ArithmeticError):
    """Numeric spot-check disagreed beyond the requested tolerance."""


class PrecisionInsufficient(ArithmeticError):
    """Truncation remainder bound is too large to certify the tolerance."""


@dataclass(frozen=True)
class TruncSeries:
    """Power series in z truncated after z^order; entry m is m! [z^m], a Poly."""

    order: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        if self.order < 0 or len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    @classmethod
    def zero(cls, order: int) -> TruncSeries:
        return cls(order, (Poly.zero(),) * (order + 1))

    @classmethod
    def const(cls, p: Poly | Scalar, order: int) -> TruncSeries:
        p = p if isinstance(p, Poly) else Poly.constant(p)
        return cls(order, (p,) + (Poly.zero(),) * order)

    @classmethod
    def from_egf(cls, polys: Sequence[Poly], order: int) -> TruncSeries:
        """Series sum_m polys[m] z^m / m! (exponential normalization)."""
        if len(polys) < order + 1:
            raise OrderExceedsComputedFamilies(
                f"need {order + 1} polynomials, got {len(polys)}"
            )
        return cls(order, tuple(polys[: order + 1]))

    def egf_poly(self, m: int) -> Poly:
        """m! times the z^m coefficient."""
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

    def scale(self, c: Poly | Scalar) -> TruncSeries:
        return TruncSeries(self.order, tuple(p * c for p in self.coeffs))

    def shift_z(self, k: int = 1) -> TruncSeries:
        """Multiply by z^k, truncating at the same order.

        In Hurwitz form entry m becomes m!/(m-k)! times entry m-k.
        """
        out = (Poly.zero(),) * k + tuple(
            math.perm(m, k) * self.coeffs[m - k] for m in range(k, self.order + 1)
        )
        return TruncSeries(self.order, out[: self.order + 1])

    def truncate(self, order: int) -> TruncSeries:
        if order > self.order:
            raise OrderExceedsComputedFamilies("cannot extend a truncated series")
        return TruncSeries(order, self.coeffs[: order + 1])

    def dz(self) -> TruncSeries:
        """Derivative in z; the order drops by one (in Hurwitz form, a shift)."""
        return TruncSeries(self.order - 1, self.coeffs[1:])

    def dx(self) -> TruncSeries:
        """Coefficient-wise derivative in x; the order is unchanged."""
        return TruncSeries(self.order, tuple(p.derivative() for p in self.coeffs))


def exp_series(c: Poly | Scalar, order: int) -> TruncSeries:
    """exp(c z) = sum_m c^m z^m / m!, truncated at the given order."""
    c = c if isinstance(c, Poly) else Poly.constant(c)
    coeffs = [Poly.one()]
    for _ in range(order):
        coeffs.append(coeffs[-1] * c)
    return TruncSeries(order, tuple(coeffs))


def hyperbolic_blocks(w: Poly | Scalar, order: int) -> tuple[TruncSeries, TruncSeries]:
    """The square-root-free pair (cosh(z sqrt(w)), sinh(z sqrt(w))/sqrt(w)).

    Both are polynomial in w: sum_m w^m z^(2m)/(2m)! and
    sum_m w^m z^(2m+1)/(2m+1)!.
    """
    w = w if isinstance(w, Poly) else Poly.constant(w)
    cosh_c = [Poly.zero()] * (order + 1)
    sinh_c = [Poly.zero()] * (order + 1)
    power = Poly.one()
    for m in range(order // 2 + 1):
        if 2 * m <= order:
            cosh_c[2 * m] = power
        if 2 * m + 1 <= order:
            sinh_c[2 * m + 1] = power
        power = power * w
    return TruncSeries(order, tuple(cosh_c)), TruncSeries(order, tuple(sinh_c))


def solve_series(num: TruncSeries, den: TruncSeries, known: Sequence[Poly] = ()) -> TruncSeries:
    """The series q with q * den = num, term by term.

    Entry m solves num_m = sum_k C(m, k) q_k den_(m-k), the Hurwitz product.
    Each step divides by den's z^0 entry with polynomial exact division, so
    the result exists only when the quotient really is a series of
    polynomials (NonzeroRemainder otherwise) -- no rational functions are
    ever formed.  `known` is a prefix of q solved before (entry m depends
    only on entries below it); solving resumes after it.
    """
    num._require_same_order(den)
    d0 = den.coeffs[0]
    out: list[Poly] = list(known)
    for m in range(len(out), num.order + 1):
        acc = num.coeffs[m]
        for i in range(m):
            if out[i] and den.coeffs[m - i]:
                acc = acc - math.comb(m, i) * out[i] * den.coeffs[m - i]
        out.append(acc.exact_div(d0))
    return TruncSeries(num.order, tuple(out))


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One polynomial family of the CLI: family_n for min_n <= n <= cap.

    `routes` maps a route name to an independent computation n -> family_n;
    the routes of a family share only the generic arithmetic (Poly,
    hurwitz_mul, solve_series).  The first route is the package's own: the
    one `peakpoly poly` prints and engine_series assembles.  For the signed
    families it is enumeration, which past the signed enumeration cap falls
    back to the GF solve (families.signed_eulerian_polys).  The rows of
    `peakpoly triangle` are the values of a "triangle" route.
    """

    min_n: int
    cap: int
    routes: dict[str, Callable[..., Poly]]
    egf0: Poly | None = None  # entry 0 of the EGF, where n = 0 is below min_n
    signed: bool = False  # the first route takes signed_limit and jobs

    def poly(self, n: int, *, signed_limit: int = SIGNED_LIMIT, jobs: int = 1) -> Poly:
        """family_n by the first route."""
        route = next(iter(self.routes.values()))
        return route(n, signed_limit=signed_limit, jobs=jobs) if self.signed else route(n)


# The routes look functions up at call time, so a function rebound on its
# module (a test's corruption, the benchmark's tracer) is the one they run.
FAMILIES = {
    "P": Family(0, RECURRENCE_CAP, {
        "recurrence": lambda n: families.tangent_derivative_poly(n),
        "cvijovic": lambda n: families.cvijovic_polys(n)[0],
    }),
    "Q": Family(0, RECURRENCE_CAP, {
        "recurrence": lambda n: families.secant_derivative_poly(n),
        "cvijovic": lambda n: families.cvijovic_polys(n)[1],
    }),
    "A": Family(1, RECURRENCE_CAP, {
        "recurrence": lambda n: families.eulerian_poly(n),
        "gf": lambda n: solved_family_polys("A", n)[n],
        "oracle": lambda n: families.cached_distribution(n, "des").as_poly(),
    }, egf0=Poly.one()),
    "R": Family(0, RECURRENCE_CAP, {
        "recurrence": lambda n: families.tan_sec_poly(n),
        "triangle": lambda n: Poly(families.tan_sec_triangle(n)[n]),
        "gf": lambda n: solved_family_polys("P", n)[n],
    }),
    "G": Family(1, RECURRENCE_CAP, {
        "recurrence": lambda n: families.reduced_tan_sec_poly(n),
        "gf": lambda n: solved_family_polys("P", n)[n].exact_div(Poly((1, 1)) ** (n // 2 + 1)),
    }),
    "T": Family(1, MAX_ORDER, {
        "interleave": lambda n, **limits: families.signed_interleave_poly(n, **limits),
        "gf": lambda n: solved_family_polys("T", n)[n],
    }, egf0=Poly.one(), signed=True),
    "C": Family(1, MAX_ORDER, {
        "oracle": lambda n, **limits: families.type_b_eulerian_poly(n, **limits),
        "gf": lambda n: solved_family_polys("C", n)[n],
    }, egf0=Poly.one(), signed=True),
    "CT": Family(1, MAX_ORDER, {
        "oracle": lambda n, **limits: families.affine_eulerian_poly(n, **limits),
        "gf": lambda n: solved_family_polys("CT", n)[n],
    }, egf0=Poly.one(), signed=True),
    "W": Family(1, RECURRENCE_CAP, {
        "triangle": lambda n: families.peak_poly(n),
        "recurrence": lambda n: families.peak_polys_by_recurrence(n)[n - 1],
        "gf": lambda n: solved_family_polys("W", n)[n],
        "oracle": lambda n: families.cached_distribution(n, "pk").as_poly(),
    }, egf0=Poly.zero()),
    "WL": Family(1, RECURRENCE_CAP, {
        "triangle": lambda n: families.left_peak_poly(n),
        "recurrence": lambda n: families.left_peak_polys_by_recurrence(n)[n - 1],
        "gf": lambda n: solved_family_polys("WL", n)[n],
        "oracle": lambda n: families.cached_distribution(n, "lpk").as_poly(),
    }, egf0=Poly.one()),
}

# The EGFs of closed_form_sides, in the order the gf suite checks them:
# id -> (family, offset) for the series sum_m family_(m + offset) z^m / m!.
# gf_P and gf_R are both EGFs of R_n, at offsets 0 and 1; the CLI family P
# is the tangent derivative polynomial P_n, which has no EGF here.
EGFS = {
    "A": ("A", 0), "W": ("W", 0), "WL": ("WL", 0), "P": ("R", 0),
    "C": ("C", 0), "CT": ("CT", 0), "T": ("T", 0), "R": ("R", 1),
}


def _egf(family: str, order: int) -> tuple[Family, int]:
    """The family and offset behind an EGF id; raises on an unknown id or order."""
    if family not in EGFS:
        raise UnknownFamily(f"unknown family {family!r}")
    if not 0 <= order <= MAX_ORDER:
        raise OrderExceedsComputedFamilies(f"order {order} outside 0..{MAX_ORDER}")
    name, offset = EGFS[family]
    return FAMILIES[name], offset


# ---------------------------------------------------------------------------
# the closed forms, in cross-multiplied shape: family * den = rhs
# ---------------------------------------------------------------------------

def closed_form_sides(family: str, order: int) -> tuple[TruncSeries, TruncSeries]:
    """(den, rhs) with family_series * den = rhs as exact truncated series."""
    _egf(family, order)
    x = Poly.x()
    one_minus_x = Poly((1, -1))
    one_minus_x2 = Poly((1, 0, -1))
    if family == "A":
        e = exp_series(one_minus_x, order)
        return TruncSeries.const(1, order) - e.scale(x), e.scale(one_minus_x)
    if family in ("W", "WL"):
        cosh_w, sinh_w = hyperbolic_blocks(one_minus_x, order)
        den = cosh_w - sinh_w
        rhs = sinh_w if family == "W" else TruncSeries.const(1, order)
        return den, rhs
    if family == "P":
        cosh_w, sinh_w = hyperbolic_blocks(one_minus_x2, order)
        return cosh_w - sinh_w, TruncSeries.const(1, order) + sinh_w.scale(x)
    if family in ("C", "CT"):
        e2 = exp_series(2 * one_minus_x, order)
        den = TruncSeries.const(1, order) - e2.scale(x)
        if family == "CT":
            return den, TruncSeries.const(one_minus_x, order)
        return den, exp_series(one_minus_x, order).scale(one_minus_x)
    if family == "T":
        e = exp_series(one_minus_x2, order)
        den = TruncSeries.const(1, order) - e.scale(x)
        return den, e - TruncSeries.const(x, order)
    # family == "R": the square-root-free rewriting of the closed form
    # x (cosh z - 1) = (1 - x) + sum_i (-1)^i (1-x^2)^floor((i+1)/2) t^i / i!
    coeffs = [one_minus_x]
    for i in range(1, order + 1):
        coeffs.append(one_minus_x2 ** ((i + 1) // 2) * (-1) ** i)
    den = TruncSeries(order, tuple(coeffs))
    return den, TruncSeries.const(one_minus_x2, order)


def engine_series(
    family: str,
    order: int,
    *,
    signed_limit: int = SIGNED_LIMIT,
    jobs: int = 1,
) -> TruncSeries:
    """The family's series assembled from its first route (recurrence or oracle)."""
    fam, offset = _egf(family, order)
    polys = [
        fam.egf0 if n < fam.min_n else fam.poly(n, signed_limit=signed_limit, jobs=jobs)
        for n in range(offset, order + offset + 1)
    ]
    return TruncSeries.from_egf(polys, order)


_SOLVED: dict[str, tuple[Poly, ...]] = {}  # EGF id -> the longest solve so far


def solved_family_polys(family: str, order: int) -> tuple[Poly, ...]:
    """family_0..family_order recovered from the closed form alone.

    Entry n is the Hurwitz entry n! [z^n] of the solved series (for the R
    family that is R_{n+1}; for W it is W_n with entry 0 equal to zero).
    Entry n does not depend on the truncation order, so each family keeps
    its longest solve: a shorter order is a slice of it and a longer one
    solves only the entries past it.
    """
    _egf(family, order)
    solved = _SOLVED.get(family, ())
    if len(solved) <= order:
        den, rhs = closed_form_sides(family, order)
        solved = _SOLVED[family] = solve_series(rhs, den, solved).coeffs
    return solved[: order + 1]


def signed_polys_from_gf(n: int) -> tuple[Poly, Poly]:
    """(C_n, Ct_n) from the closed-form generating functions."""
    return solved_family_polys("C", n)[n], solved_family_polys("CT", n)[n]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Where two exactly computed sides first differ: n (the z-order for a
    series), the coefficient index and both exact values as strings.  Index
    -1 marks a violation raised by a lower layer (lhs is its type).  The
    witness type of every check here and in identities."""

    n: int
    index: int
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {"n": self.n, "index": self.index, "lhs": self.lhs, "rhs": self.rhs}


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


def _series_difference(a: TruncSeries, b: TruncSeries) -> Witness | None:
    """First differing coefficient of two series; its n is the z-order and
    its values are Hurwitz entries (m! [z^m])."""
    a._require_same_order(b)
    for m in range(a.order + 1):
        witness = first_difference(m, a.coeffs[m], b.coeffs[m])
        if witness is not None:
            return witness
    return None


def verify_gf(
    family: str,
    order: int,
    *,
    signed_limit: int = SIGNED_LIMIT,
    jobs: int = 1,
) -> Witness | None:
    """Cross-multiplied closed-form check for one family; None means pass."""
    engine = engine_series(family, order, signed_limit=signed_limit, jobs=jobs)
    den, rhs = closed_form_sides(family, order)
    return _series_difference(engine * den, rhs)


def verify_t_vs_eulerian(
    order: int,
    *,
    poly_nmax: int = SIGNED_LIMIT,
    signed_limit: int = SIGNED_LIMIT,
    jobs: int = 1,
) -> Witness | None:
    """Checks x + T(x, z) = (1+x) A(x, z(1+x)) through order, and the
    per-coefficient form T_n = (1+x)^(n+1) A_n for n up to poly_nmax."""
    one_plus_x = Poly((1, 1))
    a = engine_series("A", order)
    rescaled = TruncSeries(order, tuple(a.coeffs[m] * one_plus_x**m for m in range(order + 1)))
    lhs = engine_series("T", order, signed_limit=signed_limit, jobs=jobs) + TruncSeries.const(Poly.x(), order)
    witness = _series_difference(lhs, rescaled.scale(one_plus_x))
    if witness is not None:
        return witness
    for n in range(1, poly_nmax + 1):
        tn = families.signed_interleave_poly(n, signed_limit=signed_limit, jobs=jobs)
        witness = first_difference(n, tn, one_plus_x ** (n + 1) * families.eulerian_poly(n))
        if witness is not None:
            return witness
    return None


def verify_pde(order: int) -> Witness | None:
    """Exact check of x(x^2-1) dP/dx + (1 - x^2 z) dP/dz = P + x.

    P is the EGF of the tan_sec family; with P known through z^order the
    identity is verified for all z-coefficients up to order - 1.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    p = engine_series("P", order)
    x = Poly.x()
    px = p.dx().truncate(order - 1)
    pz = p.dz()
    lhs = px.scale(Poly((0, -1, 0, 1))) + pz - pz.shift_z(1).scale(x * x)
    rhs = p.truncate(order - 1) + TruncSeries.const(x, order - 1)
    return _series_difference(lhs, rhs)


# ---------------------------------------------------------------------------
# numeric spot-check of the transcendental closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpotcheckReport:
    x0: Fraction
    t0: Fraction
    order: int
    tol: float
    rel_error: float
    remainder_bound: float
    precision_bits: int


def numeric_spotcheck(
    x0: Fraction | int,
    t0: Fraction | int,
    order: int,
    tol: float,
    *,
    precision_bits: int = 320,
) -> SpotcheckReport:
    """Compare the literal closed form (1-x^2)/(x (cosh z - 1)) with
    z = -t sqrt(1-x^2) + arccosh(1/x) against the exact truncated EGF.

    The truncation remainder is bounded by 2 sum_{n>N} (n+1) |t|^n using
    |R_{n+1}(x0)| <= R_{n+1}(1) = 2 (n+1)! for x0 in (0, 1); the bound must
    certify the tolerance or PrecisionInsufficient is raised.
    """
    from mpmath import mp

    x0 = Fraction(x0)
    t0 = Fraction(t0)
    if not 0 < x0 < 1:
        raise ValueError("x0 must lie in (0, 1)")
    if abs(t0) >= Fraction(1, 4):
        raise ValueError("|t0| must be < 1/4 for the remainder bound")
    rs = families.tan_sec_polys(order + 1)
    partial = sum(
        (rs[n + 1](x0) * t0**n / math.factorial(n) for n in range(order + 1)),
        start=Fraction(0),
    )
    t = abs(t0)
    tail = 2 * t ** (order + 1) * (Fraction(order + 2) / (1 - t) + t / (1 - t) ** 2)
    with mp.workprec(precision_bits):
        xm = mp.mpf(x0.numerator) / x0.denominator
        tm = mp.mpf(t0.numerator) / t0.denominator
        s = mp.sqrt(1 - xm * xm)
        z = -tm * s + mp.acosh(1 / xm)
        closed = (1 - xm * xm) / (xm * (mp.cosh(z) - 1))
        approx = mp.mpf(partial.numerator) / partial.denominator
        rel_error = float(abs(closed - approx) / abs(closed))
        bound_rel = float(mp.mpf(tail.numerator) / tail.denominator / abs(closed))
    if bound_rel > tol:
        raise PrecisionInsufficient(
            f"remainder bound {bound_rel:.3e} cannot certify tolerance {tol:.3e}"
        )
    if rel_error > tol:
        raise ToleranceExceeded(
            f"relative error {rel_error:.3e} exceeds tolerance {tol:.3e}"
        )
    return SpotcheckReport(x0, t0, order, tol, rel_error, bound_rel, precision_bits)
