"""Exact real-root certification for the tan_sec polynomial family.

Everything here is exact, and the hot paths run in integer arithmetic.  The
central facts being certified, for R_n = tan_sec_poly(n):

* x = -1 is a zero of multiplicity exactly floor(n/2) + 1, and the reduced
  polynomial G_n = R_n / (1+x)^(floor(n/2)+1) has exactly ceil(n/2) - 1
  simple real zeros, all inside (-1, 0) -- so every zero of R_n is real;
* consecutive R_n weakly interlace (R_n separates R_{n+1});
* the largest coefficient sits at the index bracket floor/ceil((2n-1)/3).

It also computes the exact mean and variance of R_n's coefficients
(clt_stats); the check table compares them with their closed forms.

Root counting uses Sturm chains built as primitive pseudo-remainder
sequences over Z (Collins 1967): every remainder is scaled by a positive
integer and reduced to its primitive part, so sign variations are untouched
and no fraction is ever formed.  The root structure is certified by counts
alone.  The multiplicity at -1 is checked once, where G_n is divided out
(families.reduced_tan_sec_poly): the exact division by (1+x)^(floor(n/2)+1)
and the test G_n(-1) != 0, so deg R_n - deg G_n is that multiplicity.
Then a squarefree G_n of degree ceil(n/2)-1 whose chain has Cauchy index
ceil(n/2)-1 (the distinct real zeros, read off leading coefficients and
degrees) and V(-1) - V(0) equal to the same number has every zero real,
simple and inside (-1, 0).  The only evaluations are at the integers -1 and
0, where Poly.__call__ returns an int: its sign is the sign test.

Interlacing needs no root location either.  With the common factor of G_n and
G_{n+1} divided out, the zeros alternate exactly when the Cauchy index of
G_n/G_{n+1} over R is as large as it can be.  It is read off the one
remainder sequence of (G_{n+1}, G_n), the builder the Sturm chains use, as
the common factor multiplies every member and moves no variation count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import Violation, _at_least, families
from .polynomial import NonzeroRemainder, Poly, gcd_poly, remainder_sequence


class EndpointIsRoot(ValueError):
    """A Sturm count was requested at an endpoint where the polynomial vanishes."""


class NonSquarefreeInput(ValueError):
    """A squarefree polynomial was required."""


class StructureViolation(Violation):
    """A clause of the certified root structure failed."""

    def __init__(self, clause: str, detail: str = ""):
        super().__init__(f"{clause}: {detail}" if detail else clause)
        self.clause = clause


class InterlacingViolation(Violation):
    """The separation (weak interlacing) certificate failed."""


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class SturmChain(NamedTuple):
    """A remainder sequence in Z[x], as `remainder_sequence` builds it.

    For the Sturm chain of a squarefree polynomial (the sequence of p, p')
    the sign-variation difference V(a) - V(b) counts the distinct real roots
    in (a, b].  For the sequence of any f0, f1 it is the Cauchy index of
    f1/f0 over (a, b) (Sturm's theorem in its general form).
    """

    polys: tuple[Poly, ...]

    def variations(self, x: Fraction | int) -> int:
        return _sign_changes(p(x) for p in self.polys)

    def cauchy_index(self) -> int:
        """V(-oo) - V(+oo), from leading coefficients and degrees alone: the
        distinct real roots of a Sturm chain's polynomial, and the Cauchy
        index of polys[1]/polys[0] over R for any remainder sequence."""
        top = [p.leading() for p in self.polys]
        bottom = [-c if p.degree % 2 else c for p, c in zip(self.polys, top)]
        return _sign_changes(bottom) - _sign_changes(top)

    def count(self, a: Fraction | int, b: Fraction | int) -> int:
        """Distinct real roots in (a, b]."""
        if a >= b:
            raise ValueError("need a < b")
        p = self.polys[0]
        if p(a) == 0 or p(b) == 0:
            raise EndpointIsRoot(f"endpoint of ({a}, {b}) is a root")
        return self.variations(a) - self.variations(b)


def sturm_chain(p: Poly) -> SturmChain:
    """Sturm chain of a squarefree p: the remainder sequence of p and p'.

    Its last member is gcd(p, p') up to sign, so NonSquarefreeInput is
    raised when that member is not constant.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = remainder_sequence(p, p.derivative())
    if chain[-1].degree >= 1:
        raise NonSquarefreeInput(f"{p!r} has a repeated root")
    return SturmChain(chain)


# ---------------------------------------------------------------------------
# certified structure of the tan_sec family
# ---------------------------------------------------------------------------

def certify_root_structure(n: int) -> None:
    """Certify the zero structure of R_n = tan_sec_poly(n): every zero is real.

    The clauses, in order: multiplicity exactly floor(n/2)+1 at -1 (the
    division and the test G_n(-1) != 0 of reduced_tan_sec_poly); the
    reduced polynomial G_n squarefree; ceil(n/2)-1 distinct real zeros of
    G_n (the Cauchy index of its Sturm chain); all of them in (-1, 0) (the
    chain's count there); and deg G_n equal to that count, so no zero is
    non-real.
    The first clause that fails raises StructureViolation.
    """
    _at_least("n", n, 1)
    expected_simple = (n + 1) // 2 - 1
    try:
        g = families.reduced_tan_sec_poly(n)
    except NonzeroRemainder as exc:
        raise StructureViolation("multiplicity", str(exc)) from None
    try:
        chain = sturm_chain(g)
    except NonSquarefreeInput:
        raise StructureViolation("squarefree", f"G_{n} has a repeated root") from None
    simple = chain.cauchy_index()
    if simple != expected_simple:
        raise StructureViolation("simple-zero count", f"n={n}: {simple} != {expected_simple}")
    if chain.count(-1, 0) != expected_simple:
        raise StructureViolation("zero range", f"some zero of G_{n} is outside (-1, 0)")
    if g.degree != expected_simple:
        raise StructureViolation("degree", f"n={n}: deg G_{n} = {g.degree} != {expected_simple}")


def certify_interlacing(n: int) -> None:
    """Certify that R_n separates R_{n+1} (weak interlacing of all zeros).

    The shared zeros at -1 have multiplicity exactly floor(k/2)+1 in R_k,
    k = n, n+1 (reduced_tan_sec_poly checks it), so the two differ by at
    most one.  For the rest, let d = gcd(G_n, G_{n+1}) (its zeros are
    coincident points), f = G_n/d and g = G_{n+1}/d.  Each real zero s of
    g adds sign(f(s) g'(s)) to the Cauchy index of f/g over R.
    With deg g - deg f in {0, 1}, the index is sign(lc f * lc g) * deg g
    exactly when all zeros of g are real and simple, f changes sign between
    consecutive ones, and no zero of f lies above the top one: the zeros
    alternate from the top, starting with one of g.  f/g is G_n/G_{n+1}, so
    the index is V(-oo) - V(+oo) of S, the remainder sequence of G_{n+1} and
    G_n: its members are those of (g, f) times d and positive factors, and
    lc d > 0 and (-1)^deg d move no count.  gcd_poly reads d off S's last
    two members, as the last divides the one before.
    """
    _at_least("n", n, 1)
    r_n, r_n1 = families.tan_sec_poly(n), families.tan_sec_poly(n + 1)
    if r_n1.degree != r_n.degree + 1:
        raise InterlacingViolation(f"degree step failed at n={n}")
    try:
        g_n, g_n1 = families.reduced_tan_sec_poly(n), families.reduced_tan_sec_poly(n + 1)
    except NonzeroRemainder as exc:
        raise InterlacingViolation(f"at n={n}: {exc}") from None
    seq = remainder_sequence(g_n1, g_n)
    common = gcd_poly(seq[-2], seq[-1])
    deg_f, deg_g = g_n.degree - common.degree, g_n1.degree - common.degree
    if deg_g - deg_f not in (0, 1):
        raise InterlacingViolation(f"simple-zero counts {deg_f}/{deg_g} at n={n}")
    orientation = 1 if g_n.leading() * g_n1.leading() > 0 else -1
    if SturmChain(seq).cauchy_index() != orientation * deg_g:
        raise InterlacingViolation(f"zeros of R_{n} and R_{n + 1} fail to alternate")


# ---------------------------------------------------------------------------
# exact central-limit statistics and the mode bracket
# ---------------------------------------------------------------------------

class CltStats(NamedTuple):
    n: int
    value_at_1: int
    deriv1_at_1: int
    deriv2_at_1: int
    mu: Fraction
    sigma2: Fraction


def clt_stats(n: int) -> CltStats:
    """Exact mean and variance of the coefficient distribution of R_n.

    mu = R'(1)/R(1) and sigma^2 = mu + R''(1)/R(1) - mu^2.  Nothing is
    compared here: identities.check_clt_moments holds them to their closed
    forms.
    """
    _at_least("n", n, 1)
    rn = families.tan_sec_poly(n)
    deriv = rn.derivative()
    v, d1, d2 = rn(1), deriv(1), deriv.derivative()(1)
    mu = Fraction(d1, v)
    sigma2 = mu + Fraction(d2, v) - mu * mu
    return CltStats(n, v, d1, d2, mu, sigma2)


class ModeResult(NamedTuple):
    n: int
    argmax: tuple[int, ...]
    allowed: tuple[int, ...]
    tie: bool
    ok: bool


def mode_bracket(n: int) -> ModeResult:
    """Locate the largest coefficient of row n and test the Darroch bracket.

    If (2n-1)/3 is an integer the maximum must sit exactly there; otherwise
    at its floor or ceiling.  Ties are reported, not failed.
    """
    _at_least("n", n, 2)
    row = families.tan_sec_poly(n).coeffs
    top = max(row)
    argmax = tuple(k for k, v in enumerate(row) if v == top)
    num = 2 * n - 1
    if num % 3 == 0:
        allowed = (num // 3,)
    else:
        allowed = (num // 3, num // 3 + 1)
    ok = all(k in allowed for k in argmax)
    return ModeResult(n, argmax, allowed, len(argmax) > 1, ok)
