"""Number triangles and polynomial families built by exact recurrences.

The families all live over one variable with integer coefficients, and every
route below computes them in integer arithmetic:

* peak_poly: interior-peak counts W[n][k] over S_n (OEIS A008303)
* left_peak_poly: left-peak counts WL[n][k] (OEIS A008971)
* tan_sec_poly: coefficients of the n-th derivative of tan + sec, written
  D^n(tan+sec) = sum_k R[n][k] tan^(n-k) sec^(k+1); the row polynomial
  interleaves the two peak distributions
* tangent_derivative_poly / secant_derivative_poly: the derivative
  polynomials defined by D^n(tan) = P_n(tan) and D^n(sec) = sec * Q_n(tan)
* eulerian_poly: descent polynomial of S_n
* type_b / affine eulerian polys: descent and augmented-descent polynomials
  of signed permutations, by the type-B and affine Eulerian recurrences, and
  their interleave T_n; interleave_rows is the one row interleave, of R's
  rows and of T_n
* tangent/secant numbers of order k, T(n, k) = n! [x^n] tan^k and
  S(n, k) = n! [x^n] sec tan^k, by the entry recurrences that differentiating
  tan^k and sec tan^k gives; partial Bell polynomials, Stirling numbers of
  the second kind

The first route of P, Q, A, R, W, WL, C and CT is one row of the recurrence
table RECURRENCES: a seed and (alpha, beta, b) with
F_{n+1} = (alpha + n beta) F_n + b F_n', the shape in which the paper states
the recurrences of P, Q, R, W and WL.  The triangles R, W and WL are the
coefficients of their rows' polynomials, and each family is read through
one function, the one its first route calls.  Every family has at least two
independent computation routes (recurrence, series solve, brute-force
enumeration, or one of the paper's identities applied to another family);
the test-suite and the identity suite cross-check them, so no single
recurrence is ever trusted on its own.  The routes of each family are listed
in the family table, series.FAMILIES.

Each row of the recurrence table, each table of order-k tangent/secant
numbers, and the partial Bell triangle is one Memo: a growing tuple of terms
0..k that builds only terms k+1..n when term n is asked for, so per-n calls
never rebuild a prefix; a negative n is refused.  The Bell triangle is over
Z[w], at the arguments x_i = w^floor((i-1)/2); the identities read it at
w = 1 - x^2 (the peak arguments), at w = 1 (all ones) and at w = 0
(1, 1, 0, 0, ...).  Every cache in the module is a Memo, and the module
imports polynomial alone: the enumeration oracle routes of the family table,
series.FAMILIES, call permutations themselves.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from . import _at_least
from .polynomial import NonzeroRemainder, Poly

X = Poly.x()
ONE_PLUS_X = Poly((1, 1))


class ConstantTermNonzero(ArithmeticError):
    """A family required a zero constant term and did not have one."""


class InsufficientArguments(ValueError):
    """Too few arguments supplied to a partial Bell polynomial."""


class NonpositiveCoefficient(ArithmeticError):
    """A coefficient asserted to be a positive integer is not."""


# ---------------------------------------------------------------------------
# the memo idiom: every family is one sequence, grown on demand
# ---------------------------------------------------------------------------

class Memo:
    """Terms 0..k of an infinite sequence, extended on demand.

    Asking for term n > k builds only terms k+1..n, term m as
    step(terms, m) from the stored prefix terms[0..m-1], so a loop over n
    never rebuilds a prefix.  The terms are kept as a tuple, so what a caller
    gets back cannot change the memo.
    """

    def __init__(self, seed: Sequence, step: Callable[[list, int], object]):
        self.terms = tuple(seed)
        self.step = step

    def upto(self, n: int) -> tuple:
        """Terms 0..n."""
        _at_least("n", n, 0)
        if n >= len(self.terms):
            terms = list(self.terms)
            for m in range(len(terms), n + 1):
                terms.append(self.step(terms, m))
            self.terms = tuple(terms)
        return self.terms[: n + 1]


# ---------------------------------------------------------------------------
# the recurrence table: F_{n+1} = (alpha + n beta) F_n + b F_n'
# ---------------------------------------------------------------------------

ONE_PLUS_U2 = Poly((1, 0, 1))


# Row (seed, alpha, beta, b): F_0..F_(s-1) are the s polynomials of the seed,
# then F_{n+1} = (alpha + n beta) F_n + b F_n' for n >= s - 1.  The first
# route of eight families: the paper's recurrences of P, Q, R, W and WL, the
# classical one of A, and the type-B (Brenti, Europ. J. Combin. 1994) and
# affine (Dilks, Petersen, Stembridge 2009) Eulerian ones of C and CT.
# W_0 = 0 is no count (W starts at n = 1) but lets the step give W_2 = 2 W_1;
# Ct_0 = 1 is the EGF's entry 0 and makes the step give Ct_1 = 2x.  No row is
# taken on faith: the suite checks each family against its enumeration
# oracle, its closed-form series solve or the paper's identities.
RECURRENCES = {
    "P": ((X,), Poly.zero(), Poly.zero(), ONE_PLUS_U2),
    "Q": ((Poly.one(),), X, Poly.zero(), ONE_PLUS_U2),
    "A": ((Poly.one(),), Poly.one(), X, Poly((0, 1, -1))),
    "R": ((Poly.one(), ONE_PLUS_X), Poly.one(), Poly((0, 0, 1)), Poly((0, 1, 0, -1))),
    "W": ((Poly.zero(), Poly.one()), Poly((2, -1)), X, Poly((0, 2, -2))),
    "WL": ((Poly.one(),), Poly.one(), X, Poly((0, 2, -2))),
    "C": ((Poly.one(),), ONE_PLUS_X, Poly((0, 2)), Poly((0, 2, -2))),
    "CT": ((Poly.one(),), Poly((0, 2)), Poly((0, 2)), Poly((0, 2, -2))),
}


def _recurrence_memo(seed: tuple[Poly, ...], alpha: Poly, beta: Poly, b: Poly) -> Memo:
    # F_0..F_n of one row.  Each memo gets a step of its own, in Poly
    # arithmetic only, so a route reaches the step of each row it reads and
    # of no other.
    def step(fs: list, m: int) -> Poly:
        return (alpha + (m - 1) * beta) * fs[-1] + b * fs[-1].derivative()

    return Memo(seed, step)


_TANGENT_DERIVATIVE_POLYS = _recurrence_memo(*RECURRENCES["P"])
_SECANT_DERIVATIVE_POLYS = _recurrence_memo(*RECURRENCES["Q"])
_EULERIAN_POLYS = _recurrence_memo(*RECURRENCES["A"])
_TAN_SEC_POLYS = _recurrence_memo(*RECURRENCES["R"])
_PEAK_POLYS = _recurrence_memo(*RECURRENCES["W"])
_LEFT_PEAK_POLYS = _recurrence_memo(*RECURRENCES["WL"])
_TYPE_B_POLYS = _recurrence_memo(*RECURRENCES["C"])
_AFFINE_POLYS = _recurrence_memo(*RECURRENCES["CT"])


# ---------------------------------------------------------------------------
# derivative polynomials and Euler numbers
# ---------------------------------------------------------------------------

def tangent_derivative_poly(n: int) -> Poly:
    """P_n, with D^n(tan) = P_n(tan): P_0 = u, P_{n+1} = (1+u^2) P_n'.
    P_n(0) is the tangent number for odd n and 0 for even n."""
    return _TANGENT_DERIVATIVE_POLYS.upto(n)[n]


def secant_derivative_poly(n: int) -> Poly:
    """Q_n, with D^n(sec) = sec Q_n(tan): Q_0 = 1,
    Q_{n+1} = (1+u^2) Q_n' + u Q_n.  Q_n(0) is the secant number for even n
    and 0 for odd n."""
    return _SECANT_DERIVATIVE_POLYS.upto(n)[n]


def euler_numbers(nmax: int) -> tuple[int, ...]:
    """E_0..E_nmax: numbers of alternating permutations (OEIS A000111).

    Taken from the constant terms of the derivative polynomials: E_n is
    P_n(0) for odd n and Q_n(0) for even n.
    """
    _at_least("nmax", nmax, 0)
    return tuple((tangent_derivative_poly(n) if n % 2 else secant_derivative_poly(n)).coeff(0)
                 for n in range(nmax + 1))


# ---------------------------------------------------------------------------
# the triangles: coefficients of the rows R, W and WL of the table
# ---------------------------------------------------------------------------

def tan_sec_poly(n: int) -> Poly:
    """R_n, whose coefficients are row n of the triangle R:
    R_{n+1} = (1 + n x^2) R_n + x(1 - x^2) R_n' from R_0 = 1, R_1 = 1 + x.

    Row n has n+1 entries; rows start [1], [1, 1], [1, 2, 1], [1, 4, 5, 2], ...
    """
    return _TAN_SEC_POLYS.upto(n)[n]


def tan_sec_polys(nmax: int) -> tuple[Poly, ...]:
    """R_0..R_nmax at once, for callers outside the package (the benchmark's
    probes take operands from it).  The package reads R through
    tan_sec_poly alone, so a corrupted tan_sec_poly reaches every check that
    reads R."""
    _at_least("nmax", nmax, 0)
    return _TAN_SEC_POLYS.upto(nmax)


def peak_poly(n: int) -> Poly:
    """W_n, the interior-peak counts W[n][k] over S_n as a polynomial (OEIS
    A008303): W_{n+1} = (2 - x + nx) W_n + 2x(1-x) W_n' from W_1 = 1.  Its
    row has floor((n-1)/2)+1 entries and sums to n!."""
    _at_least("n", n, 1)
    return _PEAK_POLYS.upto(n)[n]


def left_peak_poly(n: int) -> Poly:
    """WL_n, the left-peak counts WL[n][k] over S_n as a polynomial (OEIS
    A008971): WL_{n+1} = (1 + nx) WL_n + 2x(1-x) WL_n' from WL_0 = 1.  Its
    row has floor(n/2)+1 entries and sums to n!."""
    _at_least("n", n, 1)
    return _LEFT_PEAK_POLYS.upto(n)[n]


# ---------------------------------------------------------------------------
# Eulerian polynomials
# ---------------------------------------------------------------------------

def eulerian_poly(n: int) -> Poly:
    """The Eulerian (descent) polynomial A_n, n >= 1; A_n(1) = n!."""
    _at_least("n", n, 1)
    return _EULERIAN_POLYS.upto(n)[n]


# ---------------------------------------------------------------------------
# signed-permutation families
# ---------------------------------------------------------------------------

def type_b_eulerian_poly(n: int) -> Poly:
    """C_n, the descent polynomial of signed permutations (type-B Eulerian)."""
    _at_least("n", n, 1)
    return _TYPE_B_POLYS.upto(n)[n]


def affine_eulerian_poly(n: int) -> Poly:
    """Ct_n, the augmented-descent polynomial of signed windows (affine Eulerian)."""
    _at_least("n", n, 1)
    return _AFFINE_POLYS.upto(n)[n]


def interleave_rows(odd: Sequence[int], even: Sequence[int]) -> tuple[int, ...]:
    """The combined row: even entries from `even`, odd entries from `odd`,
    every entry of both kept.  R_n's row interleaves the interior-peak row
    (odd) with the left-peak row (even); T_n interleaves Ct_n/x with C_n."""
    return tuple(v for pair in itertools.zip_longest(even, odd) for v in pair if v is not None)


def signed_interleave_poly(n: int) -> Poly:
    """T_n(x) = C_n(x^2) + Ct_n(x^2)/x, interleaving the two signed families.

    C_n and Ct_n come from their recurrences.  The division is exact because
    every signed window has at least one augmented descent; a nonzero
    constant term in Ct_n would be a bug and raises ConstantTermNonzero.
    """
    c, ct = type_b_eulerian_poly(n), affine_eulerian_poly(n)
    if ct.coeff(0) != 0:
        raise ConstantTermNonzero(f"Ct_{n} has nonzero constant term {ct.coeff(0)}")
    return Poly(interleave_rows(ct.coeffs[1:], c.coeffs))


# ---------------------------------------------------------------------------
# the paper's identities as routes: peak rows to P, Q, C and Ct, A to C
# ---------------------------------------------------------------------------

FOUR_X = Poly((0, 4))
ONE_MINUS_X = Poly((1, -1))


class RowTooLong(ArithmeticError):
    """A peak row has an entry past the degree its transform allows."""


def peak_transform(p: Poly, m: int, a: Poly, b: Poly) -> Poly:
    """sum_k p_k a^k b^(m-2k), the one transform of a peak row p: x = a/b^2
    cleared at the degree of p, times the powers of b that m leaves over."""
    _at_least("m", m, 0)
    if 2 * p.degree > m:
        raise RowTooLong(f"row of degree {p.degree} under b^{m}")
    return p.subst_cleared(a, b * b) * b ** (m - 2 * max(p.degree, 0))


def tangent_poly_from_peaks(n: int) -> Poly:
    """P_n(y) = (1+y^2) sum_k W[n][k] y^(n-1-2k) (1+y^2)^k; P_0 = y."""
    _at_least("n", n, 0)
    return ONE_PLUS_U2 * peak_transform(peak_poly(n), n - 1, ONE_PLUS_U2, X) if n else X


def secant_poly_from_peaks(n: int) -> Poly:
    """Q_n(y) = sum_k Wl[n][k] y^(n-2k) (1+y^2)^k; Q_0 = 1."""
    _at_least("n", n, 0)
    return peak_transform(left_peak_poly(n), n, ONE_PLUS_U2, X) if n else Poly.one()


def type_b_poly_from_peaks(n: int) -> Poly:
    """C_n = sum_k Wl[n][k] (4x)^k (1+x)^(n-2k) (Dilks, Petersen, Stembridge)."""
    return peak_transform(left_peak_poly(n), n, FOUR_X, ONE_PLUS_X)


def affine_poly_from_peaks(n: int) -> Poly:
    """Ct_n = 2x sum_k W[n][k] (4x)^k (1+x)^(n-1-2k) (Dilks, Petersen, Stembridge)."""
    return 2 * X * peak_transform(peak_poly(n), n - 1, FOUR_X, ONE_PLUS_X)


def type_b_poly_from_eulerian(n: int) -> Poly:
    """C_n = (1-x)^n + sum_i C(n,i) (1-x)^(n-i) 2^i x A_i (Petersen), by Horner in 1-x."""
    _at_least("n", n, 1)
    c = Poly.one()
    for i in range(1, n + 1):
        c = c * ONE_MINUS_X + math.comb(n, i) * 2**i * X * eulerian_poly(i)
    return c


# ---------------------------------------------------------------------------
# tangent and secant numbers of order k
# ---------------------------------------------------------------------------

def _order_k_step(lift: int) -> Callable[[list, int], tuple[int, ...]]:
    # Row n, k = 0..n, of T(n, k) (lift = 0) or S(n, k) (lift = 1) from row
    # n-1, by d/dx sec^lift tan^k = sec^lift (k tan^(k-1) + (k+lift) tan^(k+1)):
    # entry k is k * prev[k-1] + (k+lift) * prev[k+1].  Nothing is read off
    # the derivative polynomials or the peak rows, so cvijovic_polys stays a
    # route to P_n and Q_n of its own.
    def step(rows: list, n: int) -> tuple[int, ...]:
        prev = (0,) + rows[-1] + (0, 0)
        return tuple(k * prev[k] + (k + lift) * prev[k + 2] for k in range(n + 1))

    return step


_TANGENT_ROWS = Memo(((1,),), _order_k_step(0))
_SECANT_ROWS = Memo(((1,),), _order_k_step(1))


def _order_k_table(memo: Memo, nmax: int, kmax: int) -> tuple[tuple[int, ...], ...]:
    # Rows 0..nmax cut or zero-padded to columns 0..kmax (row n ends at k = n).
    if not 0 <= kmax <= nmax:
        raise ValueError("need 0 <= kmax <= nmax")
    rows = memo.upto(nmax)
    return tuple((rows[n] + (0,) * kmax)[: kmax + 1] for n in range(nmax + 1))


def tangent_numbers_table(nmax: int, kmax: int) -> tuple[tuple[int, ...], ...]:
    """T(n, k) = n! [x^n] tan(x)^k for 0 <= n <= nmax, 0 <= k <= kmax."""
    return _order_k_table(_TANGENT_ROWS, nmax, kmax)


def secant_numbers_table(nmax: int, kmax: int) -> tuple[tuple[int, ...], ...]:
    """S(n, k) = n! [x^n] sec(x) tan(x)^k for 0 <= n <= nmax, 0 <= k <= kmax.

    Not to be confused with Stirling numbers, which live in stirling2().
    """
    return _order_k_table(_SECANT_ROWS, nmax, kmax)


def cvijovic_polys(n: int) -> tuple[Poly, Poly]:
    """(P_n, Q_n) rebuilt from the order-k tangent/secant number tables.

    Uses Cvijovic's closed formulas P_n(x) = T(n,1) + sum_k T(n+1,k) x^k / k
    and Q_n(x) = sum_k S(n,k) x^k; must agree with tangent_derivative_poly(n)
    and secant_derivative_poly(n).  A T(n+1,k) that k does not divide raises
    NonzeroRemainder.
    """
    _at_least("n", n, 0)
    t_rows = _TANGENT_ROWS.upto(n + 1)
    p_coeffs = [t_rows[n][1] if n >= 1 else 0]
    for k in range(1, n + 2):
        c, r = divmod(t_rows[n + 1][k], k)
        if r:
            raise NonzeroRemainder(f"T({n + 1}, {k}) = {t_rows[n + 1][k]} is not divisible by {k}")
        p_coeffs.append(c)
    return Poly(p_coeffs), Poly(_SECANT_ROWS.upto(n)[n])


# ---------------------------------------------------------------------------
# partial Bell polynomials and Stirling numbers
# ---------------------------------------------------------------------------

def _bell_step(args: Callable[[int], Sequence[Poly]]) -> Callable[[list, int], tuple[Poly, ...]]:
    # Row m, B_{m,0..m}, from rows 0..m-1 by B_{m,j} = sum_i C(m-1, i-1) x_i
    # B_{m-i,j-1}, where args(m) starts x_1..x_m; B_{m,0} = 0 for m > 0.
    def step(rows: list, m: int) -> tuple[Poly, ...]:
        xs = args(m)

        def entry(j: int) -> Poly:
            acc = Poly.zero()
            for i in range(1, m - j + 2):
                if xs[i - 1]:
                    acc = acc + math.comb(m - 1, i - 1) * xs[i - 1] * rows[m - i][j - 1]
            return acc

        return (Poly.zero(),) + tuple(entry(j) for j in range(1, m + 1))

    return step


ONE_MINUS_X2 = Poly((1, 0, -1))

# Row n is B_{n,0..n} over Z[w] at x_i = w^floor((i-1)/2).  At w = 1 - x^2
# these are the peak arguments, at w = 1 every argument is 1 (the Stirling
# numbers), and at w = 0 they are 1, 1, 0, 0, ...
_BELL_SEED = ((Poly.one(),),)
_PEAK_BELL_ROWS = Memo(_BELL_SEED, _bell_step(lambda m: [Poly.monomial(1, (i - 1) // 2) for i in range(1, m + 1)]))


def bell_partial(n: int, k: int, xs: Sequence[Poly | int]) -> Poly:
    """Partial Bell polynomial B_{n,k} at the arguments xs (xs[0] is x_1).

    Computed by B_{n,k} = sum_i C(n-1, i-1) xs_i B_{n-i, k-1} with
    B_{0,0} = 1 and B_{n,0} = 0 for n > 0, in rows built afresh on each call:
    the uncached reference for the Bell triangle memo, validated elsewhere
    against the generating-function definition.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k >= 1 and len(xs) < n - k + 1:
        raise InsufficientArguments(f"need at least {n - k + 1} arguments, got {len(xs)}")
    # B_{n,k} reads only x_1 .. x_(n-k+1), so zeros may stand in for the rest.
    args = tuple(v if isinstance(v, Poly) else Poly.constant(v) for v in xs) + (Poly.zero(),) * n
    return Memo(_BELL_SEED, _bell_step(lambda m: args)).upto(n)[n][k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, as B_{n,k} at all-ones arguments (w = 1)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return _PEAK_BELL_ROWS.upto(n)[n][k](1)


def tan_sec_poly_from_bell(n: int) -> Poly:
    """R_{n+1} as sum_k (-1)^(n-k) k! (1+x)^(k+1) B_{n,k} at the peak arguments.

    An explicit-formula route to the same polynomial tan_sec_poly(n+1)
    produces by recurrence.
    """
    _at_least("n", n, 1)
    row = _PEAK_BELL_ROWS.upto(n)[n]
    acc = Poly.zero()  # by Horner in (1+x), from k = n down
    for k in range(n, 0, -1):
        acc = (acc + (-1) ** (n - k) * math.factorial(k) * row[k].compose(ONE_MINUS_X2)) * ONE_PLUS_X
    return acc * ONE_PLUS_X


def factorial_bell_sum(n: int) -> int:
    """sum_k (-1)^(n-k) k! 2^k B_{n,k}(1,1,0,0,...), which is (n+1)!; the
    arguments are the peak rows' at w = 0."""
    row = _PEAK_BELL_ROWS.upto(n)[n]
    return sum((-1) ** (n - k) * math.factorial(k) * 2**k * row[k].coeff(0) for k in range(n + 1))


# ---------------------------------------------------------------------------
# the (1+x)-reduced polynomials
# ---------------------------------------------------------------------------

def reduced_tan_sec_poly(n: int) -> Poly:
    """G_n with tan_sec_poly(n) = (1+x)^(floor(n/2)+1) G_n and G_n(-1) != 0;
    coefficients must be positive integers.

    This is where the multiplicity claim is checked: -1 is a zero of R_n of
    multiplicity exactly floor(n/2)+1.  The division shows it is at least
    that and the one sign test of G_n at -1 that it is no more; either
    failure raises NonzeroRemainder.  NonpositiveCoefficient signals that the
    positivity claim fails.
    """
    _at_least("n", n, 1)
    m = n // 2 + 1
    g, rem = divmod(tan_sec_poly(n), ONE_PLUS_X**m)
    if not rem.is_zero():
        raise NonzeroRemainder(f"-1 is a zero of R_{n} of multiplicity below {m}")
    if g.sign_at(-1) == 0:
        raise NonzeroRemainder(f"-1 is a zero of R_{n} of multiplicity above {m}")
    for i, c in enumerate(g.coeffs):
        if c <= 0:
            raise NonpositiveCoefficient(f"G_{n} coefficient {c} at index {i}")
    return g
