"""Number triangles and polynomial families built by exact recurrences.

The families all live over one variable with integer coefficients, and every
route below computes them in integer arithmetic:

* peak_triangle / peak_poly: interior-peak counts over S_n (OEIS A008303)
* left_peak_triangle / left_peak_poly: left-peak counts (OEIS A008971)
* tan_sec_triangle / tan_sec_poly: coefficients of the n-th derivative of
  tan + sec, written D^n(tan+sec) = sum_k R[n][k] tan^(n-k) sec^(k+1); the
  row polynomial interleaves the two peak distributions
* derivative_polys: the tangent/secant derivative polynomials defined by
  D^n(tan) = P_n(tan) and D^n(sec) = sec * Q_n(tan)
* eulerian_poly: descent polynomial of S_n
* type_b / affine eulerian polys: descent and augmented-descent polynomials
  of signed permutations, by the type-B and affine Eulerian recurrences, and
  their interleave T_n
* tangent/secant numbers of order k, partial Bell polynomials, Stirling
  numbers of the second kind

Every family has at least two independent computation routes (recurrence,
series solve, or brute-force enumeration); the test-suite and the identity
suite cross-check them against each other, so no single recurrence is ever
trusted on its own.  The routes of each family are listed in the family
table, series.FAMILIES.

Each recurrence family, each table of order-k tangent/secant numbers, and
the partial Bell rows at each of the three argument sequences the identities
use (peak, all ones, and 1, 1, 0, ...) is one Memo: a growing tuple of terms
0..k that builds only terms k+1..n when term n is asked for, so per-n calls
never rebuild a prefix.  The enumeration oracle results are memoized per
(n, stat) (or (n, reverse) for alternating counts) by functools.cache; the
module caches in no other way.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, Sequence

from . import permutations
from .permutations import StatDistribution
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
        if n >= len(self.terms):
            terms = list(self.terms)
            for m in range(len(terms), n + 1):
                terms.append(self.step(terms, m))
            self.terms = tuple(terms)
        return self.terms[: n + 1]


@cache
def cached_distribution(n: int, stat: str) -> StatDistribution:
    return permutations.distribution(n, stat)


@cache
def cached_signed_distribution(n: int, stat: str) -> StatDistribution:
    return permutations.signed_distribution(n, stat)


@cache
def cached_count_alternating(n: int, reverse: bool = False) -> int:
    # The cache keys on the call as written: (n) and (n, False) are two keys.
    return permutations.count_alternating(n, reverse=reverse)


# ---------------------------------------------------------------------------
# derivative polynomials and Euler numbers
# ---------------------------------------------------------------------------

ONE_PLUS_U2 = Poly((1, 0, 1))


def _derivative_step(pqs: list, m: int) -> tuple[Poly, Poly]:
    p, q = pqs[-1]
    return ONE_PLUS_U2 * p.derivative(), ONE_PLUS_U2 * q.derivative() + X * q


_DERIVATIVE_POLYS = Memo(((X, Poly.one()),), _derivative_step)


def derivative_polys(nmax: int) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """Derivative polynomials (P_0..P_nmax, Q_0..Q_nmax).

    P_0 = u, P_{n+1} = (1+u^2) P_n'; Q_0 = 1, Q_{n+1} = (1+u^2) Q_n' + u Q_n.
    P_n(0) and Q_n(0) are the tangent and secant numbers.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    pqs = _DERIVATIVE_POLYS.upto(nmax)
    return tuple(p for p, _ in pqs), tuple(q for _, q in pqs)


def tangent_derivative_poly(n: int) -> Poly:
    return derivative_polys(n)[0][n]


def secant_derivative_poly(n: int) -> Poly:
    return derivative_polys(n)[1][n]


def euler_numbers(nmax: int) -> tuple[int, ...]:
    """E_0..E_nmax: numbers of alternating permutations (OEIS A000111).

    Taken from the constant terms of the derivative polynomials: E_n is
    P_n(0) for odd n and Q_n(0) for even n.
    """
    ps, qs = derivative_polys(nmax)
    return tuple(ps[n].coeff(0) if n % 2 else qs[n].coeff(0) for n in range(nmax + 1))


# ---------------------------------------------------------------------------
# the triangles (entry recurrences)
# ---------------------------------------------------------------------------

def _tan_sec_row(rows: list, m: int) -> tuple[int, ...]:
    n, prev = m - 1, rows[-1]

    def entry(k: int) -> int:
        a = prev[k] if k <= n else 0
        b = prev[k - 2] if k >= 2 else 0
        return (k + 1) * a + (n - k + 2) * b

    return tuple(entry(k) for k in range(n + 2))


_TAN_SEC_ROWS = Memo(((1,), (1, 1)), _tan_sec_row)


def tan_sec_triangle(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..nmax of the triangle R with R[n+1][k] = (k+1) R[n][k] + (n-k+2) R[n][k-2].

    Row n has n+1 entries; rows start [1], [1, 1], [1, 2, 1], [1, 4, 5, 2], ...
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return _TAN_SEC_ROWS.upto(nmax)


def _peak_row_step(left: int) -> Callable[[list, int], tuple[int, ...]]:
    # Row n of the interior-peak (left = 0) or left-peak (left = 1) triangle
    # from row n-1; the memos hold row n as term n-1.
    def step(rows: list, m: int) -> tuple[int, ...]:
        n, prev = m + 1, rows[-1]

        def entry(k: int) -> int:
            a = prev[k] if k < len(prev) else 0
            b = prev[k - 1] if k >= 1 else 0
            return (2 * k + 2 - left) * a + (n - 2 * k + left) * b

        return tuple(entry(k) for k in range((n + left - 1) // 2 + 1))

    return step


_PEAK_ROWS = Memo(((1,),), _peak_row_step(0))
_LEFT_PEAK_ROWS = Memo(((1,),), _peak_row_step(1))


def peak_triangle(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..nmax of interior-peak counts W[n][k] over S_n (A008303).

    W[n][k] = (2k+2) W[n-1][k] + (n-2k) W[n-1][k-1]; row n has floor((n-1)/2)+1
    entries and sums to n!.  Index 0 of the result is row n=1.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    return _PEAK_ROWS.upto(nmax - 1)


def left_peak_triangle(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..nmax of left-peak counts Wl[n][k] over S_n (A008971).

    Wl[n][k] = (2k+1) Wl[n-1][k] + (n-2k+1) Wl[n-1][k-1]; row n has
    floor(n/2)+1 entries.  Index 0 of the result is row n=1.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    return _LEFT_PEAK_ROWS.upto(nmax - 1)


def peak_poly(n: int) -> Poly:
    """Generating polynomial of interior peaks over S_n."""
    return Poly(peak_triangle(n)[n - 1])


def left_peak_poly(n: int) -> Poly:
    """Generating polynomial of left peaks over S_n."""
    return Poly(left_peak_triangle(n)[n - 1])


# ---------------------------------------------------------------------------
# the same families through their polynomial recurrences (second route)
# ---------------------------------------------------------------------------

X_ONE_MINUS_X = Poly((0, 1, -1))
X_ONE_MINUS_X2 = Poly((0, 1, 0, -1))
TWO_X_ONE_MINUS_X = Poly((0, 2, -2))

# R_{n+1} = (1 + n x^2) R_n + x (1 - x^2) R_n', seeded with R_0 = 1 and
# R_1 = 1 + x (the recurrence applies for n >= 1).
_TAN_SEC_POLYS = Memo(
    (Poly.one(), ONE_PLUS_X),
    lambda rs, m: Poly((1, 0, m - 1)) * rs[-1] + X_ONE_MINUS_X2 * rs[-1].derivative(),
)
# W_{n+1} = (nx - x + 2) W_n + 2x(1-x) W_n', with W_n as term n-1.
_PEAK_POLYS = Memo(
    (Poly.one(),),
    lambda ws, m: Poly((2, m - 1)) * ws[-1] + TWO_X_ONE_MINUS_X * ws[-1].derivative(),
)
# Wl_{n+1} = (nx + 1) Wl_n + 2x(1-x) Wl_n', with Wl_n as term n-1.
_LEFT_PEAK_POLYS = Memo(
    (Poly.one(),),
    lambda ws, m: Poly((1, m)) * ws[-1] + TWO_X_ONE_MINUS_X * ws[-1].derivative(),
)


def tan_sec_polys(nmax: int) -> tuple[Poly, ...]:
    """R_0..R_nmax via R_{n+1} = (1 + n x^2) R_n + x (1 - x^2) R_n'."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return _TAN_SEC_POLYS.upto(nmax)


def tan_sec_poly(n: int) -> Poly:
    return tan_sec_polys(n)[n]


def peak_polys_by_recurrence(nmax: int) -> tuple[Poly, ...]:
    """W_1..W_nmax via W_{n+1} = (nx - x + 2) W_n + 2x(1-x) W_n'."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return _PEAK_POLYS.upto(nmax - 1)


def left_peak_polys_by_recurrence(nmax: int) -> tuple[Poly, ...]:
    """Wl_1..Wl_nmax via Wl_{n+1} = (nx + 1) Wl_n + 2x(1-x) Wl_n'."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return _LEFT_PEAK_POLYS.upto(nmax - 1)


# ---------------------------------------------------------------------------
# Eulerian polynomials
# ---------------------------------------------------------------------------

# A_{n+1} = (1 + nx) A_n + x(1-x) A_n'.  This classical recurrence is not
# taken on faith: the suite checks the result against the descent
# distribution and against the exponential generating function.
_EULERIAN_POLYS = Memo(
    (Poly.one(),),
    lambda an, m: Poly((1, m - 1)) * an[-1] + X_ONE_MINUS_X * an[-1].derivative(),
)


def eulerian_poly(n: int) -> Poly:
    """The Eulerian (descent) polynomial A_n, n >= 1; A_n(1) = n!."""
    if n < 1:
        raise ValueError("eulerian_poly requires n >= 1")
    return _EULERIAN_POLYS.upto(n)[n]


# ---------------------------------------------------------------------------
# signed-permutation families
# ---------------------------------------------------------------------------

# C_n = (1 + (2n-1)x) C_{n-1} + 2x(1-x) C_{n-1}', C_0 = 1: the type-B
# Eulerian recurrence (Brenti, Europ. J. Combin. 1994).
_TYPE_B_POLYS = Memo(
    (Poly.one(),),
    lambda cs, m: Poly((1, 2 * m - 1)) * cs[-1] + TWO_X_ONE_MINUS_X * cs[-1].derivative(),
)
# Ct_n = 2nx Ct_{n-1} + 2x(1-x) Ct_{n-1}', Ct_1 = 2x: the affine Eulerian
# recurrence (Dilks, Petersen, Stembridge 2009).  Seeding Ct_0 = 1, the EGF's
# entry 0, makes the step give Ct_1 = 2x.
_AFFINE_POLYS = Memo(
    (Poly.one(),),
    lambda cts, m: Poly((0, 2 * m)) * cts[-1] + TWO_X_ONE_MINUS_X * cts[-1].derivative(),
)


def type_b_eulerian_poly(n: int) -> Poly:
    """C_n, the descent polynomial of signed permutations (type-B Eulerian)."""
    if n < 1:
        raise ValueError("signed families require n >= 1")
    return _TYPE_B_POLYS.upto(n)[n]


def affine_eulerian_poly(n: int) -> Poly:
    """Ct_n, the augmented-descent polynomial of signed windows (affine Eulerian)."""
    if n < 1:
        raise ValueError("signed families require n >= 1")
    return _AFFINE_POLYS.upto(n)[n]


def signed_interleave_poly(n: int) -> Poly:
    """T_n(x) = C_n(x^2) + Ct_n(x^2)/x, interleaving the two signed families.

    C_n and Ct_n come from their recurrences.  The division is exact because
    every signed window has at least one augmented descent; a nonzero
    constant term in Ct_n would be a bug and raises ConstantTermNonzero.
    """
    c, ct = type_b_eulerian_poly(n), affine_eulerian_poly(n)
    if ct.coeff(0) != 0:
        raise ConstantTermNonzero(f"Ct_{n} has nonzero constant term {ct.coeff(0)}")
    width = 2 * max(len(c.coeffs), len(ct.coeffs))
    out = [0] * width
    for i, v in enumerate(c.coeffs):
        out[2 * i] += v
    for i, v in enumerate(ct.coeffs):
        if i >= 1:
            out[2 * i - 1] += v
    return Poly(out)


# ---------------------------------------------------------------------------
# tangent and secant numbers of order k
# ---------------------------------------------------------------------------

def _times_tan(rows: list, tan: list, n: int, k: int) -> int:
    # n! [x^n] of (column k-1 of rows) * tan, a Hurwitz product.  tan[0] = 0,
    # so only rows 0..n-1 are read.
    return sum(math.comb(n, i) * rows[i][k - 1] * tan[n - i] for i in range(k - 1, n))


def _tangent_row(rows: list, n: int) -> tuple[int, ...]:
    # Row n of T(n, k), k = 0..n.  Entry 1 is tan' = 1 + tan^2 read at
    # x^(n-1); entry k >= 2 is the Hurwitz product of tan^(k-1) with tan.
    # Nothing is read off the derivative polynomials, so cvijovic_polys stays
    # a route to P_n and Q_n of its own.
    prev = rows[-1]
    tan = [0] + [row[1] for row in rows[1:]] + [int(n == 1) + (prev[2] if len(prev) > 2 else 0)]
    return (0, tan[n]) + tuple(_times_tan(rows, tan, n, k) for k in range(2, n + 1))


def _secant_row(rows: list, n: int) -> tuple[int, ...]:
    # Row n of S(n, k), k = 0..n.  Entry 0 is sec' = sec tan read at x^(n-1);
    # entry k >= 1 is the Hurwitz product of sec tan^(k-1) with tan.
    prev = rows[-1]
    tan = [0] + [row[1] for row in _TANGENT_ROWS.upto(n)[1:]]
    return (prev[1] if len(prev) > 1 else 0,) + tuple(_times_tan(rows, tan, n, k) for k in range(1, n + 1))


_TANGENT_ROWS = Memo(((1,),), _tangent_row)
_SECANT_ROWS = Memo(((1,),), _secant_row)


def _order_k_table(memo: Memo, nmax: int, kmax: int) -> tuple[tuple[int, ...], ...]:
    # Rows 0..nmax cut or zero-padded to columns 0..kmax (row n ends at k = n);
    # column 0 is always kept.
    if kmax > nmax:
        raise ValueError("kmax must be <= nmax")
    rows = memo.upto(nmax)
    return tuple((rows[n] + (0,) * kmax)[: max(kmax, 0) + 1] for n in range(nmax + 1))


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
    and Q_n(x) = sum_k S(n,k) x^k; must agree with derivative_polys().  A
    T(n+1,k) that k does not divide raises NonzeroRemainder.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t_table = tangent_numbers_table(n + 1, n + 1)
    s_table = secant_numbers_table(n, n)
    p_coeffs = [t_table[n][1] if n >= 1 else 0]
    for k in range(1, n + 2):
        c, r = divmod(t_table[n + 1][k], k)
        if r:
            raise NonzeroRemainder(f"T({n + 1}, {k}) = {t_table[n + 1][k]} is not divisible by {k}")
        p_coeffs.append(c)
    q_coeffs = [s_table[n][k] for k in range(n + 1)]
    return Poly(p_coeffs), Poly(q_coeffs)


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


# (1 - x^2)^e is term e
_ONE_MINUS_X2_POWERS = Memo((Poly.one(),), lambda powers, e: powers[-1] * Poly((1, 0, -1)))


def bell_peak_arguments(count: int) -> tuple[Poly, ...]:
    """The substitution x_i = (1 - x^2)^floor((i-1)/2), for i = 1..count."""
    powers = _ONE_MINUS_X2_POWERS.upto((count - 1) // 2)
    return tuple(powers[(i - 1) // 2] for i in range(1, count + 1))


# Rows of B_{n,k} at the peak arguments, at all ones (the Stirling numbers)
# and at (1, 1, 0, 0, ...); row n is term n.
_BELL_SEED = ((Poly.one(),),)
_PEAK_BELL_ROWS = Memo(_BELL_SEED, _bell_step(bell_peak_arguments))
_STIRLING_ROWS = Memo(_BELL_SEED, _bell_step(lambda m: (Poly.one(),) * m))
_FACTORIAL_BELL_ROWS = Memo(_BELL_SEED, _bell_step(lambda m: (Poly.one(), Poly.one()) + (Poly.zero(),) * m))


def bell_partial(n: int, k: int, xs: Sequence[Poly | int]) -> Poly:
    """Partial Bell polynomial B_{n,k} at the arguments xs (xs[0] is x_1).

    Computed by B_{n,k} = sum_i C(n-1, i-1) xs_i B_{n-i, k-1} with
    B_{0,0} = 1 and B_{n,0} = 0 for n > 0, in rows built afresh on each call:
    the uncached reference for the Bell row memos, validated elsewhere
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
    """Stirling number of the second kind, as B_{n,k} at all-ones arguments."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return _STIRLING_ROWS.upto(n)[n][k].coeff(0)


def tan_sec_poly_from_bell(n: int) -> Poly:
    """R_{n+1} as sum_k (-1)^(n-k) k! (1+x)^(k+1) B_{n,k} at the peak arguments.

    An explicit-formula route to the same polynomial tan_sec_poly(n+1)
    produces by recurrence.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    row = _PEAK_BELL_ROWS.upto(n)[n]
    acc = Poly.zero()  # by Horner in (1+x), from k = n down
    for k in range(n, 0, -1):
        acc = (acc + (-1) ** (n - k) * math.factorial(k) * row[k]) * ONE_PLUS_X
    return acc * ONE_PLUS_X


def factorial_bell_sum(n: int) -> int:
    """sum_k (-1)^(n-k) k! 2^k B_{n,k}(1,1,0,0,...), which is (n+1)!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = _FACTORIAL_BELL_ROWS.upto(n)[n]
    return sum((-1) ** (n - k) * math.factorial(k) * 2**k * row[k].coeff(0) for k in range(1, n + 1))


def factorial_bell_identity(n: int) -> bool:
    """True iff (n+1)! == sum_k (-1)^(n-k) k! 2^k B_{n,k}(1,1,0,0,...)."""
    return factorial_bell_sum(n) == math.factorial(n + 1)


# ---------------------------------------------------------------------------
# the (1+x)-reduced polynomials
# ---------------------------------------------------------------------------

def reduced_tan_sec_poly(n: int) -> Poly:
    """G_n with tan_sec_poly(n) = (1+x)^(floor(n/2)+1) G_n; coefficients must
    be positive integers.

    NonzeroRemainder from the division signals that the multiplicity claim
    fails; NonpositiveCoefficient that the positivity claim does.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = tan_sec_poly(n).exact_div(ONE_PLUS_X ** (n // 2 + 1))
    for i, c in enumerate(g.coeffs):
        if c <= 0:
            raise NonpositiveCoefficient(f"G_{n} coefficient {c} at index {i}")
    return g
