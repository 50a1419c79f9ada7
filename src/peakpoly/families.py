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
* type_b / affine eulerian polys: descent polynomials of signed permutations
* tangent/secant numbers of order k, partial Bell polynomials, Stirling
  numbers of the second kind

Every family has at least two independent computation routes (recurrence,
series solve, or brute-force enumeration); the test-suite and the identity
suite cross-check them against each other, so no single recurrence is ever
trusted on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import permutations
from .permutations import S_N_LIMIT, SIGNED_LIMIT, LimitExceeded, StatDistribution
from .polynomial import Poly, Scalar, hurwitz_mul

X = Poly.x()
ONE_PLUS_X = Poly((1, 1))


class ConstantTermNonzero(ArithmeticError):
    """A family required a zero constant term and did not have one."""


class InsufficientArguments(ValueError):
    """Too few arguments supplied to a partial Bell polynomial."""


class NonpositiveCoefficient(ArithmeticError):
    """A coefficient asserted to be a positive integer is not."""


# ---------------------------------------------------------------------------
# cached oracle access (enumeration results are reused by many checks)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _distribution_impl(n: int, stat: str, limit: int, jobs: int) -> StatDistribution:
    return permutations.distribution(n, stat, limit=limit, jobs=jobs)


@lru_cache(maxsize=None)
def _signed_distribution_impl(n: int, stat: str, limit: int, jobs: int) -> StatDistribution:
    return permutations.signed_distribution(n, stat, limit=limit, jobs=jobs)


@lru_cache(maxsize=None)
def _count_alternating_impl(n: int, reverse: bool, limit: int, jobs: int) -> int:
    return permutations.count_alternating(n, reverse=reverse, limit=limit, jobs=jobs)


def cached_distribution(n: int, stat: str, limit: int = S_N_LIMIT, jobs: int = 1) -> StatDistribution:
    return _distribution_impl(n, stat, limit, jobs)


def cached_signed_distribution(n: int, stat: str, limit: int = SIGNED_LIMIT, jobs: int = 1) -> StatDistribution:
    return _signed_distribution_impl(n, stat, limit, jobs)


def cached_count_alternating(n: int, reverse: bool = False, limit: int = S_N_LIMIT, jobs: int = 1) -> int:
    return _count_alternating_impl(n, reverse, limit, jobs)


# ---------------------------------------------------------------------------
# derivative polynomials and Euler numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def derivative_polys(nmax: int) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """Derivative polynomials (P_0..P_nmax, Q_0..Q_nmax).

    P_0 = u, P_{n+1} = (1+u^2) P_n'; Q_0 = 1, Q_{n+1} = (1+u^2) Q_n' + u Q_n.
    P_n(0) and Q_n(0) are the tangent and secant numbers.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    one_plus_u2 = Poly((1, 0, 1))
    ps = [X]
    qs = [Poly.one()]
    for _ in range(nmax):
        ps.append(one_plus_u2 * ps[-1].derivative())
        qs.append(one_plus_u2 * qs[-1].derivative() + X * qs[-1])
    return tuple(ps), tuple(qs)


def tangent_derivative_poly(n: int) -> Poly:
    return derivative_polys(n)[0][n]


def secant_derivative_poly(n: int) -> Poly:
    return derivative_polys(n)[1][n]


@lru_cache(maxsize=None)
def euler_numbers(nmax: int) -> tuple[int, ...]:
    """E_0..E_nmax: numbers of alternating permutations (OEIS A000111).

    Taken from the constant terms of the derivative polynomials: E_n is
    P_n(0) for odd n and Q_n(0) for even n.
    """
    ps, qs = derivative_polys(nmax)
    out = []
    for n in range(nmax + 1):
        value = ps[n](0) if n % 2 else qs[n](0)
        out.append(int(value))
    return tuple(out)


# ---------------------------------------------------------------------------
# the triangles (entry recurrences)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tan_sec_triangle(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..nmax of the triangle R with R[n+1][k] = (k+1) R[n][k] + (n-k+2) R[n][k-2].

    Row n has n+1 entries; rows start [1], [1, 1], [1, 2, 1], [1, 4, 5, 2], ...
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    rows = [(1,), (1, 1)]
    for n in range(1, nmax):
        prev = rows[-1]

        def entry(k: int) -> int:
            a = prev[k] if k <= n else 0
            b = prev[k - 2] if k >= 2 else 0
            return (k + 1) * a + (n - k + 2) * b

        rows.append(tuple(entry(k) for k in range(n + 2)))
    return tuple(rows[: nmax + 1])


@lru_cache(maxsize=None)
def peak_triangle(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..nmax of interior-peak counts W[n][k] over S_n (A008303).

    W[n][k] = (2k+2) W[n-1][k] + (n-2k) W[n-1][k-1]; row n has floor((n-1)/2)+1
    entries and sums to n!.  Index 0 of the result is row n=1.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rows = [(1,)]
    for n in range(2, nmax + 1):
        prev = rows[-1]
        width = (n - 1) // 2 + 1

        def entry(k: int) -> int:
            a = prev[k] if k < len(prev) else 0
            b = prev[k - 1] if k >= 1 else 0
            return (2 * k + 2) * a + (n - 2 * k) * b

        rows.append(tuple(entry(k) for k in range(width)))
    return tuple(rows)


@lru_cache(maxsize=None)
def left_peak_triangle(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..nmax of left-peak counts Wl[n][k] over S_n (A008971).

    Wl[n][k] = (2k+1) Wl[n-1][k] + (n-2k+1) Wl[n-1][k-1]; row n has
    floor(n/2)+1 entries.  Index 0 of the result is row n=1.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rows = [(1,)]
    for n in range(2, nmax + 1):
        prev = rows[-1]
        width = n // 2 + 1

        def entry(k: int) -> int:
            a = prev[k] if k < len(prev) else 0
            b = prev[k - 1] if k >= 1 else 0
            return (2 * k + 1) * a + (n - 2 * k + 1) * b

        rows.append(tuple(entry(k) for k in range(width)))
    return tuple(rows)


def peak_poly(n: int) -> Poly:
    """Generating polynomial of interior peaks over S_n."""
    return Poly(peak_triangle(n)[n - 1])


def left_peak_poly(n: int) -> Poly:
    """Generating polynomial of left peaks over S_n."""
    return Poly(left_peak_triangle(n)[n - 1])


# ---------------------------------------------------------------------------
# the same families through their polynomial recurrences (second route)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tan_sec_polys(nmax: int) -> tuple[Poly, ...]:
    """R_0..R_nmax via R_{n+1} = (1 + n x^2) R_n + x (1 - x^2) R_n'.

    Seeded with R_0 = 1 and R_1 = 1 + x (the recurrence applies for n >= 1).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    rs = [Poly.one(), ONE_PLUS_X]
    x_one_minus_x2 = Poly((0, 1, 0, -1))
    for n in range(1, nmax):
        rn = rs[-1]
        rs.append(Poly((1, 0, n)) * rn + x_one_minus_x2 * rn.derivative())
    return tuple(rs[: nmax + 1])


def tan_sec_poly(n: int) -> Poly:
    return tan_sec_polys(n)[n]


@lru_cache(maxsize=None)
def peak_polys_by_recurrence(nmax: int) -> tuple[Poly, ...]:
    """W_1..W_nmax via W_{n+1} = (nx - x + 2) W_n + 2x(1-x) W_n'."""
    ws = [Poly.one()]
    two_x_one_minus_x = Poly((0, 2, -2))
    for n in range(1, nmax):
        wn = ws[-1]
        ws.append(Poly((2, n - 1)) * wn + two_x_one_minus_x * wn.derivative())
    return tuple(ws[:nmax])


@lru_cache(maxsize=None)
def left_peak_polys_by_recurrence(nmax: int) -> tuple[Poly, ...]:
    """Wl_1..Wl_nmax via Wl_{n+1} = (nx + 1) Wl_n + 2x(1-x) Wl_n'."""
    ws = [Poly.one()]
    two_x_one_minus_x = Poly((0, 2, -2))
    for n in range(1, nmax):
        wn = ws[-1]
        ws.append(Poly((1, n)) * wn + two_x_one_minus_x * wn.derivative())
    return tuple(ws[:nmax])


# ---------------------------------------------------------------------------
# Eulerian polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _eulerian_polys(nmax: int) -> tuple[Poly, ...]:
    # A_{n+1} = (1 + nx) A_n + x(1-x) A_n'.  This classical recurrence is not
    # taken on faith: the suite checks the result against the descent
    # distribution and against the exponential generating function.
    out = [Poly.one()]
    x_one_minus_x = Poly((0, 1, -1))
    for n in range(nmax):
        an = out[-1]
        out.append(Poly((1, n)) * an + x_one_minus_x * an.derivative())
    return tuple(out)


def eulerian_poly(n: int) -> Poly:
    """The Eulerian (descent) polynomial A_n, n >= 1; A_n(1) = n!."""
    if n < 1:
        raise ValueError("eulerian_poly requires n >= 1")
    return _eulerian_polys(n)[n]


# ---------------------------------------------------------------------------
# signed-permutation families
# ---------------------------------------------------------------------------

def signed_eulerian_polys(
    n: int,
    *,
    signed_limit: int = SIGNED_LIMIT,
    jobs: int = 1,
    source: str = "auto",
) -> tuple[Poly, Poly]:
    """(C_n, Ct_n): descent and augmented-descent polynomials over signed windows.

    Within the enumeration cap the pair comes from the brute-force oracle;
    beyond it (or with source="gf") it is solved exactly from the closed-form
    generating functions.  source="oracle" insists on enumeration and raises
    LimitExceeded past the cap.
    """
    if source not in ("auto", "oracle", "gf"):
        raise ValueError(f"unknown source {source!r}")
    if n < 1:
        raise ValueError("signed families require n >= 1")
    if source == "oracle" and n > signed_limit:
        raise LimitExceeded(f"n={n} outside signed enumeration cap {signed_limit}")
    if source == "gf" or (source == "auto" and n > signed_limit):
        from . import series

        return series.signed_polys_from_gf(n)
    c = cached_signed_distribution(n, "des_b", signed_limit, jobs).as_poly()
    ct = cached_signed_distribution(n, "ades", signed_limit, jobs).as_poly()
    return c, ct


def type_b_eulerian_poly(n: int, **kwargs) -> Poly:
    return signed_eulerian_polys(n, **kwargs)[0]


def affine_eulerian_poly(n: int, **kwargs) -> Poly:
    return signed_eulerian_polys(n, **kwargs)[1]


def signed_interleave_poly(n: int, **kwargs) -> Poly:
    """T_n(x) = C_n(x^2) + Ct_n(x^2)/x, interleaving the two signed families.

    The division is exact because every signed window has at least one
    augmented descent; a nonzero constant term in Ct_n would be a bug and
    raises ConstantTermNonzero.
    """
    c, ct = signed_eulerian_polys(n, **kwargs)
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

def _tan_sec_series(nmax: int) -> tuple[list[int], list[int]]:
    # Hurwitz entries n! [x^n] of tan and sec up to x^nmax: the Euler
    # numbers, odd ones for tan and even ones for sec (no series inversion).
    es = euler_numbers(nmax)
    tan_h = [e if i % 2 else 0 for i, e in enumerate(es)]
    sec_h = [0 if i % 2 else e for i, e in enumerate(es)]
    return tan_h, sec_h


@lru_cache(maxsize=None)
def tangent_numbers_table(nmax: int, kmax: int) -> tuple[tuple[int, ...], ...]:
    """T(n, k) = n! [x^n] tan(x)^k for 0 <= n <= nmax, 0 <= k <= kmax.

    Column k is the Hurwitz series of tan^k, so the columns are integral by
    construction: each is the binomial convolution of the previous with tan.
    """
    if kmax > nmax:
        raise ValueError("kmax must be <= nmax")
    tan_h, _ = _tan_sec_series(nmax)
    table = []
    power = [1] + [0] * nmax
    for k in range(kmax + 1):
        table.append(tuple(power))
        if k < kmax:
            power = hurwitz_mul(power, tan_h, nmax)
    # transpose so the table reads T[n][k]
    return tuple(tuple(table[k][n] for k in range(kmax + 1)) for n in range(nmax + 1))


@lru_cache(maxsize=None)
def secant_numbers_table(nmax: int, kmax: int) -> tuple[tuple[int, ...], ...]:
    """S(n, k) = n! [x^n] sec(x) tan(x)^k for 0 <= n <= nmax, 0 <= k <= kmax.

    Not to be confused with Stirling numbers, which live in stirling2().
    """
    if kmax > nmax:
        raise ValueError("kmax must be <= nmax")
    tan_h, sec_h = _tan_sec_series(nmax)
    table = []
    power = sec_h
    for k in range(kmax + 1):
        table.append(tuple(power))
        if k < kmax:
            power = hurwitz_mul(power, tan_h, nmax)
    return tuple(tuple(table[k][n] for k in range(kmax + 1)) for n in range(nmax + 1))


def cvijovic_polys(n: int) -> tuple[Poly, Poly]:
    """(P_n, Q_n) rebuilt from the order-k tangent/secant number tables.

    Uses Cvijovic's closed formulas P_n(x) = T(n,1) + sum_k T(n+1,k) x^k / k
    and Q_n(x) = sum_k S(n,k) x^k; must agree with derivative_polys().
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t_table = tangent_numbers_table(n + 1, n + 1)
    s_table = secant_numbers_table(n, n)
    p_coeffs = [t_table[n][1] if n >= 1 else 0]
    for k in range(1, n + 2):
        p_coeffs.append(Fraction(t_table[n + 1][k], k))
    q_coeffs = [s_table[n][k] for k in range(n + 1)]
    return Poly(p_coeffs), Poly(q_coeffs)


# ---------------------------------------------------------------------------
# partial Bell polynomials and Stirling numbers
# ---------------------------------------------------------------------------

def bell_partial(n: int, k: int, xs: Sequence[Poly | Scalar]) -> Poly:
    """Partial Bell polynomial B_{n,k} at the arguments xs (xs[0] is x_1).

    Computed by B_{n,k} = sum_i C(n-1, i-1) xs_i B_{n-i, k-1} with
    B_{0,0} = 1 and B_{n,0} = 0 for n > 0; validated elsewhere against the
    generating-function definition.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k >= 1 and len(xs) < n - k + 1:
        raise InsufficientArguments(f"need at least {n - k + 1} arguments, got {len(xs)}")
    args = [v if isinstance(v, Poly) else Poly.constant(v) for v in xs]
    memo: dict[tuple[int, int], Poly] = {}

    def b(m: int, j: int) -> Poly:
        if j == 0:
            return Poly.one() if m == 0 else Poly.zero()
        if m < j:
            return Poly.zero()
        key = (m, j)
        if key not in memo:
            acc = Poly.zero()
            for i in range(1, m - j + 2):
                xi = args[i - 1]
                if not xi.is_zero():
                    acc = acc + math.comb(m - 1, i - 1) * xi * b(m - i, j - 1)
            memo[key] = acc
        return memo[key]

    return b(n, k)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, as B_{n,k} at all-ones arguments."""
    value = bell_partial(n, k, (1,) * max(1, n - k + 1))
    return int(value.coeff(0))


def bell_peak_arguments(count: int) -> tuple[Poly, ...]:
    """The substitution x_i = (1 - x^2)^floor((i-1)/2), for i = 1..count."""
    w = Poly((1, 0, -1))
    return tuple(w ** ((i - 1) // 2) for i in range(1, count + 1))


def tan_sec_poly_from_bell(n: int) -> Poly:
    """R_{n+1} as sum_k (-1)^(n-k) k! (1+x)^(k+1) B_{n,k} at the peak arguments.

    An explicit-formula route to the same polynomial tan_sec_poly(n+1)
    produces by recurrence.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = bell_peak_arguments(n)
    acc = Poly.zero()
    for k in range(1, n + 1):
        term = math.factorial(k) * ONE_PLUS_X ** (k + 1) * bell_partial(n, k, xs)
        acc = acc + ((-1) ** (n - k)) * term
    return acc


def stirling_alternating_identity(n: int) -> bool:
    """True iff sum_k (-1)^(n-k) k! S(n,k) == 1 (the x = 0 reduction)."""
    total = sum((-1) ** (n - k) * math.factorial(k) * stirling2(n, k) for k in range(n + 1))
    return total == 1


def factorial_bell_identity(n: int) -> bool:
    """True iff (n+1)! == sum_k (-1)^(n-k) k! 2^k B_{n,k}(1,1,0,0,...)."""
    xs = (1, 1) + (0,) * n
    total = Poly.zero()
    for k in range(1, n + 1):
        total = total + ((-1) ** (n - k)) * math.factorial(k) * 2**k * bell_partial(n, k, xs)
    return total == Poly.constant(math.factorial(n + 1))


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
        if type(c) is not int or c <= 0:
            raise NonpositiveCoefficient(f"G_{n} coefficient {c} at index {i}")
    return g
