import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakpoly import families as F
from peakpoly import identities as I
from peakpoly import polynomial as P
from peakpoly import series as S
from peakpoly.polynomial import Poly, gcd_poly, remainder_sequence
from peakpoly.roots import (
    EndpointIsRoot,
    InterlacingViolation,
    NonSquarefreeInput,
    StructureViolation,
    SturmChain,
    certify_interlacing,
    certify_root_structure,
    clt_stats,
    mode_bracket,
    sturm_chain,
)

ONE_PLUS_X = Poly((1, 1))


def with_roots(roots_list, lead=1):
    """lead times the product of the primitive factors (den x - num)."""
    p = Poly.constant(lead)
    for r in roots_list:
        p = p * Poly((-r.numerator, r.denominator))
    return p


def count(p, a, b):
    """Distinct real roots of squarefree p in (a, b], by its Sturm chain."""
    return sturm_chain(p).count(Fraction(a), Fraction(b))


def counts_between_roots(p, roots_list):
    """Sturm counts over the gaps cut by points below, between and above the
    sorted distinct roots: one root in each gap exactly when every root is
    where it should be."""
    rs = sorted(roots_list)
    cuts = [rs[0] - 1] + [(a + b) / 2 for a, b in zip(rs, rs[1:])] + [rs[-1] + 1]
    return [count(p, a, b) for a, b in zip(cuts, cuts[1:])]


def multiplicity_at(p, r):
    """Largest m with (x - r)^m dividing p, by repeated exact division by the
    primitive factor den x - num of r = num/den (Gauss's lemma keeps every
    quotient in Z[x])."""
    r = Fraction(r)
    m = 0
    while p(r) == 0:
        p, m = p.exact_div(Poly((-r.numerator, r.denominator))), m + 1
    return m


def test_multiplicity_at_minus_one():
    assert multiplicity_at(F.tan_sec_poly(4), -1) == 3
    assert multiplicity_at(F.tan_sec_poly(3), -1) == 2
    assert multiplicity_at(F.tan_sec_poly(3), 0) == 0


def test_multiplicity_at_rational_point():
    # (2x+1)^2 (x-3): the divisor for r = -1/2 is the primitive 2x + 1
    p = Poly((1, 2)) ** 2 * Poly((-3, 1))
    assert multiplicity_at(p, Fraction(-1, 2)) == 2
    assert multiplicity_at(p, 3) == 1
    assert multiplicity_at(p, Fraction(1, 2)) == 0


def test_count_real_roots_examples():
    assert count(Poly((1, 5)), -1, 0) == 1
    g5 = F.reduced_tan_sec_poly(5)
    assert count(g5, -1, 0) == 2
    assert count(Poly((1, 0, 1)), -10, 10) == 0


def test_count_real_roots_partitions():
    p = Poly((0, 1)) * Poly((-1, 1))  # roots at 0 and 1
    assert count(p, Fraction(-1, 2), Fraction(3, 2)) == 2
    assert count(p, Fraction(1, 2), 2) == 1
    assert count(p, -2, Fraction(-1, 2)) == 0


def test_endpoint_root_rejected():
    with pytest.raises(EndpointIsRoot):
        count(Poly((0, 1)), 0, 1)


def test_non_squarefree_rejected():
    with pytest.raises(NonSquarefreeInput):
        sturm_chain(ONE_PLUS_X**2)


def test_sturm_index_and_counts_linear_and_quadratic():
    p = Poly((1, 5))
    assert sturm_chain(p).cauchy_index() == 1
    assert count(p, Fraction(-1, 4), Fraction(-1, 8)) == 1
    g5 = F.reduced_tan_sec_poly(5)
    assert sturm_chain(g5).cauchy_index() == 2
    # sign-check oracle: G_5(-1) = 4 > 0, G_5(-1/2) = -3/2 < 0, G_5(0) = 1 > 0,
    # so there is one root on each side of -1/2
    assert g5(-1) == 4
    assert g5(Fraction(-1, 2)) == Fraction(-3, 2)
    assert g5(0) == 1
    assert count(g5, -1, Fraction(-1, 2)) == 1
    assert count(g5, Fraction(-1, 2), 0) == 1


def test_sturm_index_and_counts_of_a_constant():
    assert sturm_chain(Poly.one()).cauchy_index() == 0
    assert count(Poly.one(), -1, 1) == 0


def test_sturm_index_and_counts_between_rational_roots():
    # roots at -1/2 and 1/2, with the symmetric midpoint 0 between them; a
    # count may not end on a root
    p = Poly((-1, 0, 4))  # 4x^2 - 1
    assert sturm_chain(p).cauchy_index() == 2
    assert counts_between_roots(p, [Fraction(-1, 2), Fraction(1, 2)]) == [1, 1]
    with pytest.raises(EndpointIsRoot):
        count(p, -1, Fraction(-1, 2))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
def test_sturm_chain_self_test_on_split_polynomials(roots_list):
    p = with_roots(roots_list)
    assert sturm_chain(p).cauchy_index() == len(roots_list)
    assert counts_between_roots(p, roots_list) == [1] * len(roots_list)
    lo, hi = Fraction(-9), Fraction(9)
    assert count(p, lo, hi) == len(roots_list)
    # a count over a piece agrees with the roots it holds
    mid = Fraction(1, 7)
    if p(mid) != 0:
        left = count(p, lo, mid)
        assert left == sum(1 for r in roots_list if r <= mid)


def test_certify_root_structure_small_cases():
    assert certify_root_structure(1) is None
    assert multiplicity_at(F.tan_sec_poly(1), -1) == 1
    assert sturm_chain(F.reduced_tan_sec_poly(1)).cauchy_index() == 0
    assert certify_root_structure(4) is None
    assert multiplicity_at(F.tan_sec_poly(4), -1) == 3
    g4 = F.reduced_tan_sec_poly(4)
    assert count(g4, -1, 0) == count(g4, Fraction(-1, 4), Fraction(-1, 8)) == 1
    assert certify_root_structure(5) is None
    assert multiplicity_at(F.tan_sec_poly(5), -1) == 3
    assert count(F.reduced_tan_sec_poly(5), -1, 0) == 2


def test_certify_root_structure_full_range():
    for n in range(1, 26):
        assert certify_root_structure(n) is None
        assert multiplicity_at(F.tan_sec_poly(n), -1) == n // 2 + 1
        g = F.reduced_tan_sec_poly(n)
        expected = (n + 1) // 2 - 1
        # distinct zeros, all real, all in (-1, 0)
        assert g.degree == sturm_chain(g).cauchy_index() == expected
        if g.degree >= 1:
            assert count(g, -1, 0) == expected


def test_certify_interlacing_full_range():
    for n in range(1, 26):
        assert certify_interlacing(n) is None


def test_the_roots_sign_tests_go_through_the_one_evaluation(monkeypatch):
    """The roots suite's sign tests go through Poly.__call__, the one
    evaluation, which a per-layer tracer wraps to count evaluations."""
    real_call, calls = Poly.__call__, []
    monkeypatch.setattr(Poly, "__call__", lambda p, x: calls.append(x) or real_call(p, x))
    results = I.run("roots", roots_nmax=6)
    assert results and all(r.verdict == "pass" for r in results)
    assert len(calls) > 0


def test_one_factor_too_many_at_minus_one_is_an_interlacing_violation(monkeypatch):
    # R_4 (1+x) and R_5 (1+x): the degree step holds and the multiplicities
    # at -1, 4 and 4, differ by at most one, but each is one above floor(k/2)+1
    real = F.tan_sec_poly
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: real(n) * ONE_PLUS_X if n in (4, 5) else real(n))
    with pytest.raises(InterlacingViolation, match="multiplicity above 3"):
        certify_interlacing(4)
    with pytest.raises(StructureViolation, match="multiplicity above 3") as raised:
        certify_root_structure(5)
    assert raised.value.clause == "multiplicity"


# The paper's peak polynomials W_n and WL_n, and the Eulerian polynomials A_n,
# C_n and Ct_n / x (Ct_n(0) = 0), have only real zeros.
REAL_ROOTED = {
    "W": F.peak_poly,
    "WL": F.left_peak_poly,
    "A": F.eulerian_poly,
    "C": F.type_b_eulerian_poly,
    "CT/x": lambda n: F.affine_eulerian_poly(n).exact_div(Poly.x()),
}


@pytest.mark.parametrize("name", REAL_ROOTED)
def test_peak_and_eulerian_polynomials_have_real_simple_zeros(name):
    # sturm_chain refuses a repeated zero; a Cauchy index equal to the degree
    # leaves no zero off the real line.  sympy, where installed, counts again.
    try:
        import sympy
    except ImportError:
        sympy = None
    for n in range(1, 25):
        p = REAL_ROOTED[name](n)
        assert sturm_chain(p).cauchy_index() == p.degree, (name, n)
        if sympy is not None:
            sp = sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), domain=sympy.ZZ)
            assert sp.count_roots() == p.degree, (name, n)


def _liu_wang_failures(name):
    """The hypotheses of the Liu-Wang corollary that row `name` of RECURRENCES fails.

    The corollary (Liu and Wang, Adv. Appl. Math. 2007), as ROADMAP item 15
    states it; it was not re-read from the paper, of which the project holds
    no copy.  Let F_n = a_n F_(n-1) + b_n F'_(n-1) have nonnegative
    coefficients, with deg F_n - deg F_(n-1) in {0, 1} and b_n(x) <= 0 for
    x <= 0; as usually quoted it also asks deg a_n <= 1.  If F_(n-1) is
    real-rooted, then F_n is real-rooted and F_(n-1) interlaces it.

    A row gives a_n = alpha + (n-1) beta and b_n = b.  Two hypotheses are
    checked exactly, for every n: deg alpha, deg beta <= 1, and b = x c with
    c(0) > 0 and no zero of c in (-oo, 0], counted as V(-oo) - V(0) on c's
    Sturm chain, so b <= 0 on x <= 0.  The per-n premises (a real-rooted last
    seed term, nonnegative coefficients, the degree step) are checked only up
    to the family's cap, so the corollary is shown to apply only that far.
    """
    seed, alpha, beta, b = F.RECURRENCES[name]
    failed = set()
    if max(alpha.degree, beta.degree) > 1:
        failed.add("deg a")
    c, rem = divmod(b, Poly.x())
    chain = sturm_chain(c)
    at_minus_oo = [-p.leading() if p.degree % 2 else p.leading() for p in chain.polys]
    zeros_left_of_0 = sum(s * t < 0 for s, t in zip(at_minus_oo, at_minus_oo[1:])) - chain.variations(Fraction(0))
    if not rem.is_zero() or c(0) <= 0 or zeros_left_of_0 != 0:
        failed.add("sign of b")
    start = len(seed) - 1  # the last seed term, where the recurrence takes over
    fs = F._recurrence_memo(*F.RECURRENCES[name]).upto(S.FAMILIES[name].cap)
    if fs[start].degree not in (0, 1):
        failed.add("real-rooted start")
    for n in range(start, len(fs)):
        if min(fs[n].coeffs) < 0 or (n > start and fs[n].degree - fs[n - 1].degree not in (0, 1)):
            failed.add("per n")
    return failed


@pytest.mark.parametrize("name", ("W", "WL", "A", "C", "CT"))
def test_peak_and_eulerian_rows_meet_the_liu_wang_hypotheses(name):
    assert _liu_wang_failures(name) == set()


def test_the_tan_sec_row_is_outside_the_liu_wang_corollary():
    # b = x(1 - x^2) is positive left of -1, and a_n = 1 + (n-1) x^2 has
    # degree 2; R keeps its per-n certificates
    assert _liu_wang_failures("R") == {"deg a", "sign of b"}


def test_interlacing_violation_on_unrelated_polys(monkeypatch):
    # roots that do not alternate: (x+1/2)(x+1/4) against (x+1/5)(x+1/6),
    # whose roots both sit right of both roots of the first polynomial
    fake = {
        2: ONE_PLUS_X**2 * Poly((1, 6, 8)),
        3: ONE_PLUS_X**3 * Poly((1, 11, 30)),
    }
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: fake[n])
    monkeypatch.setattr(
        F,
        "reduced_tan_sec_poly",
        lambda n: fake[n].exact_div(ONE_PLUS_X ** (n // 2 + 1)),
    )
    with pytest.raises(InterlacingViolation):
        certify_interlacing(2)


def alternates(roots_n, roots_n1):
    """The separation chain by sorting known roots: coincident roots are
    skipped and the rest must alternate from the top, starting with G_{n+1}."""
    shared = set(roots_n) & set(roots_n1)
    merged = sorted(
        [(r, "r") for r in roots_n if r not in shared]
        + [(s, "s") for s in roots_n1 if s not in shared],
        reverse=True,
    )
    return all(label == "sr"[i % 2] for i, (_, label) in enumerate(merged))


def reduced_pair(monkeypatch):
    """R_2 and R_3 that pass the degree and multiplicity steps, so that
    certify_interlacing(2) rests on the reduced pair alone: G_2 and G_3,
    read from the returned dict."""
    pair = {}
    fake_r = {2: ONE_PLUS_X**2, 3: ONE_PLUS_X**3}
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: fake_r[n])
    monkeypatch.setattr(F, "reduced_tan_sec_poly", lambda n: pair[n])
    return pair


def interlacing_verdict(monkeypatch, g_n, g_n1) -> bool:
    pair = reduced_pair(monkeypatch)
    pair[2], pair[3] = g_n, g_n1
    try:
        certify_interlacing(2)
    except InterlacingViolation:
        return False
    return True


@pytest.mark.parametrize(
    "roots_n, lead_n, roots_n1, expected",
    [
        # a shared root at -1/3 is a coincident point; the rest alternate
        pytest.param(("1/3", "2/3"), 1, ("1/4", "1/3", "3/4"), True, id="shared-root"),
        pytest.param(("1/2",), 1, ("1/2",), True, id="only-shared-root"),
        pytest.param(("1/4",), 1, ("1/2",), False, id="g_n-on-top"),
        pytest.param(("1/4", "3/4"), 1, ("1/2", "7/8"), False, id="g_n-on-top-2"),
        pytest.param((), 1, ("1/4", "1/2"), False, id="degree-gap-2"),
        pytest.param(("1/2",), 1, ("1/8", "1/4", "3/4"), False, id="degree-gap-2b"),
        # one degree below G_n, with its zero on top
        pytest.param(("1/2", "3/4"), 1, ("1/4",), False, id="degree-gap-minus-1"),
        # a negated leading coefficient changes no zero
        pytest.param(("1/2",), -3, ("1/4", "3/4"), True, id="negated-lead"),
        pytest.param(("1/2",), -1, ("1/2", "3/4"), True, id="negated-lead-shared"),
        pytest.param((), -2, ("1/2",), True, id="negated-constant"),
        pytest.param((), 1, (), True, id="constants"),
    ],
)
def test_interlacing_named_cases(monkeypatch, roots_n, lead_n, roots_n1, expected):
    rs = [-Fraction(r) for r in roots_n]
    ss = [-Fraction(s) for s in roots_n1]
    assert alternates(rs, ss) == expected
    assert interlacing_verdict(monkeypatch, with_roots(rs, lead_n), with_roots(ss)) == expected


def test_interlacing_matches_sorted_roots_on_seeded_pairs(monkeypatch):
    rng = random.Random(9091)
    pool = sorted({-Fraction(a, d) for d in range(2, 13) for a in range(1, d)})
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        points = sorted(rng.sample(pool, rng.randint(0, 7)), reverse=True)
        if rng.random() < 0.5:
            # alternating from the top, sometimes with G_n's zero on top
            ss, rs = points[0::2], points[1::2]
            if rng.random() < 0.3:
                ss, rs = rs, ss
        else:
            ss, rs = [], []
            for x in points:
                rng.choice((ss, rs)).append(x)
        shared = rng.sample(pool, rng.randint(0, 2))
        rs = sorted(set(rs) | set(shared), reverse=True)
        ss = sorted(set(ss) | set(shared), reverse=True)
        lead_n = rng.choice((1, 2, -1, -3))
        lead_n1 = rng.choice((1, 5, -1, -2))
        expected = alternates(rs, ss)
        got = interlacing_verdict(monkeypatch, with_roots(rs, lead_n), with_roots(ss, lead_n1))
        assert got == expected, (rs, lead_n, ss, lead_n1)
        verdicts[expected] += 1
    assert min(verdicts.values()) > 100, verdicts


def two_sequence_interlacing(g_n, g_n1):
    """The reduced-pair clauses of certify_interlacing(2), as a reference: d
    from gcd_poly's own remainder sequence, f = G_n/d and g = G_{n+1}/d by
    exact division, and the index from the remainder sequence of (g, f)."""
    common = gcd_poly(g_n, g_n1)
    f, g = g_n.exact_div(common), g_n1.exact_div(common)
    if g.degree - f.degree not in (0, 1):
        raise InterlacingViolation(f"simple-zero counts {f.degree}/{g.degree} at n=2")
    orientation = 1 if f.leading() * g.leading() > 0 else -1
    index = SturmChain(remainder_sequence(g, f)).cauchy_index()
    if index != orientation * g.degree:
        raise InterlacingViolation("zeros of R_2 and R_3 fail to alternate")


def outcome(run):
    """What run returned, or the class and message of what it raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def random_factor(rng, pool):
    """A nonzero polynomial: rational linear factors, some of them repeated,
    or random integer coefficients, often with zeros off the real line."""
    if rng.random() < 0.5:
        return with_roots(rng.choices(pool, k=rng.randint(0, 3)), rng.choice((1, 2, -1, -3)))
    return Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [rng.choice((1, 3, -1, -2))])


def test_interlacing_matches_the_two_sequence_reference_on_shared_factors(monkeypatch):
    rng = random.Random(5150)
    pool = sorted({-Fraction(a, d) for d in range(2, 9) for a in range(1, d)})
    pair = reduced_pair(monkeypatch)
    kinds, shared = Counter(), 0
    for _ in range(600):
        if rng.random() < 0.5:
            # zeros alternating from the top, sometimes with G_n's on top
            points = sorted(rng.sample(pool, rng.randint(0, 6)), reverse=True)
            ss, rs = points[0::2], points[1::2]
            if rng.random() < 0.2:
                ss, rs = rs, ss
            f, g = with_roots(rs, rng.choice((1, -2))), with_roots(ss, rng.choice((1, -1)))
        else:
            f, g = random_factor(rng, pool), random_factor(rng, pool)
        d = random_factor(rng, pool) if rng.random() < 0.6 else Poly.one()
        pair[2], pair[3] = d * f, d * g
        shared += gcd_poly(pair[2], pair[3]).degree >= 1
        # the gcd that certify_interlacing reads off S has the degree of S's last member
        seq = remainder_sequence(pair[3], pair[2])
        assert gcd_poly(seq[-2], seq[-1]).degree == seq[-1].degree, (pair[2], pair[3])
        got = outcome(lambda: certify_interlacing(2))
        assert got == outcome(lambda: two_sequence_interlacing(pair[2], pair[3])), (pair[2], pair[3])
        kinds["pass" if got is None else got[1].split(" ")[0]] += 1
    assert shared >= 200 and min(kinds.values()) >= 50, (shared, kinds)
    assert set(kinds) == {"pass", "simple-zero", "zeros"}, kinds


def test_a_shared_root_with_a_degree_gap_names_the_reduced_degrees(monkeypatch):
    # G_2 = 2x + 1 and G_3 = (4x + 1)(2x + 1)(4x + 3): the shared zero -1/2 is
    # a coincident point, and the pair left has degrees 0 and 2
    pair = reduced_pair(monkeypatch)
    pair[2] = with_roots([Fraction(-1, 2)])
    pair[3] = with_roots([Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 4)])
    with pytest.raises(InterlacingViolation) as raised:
        certify_interlacing(2)
    assert str(raised.value) == "simple-zero counts 0/2 at n=2"


@pytest.mark.parametrize("nmax, calls", [(8, 40), (24, 312)])
def test_the_roots_suite_builds_one_sequence_per_interlacing(monkeypatch, nmax, calls):
    """pseudo_remainder calls of the roots suite with the families warm: the
    Sturm chain of each G_n, the one remainder sequence of each
    (G_{n+1}, G_n), and one step of gcd_poly on its last two members.  roots
    holds no memo, so the count does not depend on what ran before.  At the
    cap, n = 64, it is 2,112; that run takes about 2 s and is left out."""
    I.run("roots", roots_nmax=nmax)
    real, seen = P.pseudo_remainder, []
    monkeypatch.setattr(P, "pseudo_remainder", lambda a, b: seen.append(b) or real(a, b))
    assert all(r.verdict == "pass" for r in I.run("roots", roots_nmax=nmax))
    assert len(seen) == calls


def test_structure_violation_on_corrupted_polynomial(monkeypatch):
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: Poly((1, 3, 3, 1)))
    with pytest.raises(StructureViolation):
        certify_root_structure(3)


@pytest.mark.parametrize(
    "change, witness",
    [
        # the x^2 coefficient raised by one: R(1) is no longer 2 n!
        (Poly.monomial(1, 2), (5, 0, "241", "240")),
        # rebalanced so R(1) holds and R'(1), so the mean, fails
        (Poly.monomial(1, 2) - Poly.monomial(1, 1), (5, 3, "721/240", "3")),
        # (x - 1)^2 keeps R(1) and R'(1): only R''(1), so the variance, fails
        (Poly((1, -1)) ** 2, (5, 4, "43/40", "16/15")),
    ],
    ids=["total", "mean", "variance"],
)
def test_clt_moments_sees_each_corrupted_closed_form(monkeypatch, change, witness):
    real = F.tan_sec_poly
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: real(n) + change if n == 5 else real(n))
    assert I.run("clt", clt_nmax=6) == [
        I.CheckResult("clt_moments", (4, 4), "pass"),
        I.CheckResult("clt_moments", (5, 5), "fail", I.Witness(*witness)),
        I.CheckResult("clt_moments", (6, 6), "pass"),
    ]


def test_clt_stats_reference_values():
    s4 = clt_stats(4)
    assert s4.value_at_1 == 48
    assert s4.deriv1_at_1 == 112
    assert s4.mu == Fraction(7, 3)
    assert s4.sigma2 == Fraction(8, 9)
    assert clt_stats(5).mu == 3
    s2 = clt_stats(2)
    assert s2.mu == 1
    assert s2.sigma2 == Fraction(1, 2)


def test_clt_closed_forms_through_30():
    for n in range(4, 31):
        s = clt_stats(n)
        assert s.mu == Fraction(2 * n - 1, 3)
        assert s.sigma2 == Fraction(8 * n + 8, 45)


def test_clt_small_cases_computed_but_not_asserted():
    # n = 2, 3 fall outside the closed-form range; the generic statistics
    # still exist and the n >= 4 variance formula genuinely fails there
    s3 = clt_stats(3)
    assert s3.mu == Fraction(5, 3)
    assert s3.sigma2 == Fraction(13, 18)
    assert s3.sigma2 != Fraction(8 * 3 + 8, 45)


def _r_row_step(sympy, x, n, r):
    """R_{n+1} as a sympy expression, from R_n = r by R's row of the package's
    recurrence table, R_{n+1} = (alpha + n beta) R_n + b R_n', for symbolic n."""
    alpha, beta, b = (sum(c * x**i for i, c in enumerate(p.coeffs)) for p in F.RECURRENCES["R"][1:])
    return (alpha + n * beta) * r + b * sympy.diff(r, x)


def test_clt_closed_forms_hold_for_every_n_from_clt_from():
    """Induction on R's row.  Let S, M1 and M2 be R_n, R_n' and R_n'' at x = 1.

    The row is a first-order operator whose b = x(1 - x^2) vanishes at 1, so
    the step's value and first two derivatives at 1 read R_n only through its
    3-jet there: R_n = S + M1 (x-1) + M2 (x-1)^2/2 + M3 (x-1)^3/6 stands for
    every R_n, and M3 drops out.  The step is S' = (n+1) S,
    M1' = (n-1) M1 + 2n S and M2' = (n-3) M2 + (4n-6) M1 + 2n S.  With
    mu = M1/S and sigma^2 = mu + M2/S - mu^2, putting mu = (2n-1)/3 and
    sigma^2 = (8n+8)/45 at n gives the same forms at n+1.  The base, stepped
    from R_1 = 1 + x: at n = 4 both hold; at n = 3 the mean holds and the
    variance is 13/18, not 32/45, so CLT_FROM = 4 is the least start.
    """
    sympy = pytest.importorskip("sympy")
    x, n, s, m1, m2, m3 = sympy.symbols("x n S M1 M2 M3")
    r_next = _r_row_step(sympy, x, n, s + m1 * (x - 1) + m2 * (x - 1) ** 2 / 2 + m3 * (x - 1) ** 3 / 6)
    step = [sympy.expand(sympy.diff(r_next, x, k).subs(x, 1)) for k in range(3)]
    assert sympy.expand(step[0] - (n + 1) * s) == 0
    assert sympy.expand(step[1] - ((n - 1) * m1 + 2 * n * s)) == 0
    assert sympy.expand(step[2] - ((n - 3) * m2 + (4 * n - 6) * m1 + 2 * n * s)) == 0

    def moments(s_n, m1_n, m2_n):
        mu = m1_n / s_n
        return mu, mu + m2_n / s_n - mu**2

    mu_n, sigma2_n = (2 * n - 1) / sympy.Integer(3), (8 * n + 8) / sympy.Integer(45)
    closed = {m1: mu_n * s, m2: (sigma2_n - mu_n + mu_n**2) * s}
    mu_next, sigma2_next = moments(*(value.subs(closed) for value in step))
    assert sympy.simplify(mu_next - mu_n.subs(n, n + 1)) == 0
    assert sympy.simplify(sigma2_next - sigma2_n.subs(n, n + 1)) == 0

    r_1 = F.RECURRENCES["R"][0][1]
    assert r_1 == Poly((1, 1))
    derivatives = (r_1, r_1.derivative(), r_1.derivative().derivative())
    jet = {symbol: sympy.Integer(p(1)) for symbol, p in zip((s, m1, m2), derivatives)}
    stats = {}
    for k in range(1, I.CLT_FROM + 1):
        stats[k] = moments(jet[s], jet[m1], jet[m2])
        assert stats[k] == (clt_stats(k).mu, clt_stats(k).sigma2), k
        jet = {symbol: value.subs({n: k, **jet}) for symbol, value in zip((s, m1, m2), step)}
    assert I.CLT_FROM == 4
    assert stats[4] == (mu_n.subs(n, 4), sigma2_n.subs(n, 4))
    assert stats[3] == (mu_n.subs(n, 3), sympy.Rational(13, 18)) and sigma2_n.subs(n, 3) == sympy.Rational(32, 45)


def test_row_facts_hold_for_every_n_by_induction_on_rs_row():
    """R_n(0) = 1, [x]R_n = 2^(n-1) and R_n(1) = 2 n! for every n >= 1, the
    row facts check_row_interleave holds R to.

    At x = 0, alpha = 1, beta and b vanish and b'(0) = 1, so the step reads R_n
    through its 2-jet a0 + a1 x + a2 x^2 there: R_{n+1}(0) = R_n(0) and
    [x]R_{n+1} = 2 [x]R_n (the x-coefficient doubles: R_n'(0) from alpha R_n
    and R_n'(0) from b R_n').  At x = 1, b vanishes, so R_{n+1}(1) =
    (n+1) R_n(1).  These carry 1, 2^(n-1) and 2 n! from n to n+1, and
    R_1 = 1 + x is the base.
    """
    sympy = pytest.importorskip("sympy")
    x, n, a0, a1, a2, s, m1 = sympy.symbols("x n a0 a1 a2 S M1")
    at_0 = _r_row_step(sympy, x, n, a0 + a1 * x + a2 * x**2)
    assert sympy.expand(at_0.subs(x, 0) - a0) == 0
    assert sympy.expand(sympy.diff(at_0, x).subs(x, 0) - 2 * a1) == 0
    assert sympy.expand(_r_row_step(sympy, x, n, s + m1 * (x - 1)).subs(x, 1) - (n + 1) * s) == 0

    def second(k):
        return 2 ** (k - 1)

    def total(k):
        return 2 * sympy.factorial(k)

    assert sympy.simplify(2 * second(n) - second(n + 1)) == 0
    assert sympy.simplify((n + 1) * total(n) - total(n + 1)) == 0
    r_1 = F.RECURRENCES["R"][0][1]
    assert (r_1(0), r_1.coeff(1), r_1(1)) == (1, second(1), total(1))


def test_variance_grows_linearly():
    values = [clt_stats(n).sigma2 for n in range(4, 31)]
    diffs = {b - a for a, b in zip(values, values[1:])}
    assert diffs == {Fraction(8, 45)}


def test_mode_bracket_reference_rows():
    assert mode_bracket(5).argmax == (3,)
    assert mode_bracket(6).argmax == (4,)
    assert mode_bracket(2).argmax == (1,)
    for n in range(2, 26):
        result = mode_bracket(n)
        assert result.ok
        assert len(result.argmax) == 1
