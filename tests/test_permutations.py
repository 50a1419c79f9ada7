import itertools
import math
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peakpoly import families, identities, series
from peakpoly import permutations as P
from peakpoly.identities import has_internal_zeros
from peakpoly.permutations import (
    LimitExceeded,
    NotAPermutation,
    NotASignedPermutation,
    count_alternating,
    distribution,
    perm_stats,
    signed_distribution,
    signed_stats,
)


def test_perm_stats_worked_example():
    s = perm_stats((2, 1, 4, 3, 5))
    assert (s.pk, s.lpk, s.des) == (1, 2, 2)


def test_perm_stats_increasing():
    s = perm_stats((1, 2, 3, 4, 5))
    assert (s.pk, s.lpk, s.des) == (0, 0, 0)


def test_perm_stats_alternating_2143():
    s = perm_stats((2, 1, 4, 3))
    assert (s.pk, s.lpk, s.des) == (1, 2, 2)


def test_perm_stats_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        perm_stats((1, 1, 2))
    with pytest.raises(NotAPermutation):
        perm_stats((0, 1, 2))


def test_signed_stats_worked_example():
    s = signed_stats((-2, -4, 6, -8, 1, 3, 7, 5))
    assert (s.des_b, s.ades) == (4, 5)


def test_signed_stats_identity_window():
    for n in range(1, 6):
        s = signed_stats(tuple(range(1, n + 1)))
        assert (s.des_b, s.ades) == (0, 1)


def test_signed_stats_single_negative():
    s = signed_stats((-1,))
    assert (s.des_b, s.ades) == (1, 1)


def test_signed_stats_rejects_bad_window():
    with pytest.raises(NotASignedPermutation):
        signed_stats((1, -1))
    with pytest.raises(NotASignedPermutation):
        signed_stats((2, 3))


def test_distribution_small_rows():
    assert distribution(3, "pk").counts == (4, 2)
    assert distribution(3, "lpk").counts == (1, 5)
    assert distribution(3, "des").counts == (1, 4, 1)


def test_signed_distribution_small_rows():
    assert signed_distribution(1, "ades").counts == (0, 2)
    assert signed_distribution(1, "des_b").counts == (1, 1)
    assert signed_distribution(2, "des_b").counts == (1, 6, 1)
    assert signed_distribution(2, "ades").counts == (0, 4, 4)


def test_row_sums():
    for n in range(1, 8):
        for stat in ("pk", "lpk", "des"):
            assert distribution(n, stat).total() == math.factorial(n)
    for n in range(1, 6):
        for stat in ("des_b", "ades"):
            assert signed_distribution(n, stat).total() == 2**n * math.factorial(n)


def test_count_alternating_values():
    assert count_alternating(1) == 1
    assert count_alternating(4) == 5
    assert count_alternating(5) == 16


def test_reverse_alternating_matches_by_complement():
    for n in range(1, 8):
        assert count_alternating(n) == count_alternating(n, reverse=True)


def test_limits_enforced():
    with pytest.raises(LimitExceeded):
        distribution(11, "pk")
    with pytest.raises(LimitExceeded):
        signed_distribution(8, "ades")
    with pytest.raises(LimitExceeded):
        count_alternating(0)


def test_unknown_stat_rejected():
    with pytest.raises(ValueError):
        distribution(3, "maj")
    with pytest.raises(ValueError):
        signed_distribution(3, "des")


def test_left_peaks_exceed_interior_peaks_by_at_most_one():
    for n in range(1, 7):
        for pi in itertools.permutations(range(1, n + 1)):
            s = perm_stats(pi)
            assert s.lpk - s.pk in (0, 1)
            assert 0 <= s.pk <= (n - 1) // 2
            assert 0 <= s.lpk <= n // 2
            assert 0 <= s.des <= n - 1


def test_ades_is_des_b_or_one_more():
    for n in range(1, 5):
        for pi in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                window = tuple(s * v for s, v in zip(signs, pi))
                st_ = signed_stats(window)
                assert st_.ades - st_.des_b in (0, 1)
                assert st_.ades >= 1


def test_sharded_enumeration_is_deterministic():
    for n in (5, 6):
        perms = list(itertools.permutations(range(1, n + 1)))
        for stat in ("pk", "lpk", "des"):
            reference = Counter(getattr(perm_stats(pi), stat) for pi in perms)
            counts = distribution(n, stat).counts
            assert counts == tuple(reference[k] for k in range(len(counts)))
            assert distribution(n, stat) == distribution(n, stat)
    reference = Counter(signed_stats(w).ades for w in _windows(4))
    assert signed_distribution(4, "ades").counts == tuple(reference[k] for k in range(5))
    alternating = sum(P.is_alternating(pi) for pi in itertools.permutations(range(1, 8)))
    assert count_alternating(7) == alternating == count_alternating(7)


def test_no_internal_zeros_in_distributions():
    for n in range(1, 8):
        for stat in ("pk", "lpk", "des"):
            assert not has_internal_zeros(distribution(n, stat).counts)
    for n in range(1, 6):
        for stat in ("des_b", "ades"):
            assert not has_internal_zeros(signed_distribution(n, stat).counts)


def test_has_internal_zeros_helper():
    assert has_internal_zeros((1, 0, 1))
    assert not has_internal_zeros((0, 1, 2))
    assert not has_internal_zeros((1, 2, 0))
    assert not has_internal_zeros(())


@given(st.permutations(list(range(1, 8))))
def test_stats_against_direct_definitions(pi):
    pi = tuple(pi)
    n = len(pi)
    padded = (0,) + pi
    s = perm_stats(pi)
    assert s.pk == sum(
        1 for i in range(2, n) if pi[i - 2] < pi[i - 1] > pi[i]
    )
    assert s.lpk == sum(
        1 for i in range(1, n) if padded[i - 1] < padded[i] > padded[i + 1]
    )
    assert s.des == sum(1 for i in range(n - 1) if pi[i] > pi[i + 1])


def _windows(n):
    return [
        tuple(s * v for s, v in zip(signs, pi))
        for pi in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ]


def _reference_counts(key, items):
    """Counts of key(item) over the given permutations or windows, one at a
    time, up to the largest value taken."""
    counter = Counter(key(item) for item in items)
    return tuple(counter[k] for k in range(max(counter) + 1))


def test_kernels_match_per_permutation_reference():
    # n <= P.TAIL + 1 (and n <= P.SIGNED_TAIL + 1) goes from the empty prefix
    # straight to the walk's last level: all but the first entry come from
    # the suffix table
    assert P.TAIL < 8 and P.SIGNED_TAIL < 5
    for n in range(1, 9):
        perms = list(itertools.permutations(range(1, n + 1)))
        for stat in P.PERM_STATS:
            reference = _reference_counts(lambda pi: getattr(perm_stats(pi), stat), perms)
            assert distribution(n, stat).counts == reference, (n, stat)
    for n in range(1, 6):
        windows = _windows(n)
        for stat in P.SIGNED_STATS:
            reference = _reference_counts(lambda w: getattr(signed_stats(w), stat), windows)
            assert signed_distribution(n, stat).counts == reference, (n, stat)
    for n in range(1, 10):
        perms = list(itertools.permutations(range(1, n + 1)))
        for reverse in (False, True):
            def alternates(pi):
                return all((pi[i] > pi[i + 1]) == (i % 2 == reverse) for i in range(n - 1))

            reference = sum(map(alternates, perms))
            assert count_alternating(n, reverse=reverse) == reference, (n, reverse)


def test_suffix_tables_are_built_once_per_tail_length():
    # A table is built on a cache miss, so misses count builds, and a lookup
    # that hits shows which table an earlier request built.
    P._tail_table.cache_clear()
    P._signed_tail_tables.cache_clear()
    m, sm = P.TAIL, P.SIGNED_TAIL
    distribution(m + 2, "des")  # builds the des table and no other
    assert P._tail_table.cache_info().misses == 1
    P._tail_table(m, "des")
    assert P._tail_table.cache_info().misses == 1
    distribution(m + 2, "pk")
    distribution(m + 2, "lpk")  # reads the pk table: builds nothing
    assert P._tail_table.cache_info().misses == 2
    P._tail_table(m, "pk")
    assert P._tail_table.cache_info().misses == 2
    signed_distribution(sm + 1, "des_b")  # builds the des_b and the ades table
    signed_distribution(sm + 1, "ades")  # reads the ades table: builds nothing
    assert P._signed_tail_tables.cache_info().misses == 1
    for _ in range(2):
        for n in (m + 2, m + 3):  # both leave a tail of m positions
            for stat in P.PERM_STATS:
                distribution(n, stat)
            count_alternating(n)
            count_alternating(n, reverse=True)
        for n in (sm + 1, sm + 2):
            for stat in P.SIGNED_STATS:
                signed_distribution(n, stat)
    # one build per (tail length, statistic), and one per signed tail length
    assert P._tail_table.cache_info().misses == P._tail_table.cache_info().currsize == 3  # pk, des and alt
    signed = P._signed_tail_tables.cache_info()
    assert signed.misses == signed.currsize == 1


def test_kernels_match_per_permutation_reference_at_every_prefix_depth(monkeypatch):
    # With TAIL = t the walk places n - t values from the empty prefix, so
    # t = 0 .. 3 over 1 <= n <= 7 runs every walk depth from 1 to 7 (signed,
    # SIGNED_TAIL = 0 .. 2 over n <= 5: 1 to 5), each down to its last level.
    references = {}
    for n in range(1, 8):
        perms = list(itertools.permutations(range(1, n + 1)))
        references[n] = {
            stat: _reference_counts(lambda pi: getattr(perm_stats(pi), stat), perms) for stat in P.PERM_STATS
        }
        for reverse in (False, True):
            references[n]["alt", reverse] = sum(P.is_alternating(pi, reverse=reverse) for pi in perms)
    for tail in range(4):
        monkeypatch.setattr(P, "TAIL", tail)
        P._tail_table.cache_clear()
        for n, reference in references.items():
            for stat in P.PERM_STATS:
                assert distribution(n, stat).counts == reference[stat], (tail, n, stat)
            for reverse in (False, True):
                assert count_alternating(n, reverse=reverse) == reference["alt", reverse], (tail, n, reverse)
    signed_references = {}
    for n in range(1, 6):
        windows = _windows(n)
        signed_references[n] = {
            stat: _reference_counts(lambda w: getattr(signed_stats(w), stat), windows) for stat in P.SIGNED_STATS
        }
    for tail in range(3):
        monkeypatch.setattr(P, "SIGNED_TAIL", tail)
        P._signed_tail_tables.cache_clear()
        for n, reference in signed_references.items():
            for stat in P.SIGNED_STATS:
                assert signed_distribution(n, stat).counts == reference[stat], (tail, n, stat)


def test_every_statistic_at_its_cap_matches_the_recurrence_rows():
    n, signed_n = P.S_N_LIMIT, P.SIGNED_LIMIT
    assert distribution(n, "pk").counts == families.peak_poly(n).coeffs
    assert distribution(n, "lpk").counts == families.left_peak_poly(n).coeffs
    assert signed_distribution(signed_n, "des_b").counts == series.FAMILIES["C"].poly(signed_n).coeffs
    assert signed_distribution(signed_n, "ades").counts == series.FAMILIES["CT"].poly(signed_n).coeffs


def test_each_distribution_ends_at_the_largest_value_of_its_statistic():
    # some permutation of [n] has (n - 1) // 2 peaks, n // 2 left peaks and n - 1 descents, none has more
    for n in range(1, P.S_N_LIMIT + 1):
        for stat, width in (("pk", (n - 1) // 2 + 1), ("lpk", n // 2 + 1), ("des", n)):
            assert len(distribution(n, stat).counts) == width, (n, stat)


def test_suffix_table_histograms_count_every_completion():
    for m in range(P.TAIL + 1):
        for stat in ("pk", "des"):  # lpk reads the table of pk
            table = P._tail_table(m, stat)
            assert len(table) == 2 * (m + 1)
            for entry in table:
                assert sum(c for _, c in entry) == math.factorial(m), (m, stat)
                assert [d for d, _ in entry] == sorted({d for d, _ in entry})
                assert all(c > 0 for _, c in entry)
    for m in range(P.SIGNED_TAIL + 1):
        for stat, table in zip(P.SIGNED_STATS, P._signed_tail_tables(m), strict=True):
            entries = [entry for entry in table if entry is not None]
            assert len(entries) == 2 * (m + 1)  # one per signed last entry
            for entry in entries:
                assert sum(c for _, c in entry) == math.factorial(m) * 2**m, (m, stat)
    for stat in P.PERM_STATS:
        assert distribution(P.S_N_LIMIT, stat).total() == math.factorial(P.S_N_LIMIT)
    for stat in P.SIGNED_STATS:
        assert signed_distribution(P.SIGNED_LIMIT, stat).total() == 2**P.SIGNED_LIMIT * math.factorial(P.SIGNED_LIMIT)


Histogram = tuple[tuple[int, int], ...]


def _histogram(counter: Counter) -> Histogram:
    """(increment, number of completions) pairs, increments ascending."""
    return tuple(sorted(counter.items()))


def _signed_rank(last: int, left: Sequence[int]) -> int:
    """Rank of `last` among the signed values +-b, b in `left`."""
    return sum((-b < last) + (b < last) for b in left)


def _all_statistics_tail_tables(m):
    """The suffix tables of every S_n statistic from one loop over the rank
    sequences, as they were built before each statistic had its own table."""
    tables = {"pk": [], "des": [], "alt": []}
    for r in range(m + 1):
        for asc in (False, True):
            low = 1 + asc
            pred, lead = 1 if asc else m + 2, low + r
            others = [v for v in range(low, low + m + 1) if v != lead]
            pk, des, alt = Counter(), Counter(), 0
            for tail in itertools.permutations(others):
                seq = (pred, lead) + tail
                seq_pk, _, seq_des = P._perm_counts(seq)
                pk[seq_pk] += 1
                des[seq_des - (pred > lead)] += 1
                alt += P.is_alternating(seq, reverse=asc)
            tables["pk"].append(_histogram(pk))
            tables["des"].append(_histogram(des))
            tables["alt"].append(alt)
    return {stat: tuple(table) for stat, table in tables.items()}


def _all_statistics_signed_tail_tables(m):
    """The signed suffix tables of des_b and ades from one loop over the
    windows, built from sign tuples and counted one window at a time."""
    tables = {stat: [None] * (2 * (2 * m + 1)) for stat in P.SIGNED_STATS}
    signs = list(itertools.product((1, -1), repeat=m))
    for a in range(1, m + 2):
        others = [v for v in range(1, m + 2) if v != a]
        for lead in (a, -a):
            des_b, ades = Counter(), Counter()
            for tail in itertools.permutations(others):
                for sign in signs:
                    window_des_b, window_ades = P._signed_counts((lead,) + tuple(s * v for s, v in zip(sign, tail)))
                    des_b[window_des_b - (lead < 0)] += 1
                    ades[window_ades - (lead < 0)] += 1
            key = 2 * _signed_rank(lead, others) + (lead > 0)
            tables["des_b"][key] = _histogram(des_b)
            tables["ades"][key] = _histogram(ades)
    return {stat: tuple(table) for stat, table in tables.items()}


def test_per_statistic_suffix_tables_match_the_all_statistics_loop():
    for m in range(P.TAIL + 1):
        for stat, table in _all_statistics_tail_tables(m).items():
            assert P._tail_table(m, stat) == table, (m, stat)
        des = P._tail_table(m, "des")  # one walk per rank serves both of its keys
        assert all(des[2 * r] is des[2 * r + 1] for r in range(m + 1)), m
    for m in range(P.SIGNED_TAIL + 1):
        tables = dict(zip(P.SIGNED_STATS, P._signed_tail_tables(m), strict=True))
        for stat, table in _all_statistics_signed_tail_tables(m).items():
            assert tables[stat] == table, (m, stat)
    with pytest.raises(ValueError):
        P._tail_table(P.TAIL, "lpk")


def test_differential_against_sympy_at_the_caps():
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    x = sympy.Symbol("x")
    for n in range(1, P.S_N_LIMIT + 1):
        assert count_alternating(n) == count_alternating(n, reverse=True) == sympy.andre(n), n
        # A_n(x) = sum_k k! S(n, k) (x - 1)^(n - k)
        eulerian = sum(sympy.factorial(k) * stirling(n, k) * (x - 1) ** (n - k) for k in range(1, n + 1))
        row = tuple(int(c) for c in reversed(sympy.Poly(eulerian, x).all_coeffs()))
        assert distribution(n, "des").counts == row, n


def _shard_check():
    [check] = [r for r in identities.run("oracle", oracle_nmax=1, signed_nmax=1) if r.check_id == "oracle_shard_determinism"]
    return check


def _off_by_one(histogram):
    (d, completions), *rest = histogram
    return ((d, completions + 1), *rest)


def _corrupt_cached(monkeypatch, name, args, table):
    """Make the cached suffix-table builder `name` return `table` for `args`."""
    cached = getattr(P, name)
    monkeypatch.setattr(P, name, lambda *a: table if a == args else cached(*a))


def test_shard_determinism_check_fails_on_a_corrupted_suffix_table(monkeypatch):
    assert _shard_check().passed
    # n = 6 fills all five positions after the first from it; the first
    # value is reached from the sentinel 0 by an ascent, so key 1 is rank 0
    des = P._tail_table(5, "des")
    _corrupt_cached(monkeypatch, "_tail_table", (5, "des"), des[:1] + (_off_by_one(des[1]),) + des[2:])
    check = _shard_check()
    assert (check.verdict, check.witness.n, check.witness.index) == ("fail", 6, des[1][0][0])
    monkeypatch.undo()
    assert _shard_check().passed
    des_b, ades = P._signed_tail_tables(3)  # signed n = 4 fills three positions from them
    key = next(k for k, entry in enumerate(ades) if entry is not None)
    corrupted = ades[:key] + (_off_by_one(ades[key]),) + ades[key + 1:]
    _corrupt_cached(monkeypatch, "_signed_tail_tables", (3,), (des_b, corrupted))
    check = _shard_check()
    assert (check.verdict, check.witness.n) == ("fail", 6)


def test_signed_rows_check_fails_on_a_corrupted_des_b_table(monkeypatch):
    # Signed n = 4 reads the des_b table of tail length 3 through C.oracle;
    # oracle_shard_determinism reads only the ades table of the same build.
    # Its first key is the first entry -4, one descent after 0; its first
    # histogram pair counts the completions that add no descent, so one more
    # of them makes 77 windows with one descent, where C_4 has 76.
    des_b, ades = P._signed_tail_tables(3)
    corrupted = (_off_by_one(des_b[0]),) + des_b[1:]
    _corrupt_cached(monkeypatch, "_signed_tail_tables", (3,), (corrupted, ades))
    flagged = [r for r in identities.run("oracle", oracle_nmax=6, signed_nmax=4) if not r.passed]
    assert flagged == [identities.CheckResult("oracle_signed_rows", (1, 4), "fail", identities.Witness(4, 1, "77", "76"))]
