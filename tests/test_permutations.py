import itertools
import math
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peakpoly import LimitExceeded, families, identities, series
from peakpoly import permutations as P
from peakpoly.identities import has_internal_zeros
from peakpoly.permutations import (
    NotAPermutation,
    count_alternating,
    distribution,
    perm_stats,
    signed_distribution,
)


def is_alternating(pi, *, reverse=False):
    """pi(1) > pi(2) < pi(3) > ..., or pi(1) < pi(2) > ... with reverse, by
    definition: comparison i (from 0) is a descent exactly when i is even,
    odd with reverse."""
    return all((a > b) == (i % 2 == int(reverse)) for i, (a, b) in enumerate(zip(pi, pi[1:])))


def turns(seq):
    """Positions i >= 1 of seq where the comparison of seq[i] with seq[i + 1]
    differs from that of seq[i - 1] with seq[i], by definition."""
    return sum((seq[i - 1] < seq[i]) != (seq[i] < seq[i + 1]) for i in range(1, len(seq) - 1))


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


def signed_stat(window, stat):
    """des_b or ades of one signed window, by definition."""
    return P._signed_counts(tuple(window))[P.SIGNED_STATS.index(stat)]


def test_signed_counts_worked_example():
    assert P._signed_counts((-2, -4, 6, -8, 1, 3, 7, 5)) == (4, 5)


def test_signed_counts_identity_window():
    for n in range(1, 6):
        assert P._signed_counts(tuple(range(1, n + 1))) == (0, 1)


def test_signed_counts_single_negative():
    assert P._signed_counts((-1,)) == (1, 1)


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
                des_b, ades = P._signed_counts(window)
                assert ades - des_b in (0, 1)
                assert ades >= 1


def test_sharded_enumeration_is_deterministic():
    for n in (5, 6):
        perms = list(itertools.permutations(range(1, n + 1)))
        for stat in ("pk", "lpk", "des"):
            reference = Counter(getattr(perm_stats(pi), stat) for pi in perms)
            counts = distribution(n, stat).counts
            assert counts == tuple(reference[k] for k in range(len(counts)))
            assert distribution(n, stat) == distribution(n, stat)
    reference = Counter(signed_stat(w, "ades") for w in _windows(4))
    assert signed_distribution(4, "ades").counts == tuple(reference[k] for k in range(5))
    alternating = sum(is_alternating(pi) for pi in itertools.permutations(range(1, 8)))
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
    # The walk places the first n - _tail(n) values: for n <= 3 it goes from
    # the empty prefix straight to its last level, and all but the first
    # entry come from the suffix table; n = 8 walks four values deep
    # (signed n = 5, two)
    assert [n - P._tail(n) for n in range(1, 9)] == [1, 1, 1, 2, 2, 3, 3, 4]
    for n in range(1, 9):
        perms = list(itertools.permutations(range(1, n + 1)))
        for stat in P.PERM_STATS:
            reference = _reference_counts(lambda pi: getattr(perm_stats(pi), stat), perms)
            assert distribution(n, stat).counts == reference, (n, stat)
    for n in range(1, 6):
        windows = _windows(n)
        for stat in P.SIGNED_STATS:
            reference = _reference_counts(lambda w: signed_stat(w, stat), windows)
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
    m, sm = 5, 3
    assert P._tail(9) == P._tail(10) == m and P._tail(5) == P._tail(6) == sm
    distribution(9, "des")  # builds the des table and no other
    assert P._tail_table.cache_info().misses == 1
    P._tail_table(m, "des")
    assert P._tail_table.cache_info().misses == 1
    distribution(9, "pk")
    distribution(9, "lpk")  # reads the pk table: builds nothing
    assert P._tail_table.cache_info().misses == 2
    P._tail_table(m, "pk")
    assert P._tail_table.cache_info().misses == 2
    signed_distribution(5, "des_b")  # builds the des_b and the ades table
    signed_distribution(5, "ades")  # reads the ades table: builds nothing
    assert P._signed_tail_tables.cache_info().misses == 1
    for _ in range(2):
        for n in (9, 10):  # both leave a tail of m positions
            for stat in P.PERM_STATS:
                distribution(n, stat)
            count_alternating(n)
            count_alternating(n, reverse=True)
        for n in (5, 6):  # both leave a tail of sm positions
            for stat in P.SIGNED_STATS:
                signed_distribution(n, stat)
    # one build per (tail length, statistic), and one per signed tail length
    assert P._tail_table.cache_info().misses == P._tail_table.cache_info().currsize == 3  # pk, des and alt
    signed = P._signed_tail_tables.cache_info()
    assert signed.misses == signed.currsize == 1


def _walk_counts(n, stat, sentinel, tail):
    """Counts of pk, des or alt over S_n, as _s_n_counts takes them but with
    the walk stopped at `tail` values left and the table of that length."""
    hits = [[0] * (2 * (tail + 1)) for _ in range(n + 1)]
    P._perm_walk(list(range(1, n + 1)), int(sentinel == 0), sentinel, 0, tail, P._STEPS[stat], hits)
    return P._fold(hits, P._tail_table(tail, stat), n)


def _signed_walk_counts(n, stat, tail):
    """Counts of des_b or ades, as signed_distribution takes them but with
    the walk stopped at `tail` entries left and the tables of that length."""
    hits = [[0] * (2 * (2 * tail + 1)) for _ in range(n + 1)]
    P._signed_walk(list(range(1, n + 1)), 0, 0, 0, tail, hits)
    return P._fold(hits, P._signed_tail_tables(tail)[P.SIGNED_STATS.index(stat)], n + 1)


def _padded(counts, width):
    return list(counts) + [0] * (width - len(counts))


def test_kernels_match_per_permutation_reference_at_every_prefix_depth():
    # Stopped at tail t, the walk places n - t values from the empty prefix,
    # so t = 0 .. 3 over t < n <= 7 runs every walk depth from 1 to 7
    # (signed, t = 0 .. 2 over n <= 5: 1 to 5), each down to its last level.
    # pk walks from the sentinel n + 1, lpk and des from 0; lpk reads the
    # pk table.
    references = {}
    for n in range(1, 8):
        perms = list(itertools.permutations(range(1, n + 1)))
        references[n] = {
            stat: _reference_counts(lambda pi: getattr(perm_stats(pi), stat), perms) for stat in P.PERM_STATS
        }
        for reverse in (False, True):
            references[n]["alt", reverse] = sum(is_alternating(pi, reverse=reverse) for pi in perms)
        for sentinel in (0, n + 1):  # every entry of the turn counts, not only the alternating n - 1
            counter = Counter(turns((sentinel,) + pi) for pi in perms)
            references[n]["turns", sentinel] = [counter[k] for k in range(n)]
    for tail in range(4):
        for n, reference in references.items():
            if tail >= n:
                continue
            for stat in P.PERM_STATS:
                counts = _walk_counts(n, "des" if stat == "des" else "pk", n + 1 if stat == "pk" else 0, tail)
                assert counts == _padded(reference[stat], n), (tail, n, stat)
            for reverse in (False, True):
                counts = _walk_counts(n, "alt", n + 1 if reverse else 0, tail)
                assert counts[n - 1] == reference["alt", reverse], (tail, n, reverse)
            for sentinel in (0, n + 1):
                assert _walk_counts(n, "alt", sentinel, tail) == reference["turns", sentinel], (tail, n, sentinel)
    signed_references = {}
    for n in range(1, 6):
        windows = _windows(n)
        signed_references[n] = {
            stat: _reference_counts(lambda w: signed_stat(w, stat), windows) for stat in P.SIGNED_STATS
        }
    for tail in range(3):
        for n, reference in signed_references.items():
            if tail >= n:
                continue
            for stat in P.SIGNED_STATS:
                assert _signed_walk_counts(n, stat, tail) == _padded(reference[stat], n + 1), (tail, n, stat)


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


def test_suffix_table_rows_count_every_completion():
    # entry d of a row counts the completions that add d; m more values add
    # at most m to pk, des or alt, and at most m + 1 to ades.  Every tail
    # length up to those the caps read.
    for m in range(P._tail(P.S_N_LIMIT) + 1):
        for stat in ("pk", "des", "alt"):  # lpk reads the table of pk
            table = P._tail_table(m, stat)
            assert len(table) == 2 * (m + 1)
            for row in table:
                assert len(row) == m + 1 and min(row) >= 0, (m, stat)
                assert sum(row) == math.factorial(m), (m, stat)
    for m in range(P._tail(P.SIGNED_LIMIT) + 1):
        for stat, table, width in zip(P.SIGNED_STATS, P._signed_tail_tables(m), (m + 1, m + 2), strict=True):
            rows = [row for row in table if row]
            assert len(rows) == 2 * (m + 1)  # one per signed last entry; the other keys hold ()
            assert table.count(()) == len(table) - len(rows)
            for row in rows:
                assert len(row) == width and min(row) >= 0, (m, stat)
                assert sum(row) == math.factorial(m) * 2**m, (m, stat)
    for stat in P.PERM_STATS:
        assert distribution(P.S_N_LIMIT, stat).total() == math.factorial(P.S_N_LIMIT)
    for stat in P.SIGNED_STATS:
        assert signed_distribution(P.SIGNED_LIMIT, stat).total() == 2**P.SIGNED_LIMIT * math.factorial(P.SIGNED_LIMIT)


def _row(counter: Counter, width: int) -> tuple[int, ...]:
    """The count row of a Counter of increments: entry d counts increment d."""
    assert all(0 <= d < width for d in counter), (counter, width)
    return tuple(counter[d] for d in range(width))


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
            pk, des, alt = Counter(), Counter(), Counter()
            for tail in itertools.permutations(others):
                seq = (pred, lead) + tail
                seq_pk, _, seq_des = P._perm_counts(seq)
                pk[seq_pk] += 1
                des[seq_des - (pred > lead)] += 1
                alt[turns(seq)] += 1
            tables["pk"].append(_row(pk, m + 1))
            tables["des"].append(_row(des, m + 1))
            tables["alt"].append(_row(alt, m + 1))
    return {stat: tuple(table) for stat, table in tables.items()}


def _all_statistics_signed_tail_tables(m):
    """The signed suffix tables of des_b and ades from one loop over the
    windows, built from sign tuples and counted one window at a time."""
    tables = {stat: [()] * (2 * (2 * m + 1)) for stat in P.SIGNED_STATS}
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
            tables["des_b"][key] = _row(des_b, m + 1)
            tables["ades"][key] = _row(ades, m + 2)
    return {stat: tuple(table) for stat, table in tables.items()}


def test_per_statistic_suffix_tables_match_the_all_statistics_loop():
    # every tail length up to those the caps read
    for m in range(P._tail(P.S_N_LIMIT) + 1):
        for stat, table in _all_statistics_tail_tables(m).items():
            assert P._tail_table(m, stat) == table, (m, stat)
    for m in range(P._tail(P.SIGNED_LIMIT) + 1):
        tables = dict(zip(P.SIGNED_STATS, P._signed_tail_tables(m), strict=True))
        for stat, table in _all_statistics_signed_tail_tables(m).items():
            assert tables[stat] == table, (m, stat)
    with pytest.raises(ValueError):
        P._tail_table(P._tail(P.S_N_LIMIT), "lpk")


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


def _off_by_one(row, d):
    """The count row with one more completion at entry d."""
    return row[:d] + (row[d] + 1,) + row[d + 1:]


def _first_count(row):
    """The least increment some completion adds."""
    return next(d for d, completions in enumerate(row) if completions)


def _last_count(row):
    """The greatest increment some completion adds."""
    return max(d for d, completions in enumerate(row) if completions)


def _with_row_off_by_one(table, key, pick):
    """The table with one more completion in row key, at entry pick(row)."""
    row = table[key]
    return table[:key] + (_off_by_one(row, pick(row)),) + table[key + 1:]


def _corrupt_cached(monkeypatch, name, args, table):
    """Make the cached suffix-table builder `name` return `table` for `args`."""
    cached = getattr(P, name)
    monkeypatch.setattr(P, name, lambda *a: table if a == args else cached(*a))


def test_shard_determinism_check_fails_on_a_corrupted_suffix_table(monkeypatch):
    assert _shard_check().passed
    # n = 6 fills its last three positions from it; the prefix 1, 2, 3 ends
    # in a value reached by an ascent below all those left, key 1, at base 0
    m = P._tail(6)
    assert m == 3
    des = P._tail_table(m, "des")
    d = _first_count(des[1])
    _corrupt_cached(monkeypatch, "_tail_table", (m, "des"), _with_row_off_by_one(des, 1, _first_count))
    check = _shard_check()
    assert (check.verdict, check.witness.n, check.witness.index) == ("fail", 6, d)
    monkeypatch.undo()
    assert _shard_check().passed
    sm = P._tail(4)  # signed n = 4 fills its last two positions from them
    assert sm == 2
    des_b, ades = P._signed_tail_tables(sm)
    key = next(k for k, row in enumerate(ades) if row)
    _corrupt_cached(monkeypatch, "_signed_tail_tables", (sm,), (des_b, _with_row_off_by_one(ades, key, _first_count)))
    check = _shard_check()
    assert (check.verdict, check.witness.n) == ("fail", 4)  # the signed windows compared are those of [4]


def test_signed_rows_check_fails_on_a_corrupted_des_b_table(monkeypatch):
    # Signed n = 4 reads the des_b table of tail length 2 through C.oracle,
    # and so does n = 3, the first n the check reaches that reads it;
    # oracle_shard_determinism reads only the ades table of the same build.
    # Its first key is the entry -3 of [3], one descent after 0; entry 0 of
    # its row counts the completions that add no descent, so one more of
    # them makes 24 windows of [3] with one descent, where C_3 has 23.
    sm = P._tail(4)
    assert sm == P._tail(3) == 2
    des_b, ades = P._signed_tail_tables(sm)
    corrupted = (_off_by_one(des_b[0], 0),) + des_b[1:]
    _corrupt_cached(monkeypatch, "_signed_tail_tables", (sm,), (corrupted, ades))
    flagged = [r for r in identities.run("oracle", oracle_nmax=6, signed_nmax=4) if not r.passed]
    assert flagged == [identities.CheckResult("oracle_signed_rows", (1, 4), "fail", identities.Witness(3, 1, "24", "23"))]


def test_verify_catches_a_corrupted_row_in_every_table_it_reads_at_its_defaults(monkeypatch):
    # The oracle suite reads S_n and signed windows to the defaults that
    # --suite all reads.  pk and des: key 1, the prefix 1, 2, .., which lpk
    # and des walk at every n; its least increment lands on a real count.
    # alt: key 0, a value reached by a descent below all those left; its
    # greatest increment completes a prefix that turns at every position,
    # so the count of n - 1 turns, the alternating one, moves.  des_b and
    # ades: key 0, the entry -n last, which every n reaches.
    defaults = {knob.name: knob.default for knob in identities.RANGES}
    s_n_tails = sorted({P._tail(n) for n in range(1, defaults["oracle_nmax"] + 1)})
    signed_tails = sorted({P._tail(n) for n in range(1, defaults["signed_nmax"] + 1)})
    assert (s_n_tails, signed_tails) == ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4])
    cases = []
    for m in s_n_tails:
        for stat, key, pick in (("pk", 1, _first_count), ("des", 1, _first_count), ("alt", 0, _last_count)):
            cases.append(("_tail_table", (m, stat), _with_row_off_by_one(P._tail_table(m, stat), key, pick)))
    for m in signed_tails:
        des_b, ades = P._signed_tail_tables(m)
        cases.append(("_signed_tail_tables", (m,), (_with_row_off_by_one(des_b, 0, _first_count), ades)))
        cases.append(("_signed_tail_tables", (m,), (des_b, _with_row_off_by_one(ades, 0, _first_count))))
    for name, args, corrupted in cases:
        _corrupt_cached(monkeypatch, name, args, corrupted)
        results = identities.run("oracle")
        monkeypatch.undo()
        assert "error" not in {r.verdict for r in results}, (name, args)
        assert any(r.verdict == "fail" and P._tail(r.witness.n) == args[0] for r in results), (name, args)


def test_each_request_makes_a_pinned_number_of_walk_calls(monkeypatch):
    # The walk calls of one request with its tables cleared, table builds
    # included: a changed split or a lost last-level inline shows as a count.
    calls = [0]
    for name in ("_perm_walk", "_signed_walk"):
        def counted(*args, walk=getattr(P, name)):
            calls[0] += 1
            return walk(*args)

        monkeypatch.setattr(P, name, counted)

    def walk_calls(request, n, stat):
        P._tail_table.cache_clear()
        P._signed_tail_tables.cache_clear()
        calls[0] = 0
        request(n, stat)
        return calls[0]

    assert [walk_calls(distribution, n, "pk") for n in range(1, P.S_N_LIMIT + 1)] == [
        3, 5, 19, 23, 86, 117, 460, 811, 3058, 8333]
    assert [walk_calls(signed_distribution, n, "des_b") for n in range(1, P.SIGNED_LIMIT + 1)] == [
        3, 5, 31, 39, 259, 381, 2673]
