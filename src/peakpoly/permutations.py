"""Brute-force ground truth over permutations and signed permutations.

Permutations of [n] = {1, .., n} are one-line tuples (pi(1), .., pi(n)).
A signed permutation is given by its window (w(1), .., w(n)) of signed
integers whose absolute values are a permutation of [n]; the symmetry
w(-i) = -w(i) stays implicit.

Statistics follow the boundary conventions of the peak/descent literature:

* interior peak: position i in {2, .., n-1} with pi(i-1) < pi(i) > pi(i+1)
* left peak: same comparison over i in {1, .., n-1} with pi(0) = 0
* descent: position i in {1, .., n-1} with pi(i) > pi(i+1)
* signed descent des_b: positions 0..n-1 with w(0) = 0
* augmented signed descent ades: positions 0..n with w(0) = w(n+1) = 0
* turn: position i in {1, .., n-1} where the comparison of pi(i) with
  pi(i+1) differs from that of pi(i-1) with pi(i), with pi(0) = 0; pi
  alternates, pi(1) > pi(2) < ..., exactly when it has n - 1 turns (with
  pi(0) = n + 1, reverse-alternates, pi(1) < pi(2) > ...)

Enumeration is exhaustive and exact, in two levels per request:

* the prefix comes from one depth-first walk over the sorted list of values
  still to place (for signed windows, each with either sign), started from
  the empty prefix after a sentinel predecessor: 0 for lpk, des, signed
  windows (w(0) = 0) and alternation, n + 1 for pk and reverse
  alternation.  Over S_n the sentinel 0 counts as reached by an ascent and
  n + 1 by a descent, so the first value, reached the same way, adds
  nothing.  Each placed value moves the statistic by one step, from that
  value and its predecessor only; over S_n the step is read from the
  statistic's row (for alternation, of turns) by how the predecessor was
  reached and whether the value lies below it.  The rank of the value
  just placed among itself and the values left is its index in the sorted
  list it was taken from, so it comes with the walk.  Both walks carry
  one key, 2 * rank + (how the value was reached: by an ascent over S_n,
  with a positive sign for signed windows), and each prefix that leaves
  the tail adds 1 to a hit count by (statistic so far, key);
* the last m = _tail(n) positions come from a suffix table, built the first
  time a request needs it: one per tail length and statistic of S_n (pk, des
  and alt; lpk reads the table of pk), all by one builder, and one des_b and
  one ades table per signed tail length, built together from the same signed
  walks.  The tail is the larger half of the positions with at least one
  left to the walk, so in a request that builds its table neither the build
  nor the walk dominates; at the caps it is 5 positions of S_10 and 4 of a
  signed window of [7].  A table is indexed by the prefix's key: the rank of
  its last value among the values still to place and how that value was
  reached.  Its entry is a count row: entry d is the number of completions
  that add d to the statistic.  The same walk builds it, run to the end over
  every completion of each key; no table is derived from another table.

At its end the request folds the hit counts into the count rows, once.
Each permutation or window is counted exactly once: its prefix is walked
once and fixes a base value, and its completion is one of those the row
counts at base + d.  Everything runs in the calling process.  Nothing here
relies on assert.  This module only counts; the checks that judge the
counts live in identities.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import _at_least, _at_most

if TYPE_CHECKING:
    from .polynomial import Poly

# The enumeration caps: n above them is refused by peakpoly._at_most.
S_N_LIMIT = 10
SIGNED_LIMIT = 7

PERM_STATS = ("pk", "lpk", "des")
SIGNED_STATS = ("des_b", "ades")


class NotAPermutation(ValueError):
    """Input is not a bijection on [n]."""


class PermStats(NamedTuple):
    pk: int
    lpk: int
    des: int


class StatDistribution(NamedTuple):
    """Exact counts of a statistic over S_n or the signed permutations of [n]."""

    n: int
    stat: str
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)

    def as_poly(self) -> Poly:
        from .polynomial import Poly  # not at module level: the oracle request never reads it

        return Poly(self.counts)


def _perm_counts(pi: tuple[int, ...]) -> tuple[int, int, int]:
    """(pk, lpk, des) of a permutation, by definition; pi is not checked."""
    pk = sum(a < b > c for a, b, c in zip(pi, pi[1:], pi[2:]))
    lpk = pk + (1 if len(pi) >= 2 and pi[0] > pi[1] else 0)
    return pk, lpk, sum(a > b for a, b in zip(pi, pi[1:]))


def perm_stats(pi: Sequence[int]) -> PermStats:
    """Interior peaks, left peaks and descents of one permutation.

    >>> perm_stats((2, 1, 4, 3, 5))
    PermStats(pk=1, lpk=2, des=2)
    """
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise NotAPermutation(f"{pi!r} is not a permutation of [{n}]")
    return PermStats(*_perm_counts(tuple(pi)))


def _signed_counts(omega: tuple[int, ...]) -> tuple[int, int]:
    """(des_b, ades) of a signed window, by definition; omega is not checked.

    >>> _signed_counts((-2, -4, 6, -8, 1, 3, 7, 5))
    (4, 5)
    """
    des_b = sum(a > b for a, b in zip((0,) + omega, omega))
    return des_b, des_b + (1 if omega and omega[-1] > 0 else 0)


def _tail(n: int) -> int:
    """Positions of [n] filled from a suffix table: the larger half, leaving the walk one or more."""
    return min(n - 1, (n + 1) // 2)


# What placing a value adds to a statistic of S_n, step[asc][down]: asc
# tells whether its predecessor was reached by an ascent, down whether the
# new value lies below that predecessor.  alt counts turns, the changes of
# direction; lpk reads the row of pk.
_STEPS = {
    "pk": ((0, 0), (0, 1)),
    "des": ((0, 1), (0, 1)),
    "alt": ((1, 0), (0, 1)),
}


def _perm_walk(rem: list[int], key: int, prev: int, base: int, stop: int, step: tuple, hits: list[list[int]]) -> None:
    """Place the sorted values rem after prev in every order, down to stop left.

    key is 2 * rank + asc: prev has rank `rank` among itself and rem, and
    asc tells whether it was reached by an ascent.  base is the statistic so
    far, and placing a value adds step[asc][down] to it (a row of _STEPS).
    Every prefix that leaves stop values adds 1 to hits[base][key], where
    its last value's rank is its index in the sorted list it was taken
    from.  Only a walk that starts with stop values left adds its own key;
    otherwise the last level adds the keys of its choices without a call.
    hits needs a row for every base a step can reach, chosen or not.
    """
    if len(rem) == stop:
        hits[base][key] += 1
        return
    d_up, d_down = step[key & 1]
    if len(rem) == stop + 1:  # each choice leaves stop values
        up_row, down_row = hits[base + d_up], hits[base + d_down]
        for r, v in enumerate(rem):
            if prev > v:
                down_row[2 * r] += 1
            else:
                up_row[2 * r + 1] += 1
        return
    for r, v in enumerate(rem):
        is_up = prev < v
        _perm_walk(rem[:r] + rem[r + 1:], 2 * r + is_up, v, base + (d_up if is_up else d_down), stop, step, hits)


def _signed_walk(rem: list[int], key: int, prev: int, base: int, stop: int, hits: list[list[int]]) -> None:
    """Place the sorted absolute values rem after prev, each with either sign.

    base counts the descents so far.  Every signed prefix that leaves stop
    values adds 1 to hits[base][key], with key = 2r + (last entry > 0) and r
    the rank of the last entry among the 2 * stop signed values those stop
    can take.  That rank is the entry's index in the sorted list of +-b, b
    in the list it was taken from, less one when the entry is positive: for
    rem[i] with m values left after it, m + i for +rem[i] and m - i for
    -rem[i].  As in _perm_walk, only a walk that starts with stop values
    left adds its own key.
    """
    if len(rem) == stop:
        hits[base][key] += 1
        return
    m = len(rem) - 1
    if m == stop:  # each choice leaves stop values
        for i, v in enumerate(rem):
            hits[base + (prev > -v)][2 * (m - i)] += 1
            hits[base + (prev > v)][2 * (m + i) + 1] += 1
        return
    for i, v in enumerate(rem):
        rest = rem[:i] + rem[i + 1:]
        _signed_walk(rest, 2 * (m - i), -v, base + (prev > -v), stop, hits)
        _signed_walk(rest, 2 * (m + i) + 1, v, base + (prev > v), stop, hits)


def _fold(hits: list[list[int]], table: Sequence[Sequence[int]], width: int) -> list[int]:
    """Counts from hits[base][key] and the count rows of a suffix table."""
    counts = [0] * width
    for base, row in enumerate(hits):
        for key, h in enumerate(row):
            if h:
                for d, completions in enumerate(table[key]):
                    if completions:  # a zero may lie past the counts (the end of an ades row)
                        counts[base + d] += h * completions
    return counts


@cache
def _tail_table(m: int, stat: str) -> tuple[tuple[int, ...], ...]:
    """What the completions of a prefix add to pk, des or alt, by key.

    A prefix ends in a value L with m values still to place.  Its key is
    2r + asc, where r is the rank of L among L and those m values and asc
    tells whether L was reached by an ascent (the first value is reached
    from the walk's sentinel predecessor, 0 or n + 1).  Entry key is a
    count row over the m! orders of the m values: entry d is the number of
    orders that add d to the statistic from L on.  Each entry is taken by
    the walk the requests run, with the statistic's step row, started at
    L = r with key, the ranks 0 .. m other than r still to place and base
    0, run to the end over all m! orders; the table for m is never derived
    from another table, and lpk reads the table of pk.
    """
    if stat not in _STEPS:
        raise ValueError(f"no suffix table for {stat!r}")
    table = []
    for key in range(2 * (m + 1)):
        r = key >> 1
        rows = [[0, 0] for _ in range(m + 1)]
        _perm_walk([v for v in range(m + 1) if v != r], key, r, 0, 0, _STEPS[stat], rows)
        table.append(tuple(map(sum, rows)))
    return tuple(table)


@cache
def _signed_tail_tables(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The des_b and the ades table: what the completions of a signed prefix
    add to each statistic, by key.

    A prefix ends in an entry L with m absolute values still to place.  Its
    key is 2r + (L > 0), where r is the rank of L among the 2m signed values
    those m can take.  Entry key of a table is a count row over the m! 2^m
    completions: entry d is the number of completions whose window
    (L, c_1, .., c_m) of [m+1] has the statistic d, less the descent 0 > L,
    which the prefix has already counted.  Keys no prefix can have hold ().
    Both tables come from one walk per L, the walk the requests run,
    started at L with the other values of [m+1] still to place and base 0,
    run to the end over all m! 2^m completions: it ends with key c_m > 0,
    which ades adds.  No table is derived from another table.
    """
    des_b: list[tuple[int, ...]] = [()] * (2 * (2 * m + 1))
    ades = des_b.copy()
    for i in range(m + 1):
        others = [v for v in range(1, m + 2) if v != i + 1]
        for key, lead in ((2 * (m - i), -(i + 1)), (2 * (m + i) + 1, i + 1)):
            rows = [[0, 0] for _ in range(m + 1)]
            _signed_walk(others, int(lead > 0), lead, 0, 0, rows)
            totals = [0] * (m + 1), [0] * (m + 2)  # of des_b and of ades
            for d, row in enumerate(rows):
                for last_positive, completions in enumerate(row):
                    totals[0][d] += completions
                    totals[1][d + last_positive] += completions
            des_b[key], ades[key] = map(tuple, totals)
    return tuple(des_b), tuple(ades)


def _s_n_counts(n: int, stat: str, sentinel: int) -> list[int]:
    """Counts of pk, des or alt over S_n, walked from the sentinel predecessor
    0 or n + 1, entry k for the value k; the sentinel 0 counts as reached by
    an ascent, n + 1 by a descent."""
    _at_least("n", n, 1)
    _at_most("n", n, S_N_LIMIT)
    m = _tail(n)  # the walk places the first n - m values, the table of tail length m the rest
    hits = [[0] * (2 * (m + 1)) for _ in range(n + 1)]  # no statistic reaches n, but a step can read row n
    _perm_walk(list(range(1, n + 1)), int(sentinel == 0), sentinel, 0, m, _STEPS[stat], hits)
    return _fold(hits, _tail_table(m, stat), n)


def distribution(n: int, stat: str) -> StatDistribution:
    """Exact distribution of pk, lpk or des over all of S_n.

    >>> distribution(3, "pk").counts
    (4, 2)
    >>> distribution(3, "des").counts
    (1, 4, 1)
    """
    if stat not in PERM_STATS:
        raise ValueError(f"unknown permutation statistic {stat!r}")
    counts = _s_n_counts(n, "des" if stat == "des" else "pk", n + 1 if stat == "pk" else 0)
    while not counts[-1]:  # the counts end at the largest value some permutation takes
        counts.pop()
    return StatDistribution(n, stat, tuple(counts))


def signed_distribution(n: int, stat: str) -> StatDistribution:
    """Exact distribution of des_b or ades over all 2^n n! signed windows.

    >>> signed_distribution(1, "ades").counts
    (0, 2)
    """
    if stat not in SIGNED_STATS:
        raise ValueError(f"unknown signed statistic {stat!r}")
    _at_least("n", n, 1)
    _at_most("n", n, SIGNED_LIMIT)
    m = _tail(n)  # as over S_n: the walk places n - m entries, the tables the rest
    hits = [[0] * (2 * (2 * m + 1)) for _ in range(n + 1)]
    _signed_walk(list(range(1, n + 1)), 0, 0, 0, m, hits)
    table = _signed_tail_tables(m)[SIGNED_STATS.index(stat)]
    return StatDistribution(n, stat, tuple(_fold(hits, table, n + 1)))


def count_alternating(n: int, *, reverse: bool = False) -> int:
    """Number of alternating permutations pi(1) > pi(2) < pi(3) > ... in S_n.

    With reverse=True the first comparison flips, counting reverse-alternating
    permutations instead; the two counts agree (complement pi -> n+1-pi).
    The count is entry n - 1 of the turn counts over S_n, walked from the
    sentinel 0 (n + 1 with reverse): a permutation alternates exactly when
    it turns n - 1 times.
    """
    return _s_n_counts(n, "alt", n + 1 if reverse else 0)[n - 1]
