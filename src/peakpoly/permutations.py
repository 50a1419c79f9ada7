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

Enumeration is exhaustive and exact, in two levels per shard (a shard is
every permutation or window with one first entry):

* the middle prefix runs through itertools.permutations (and, for signed
  windows, itertools.product over the signs); the statistic is updated as
  each value is placed, from that value and its predecessor only;
* the last TAIL positions (SIGNED_TAIL for signed windows) come from a
  suffix table, one per tail length and statistic, built the first time a
  request needs it (lpk reads the table of pk).  It is keyed by the rank of
  the prefix's last value among the values still to place (and, for
  pk/lpk/alternation, whether that value was reached by an ascent).  Its
  entry is a histogram: each increment the completions add to the
  statistic, with the number of completions that add it, read off the
  statistic's definition on short rank sequences (for alternation, the
  number of alternating completions).

Each permutation or window is counted exactly once: its prefix fixes a base
value, and its completion is one of those the histogram counts at
base + increment.  Shards run one after another in the calling process
and their counts are summed in a fixed shard order.  Nothing here relies on
assert.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import NamedTuple, Sequence

from .polynomial import Poly

# The enumeration caps: n above them raises LimitExceeded.
S_N_LIMIT = 10
SIGNED_LIMIT = 7

PERM_STATS = ("pk", "lpk", "des")
SIGNED_STATS = ("des_b", "ades")


class NotAPermutation(ValueError):
    """Input is not a bijection on [n]."""


class NotASignedPermutation(ValueError):
    """Absolute values are not a permutation of [n]."""


class LimitExceeded(ValueError):
    """Requested size is outside the configured enumeration cap."""


class PermStats(NamedTuple):
    pk: int
    lpk: int
    des: int


class SignedStats(NamedTuple):
    des_b: int
    ades: int


class StatDistribution(NamedTuple):
    """Exact counts of a statistic over S_n or the signed permutations of [n]."""

    n: int
    stat: str
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)

    def as_poly(self) -> Poly:
        return Poly(self.counts)


def has_internal_zeros(counts: Sequence[int]) -> bool:
    """True when a zero sits strictly between two nonzero counts."""
    nz = [i for i, c in enumerate(counts) if c]
    return bool(nz) and any(counts[i] == 0 for i in range(nz[0], nz[-1]))


def _peaks(pi: tuple[int, ...]) -> int:
    """Interior peaks of a sequence, by definition."""
    return sum(a < b > c for a, b, c in zip(pi, pi[1:], pi[2:]))


def _descents(pi: tuple[int, ...]) -> int:
    """Descents of a sequence, by definition."""
    return sum(a > b for a, b in zip(pi, pi[1:]))


def _perm_counts(pi: tuple[int, ...]) -> tuple[int, int, int]:
    """(pk, lpk, des) of a permutation, by definition; pi is not checked."""
    pk = _peaks(pi)
    lpk = pk + (1 if len(pi) >= 2 and pi[0] > pi[1] else 0)
    return pk, lpk, _descents(pi)


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
    """(des_b, ades) of a signed window, by definition; omega is not checked."""
    des_b = sum(a > b for a, b in zip((0,) + omega, omega))
    return des_b, des_b + (1 if omega[-1] > 0 else 0)


def signed_stats(omega: Sequence[int]) -> SignedStats:
    """Descent statistics of one signed permutation window.

    >>> signed_stats((-2, -4, 6, -8, 1, 3, 7, 5))
    SignedStats(des_b=4, ades=5)
    """
    n = len(omega)
    if sorted(abs(v) for v in omega) != list(range(1, n + 1)) or 0 in omega:
        raise NotASignedPermutation(f"{omega!r} is not a signed permutation window")
    return SignedStats(*_signed_counts(tuple(omega)))


def _stat_width(n: int, stat: str) -> int:
    if stat == "pk":
        return (n - 1) // 2 + 1
    if stat == "lpk":
        return n // 2 + 1
    if stat == "des":
        return n
    raise ValueError(f"unknown permutation statistic {stat!r}")


# Positions filled from a suffix table: the last TAIL positions of a
# permutation, the last SIGNED_TAIL of a signed window.
TAIL = 5
SIGNED_TAIL = 4


def is_alternating(pi: Sequence[int], *, reverse: bool = False) -> bool:
    """True when pi(1) > pi(2) < pi(3) > ..., or pi(1) < pi(2) > ... with reverse.

    >>> is_alternating((2, 1, 3)), is_alternating((2, 1, 3), reverse=True)
    (True, False)
    """
    return all((a > b) == (i % 2 == int(reverse)) for i, (a, b) in enumerate(zip(pi, pi[1:])))


def _rank(last: int, placed: Sequence[int]) -> int:
    """Rank of `last` among itself and the values of [n] not in `placed`."""
    return last - 1 - len([v for v in placed if v < last])


def _signed_rank(last: int, left: Sequence[int]) -> int:
    """Rank of `last` among the signed values +-b, b in `left`."""
    return sum((-b < last) + (b < last) for b in left)


Histogram = tuple[tuple[int, int], ...]


def _histogram(counter: Counter) -> Histogram:
    """(increment, number of completions) pairs, increments ascending."""
    return tuple(sorted(counter.items()))


@lru_cache(maxsize=None)
def _tail_table(m: int, stat: str) -> tuple:
    """What the completions of a prefix add to pk, des or alternation, by key.

    A prefix ends in a value L with m values still to place.  Its key is
    2r + asc, where r is the rank of L among L and those m values and asc
    tells whether L was reached by an ascent (the kernels give the first
    value a predecessor 0 for lpk and for forward alternation, none for pk).
    Entry key of the table of pk (which lpk reads) or des is a histogram
    over the m! orders of the m values: each increment the statistic gains
    from L on, with the number of orders that give it.  Entry key of "alt"
    is the number of orders with which the whole permutation alternates.
    Each value comes from the statistic's definition applied to the rank
    sequence (pred, L, c_1, .., c_m): a permutation of [m+2] whose first
    entry stands for L's predecessor, below every other entry when asc and
    above them otherwise.  Only the requested statistic's table is built.
    """
    if stat not in ("pk", "des", "alt"):
        raise ValueError(f"no suffix table for {stat!r}")
    table = []
    for r in range(m + 1):
        for asc in (False, True):
            low = 1 + asc  # L and the m values take low .. low + m
            pred, lead = 1 if asc else m + 2, low + r
            others = [v for v in range(low, low + m + 1) if v != lead]
            seqs = [(pred, lead) + tail for tail in itertools.permutations(others)]
            if stat == "alt":
                table.append(sum(is_alternating(seq, reverse=asc) for seq in seqs))
            elif stat == "pk":  # the peaks of L and of c_1 .. c_(m-1)
                table.append(_histogram(Counter(map(_peaks, seqs))))
            else:  # less the descent pred > L, which the prefix has counted
                table.append(_histogram(Counter(_descents(seq) - (pred > lead) for seq in seqs)))
    return tuple(table)


@lru_cache(maxsize=None)
def _signed_tail_table(m: int, stat: str) -> tuple[Histogram | None, ...]:
    """What the completions of a signed prefix add to des_b or ades, by key.

    A prefix ends in an entry L with m absolute values still to place.  Its
    key is 2r + (L > 0), where r is the rank of L among the 2m signed values
    those m can take.  Entry key is a histogram over the m! 2^m completions:
    each value of the statistic of the window (L, c_1, .., c_m) of [m+1]
    less the descent 0 > L, which the prefix has already counted, with the
    number of completions that give it.  Keys no prefix can have are None.
    """
    which = SIGNED_STATS.index(stat)
    table: list[Histogram | None] = [None] * (2 * (2 * m + 1))
    for a in range(1, m + 2):
        others = [v for v in range(1, m + 2) if v != a]
        for lead in (a, -a):
            counts = Counter(
                _signed_counts((lead,) + window)[which] - (lead < 0)
                for tail in itertools.permutations(others)
                for window in itertools.product(*[(v, -v) for v in tail])
            )
            table[2 * _signed_rank(lead, others) + (lead > 0)] = _histogram(counts)
    return tuple(table)


def _perm_shard(n: int, first: int, stat: str) -> list[int]:
    """Counts over all permutations of [n] starting with a fixed value.

    Each prefix (first, v_1, .., v_p) is walked once, updating the statistic
    from each value and its predecessor; its suffix-table histogram then
    adds the number of completions with each increment, so every
    permutation is counted exactly once.
    """
    counts = [0] * _stat_width(n, stat)
    m = min(TAIL, n - 1)
    table = _tail_table(m, "des" if stat == "des" else "pk")
    rest = [v for v in range(1, n + 1) if v != first]
    peaks = stat != "des"
    for prefix in itertools.permutations(rest, n - 1 - m):
        base, prev, asc = 0, first, stat == "lpk"
        for v in prefix:
            if prev > v:  # a descent, and a peak at prev if prev was reached by an ascent
                if asc or not peaks:
                    base += 1
                asc = False
            else:
                asc = True
            prev = v
        for d, completions in table[2 * _rank(prev, (first,) + prefix) + asc]:
            counts[base + d] += completions
    return counts


def _signed_shard(n: int, first: int, stat: str) -> list[int]:
    """Counts over all signed windows with a fixed first entry.

    The same two levels as _perm_shard: signed prefixes walked once, then
    the completion counts of the signed suffix table's histogram.
    """
    counts = [0] * (n + 1)
    m = min(SIGNED_TAIL, n - 1)
    table = _signed_tail_table(m, stat)
    rest = [v for v in range(1, n + 1) if v != abs(first)]
    sign_combos = list(itertools.product((1, -1), repeat=n - 1 - m))
    for perm in itertools.permutations(rest, n - 1 - m):
        left = [v for v in rest if v not in perm]
        for signs in sign_combos:
            base, prev = int(first < 0), first
            for s, v in zip(signs, perm):
                cur = s * v
                if prev > cur:
                    base += 1
                prev = cur
            for d, completions in table[2 * _signed_rank(prev, left) + (prev > 0)]:
                counts[base + d] += completions
    return counts


def _alt_shard(n: int, first: int, reverse: bool) -> int:
    """Number of (reverse-)alternating permutations with a fixed first value.

    Prefixes that already fail to alternate are skipped; each of the others
    adds its suffix-table count of alternating completions.
    """
    m = min(TAIL, n - 1)
    table = _tail_table(m, "alt")
    rest = [v for v in range(1, n + 1) if v != first]
    total = 0
    for prefix in itertools.permutations(rest, n - 1 - m):
        prev, asc = first, not reverse
        for v in prefix:
            if (prev < v) == asc:
                break
            prev, asc = v, not asc
        else:
            total += table[2 * _rank(prev, (first,) + prefix) + asc]
    return total


def _merge_counts(parts: Sequence[Sequence[int]]) -> tuple[int, ...]:
    out = [0] * len(parts[0])
    for part in parts:
        for i, c in enumerate(part):
            out[i] += c
    return tuple(out)


def distribution(n: int, stat: str) -> StatDistribution:
    """Exact distribution of pk, lpk or des over all of S_n.

    >>> distribution(3, "pk").counts
    (4, 2)
    >>> distribution(3, "des").counts
    (1, 4, 1)
    """
    if stat not in PERM_STATS:
        raise ValueError(f"unknown permutation statistic {stat!r}")
    if not 1 <= n <= S_N_LIMIT:
        raise LimitExceeded(f"n={n} outside enumeration cap {S_N_LIMIT}")
    parts = [_perm_shard(n, first, stat) for first in range(1, n + 1)]
    return StatDistribution(n, stat, _merge_counts(parts))


def signed_distribution(n: int, stat: str) -> StatDistribution:
    """Exact distribution of des_b or ades over all 2^n n! signed windows.

    >>> signed_distribution(1, "ades").counts
    (0, 2)
    """
    if stat not in SIGNED_STATS:
        raise ValueError(f"unknown signed statistic {stat!r}")
    if not 1 <= n <= SIGNED_LIMIT:
        raise LimitExceeded(f"n={n} outside enumeration cap {SIGNED_LIMIT}")
    parts = [_signed_shard(n, s * v, stat) for v in range(1, n + 1) for s in (1, -1)]
    return StatDistribution(n, stat, _merge_counts(parts))


def count_alternating(n: int, *, reverse: bool = False) -> int:
    """Number of alternating permutations pi(1) > pi(2) < pi(3) > ... in S_n.

    With reverse=True the first comparison flips, counting reverse-alternating
    permutations instead; the two counts agree (complement pi -> n+1-pi).
    """
    if not 1 <= n <= S_N_LIMIT:
        raise LimitExceeded(f"n={n} outside enumeration cap {S_N_LIMIT}")
    return sum(_alt_shard(n, first, reverse) for first in range(1, n + 1))
