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

Enumeration is exhaustive and exact.  Distribution counts are produced per
shard (sharded on the first window entry) and summed in a fixed shard order,
so the result is identical whether shards run serially or on a process pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .polynomial import Poly

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


@dataclass(frozen=True)
class PermStats:
    pk: int
    lpk: int
    des: int


@dataclass(frozen=True)
class SignedStats:
    des_b: int
    ades: int


@dataclass(frozen=True)
class StatDistribution:
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


def perm_stats(pi: Sequence[int]) -> PermStats:
    """Interior peaks, left peaks and descents of one permutation.

    >>> perm_stats((2, 1, 4, 3, 5))
    PermStats(pk=1, lpk=2, des=2)
    """
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise NotAPermutation(f"{pi!r} is not a permutation of [{n}]")
    pk = sum(pi[i - 1] < pi[i] > pi[i + 1] for i in range(1, n - 1))
    lpk = pk + (1 if n >= 2 and pi[0] > pi[1] else 0)
    des = sum(pi[i] > pi[i + 1] for i in range(n - 1))
    return PermStats(pk, lpk, des)


def signed_stats(omega: Sequence[int]) -> SignedStats:
    """Descent statistics of one signed permutation window.

    >>> signed_stats((-2, -4, 6, -8, 1, 3, 7, 5))
    SignedStats(des_b=4, ades=5)
    """
    n = len(omega)
    if sorted(abs(v) for v in omega) != list(range(1, n + 1)) or 0 in omega:
        raise NotASignedPermutation(f"{omega!r} is not a signed permutation window")
    des_b = sum(a > b for a, b in zip((0,) + tuple(omega), omega))
    ades = des_b + (1 if omega[-1] > 0 else 0)
    return SignedStats(des_b, ades)


def _stat_width(n: int, stat: str) -> int:
    if stat == "pk":
        return (n - 1) // 2 + 1
    if stat == "lpk":
        return n // 2 + 1
    if stat == "des":
        return n
    raise ValueError(f"unknown permutation statistic {stat!r}")


def _perm_shard(args: tuple[int, int, str]) -> list[int]:
    """Counts over all permutations of [n] starting with a fixed value."""
    n, first, stat = args
    counts = [0] * _stat_width(n, stat)
    rest = [v for v in range(1, n + 1) if v != first]
    if n == 1:
        counts[0] = 1
        return counts
    if stat == "des":
        for tail in itertools.permutations(rest):
            d = 1 if first > tail[0] else 0
            prev = tail[0]
            for v in tail[1:]:
                if prev > v:
                    d += 1
                prev = v
            counts[d] += 1
    else:
        left = stat == "lpk"
        for tail in itertools.permutations(rest):
            prev2 = first
            prev1 = tail[0]
            c = 1 if left and first > prev1 else 0
            for v in tail[1:]:
                if prev2 < prev1 > v:
                    c += 1
                prev2, prev1 = prev1, v
            counts[c] += 1
    return counts


def _signed_shard(args: tuple[int, int, str]) -> list[int]:
    """Counts over all signed windows with a fixed first entry."""
    n, first, stat = args
    counts = [0] * (n + 1)
    rest = [v for v in range(1, n + 1) if v != abs(first)]
    augmented = stat == "ades"
    sign_combos = list(itertools.product((1, -1), repeat=n - 1))
    if n == 1:
        w = first
        d = (1 if w < 0 else 0) + (1 if augmented and w > 0 else 0)
        counts[d] = 1
        return counts
    for perm in itertools.permutations(rest):
        for signs in sign_combos:
            prev = first
            d = 1 if first < 0 else 0
            for s, v in zip(signs, perm):
                cur = s * v
                if prev > cur:
                    d += 1
                prev = cur
            if augmented and prev > 0:
                d += 1
            counts[d] += 1
    return counts


def _alt_shard(args: tuple[int, int, bool]) -> int:
    """Number of (reverse-)alternating permutations with a fixed first value."""
    n, first, reverse = args
    if n == 1:
        return 1
    total = 0
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(rest):
        prev = first
        down = not reverse
        ok = True
        for v in tail:
            if (prev > v) != down:
                ok = False
                break
            prev = v
            down = not down
        if ok:
            total += 1
    return total


def _run_shards(worker, shard_args, jobs: int):
    if jobs <= 1 or len(shard_args) <= 1:
        return [worker(a) for a in shard_args]
    from concurrent.futures import ProcessPoolExecutor  # imported here: it is slow to import

    with ProcessPoolExecutor(max_workers=min(jobs, len(shard_args))) as pool:
        return list(pool.map(worker, shard_args))


def _merge_counts(parts: Sequence[Sequence[int]]) -> tuple[int, ...]:
    out = [0] * len(parts[0])
    for part in parts:
        for i, c in enumerate(part):
            out[i] += c
    return tuple(out)


def distribution(n: int, stat: str, *, limit: int = S_N_LIMIT, jobs: int = 1) -> StatDistribution:
    """Exact distribution of pk, lpk or des over all of S_n.

    >>> distribution(3, "pk").counts
    (4, 2)
    >>> distribution(3, "des").counts
    (1, 4, 1)
    """
    if stat not in PERM_STATS:
        raise ValueError(f"unknown permutation statistic {stat!r}")
    if not 1 <= n <= limit:
        raise LimitExceeded(f"n={n} outside enumeration cap {limit}")
    shard_args = [(n, first, stat) for first in range(1, n + 1)]
    parts = _run_shards(_perm_shard, shard_args, jobs)
    return StatDistribution(n, stat, _merge_counts(parts))


def signed_distribution(n: int, stat: str, *, limit: int = SIGNED_LIMIT, jobs: int = 1) -> StatDistribution:
    """Exact distribution of des_b or ades over all 2^n n! signed windows.

    >>> signed_distribution(1, "ades").counts
    (0, 2)
    """
    if stat not in SIGNED_STATS:
        raise ValueError(f"unknown signed statistic {stat!r}")
    if not 1 <= n <= limit:
        raise LimitExceeded(f"n={n} outside enumeration cap {limit}")
    shard_args = [(n, s * v, stat) for v in range(1, n + 1) for s in (1, -1)]
    parts = _run_shards(_signed_shard, shard_args, jobs)
    return StatDistribution(n, stat, _merge_counts(parts))


def count_alternating(n: int, *, reverse: bool = False, limit: int = S_N_LIMIT, jobs: int = 1) -> int:
    """Number of alternating permutations pi(1) > pi(2) < pi(3) > ... in S_n.

    With reverse=True the first comparison flips, counting reverse-alternating
    permutations instead; the two counts agree (complement pi -> n+1-pi).
    """
    if not 1 <= n <= limit:
        raise LimitExceeded(f"n={n} outside enumeration cap {limit}")
    shard_args = [(n, first, reverse) for first in range(1, n + 1)]
    return sum(_run_shards(_alt_shard, shard_args, jobs))
