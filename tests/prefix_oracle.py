"""A prefix-rank counting oracle for the peak and descent statistics.

It counts S_n by a transfer matrix over standardized prefixes, with no
enumeration and no polynomial arithmetic, and imports nothing from peakpoly:
the tests compare the package's families with it, so it must not share their
code.

A prefix of a permutation of [n], standardized to a permutation of [i], is
extended by a value of rank j in 0..i among the i + 1 values; each of the
i + 1 choices gives a different standardized prefix, and every permutation
of [n] arises exactly once.  The new value lies above the last one, of rank
r, exactly when j > r.  The state is (whether the last value was reached by
an ascent, its rank r), and it holds a histogram of the statistic over the
prefixes in that state.  One pass yields every n up to n_max.

Run from the repository root, e.g.
    python -c "import sys; sys.path.insert(0, 'tests'); import prefix_oracle; print(prefix_oracle.rows('pk', 6)[6])"
"""

from __future__ import annotations

from math import comb

# Whether a value adds to the statistic, by (its predecessor was reached by
# an ascent, the value lies below its predecessor); and whether the first
# value counts as reached by an ascent.
_RULES = {
    "pk": (lambda rose, falls: rose and falls, False),  # an interior peak: up, then down
    "lpk": (lambda rose, falls: rose and falls, True),  # a left peak: as pk, from pi(0) = 0
    "des": (lambda rose, falls: falls, False),
}


def _add(into: list[int], hist: list[int], shift: int) -> None:
    """into[d + shift] += hist[d] for every d, growing into as needed."""
    if len(into) < len(hist) + shift:
        into.extend([0] * (len(hist) + shift - len(into)))
    for d, c in enumerate(hist):
        into[d + shift] += c


def _sum(hists) -> list[int]:
    total: list[int] = []
    for hist in hists:
        _add(total, hist, 0)
    return total


def _states(stat: str, n_max: int):
    """For n = 1..n_max, state[rose][r]: the histogram of stat over the
    permutations of [n] whose last value has rank r and was reached by an
    ascent (rose = 1) or not (rose = 0)."""
    gain, first_rose = _RULES[stat]
    state = [[[]], [[]]]
    state[first_rose][0] = [1]
    yield 1, state
    for i in range(1, n_max):  # i values placed; place one of rank j in 0..i
        new = [[[] for _ in range(i + 1)] for _ in range(2)]
        for rose in (0, 1):
            below, above = [[]], [[]]  # the sums over ranks r < j and r >= j, for j = 0..i
            for r in range(i):
                below.append(_sum((below[-1], state[rose][r])))
                above.append(_sum((above[-1], state[rose][i - 1 - r])))
            above.reverse()
            for j in range(i + 1):
                _add(new[0][j], above[j], int(gain(rose, True)))
                _add(new[1][j], below[j], int(gain(rose, False)))
        state = new
        yield i + 1, state


def _trim(hist: list[int]) -> list[int]:
    while hist and not hist[-1]:
        hist.pop()
    return hist


def rows(stat: str, n_max: int) -> dict[int, list[int]]:
    """{n: counts of stat (pk, lpk or des) over S_n, entry k for the value k}."""
    return {n: _trim(_sum(h for side in state for h in side)) for n, state in _states(stat, n_max)}


def type_b_rows(n_max: int) -> dict[int, list[int]]:
    """{n: counts of des_B over the 2^n n! signed windows of [n], n = 0..n_max}.

    Reverse the window and append w(0) = 0: des_B becomes the ascent count
    of a sequence of n + 1 distinct integers that ends in 0.  Its pattern is
    a permutation of [n + 1] whose last value has rank r, the number of
    negative entries, and each such pattern comes from C(n, r) windows, one
    per choice of the absolute values that are negative.  A permutation of
    [n + 1] with d descents has n - d ascents.
    """
    out = {}
    for size, state in _states("des", n_max + 1):
        n = size - 1
        counts = [0] * (n + 1)
        for r in range(size):
            for d, c in enumerate(_sum(side[r] for side in state)):
                counts[n - d] += comb(n, r) * c
        out[n] = _trim(counts)
    return out
