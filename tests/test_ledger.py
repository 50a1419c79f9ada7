"""The work ledger: what a request does, counted, so that a speed change shows
as a changed count on any machine.

Each row is one request run in process with the tables it could find warm
cleared first, counted by test-local wrappers on the module attributes it
reads.  A change that moves a count pins the new one and says why.
"""

from collections import Counter

from peakpoly import identities
from peakpoly import permutations as P


def test_the_full_report_at_its_defaults_makes_a_pinned_number_of_enumeration_reads(monkeypatch):
    """identities.run("all") at the default ranges, with the suffix tables cleared.

    Three open findings are these counts, so a change that mends one moves
    them on purpose:
    * identities._route reads the oracle routes again: 84 reads of
      permutations.distribution and signed_distribution for 41 distinct
      (n, stat), since several checks read the same "F.oracle" route at the
      same n;
    * the oracle checks walk S_n three times at each n, once each for pk, lpk
      and des, and each walk counts in the _perm_walk calls;
    * permutations._tail sizes the walk/table split for one cold request, so
      the walk calls include every table build that the split asks for.
    """
    P._tail_table.cache_clear()
    P._signed_tail_tables.cache_clear()
    reads: Counter = Counter()
    walks: Counter = Counter()
    for name in ("distribution", "signed_distribution", "count_alternating"):
        def read(n, *args, name=name, real=getattr(P, name), **kwargs):
            reads[name, n, args] += 1
            return real(n, *args, **kwargs)

        monkeypatch.setattr(P, name, read)
    for name in ("_perm_walk", "_signed_walk"):
        def walk(*args, name=name, real=getattr(P, name)):
            walks[name] += 1
            return real(*args)

        monkeypatch.setattr(P, name, walk)

    assert {r.verdict for r in identities.run("all")} == {"pass"}
    distributions = {key: calls for key, calls in reads.items() if key[0] != "count_alternating"}
    assert (sum(distributions.values()), len(distributions)) == (84, 41)
    assert sum(calls for key, calls in reads.items() if key[0] == "count_alternating") == 18
    assert walks == {"_perm_walk": 17_699, "_signed_walk": 4_139}
