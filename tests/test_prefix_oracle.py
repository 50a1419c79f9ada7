"""The families against their combinatorial definitions at the caps, by the
prefix-rank counting oracle of prefix_oracle.py.

The brute-force walk of peakpoly.permutations stops at n = 10 (7 for signed
windows); the oracle counts by a transfer matrix, so it reaches every n the
families are computed at.  It shares no code with the package, which the
last test checks."""

import ast
import importlib
import inspect
import itertools
import sys
from collections import Counter

import prefix_oracle as O

from peakpoly import families as F
from peakpoly import permutations as P

ORACLE_N = 64


def test_w_wl_and_a_equal_the_prefix_rank_oracle_up_to_64():
    for stat, family in (("pk", F.peak_poly), ("lpk", F.left_peak_poly), ("des", F.eulerian_poly)):
        rows = O.rows(stat, ORACLE_N)
        assert [tuple(rows[n]) for n in range(1, ORACLE_N + 1)] == [family(n).coeffs for n in range(1, ORACLE_N + 1)], stat


def test_c_equals_the_prefix_rank_oracle_up_to_64():
    rows = O.type_b_rows(ORACLE_N)
    assert [tuple(rows[n]) for n in range(1, ORACLE_N + 1)] == [F.type_b_eulerian_poly(n).coeffs
                                                                for n in range(1, ORACLE_N + 1)]


def _by_definition(n, stat):
    counts = Counter()
    for pi in itertools.permutations(range(1, n + 1)):
        descents = [a > b for a, b in zip(pi, pi[1:])]
        if stat == "des":
            counts[sum(descents)] += 1
        else:  # a peak is an ascent into a value followed by a descent out of it
            rises = [stat == "lpk"] + [not d for d in descents]
            counts[sum(r and d for r, d in zip(rises, descents))] += 1
    return [counts[k] for k in range(max(counts) + 1)]


def test_the_oracle_counts_by_definition_at_small_n():
    for stat in ("pk", "lpk", "des"):
        rows = O.rows(stat, 7)
        assert [rows[n] for n in range(1, 8)] == [_by_definition(n, stat) for n in range(1, 8)], stat
    for n in range(1, 6):
        des_b = Counter()
        for pi in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                window = (0,) + tuple(s * v for s, v in zip(signs, pi))  # w(0) = 0
                des_b[sum(a > b for a, b in zip(window, window[1:]))] += 1
        assert O.type_b_rows(n)[n] == [des_b[k] for k in range(n + 1)], n


def test_the_oracle_shares_no_code_with_the_package(monkeypatch):
    # As the Bell route is checked not to read the R recurrence: with every
    # function of permutations and families raising, and peakpoly itself
    # unimportable, the oracle still gives the rows it gave before.
    expected = [O.rows(stat, 12) for stat in ("pk", "lpk", "des")], O.type_b_rows(12)
    tree = ast.parse(inspect.getsource(O))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "math"}

    def package_called(*args, **kwargs):
        raise AssertionError("the prefix-rank oracle called the package")

    for module in (P, F):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                monkeypatch.setattr(module, name, package_called)
            elif isinstance(obj, F.Memo):
                monkeypatch.setattr(obj, "step", package_called)
    for name in [m for m in sys.modules if m == "peakpoly" or m.startswith("peakpoly.")]:
        monkeypatch.setitem(sys.modules, name, None)
    oracle = importlib.reload(O)
    assert ([oracle.rows(stat, 12) for stat in ("pk", "lpk", "des")], oracle.type_b_rows(12)) == expected
