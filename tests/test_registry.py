"""The family table: every family has at least two routes, the routes share
no code beyond the generic arithmetic, and they agree."""

import inspect
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakpoly import cli
from peakpoly import families as F
from peakpoly import series as S

# Largest n the agreement property draws.  A, W, WL, C and CT carry an oracle
# route, so every n drawn must stay inside both enumeration caps: 10 for S_n
# and 7 for signed windows.
SMALL_N = 6


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _callees(fn):
    """The peakpoly functions fn names, through module attributes, lazily
    imported modules, lru caches, Memo steps and the steps of the Memos a
    dict it names holds."""
    names = {name for code in _code_objects(fn.__code__) for name in code.co_names}
    namespaces = [fn.__globals__]
    for name in names:
        module = fn.__globals__.get(name) or sys.modules.get(f"peakpoly.{name}")
        if isinstance(module, types.ModuleType):
            namespaces.append(vars(module))
    for name in names:
        for ns in namespaces:
            obj = ns.get(name)
            for obj in obj.values() if isinstance(obj, dict) else (obj,):
                obj = obj.step if isinstance(obj, F.Memo) else getattr(obj, "__wrapped__", obj)
                if inspect.isfunction(obj) and obj.__module__.startswith("peakpoly."):
                    yield obj


def _reach(route):
    """Every peakpoly function a route can run, minus polynomial arithmetic,
    the one code every route may share."""
    seen, todo = set(), [route]
    while todo:
        fn = todo.pop()
        for callee in _callees(fn):
            if callee not in seen and callee.__module__ != "peakpoly.polynomial":
                seen.add(callee)
                todo.append(callee)
    return seen


def test_every_family_has_two_routes_sharing_only_generic_arithmetic():
    for name, family in S.FAMILIES.items():
        routes = list(family.routes.items())
        assert len(routes) >= 2, name
        assert len({route.__code__ for _, route in routes}) == len(routes), name
        for i, (a, route_a) in enumerate(routes):
            for b, route_b in routes[i + 1:]:
                shared = _reach(route_a) & _reach(route_b)
                assert not shared, f"{name}: routes {a} and {b} share {sorted(f.__name__ for f in shared)}"


def test_independence_check_sees_a_shared_helper():
    # two wrappers of one function share it although their code differs, and
    # sharing is found below the entry points too
    one, two = (lambda n: F.eulerian_poly(n)), (lambda n: F.eulerian_poly(n) + 0)
    assert F.eulerian_poly in _reach(one) & _reach(two)
    p_step, q_step = F._TANGENT_DERIVATIVE_POLYS.step, F._SECANT_DERIVATIVE_POLYS.step
    assert p_step in _reach(lambda n: F.euler_numbers(n)) & _reach(lambda n: F.tangent_derivative_poly(n))
    assert q_step not in _reach(lambda n: F.tangent_derivative_poly(n))
    # each row of the recurrence table has a step of its own, and a route
    # through another family's row reaches that row's step
    a_step = F._EULERIAN_POLYS.step
    assert a_step in _reach(S.FAMILIES["A"].routes["recurrence"]) & _reach(S.FAMILIES["C"].routes["petersen"])
    assert a_step not in _reach(S.FAMILIES["C"].routes["recurrence"])
    # a gf route reaches the solve steps through the Memos of series._SOLVES
    # and the den terms through those of series._BD
    gf = _reach(S.FAMILIES["A"].routes["gf"])
    assert {S._SOLVES["A"].step, S._BD["A"].step} <= gf
    assert S._SOLVES["A"].step not in _reach(S.FAMILIES["A"].routes["recurrence"])


def test_cli_family_choices_are_the_registry_ids():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    choices = {
        command: next(a.choices for a in parser._actions if a.dest == "family")
        for command, parser in sub.choices.items()
        if command in ("poly", "triangle")
    }
    assert list(choices["poly"]) == list(S.FAMILIES)
    assert list(choices["triangle"]) == [f for f, fam in S.FAMILIES.items() if "triangle" in fam.routes]
    assert set(choices["triangle"]) == {"R", "W", "WL"}


def test_egf_ids_name_registry_families():
    for gf_id, egf in S.EGFS.items():
        fam = S.FAMILIES[egf.family]
        assert egf.offset in (0, 1)
        assert (fam.egf0 is not None) == (egf.offset < fam.min_n), gf_id
    assert (S.EGFS["P"].family, S.EGFS["P"].offset) == ("R", 0)
    assert (S.EGFS["R"].family, S.EGFS["R"].offset) == ("R", 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(S.FAMILIES)), st.data())
def test_all_routes_of_a_family_agree(name, data):
    family = S.FAMILIES[name]
    n = data.draw(st.integers(min_value=family.min_n, max_value=SMALL_N))
    values = {route: fn(n) for route, fn in family.routes.items()}
    assert len(set(values.values())) == 1, (name, n, values)
    assert family.poly(n) == values[next(iter(values))]


def test_the_three_routes_of_p_and_q_agree_up_to_the_cap():
    # CI compares every route only to min(cap, 64); P and Q reach 128
    for name in ("P", "Q"):
        family = S.FAMILIES[name]
        assert len(family.routes) == 3, name
        for n in range(family.min_n, family.cap + 1):
            first, *others = (route(n) for route in family.routes.values())
            assert others == [first, first], (name, n)


def test_the_gf_routes_of_t_and_g_agree_with_their_first_routes_to_24():
    # the agreement property draws T and G only up to SMALL_N
    for name in ("T", "G"):
        family = S.FAMILIES[name]
        first = next(iter(family.routes.values()))
        for n in range(family.min_n, 25):
            assert family.routes["gf"](n) == first(n), (name, n)


def test_derivative_polynomials_by_the_papers_definition():
    # D^n tan = P_n(tan) and D^n sec = sec Q_n(tan): with x = tan(theta),
    # Taylor's theorem makes P_n(x)/n! the t^n coefficient of
    # tan(theta + t) = (x + tan t)/(1 - x tan t), and Q_n(x)/n! that of
    # sec(theta + t)/sec(theta) = 1/(cos t - x sin t).  A route outside the
    # package, from sympy's series.
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t")
    for route, expr, nmax in (
        (F.tangent_derivative_poly, (x + sympy.tan(t)) / (1 - x * sympy.tan(t)), 16),
        (F.secant_derivative_poly, 1 / (sympy.cos(t) - x * sympy.sin(t)), 12),
    ):
        taylor = sympy.series(expr, t, 0, nmax + 1).removeO()
        for n in range(nmax + 1):
            coeff = sympy.Poly(sympy.expand(taylor.coeff(t, n) * sympy.factorial(n)), x)
            assert tuple(int(c) for c in reversed(coeff.all_coeffs())) == route(n).coeffs, (route.__name__, n)


def test_eulerian_polynomials_by_sympys_series_of_the_closed_form():
    # A_n(x)/n! is the t^n coefficient of (x - 1)/(x - e^(t(x - 1))): sympy's
    # expansion shares no code with the package's recurrence or its series
    # solve of the same closed form
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t")
    nmax = 6
    taylor = sympy.series((x - 1) / (x - sympy.exp(t * (x - 1))), t, 0, nmax + 1).removeO()
    for n in range(1, nmax + 1):
        coeff = sympy.Poly(sympy.cancel(taylor.coeff(t, n) * sympy.factorial(n)), x)
        a_n = tuple(int(c) for c in reversed(coeff.all_coeffs()))
        assert a_n == F.eulerian_poly(n).coeffs == S.solved_family_polys("A", n)[n].coeffs, n
