import json

import pytest

from peakpoly import cli
from peakpoly import families as F
from peakpoly import identities as I
from peakpoly import roots as R
from peakpoly import series as S
from peakpoly.polynomial import Poly

ONE_PLUS_X = Poly((1, 1))


def test_row_interleave_reference_row():
    # row 4 merges the two peak rows: odd slots [8, 16], even slots [1, 18, 5]
    assert I.interleave_rows((8, 16), (1, 18, 5), 4) == (1, 8, 18, 16, 5)
    assert I.check_row_interleave(4) is None


def test_row_interleave_euler_corner():
    assert I.check_row_interleave(2) is None
    assert I.check_row_interleave(6) is None


def test_row_interleave_detects_corruption():
    good = list(F.tan_sec_triangle(5)[5])
    good[2] += 1
    witness = I.check_row_interleave(5, r_row=tuple(good))
    assert witness is not None
    assert witness.n == 5 and witness.index == 2
    assert witness.lhs == "59" and witness.rhs == "58"


def test_peak_to_derivative_hand_expansions():
    # n = 3: 4 y^2 (1+y^2) + 2 (1+y^2)^2 = 2 + 8y^2 + 6y^4
    lhs = 4 * Poly((0, 0, 1)) * Poly((1, 0, 1)) + 2 * Poly((1, 0, 1)) ** 2
    assert lhs == Poly((2, 0, 8, 0, 6))
    assert I.check_peak_to_derivative(3) is None
    # n = 1: the left-peak side is the single term y
    assert I.check_peak_to_derivative(1) is None
    # n = 4: y^4 + 18y^2(1+y^2) + 5(1+y^2)^2 = 5 + 28y^2 + 24y^4
    lhs = Poly((0, 0, 0, 0, 1)) + 18 * Poly((0, 0, 1)) * Poly((1, 0, 1)) + 5 * Poly((1, 0, 1)) ** 2
    assert lhs == Poly((5, 0, 28, 0, 24))
    assert I.check_peak_to_derivative(4) is None


def test_stembridge_hand_values():
    # n = 3: 4(1+x)^2 + 8x = 4 + 16x + 4x^2 = 4 A_3
    assert 4 * ONE_PLUS_X**2 + Poly((0, 8)) == 4 * Poly((1, 4, 1))
    for n in (1, 3, 4, 9):
        assert I.check_stembridge(n) is None


def test_petersen_hand_values():
    # n = 2: (1+x)^2 + 4x = 1 + 6x + x^2 on both sides
    lhs = ONE_PLUS_X**2 + Poly((0, 4))
    rhs = Poly((1, -1)) ** 2 + 4 * Poly((0, 1, -1)) + 4 * Poly((0, 1, 1))
    assert lhs == rhs == Poly((1, 6, 1))
    for n in (1, 2, 5, 8):
        assert I.check_petersen(n) is None


def test_dilks_checks_against_oracle():
    for n in range(1, 6):
        assert I.check_dilks_affine(n) is None
        assert I.check_dilks_type_b(n) is None


def test_dilks_checks_against_gf_beyond_oracle():
    for n in (8, 9, 10):
        assert I.check_dilks_affine(n, source="gf") is None
        assert I.check_dilks_type_b(n, source="gf") is None


def test_bell_checks():
    for n in range(1, 9):
        assert I.check_bell_expansion(n) is None
        assert I.check_bell_x0(n) is None
        assert I.check_bell_x1(n) is None


def test_bell_x0_check_sees_a_wrong_stirling_number(monkeypatch):
    real = F.stirling2
    monkeypatch.setattr(F, "stirling2", lambda n, k: real(n, k) + ((n, k) == (5, 3)))
    assert I.check_bell_x0(4) is None
    # the k = 3 term of n = 5 is +3! S(5, 3), so the sum rises by 6
    assert I.check_bell_x0(5) == I.Witness(5, 0, "7", "1")


def test_bell_x1_check_reports_the_wrong_sum(monkeypatch):
    rows = list(F._FACTORIAL_BELL_ROWS.upto(5))
    rows[5] = rows[5][:3] + (rows[5][3] + 1,) + rows[5][4:]  # B_{5,3} off by one
    monkeypatch.setattr(F, "_FACTORIAL_BELL_ROWS", F.Memo(rows, F._FACTORIAL_BELL_ROWS.step))
    assert I.check_bell_x1(4) is None
    # the k = 3 term of n = 5 is +3! 2^3 B_{5,3}, so the sum rises by 48
    assert I.check_bell_x1(5) == I.Witness(5, 0, "768", "720")


def test_identity_suite_passes_at_defaults():
    results = I.run("identities")
    assert all(r.passed for r in results)
    ids = [r.check_id for r in results]
    assert "row_interleave" in ids
    assert "dilks_affine_gf" in ids


def test_identity_suite_degenerate_range():
    results = I.run("identities", nmax_exact=1, signed_nmax=1)
    assert all(r.passed for r in results)


def test_gf_suite_passes():
    results = I.run("gf", gf_order=10)
    assert all(r.passed for r in results)
    assert [r.check_id for r in results][:8] == [
        "gf_A", "gf_W", "gf_WL", "gf_P", "gf_C", "gf_CT", "gf_T", "gf_R",
    ]


def test_roots_and_clt_suites():
    assert all(r.passed for r in I.run("roots", roots_nmax=10))
    clt = I.run("clt", clt_nmax=12)
    assert len(clt) == 9
    assert all(r.passed for r in clt)
    assert clt[0].n_range == (4, 4)


def _corrupt_r4(monkeypatch, r4):
    real = F.tan_sec_poly
    monkeypatch.setattr(F, "tan_sec_poly", lambda n: r4 if n == 4 else real(n))


def test_root_structure_fails_on_non_real_zeros(monkeypatch):
    # (1+x)^3 (1+5x) (1+x^2): the right multiplicity at -1, a squarefree
    # G_4 with positive coefficients and its one real zero in (-1, 0), but
    # degree 3, so two zeros are not real
    _corrupt_r4(monkeypatch, Poly((1, 1)) ** 3 * Poly((1, 5)) * Poly((1, 0, 1)))
    with pytest.raises(R.StructureViolation) as raised:
        R.certify_root_structure(4)
    assert raised.value.clause == "degree"
    structure = I.run("roots", roots_nmax=6)[0]
    assert (structure.check_id, structure.verdict) == ("root_structure", "fail")
    assert structure.witness.n == 4
    assert structure.witness.lhs == "StructureViolation"


def test_nonpositive_reduced_coefficient_is_a_fail(monkeypatch):
    # (1+x)^3 (x-1): G_4 = x - 1 breaks the positivity claim
    _corrupt_r4(monkeypatch, Poly((1, 1)) ** 3 * Poly((-1, 1)))
    structure, interlacing, _ = I.run("roots", roots_nmax=6)
    for result, n in ((structure, 4), (interlacing, 3)):
        assert result.verdict == "fail", result
        assert (result.witness.n, result.witness.lhs) == (n, "NonpositiveCoefficient")


def test_oracle_suite_passes():
    results = I.run("oracle", oracle_nmax=6, signed_nmax=4)
    assert all(r.passed for r in results)


def test_run_all_aggregate_and_order_stability():
    ranges = dict(nmax_exact=8, oracle_nmax=6, signed_nmax=4, gf_order=8, roots_nmax=8, clt_nmax=8)
    results_a = I.run("all", **ranges)
    results_b = I.run("all", **ranges)
    assert I.aggregate_verdict(results_a) == "pass"
    assert [r.to_json() for r in results_a] == [r.to_json() for r in results_b]


SMALL = dict(nmax_exact=8, oracle_nmax=6, signed_nmax=4, gf_order=8, roots_nmax=8, clt_nmax=8)
SUITES = ["oracle", "identities", "gf", "roots", "clt"]  # in table order


def test_every_read_names_a_family_route_or_a_declared_route():
    for check in I.CHECKS:
        assert check.reads, check.check_id
        for name in check.reads:
            family, _, route = name.partition(".")
            assert name in I.ROUTES or family in S.FAMILIES and route in S.FAMILIES[family].routes, (check, name)
    assert set(I.ROUTES) == {name for check in I.CHECKS for name in check.reads if name in I.ROUTES}


def test_check_ids_are_unique_and_every_suite_has_checks():
    ids = [check.check_id for check in I.CHECKS]
    assert len(ids) == len(set(ids)) == 33
    assert list(dict.fromkeys(check.suite for check in I.CHECKS)) == SUITES
    assert sorted(suite for knob in I.RANGES for suite in knob.nmax_of) == sorted(SUITES + ["all"])
    knobs = {knob.name for knob in I.RANGES}
    for check in I.CHECKS:
        assert check.knob in knobs | {None} and check.unit in ("range", "order", "n"), check
        assert callable(getattr(I, check.fn)), check


def test_all_is_the_suites_in_table_order():
    together = I.run("all", **SMALL)
    assert together == [r for suite in SUITES for r in I.run(suite, **SMALL)]
    assert [r.check_id for r in together if r.check_id != "clt_moments"] == [
        check.check_id for check in I.CHECKS if check.check_id != "clt_moments"
    ]


def test_a_check_function_is_looked_up_when_the_check_runs(monkeypatch):
    monkeypatch.setattr(I, "check_stembridge", lambda n: I.Witness(n, 0, "1", "2") if n == 3 else None)
    verdicts = {r.check_id: r for r in I.run("identities", nmax_exact=5, signed_nmax=3)}
    assert verdicts["stembridge"] == I.CheckResult("stembridge", (1, 5), "fail", I.Witness(3, 0, "1", "2"))
    assert all(r.passed for check_id, r in verdicts.items() if check_id != "stembridge")


def test_empty_ranges_with_a_fixed_start_are_refused():
    ranges = {knob.name: knob.default for knob in I.RANGES}
    for suite, knob, lowest in (("roots", "roots_nmax", 2), ("clt", "clt_nmax", 4)):
        for value in range(1, lowest):
            with pytest.raises(ValueError, match="empty"):
                I.plan(suite, {**ranges, knob: value})
            with pytest.raises(ValueError, match="empty"):
                I.plan("all", {**ranges, knob: value})
        assert I.plan(suite, {**ranges, knob: lowest})
    # the Dilks GF tail starts after signed_nmax and is left out when empty
    ids = [check.check_id for check, _, _ in I.plan("identities", {**ranges, "nmax_exact": 7})]
    assert "dilks_affine_gf" not in ids and "dilks_affine_oracle" in ids
    with pytest.raises(ValueError, match="unknown suite"):
        I.plan("bogus", ranges)
    with pytest.raises(TypeError, match="unknown ranges"):
        I.run("roots", roots=4)


def test_check_result_serialization():
    witness = I.Witness(3, 1, "5", "4")
    res = I.CheckResult("demo", (1, 3), "fail", witness)
    doc = res.to_json()
    assert doc == {
        "check_id": "demo",
        "n_range": [1, 3],
        "verdict": "fail",
        "witness": {"n": 3, "index": 1, "lhs": "5", "rhs": "4"},
    }
    assert I.CheckResult("demo", (1, 3), "pass").to_json() == {
        "check_id": "demo",
        "n_range": [1, 3],
        "verdict": "pass",
    }


def test_aggregate_reports_smallest_failing_n():
    calls = []

    def flaky(n):
        calls.append(n)
        if n >= 4:
            return I.Witness(n, 0, "bad", "good")
        return None

    result = I._aggregate("demo", 1, 9, flaky)
    assert result.verdict == "fail"
    assert result.witness.n == 4
    assert calls == [1, 2, 3, 4]


def test_aggregate_turns_exceptions_into_errors():
    def boom(n):
        raise ValueError("injected")

    result = I._aggregate("demo", 2, 5, boom)
    assert result.verdict == "error"
    assert result.witness == I.Witness(2, -1, "ValueError", "injected")
    single = I._single("demo", (0, 8), lambda: boom(0))
    assert (single.verdict, single.witness) == ("error", I.Witness(0, -1, "ValueError", "injected"))

    def violated(n):
        if n == 3:
            raise R.StructureViolation("multiplicity", "n=3")
        return None

    # a violation raised by a lower layer is a counterexample, not an error
    result = I._aggregate("demo", 2, 5, violated)
    assert result.verdict == "fail"
    assert result.witness == I.Witness(3, -1, "StructureViolation", "multiplicity: n=3")


def test_aggregate_verdict_is_fail_before_error():
    def result(verdict):
        return I.CheckResult(verdict, (1, 1), verdict)

    assert I.aggregate_verdict([result("pass")] * 2) == "pass"
    assert I.aggregate_verdict([result("pass"), result("error")]) == "error"
    assert I.aggregate_verdict([result("error"), result("fail"), result("pass")]) == "fail"
    assert I.aggregate_verdict([result("fail")]) == "fail"


def test_a_raising_family_function_is_an_error_verdict(monkeypatch, capsys):
    def broken(nmax):
        raise RuntimeError("injected")

    monkeypatch.setattr(F, "euler_numbers", broken)
    code = cli.main(["verify", "--suite", "oracle", "--nmax", "5", "--signed-nmax", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["aggregate"] == "error"
    [errored] = [r for r in doc["results"] if r["verdict"] != "pass"]
    assert errored == {
        "check_id": "oracle_alternating",
        "n_range": [1, 5],
        "verdict": "error",
        "witness": {"n": 1, "index": -1, "lhs": "RuntimeError", "rhs": "injected"},
    }
