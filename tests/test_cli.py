import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "peakpoly"]


def run(*args, env=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=600
    )


def test_triangle_r_csv():
    res = run("triangle", "--family", "R", "--nmax", "4", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.splitlines()[-1] == "1,8,18,16,5"


def test_triangle_r_nmax_zero():
    res = run("triangle", "--family", "R", "--nmax", "0", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout == "1\n"


def test_triangle_wl_json():
    res = run("triangle", "--family", "WL", "--nmax", "3", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout)[2] == ["1", "5"]


def test_triangle_w_requires_positive_nmax():
    res = run("triangle", "--family", "W", "--nmax", "0")
    assert res.returncode == 2


def test_poly_families():
    assert run("poly", "--family", "G", "--n", "5").stdout == "1,13,16\n"
    assert run("poly", "--family", "Q", "--n", "0").stdout == "1\n"
    assert run("poly", "--family", "A", "--n", "3").stdout == "1,4,1\n"
    assert run("poly", "--family", "P", "--n", "0").stdout == "0,1\n"
    assert run("poly", "--family", "R", "--n", "0").stdout == "1\n"
    assert run("poly", "--family", "T", "--n", "2").stdout == "1,4,6,4,1\n"
    assert run("poly", "--family", "CT", "--n", "2").stdout == "0,4,4\n"


def test_poly_gf_sourced_beyond_oracle_cap():
    res = run("poly", "--family", "C", "--n", "9")
    assert res.returncode == 0
    coeffs = [int(c) for c in res.stdout.strip().split(",")]
    assert sum(coeffs) == 2**9 * 362880
    assert coeffs == coeffs[::-1]  # type-B Eulerian rows are palindromic


def test_poly_usage_errors():
    assert run("poly", "--family", "A", "--n", "0").returncode == 2
    assert run("poly", "--family", "X", "--n", "3").returncode == 2


def test_oracle_outputs():
    assert run("oracle", "--stat", "alt", "--n", "4").stdout == "5\n"
    assert run("oracle", "--stat", "pk", "--n", "3").stdout == "4,2\n"
    assert run("oracle", "--stat", "ades", "--n", "1").stdout == "0,2\n"
    assert run("oracle", "--stat", "desb", "--n", "2").stdout == "1,6,1\n"


def test_oracle_limit_exit_code():
    assert run("oracle", "--stat", "pk", "--n", "11").returncode == 3
    assert run("oracle", "--stat", "ades", "--n", "8").returncode == 3
    assert run("poly", "--family", "C", "--n", "65").returncode == 3


def test_oracle_rejects_nonpositive_jobs():
    for jobs in ("0", "-2"):
        res = run("oracle", "--stat", "des", "--n", "4", "--jobs", jobs)
        assert res.returncode == 2
        assert "--jobs must be >= 1" in res.stderr


def test_oracle_jobs_do_not_change_output():
    base = run("oracle", "--stat", "des", "--n", "6", "--jobs", "1")
    parallel = run("oracle", "--stat", "des", "--n", "6", "--jobs", "4")
    assert base.stdout == parallel.stdout


def test_verify_identities_suite():
    res = run("verify", "--suite", "identities", "--nmax", "6", "--signed-nmax", "4")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["aggregate"] == "pass"
    assert doc["tool_version"]
    assert all(r["verdict"] == "pass" for r in doc["results"])


def test_verify_clt_result_count():
    res = run("verify", "--suite", "clt", "--nmax", "30")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["results"]) == 27


def test_verify_clt_passes_with_asserts_stripped():
    # python -O removes assert statements; the closed-form checks must not rely on them
    res = subprocess.run(
        [sys.executable, "-O", "-m", "peakpoly", "verify", "--suite", "clt", "--nmax", "8"],
        capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["aggregate"] == "pass"


def test_verify_usage_error_on_bad_range():
    assert run("verify", "--suite", "roots", "--nmax", "0").returncode == 2


def test_verify_gf_suite():
    res = run("verify", "--suite", "gf", "--nmax", "8", "--signed-nmax", "4")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    ids = [r["check_id"] for r in doc["results"]]
    assert "gf_R" in ids and "pde" in ids and "numeric_spotcheck_2" in ids


def test_verify_reports_are_deterministic():
    args = ("verify", "--suite", "roots", "--nmax", "8")
    assert run(*args).stdout == run(*args).stdout


def test_jobs_env_variable_accepted(monkeypatch):
    import os

    env = dict(os.environ, PEAKPOLY_JOBS="2")
    res = run("oracle", "--stat", "des", "--n", "5", env=env)
    assert res.returncode == 0
    assert res.stdout == run("oracle", "--stat", "des", "--n", "5").stdout


def test_flag_overrides_jobs_env(monkeypatch, capsys):
    from peakpoly import cli, permutations

    seen = {}
    original = permutations.distribution

    def spy(n, stat, *, limit=10, jobs=1):
        seen["jobs"] = jobs
        return original(n, stat, limit=limit, jobs=jobs)

    monkeypatch.setenv("PEAKPOLY_JOBS", "3")
    monkeypatch.setattr(permutations, "distribution", spy)
    assert cli.main(["oracle", "--stat", "des", "--n", "4", "--jobs", "1"]) == 0
    assert seen["jobs"] == 1
    assert cli.main(["oracle", "--stat", "des", "--n", "4"]) == 0
    assert seen["jobs"] == 3
    capsys.readouterr()


def test_verify_exit_code_one_on_failure(monkeypatch, capsys):
    from peakpoly import cli, identities

    failing = [
        identities.CheckResult(
            "root_structure", (1, 2), "fail", identities.Witness(2, 0, "1", "2")
        )
    ]
    monkeypatch.setattr(identities, "run_roots_suite", lambda nmax: failing)
    code = cli.main(["verify", "--suite", "roots", "--nmax", "2"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["aggregate"] == "fail"
    assert doc["results"][0]["witness"] == {"n": 2, "index": 0, "lhs": "1", "rhs": "2"}


def test_verify_ranges_above_their_caps_exit_3_before_any_work(monkeypatch, capsys):
    from peakpoly import cli, identities

    def no_work(*args, **kwargs):
        raise AssertionError("a suite ran")

    for runner in ("run_all", "run_identity_suite", "run_gf_suite", "run_roots_suite", "run_clt_suite", "run_oracle_suite"):
        monkeypatch.setattr(identities, runner, no_work)
    cases = [
        (["--suite", "gf", "--nmax", "70"], "gf_order 70 above cap 64"),
        (["--gf-order", "65"], "gf_order 65 above cap 64"),
        (["--suite", "oracle", "--nmax", "11"], "oracle_nmax 11 above cap 10"),
        (["--suite", "oracle", "--signed-nmax", "8"], "signed_nmax 8 above cap 7"),
        (["--suite", "identities", "--nmax", "65"], "nmax_exact 65 above cap 64"),
        (["--suite", "roots", "--nmax", "65"], "roots_nmax 65 above cap 64"),
        (["--suite", "clt", "--nmax", "129"], "clt_nmax 129 above cap 128"),
    ]
    for args, message in cases:
        assert cli.main(["verify", *args]) == 3, args
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


def test_bad_jobs_env_is_a_usage_error(monkeypatch, capsys):
    from peakpoly import cli

    for value, message in (("0", "PEAKPOLY_JOBS must be >= 1"), ("-2", "PEAKPOLY_JOBS must be >= 1"),
                           ("abc", "PEAKPOLY_JOBS must be an integer"), ("1.5", "PEAKPOLY_JOBS must be an integer")):
        monkeypatch.setenv("PEAKPOLY_JOBS", value)
        for argv in (["oracle", "--stat", "des", "--n", "3"], ["verify", "--suite", "clt", "--nmax", "4"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert message in err
