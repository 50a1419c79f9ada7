"""The command-line interface, driven in process through cli.main(argv).

A request's exit code, stdout and stderr are those of cli.main, so the tests
call it here and read what it prints.  Nine tests start a fresh interpreter,
because their subject is the process and not the request:

* test_process_entry_prints_what_the_normal_exit_prints,
  test_process_entry_reports_a_failed_write_as_the_normal_exit_does and
  test_profiled_entry_ends_normally_so_the_profile_is_printed: cli.entry()
  flushes and ends its process with os._exit, which in process would end the
  test run, and what it has to equal is the interpreter's own exit.
* test_cli_import_and_oracle_request_load_no_dataclasses_or_inspect and
  test_oracle_and_version_requests_import_only_the_layers_they_run: which
  modules a request imports shows only in an interpreter that has imported
  none of them, and pytest's has imported every layer.
* test_enumeration_starts_no_worker_processes: likewise for the
  multiprocessing and concurrent.futures modules.
* test_jobs_env_variable_is_ignored: an environment variable is set before
  the process starts, and a module could read it at import.
* test_the_full_report_prints_the_same_bytes_under_two_hash_seeds: the hash
  seed is fixed when the interpreter starts.
* test_verify_clt_passes_with_asserts_stripped: -O is an interpreter flag.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peakpoly import cli, identities, series
from peakpoly.permutations import S_N_LIMIT, SIGNED_LIMIT

CLI = [sys.executable, "-m", "peakpoly"]


def run(*argv):
    """The exit code, stdout and stderr of cli.main(argv), in this process; a
    usage error, --help or --version ends in SystemExit, whose code is kept."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return types.SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


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


def test_a_handler_rebound_on_the_module_runs_with_its_command_parser(monkeypatch):
    # the tracer and the tests that patch a handler rely on main calling the
    # module's binding when the request builds its parser, not one kept from import
    built, calls = [], []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda commands: built.append(build_parser(commands)) or built[-1])
    monkeypatch.setattr(cli, "cmd_oracle", lambda args, parser: calls.append((args.n, parser)) or 0)
    assert cli.main(["oracle", "--stat", "pk", "--n", "3"]) == 0
    assert calls == [(3, _subparser(*built, "oracle"))]


def test_oracle_limit_exit_code():
    assert run("oracle", "--stat", "pk", "--n", "11").returncode == 3
    assert run("oracle", "--stat", "ades", "--n", "8").returncode == 3
    assert run("poly", "--family", "C", "--n", "65").returncode == 3


def test_every_over_cap_request_names_its_value_and_cap(capsys):
    # `<name> <value> above cap <cap>`, as the verify ranges read
    cases = [
        (["poly", "--family", "C", "--n", "65"], "peakpoly: --n 65 above cap 64 for family C\n"),
        (["triangle", "--family", "R", "--nmax", "129"], "peakpoly: --nmax 129 above cap 128 for family R\n"),
        (["oracle", "--stat", "pk", "--n", "11"], "peakpoly: n 11 above cap 10\n"),
        (["oracle", "--stat", "ades", "--n", "8"], "peakpoly: n 8 above cap 7\n"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 3, argv
        assert capsys.readouterr() == ("", message), argv


def test_oracle_n_below_one_is_a_usage_error():
    for n in ("0", "-3"):
        res = run("oracle", "--stat", "pk", "--n", n)
        assert res.returncode == 2
        assert "argument --n: must be >= 1" in res.stderr


def test_enumeration_starts_no_worker_processes():
    script = (
        "import contextlib, io, sys\n"
        "from peakpoly import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['oracle', '--stat', 'pk', '--n', '8', '--jobs', '2']),\n"
        "             cli.main(['verify', '--suite', 'oracle', '--nmax', '6', '--jobs', '2'])]\n"
        "print(codes, 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=600)
    assert res.stdout == "[0, 0] False False\n", res.stderr


def test_cli_import_and_oracle_request_load_no_dataclasses_or_inspect():
    # both modules cost start-up time that every request would pay
    heavy = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"
    bare = subprocess.run([sys.executable, "-c", f"import sys; print({heavy})"],
                          capture_output=True, text=True, timeout=600)
    script = (
        "import contextlib, io, sys\n"
        "from peakpoly import cli\n"
        f"after_import = {heavy}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['oracle', '--stat', 'des', '--n', '6'])\n"
        f"print(after_import, {heavy}, code)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=600)
    preloaded = bare.stdout.strip()
    assert res.stdout == f"{preloaded} {preloaded} 0\n", res.stderr


def test_oracle_and_version_requests_import_only_the_layers_they_run():
    # an oracle request reads permutations alone, and --version no layer
    unused = ("peakpoly.identities", "peakpoly.series", "peakpoly.roots", "peakpoly.families",
              "peakpoly.polynomial", "fractions", "json")
    loaded = f"[m for m in {unused + ('peakpoly.permutations',)!r} if m in sys.modules]"
    oracle = (
        "import contextlib, io, sys\n"
        "from peakpoly import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['oracle', '--stat', s, '--n', '5']) for s in ('des', 'desb', 'alt')]\n"
        f"print(codes, {loaded})\n"
    )
    version = (
        "import contextlib, io, sys\n"
        "from peakpoly import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--version'])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"print(code, {loaded})\n"
    )
    # and verify runs on the standard library alone: with every test extra
    # blocked, the numeric spot-checks of gf and all still pass
    no_extras = (
        "import contextlib, io, sys\n"
        "sys.modules.update(dict.fromkeys(('mpmath', 'sympy', 'hypothesis')))\n"
        "from peakpoly import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify', '--suite', 'gf', '--nmax', '4']), cli.main(['verify', '--suite', 'all'])]\n"
        "print(codes)\n"
    )
    # the recurrences load polynomial alone, and no enumeration
    families = (
        "import sys\n"
        "import peakpoly.families\n"
        "print([m for m in ('peakpoly.polynomial', 'peakpoly.permutations') if m in sys.modules])\n"
    )
    for script, expected in ((oracle, "[0, 0, 0] ['peakpoly.permutations']\n"), (version, "0 []\n"),
                             (no_extras, "[0, 0]\n"), (families, "['peakpoly.polynomial']\n")):
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=600)
        assert res.stdout == expected, res.stderr


# the same request ended by the normal exit, interpreter teardown included
NORMAL_EXIT = [sys.executable, "-c", "import sys; from peakpoly.cli import main; sys.exit(main(sys.argv[1:]))"]
# stdout to a pipe or a file is block-buffered, so the entry's own flush writes the output
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("argv, code", [
    *((["oracle", "--stat", stat, "--n", "6"], 0) for stat in cli.ORACLE_STATS),
    (["verify", "--suite", "clt", "--nmax", "8"], 0),
    (["poly", "--family", "R", "--n", "128"], 0),
    (["triangle", "--family", "W", "--nmax", "12", "--format", "json"], 0),
    (["--version"], 0), (["--help"], 0), (["oracle", "--help"], 0),
    ([], 2), (["bogus"], 2), (["oracle", "--stat", "pk"], 2), (["verify", "--suite", "clt", "--nmax", "3"], 2),
    (["oracle", "--stat", "pk", "--n", "11"], 3),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_process_entry_prints_what_the_normal_exit_prints(argv, code):
    early, normal = (subprocess.run(head + argv, capture_output=True, env=BUFFERED, timeout=600)
                     for head in (CLI, NORMAL_EXIT))
    assert normal.returncode == code
    assert (early.returncode, early.stdout, early.stderr) == (normal.returncode, normal.stdout, normal.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_entry_reports_a_failed_write_as_the_normal_exit_does():
    argv = ["oracle", "--stat", "pk", "--n", "5"]
    with open("/dev/full", "wb") as full:
        early, normal = (subprocess.run(head + argv, stdout=full, stderr=subprocess.PIPE, env=BUFFERED, timeout=600)
                         for head in (CLI, NORMAL_EXIT))
    assert early.returncode == normal.returncode == 120
    assert early.stderr == normal.stderr
    assert b"No space left on device" in early.stderr


def test_profiled_entry_ends_normally_so_the_profile_is_printed():
    # cProfile prints its table after the request returns: sys.setprofile up to
    # Python 3.11, a sys.monitoring tool from 3.12
    res = subprocess.run([sys.executable, "-m", "cProfile", "-m", "peakpoly", "oracle", "--stat", "pk", "--n", "5"],
                         capture_output=True, text=True, env=BUFFERED, timeout=600)
    assert res.returncode == 0, res.stderr
    counts, _, profile = res.stdout.partition("\n")
    assert counts == "16,88,16"
    assert "function calls" in profile and "Ordered by" in profile


SAMPLE_ARGV = {
    "triangle": [["triangle", "--family", "W", "--nmax", "5", "--format", "json"], ["triangle", "--family", "R", "--nmax", "0"]],
    "poly": [["poly", "--family", "CT", "--n", "3", "--format", "csv"], ["poly", "--n", "-1", "--family", "P"]],
    "oracle": [["oracle", "--stat", "desb", "--n", "4", "--jobs", "2"], ["oracle", "--n", "3", "--stat", "alt"]],
    "verify": [["verify"], ["verify", "--suite", "gf", "--nmax", "4", "--signed-nmax", "3", "--jobs", "1"]],
}


def _subparser(parser, command):
    return next(a for a in parser._actions if a.dest == "command").choices[command]


def _parse(parser, argv):
    """(exit code or None, stdout, stderr) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_per_command_parser_equals_the_full_parser():
    full = cli.build_parser()
    assert list(next(a for a in full._actions if a.dest == "command").choices) == list(cli.COMMANDS)
    for command, samples in SAMPLE_ARGV.items():
        parser = cli.build_parser((command,))
        for argv in samples:
            parsed, full_parsed = parser.parse_args(argv), full.parse_args(argv)
            # each records the parser of its command, which reports its handler's usage errors
            assert parsed.command_parser is _subparser(parser, command)
            assert full_parsed.command_parser is _subparser(full, command)
            del parsed.command_parser, full_parsed.command_parser
            assert parsed == full_parsed, argv
        assert _subparser(parser, command).format_help() == _subparser(full, command).format_help()
    assert cli.build_parser(()).format_help() == full.format_help()
    # every top-level option takes no value, so the first token that is not
    # an option is the command whenever argparse finds one
    assert all(a.nargs == 0 for a in full._actions if a.option_strings)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "oracle"], ["--version"], ["bogus"], ["Oracle", "--n", "3"], ["-1", "oracle"],
    ["oracle"], ["oracle", "--help"], ["oracle", "--stat", "zz", "--n", "3"], ["--", "oracle", "--n", "x"],
    ["poly", "--family", "X", "--n", "1"], ["triangle", "--format", "xml"], ["verify", "--suite", "nope"],
    ["verify", "--nmax", "x"], ["verify", "--stat", "pk"], ["oracle", "verify", "--n", "2"],
])
def test_main_reports_usage_errors_as_the_full_parser_does(argv):
    expected = _parse(cli.build_parser(), argv)
    assert expected[0] is not None  # each sample ends in the parser
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert (exc.value.code, out.getvalue(), err.getvalue()) == expected


def test_each_usage_error_prints_the_usage_of_its_command():
    # every count flag at 0, -3 and a non-integer, then the checks beyond the parser
    verify_flags = ["--nmax", *(knob.flag for knob in identities.RANGES if knob.flag), "--jobs"]
    requests = [
        *(head + [value] for value in ("0", "-3", "x") for head in (
            ["oracle", "--stat", "pk", "--n"], ["oracle", "--stat", "pk", "--n", "3", "--jobs"],
            *(["verify", flag] for flag in verify_flags))),
        ["poly", "--family", "A", "--n", "0"], ["poly", "--family", "W", "--n", "-1"],
        ["triangle", "--family", "W", "--nmax", "0"],
        ["verify", "--suite", "clt", "--nmax", "3"], ["verify", "--suite", "roots", "--nmax", "1"],
        ["verify", "--clt-nmax", "2"],
    ]
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
        assert (exc.value.code, out.getvalue()) == (2, ""), argv
        err = err.getvalue()
        assert err.startswith(f"usage: peakpoly {argv[0]} ") and f"\npeakpoly {argv[0]}: error: " in err, argv


@pytest.mark.parametrize("argv, message", [
    (["poly", "--family", "A", "--n", "0"], "argument --n: must be >= 1 for family A, not 0"),
    (["poly", "--family", "P", "--n", "-1"], "argument --n: must be >= 0 for family P, not -1"),
    (["triangle", "--family", "W", "--nmax", "0"], "argument --nmax: must be >= 1 for family W, not 0"),
], ids=["poly-A-0", "poly-P-minus-1", "triangle-W-0"])
def test_a_family_minimum_reads_like_a_count_flag_error(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert (exc.value.code, out.getvalue()) == (2, "")
    err = err.getvalue()
    assert err.startswith(f"usage: peakpoly {argv[0]} ") and err.endswith(f"\npeakpoly {argv[0]}: error: {message}\n")


def test_package_names_resolve_on_first_access():
    import peakpoly
    from peakpoly import polynomial

    assert peakpoly.Poly is polynomial.Poly
    assert all(getattr(peakpoly, name) is not None for name in peakpoly.__all__)
    namespace = {}
    exec("from peakpoly import *", namespace)
    assert set(peakpoly.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        peakpoly.no_such_name


def test_oracle_rejects_nonpositive_jobs():
    for jobs in ("0", "-2"):
        res = run("oracle", "--stat", "des", "--n", "4", "--jobs", jobs)
        assert res.returncode == 2
        assert "argument --jobs: must be >= 1" in res.stderr


def test_oracle_jobs_do_not_change_output():
    base = run("oracle", "--stat", "des", "--n", "6", "--jobs", "1")
    parallel = run("oracle", "--stat", "des", "--n", "6", "--jobs", "4")
    assert base.stdout == parallel.stdout


def test_every_benchmark_request_prints_its_reference_output(capsys):
    # The benchmark fails a request whose stdout digest is not the one stored
    # for it; this sees such drift without running the benchmark.
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
    for key, digest in reference.items():
        assert cli.main(key.split()) == 0, key
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, key


# sha256 of the stdout of every family's poly at its cap and of the three
# triangles at 128.  Past n = 64, A, R, G, W and WL are compared with no
# other route anywhere (the route agreement runs to min(cap, 64), the Bell
# route stops at 65), so these bytes pin them.
CAP_DIGESTS = {
    "poly --family P --n 128": "98d3b520192c91c79e36e6ebcf863d732adc502ea216f11c8a92515768febd19",
    "poly --family Q --n 128": "71f0645a6a9c1f262989edc99854db0ee3c23b0eccc658f296cd818b3856d1ba",
    "poly --family A --n 128": "dc62adc94bf4b93e12bc6e8bf006c614c675595371aaa223ad4fc65a4dcb8738",
    "poly --family R --n 128": "80da05890b75795dcbf095f30187d2e89e0acbfc28f8f93786e0c25a8cd3682c",
    "poly --family G --n 128": "35fafb0b11a7c638f7c3305693cfdaa9b24f20b45ad9bffdd41b15c22d8b52e8",
    "poly --family T --n 64": "814a1b8c0a19059c0fb79fac2cad2b494a32ef9e0315be65617d6eb52be72968",
    "poly --family C --n 64": "b3ad588f3b80e2b1fb07770a23b137e20116be46cfc932f6919e987804abafb2",
    "poly --family CT --n 64": "f4309ade9a97f5ea680deb6c4bd28ff05c0c88157142890983afc1477fa42327",
    "poly --family W --n 128": "9cb6684b6ae082d057c8be8af096f51965c96f623e048d0b08c6ed3c7c9dd026",
    "poly --family WL --n 128": "32e07ef4409c6d6c1e2c9e751b107bf7d862cf1efd6f4b2a203967d2ee479b2d",
    "triangle --family R --nmax 128": "abdc1e291e521b0b9c365314294ae761ca472c751b835c92875d25b9b63067c8",
    "triangle --family R --nmax 128 --format json": "4963635c7ce0a541f21b67f0a9e7331ec047294964b45d23bf82e5a5bdd4c6b2",
    "triangle --family W --nmax 128": "6a8235fc342af197f67215b23eb64f7b52dd54285f888f36f38fa9a7de9a13d7",
    "triangle --family W --nmax 128 --format json": "e9336ab1ff21f730ab60c0eb61f5dfc64d85e93ec89ce8d8501a340582bd75a2",
    "triangle --family WL --nmax 128": "6464485d95eddeb670757ab9889671a04a7ad1f4849fbd92da40363fa00f59b1",
    "triangle --family WL --nmax 128 --format json": "410a55490d32042d5f9f0abb2ceb1488dc3f23f46192bbaf74e668f81b29a94e",
}


def test_every_family_at_its_cap_prints_its_pinned_bytes(capsys):
    assert [key.split()[2] for key in CAP_DIGESTS if key.startswith("poly")] == list(series.FAMILIES)
    for key, digest in CAP_DIGESTS.items():
        args = key.split()
        if args[0] == "poly":
            assert args[-1] == str(series.FAMILIES[args[2]].cap), key
        assert cli.main(args) == 0, key
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, key


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


def test_the_full_report_prints_the_same_bytes_under_two_hash_seeds():
    # no set or dict order that string hashing decides reaches the report
    reports = [subprocess.run(CLI + ["verify", "--suite", "all"], capture_output=True, timeout=600,
                              env=dict(os.environ, PYTHONHASHSEED=seed)) for seed in ("0", "12345")]
    assert [r.returncode for r in reports] == [0, 0]
    assert reports[0].stdout and reports[0].stdout == reports[1].stdout


def test_jobs_env_variable_is_ignored():
    # PEAKPOLY_JOBS is no longer read: even a value that is not a number
    # leaves the exit code and the output as they are without it
    argv = CLI + ["oracle", "--stat", "pk", "--n", "5"]
    res = subprocess.run(argv, capture_output=True, text=True, env=dict(os.environ, PEAKPOLY_JOBS="abc"), timeout=600)
    assert res.returncode == 0
    assert res.stdout == subprocess.run(argv, capture_output=True, text=True, timeout=600).stdout


def test_a_verify_request_plans_its_checks_once(monkeypatch, capsys):
    calls = []
    real_plan = identities.plan
    monkeypatch.setattr(identities, "plan", lambda suite, ranges: calls.append(suite) or real_plan(suite, ranges))
    # and each passes: gf at its least order, the oracle suite at its cap with either --jobs
    requests = [["clt", "--nmax", "5"], ["gf", "--nmax", "1"], *(["oracle", "--nmax", "10", "--jobs", j] for j in "12")]
    reports = []
    for args in requests:
        assert cli.main(["verify", "--suite", *args]) == 0, args
        reports.append(capsys.readouterr().out)
    assert calls == ["clt", "gf", "oracle", "oracle"]
    assert reports[2] == reports[3]


def test_verify_exit_code_one_on_failure(monkeypatch, capsys):
    failing = [
        identities.CheckResult(
            "root_structure", (1, 2), "fail", identities.Witness(2, 0, "1", "2")
        )
    ]
    monkeypatch.setattr(identities, "run", lambda suite, **ranges: failing)
    code = cli.main(["verify", "--suite", "roots", "--nmax", "2"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["aggregate"] == "fail"
    assert doc["results"][0]["witness"] == {"n": 2, "index": 0, "lhs": "1", "rhs": "2"}


def test_verify_ranges_above_their_caps_exit_3_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(identities, "_aggregate", no_work)
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
        assert capsys.readouterr() == ("", f"peakpoly: {message}\n"), args


# The contract of `verify`, stated apart from the CLI: the knob --nmax sets
# for each suite, and the lowest value of a knob that leaves each suite's
# checks something to run over (mode_bracket starts at n = 2, clt_moments at 4).
NMAX_KNOB = {"all": "nmax_exact", "identities": "nmax_exact", "gf": "gf_order",
             "roots": "roots_nmax", "clt": "clt_nmax", "oracle": "oracle_nmax"}
LOWEST = {"roots_nmax": ("roots", 2), "clt_nmax": ("clt", 4)}
FLAGGED = [knob for knob in identities.RANGES if knob.flag]


@settings(max_examples=150, deadline=None)
@given(
    suite=st.sampled_from(sorted(NMAX_KNOB)),
    flags=st.fixed_dictionaries({}, optional={knob.name: st.integers(-2, knob.cap + 2) for knob in FLAGGED}),
    nmax=st.none() | st.integers(-2, 12) | st.integers(-2, 130),
    jobs=st.sampled_from([None, "1", "2", "0", "-2", "x"]),
)
@example(suite="clt", flags={}, nmax=3, jobs=None)
@example(suite="clt", flags={"clt_nmax": 1}, nmax=None, jobs=None)
@example(suite="all", flags={"clt_nmax": 2}, nmax=None, jobs=None)
@example(suite="roots", flags={}, nmax=1, jobs=None)
@example(suite="roots", flags={"roots_nmax": 1}, nmax=None, jobs=None)
@example(suite="all", flags={"roots_nmax": 1}, nmax=None, jobs=None)
def test_verify_exit_code_and_ranges_follow_the_request(suite, flags, nmax, jobs):
    argv = ["verify", "--suite", suite]
    for knob in FLAGGED:
        if knob.name in flags:
            argv += [knob.flag, str(flags[knob.name])]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    if jobs is not None:
        argv += ["--jobs", jobs]
    ranges = {knob.name: flags.get(knob.name, knob.default) for knob in identities.RANGES}
    if nmax is not None:
        ranges[NMAX_KNOB[suite]] = nmax
    given = [*flags.values(), *([] if nmax is None else [nmax])]
    below = any(value < 1 for value in given) or jobs not in (None, "1", "2")
    empty = any(suite in ("all", owner) and ranges[knob] < lowest for knob, (owner, lowest) in LOWEST.items())
    above = any(ranges[knob.name] > knob.cap for knob in identities.RANGES)
    expected = 2 if below or empty else 3 if above else 0

    # the real run, whose plan refuses the request before any check; every check passes unrun
    calls = []
    real_run = identities.run

    def recorded_run(suite, **ranges):
        results = real_run(suite, **ranges)
        calls.append((suite, ranges))
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "_aggregate",
                   lambda check_id, n_range, *_: identities.CheckResult(check_id, n_range, "pass"))
        mp.setattr(identities, "run", recorded_run)
        res = run(*argv)
    assert res.returncode == expected, (argv, res.stderr)
    if res.returncode == 0:
        assert calls == [(suite, ranges)]
        assert json.loads(res.stdout)["configuration"] == {"suite": suite, **ranges}
    else:
        assert calls == [] and res.stdout == ""


# The contract of `poly`, `triangle` and `oracle`: the lowest and highest n of
# each family (the family table) and statistic (the enumeration caps).
ORACLE_CAPS = {stat: SIGNED_LIMIT if stat in ("desb", "ades") else S_N_LIMIT for stat in cli.ORACLE_STATS}


def _int(text):
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(["poly", "triangle", "oracle"]))
def test_poly_triangle_oracle_exit_code_follows_the_request(data, command):
    if command == "oracle":
        name = data.draw(st.sampled_from([*cli.ORACLE_STATS, "zz"]), label="stat")
        lo, cap = 1, ORACLE_CAPS.get(name, S_N_LIMIT)
        argv, malformed = ["oracle", "--stat", name], name not in ORACLE_CAPS
    else:
        names = [f for f, family in series.FAMILIES.items() if command == "poly" or "triangle" in family.routes]
        name = data.draw(st.sampled_from([*names, "X"]), label="family")
        lo, cap = (series.FAMILIES[name].min_n, series.FAMILIES[name].cap) if name in names else (0, 64)
        fmt = data.draw(st.sampled_from(["csv", "json", "xml"]), label="format")
        argv, malformed = [command, "--family", name, "--format", fmt], name not in names or fmt == "xml"
    value = data.draw(st.integers(-2, cap + 2).map(str) | st.sampled_from(["x", "1.5", ""]), label="n")
    argv += ["--nmax" if command == "triangle" else "--n", value]
    n = _int(value)
    below = n is None or n < lo
    if command == "oracle":  # --jobs is used only here
        flag_jobs = data.draw(st.sampled_from([None, "1", "2", "0", "-2", "x"]), label="--jobs")
        argv += [] if flag_jobs is None else ["--jobs", flag_jobs]
        jobs = _int(flag_jobs or "1")
        below = below or jobs is None or jobs < 1
    expected = 2 if malformed or below else 3 if n > cap else 0

    res = run(*argv)
    assert res.returncode in (0, 1, 2, 3)
    assert res.returncode == expected, (argv, res.stderr)
    assert (res.stdout != "") == (res.returncode == 0)


# the family whose poly prints each statistic's row; alt prints the last entry of R_n
ORACLE_FAMILY = {"pk": "W", "lpk": "WL", "des": "A", "desb": "C", "ades": "CT", "alt": "R"}


def test_oracle_prints_the_row_of_its_family_at_every_n_to_its_cap():
    assert list(ORACLE_FAMILY) == list(cli.ORACLE_STATS)
    for stat, family in ORACLE_FAMILY.items():
        for n in range(1, ORACLE_CAPS[stat] + 1):
            row = run("poly", "--family", family, "--n", str(n))
            expected = row.stdout.split(",")[-1] if stat == "alt" else row.stdout
            for jobs in ("1", "2"):
                res = run("oracle", "--stat", stat, "--n", str(n), "--jobs", jobs)
                assert (res.returncode, res.stdout, res.stderr) == (0, expected, ""), (stat, n, jobs)
