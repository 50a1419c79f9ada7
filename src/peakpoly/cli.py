"""Command-line interface.

Subcommands: triangle, poly, oracle, verify.  All output is deterministic:
the same invocation produces byte-identical output.  Enumeration runs in this
process; --jobs is still accepted and validated, but changes neither the
work nor the output.

Exit codes: 0 success, 1 verification failure or error, 2 usage error, 3
limit exceeded.  The families, their minimum n and their caps come from the family
table, series.FAMILIES; the verify checks from one table, identities.CHECKS,
which a suite filters; the range knobs, their flags, defaults and caps from
identities.RANGES.  The parser rejects a count flag (oracle --n, --jobs, the
verify ranges) that is not an integer >= 1; a family's minimum n and a verify
range that leaves a selected check empty (clt below 4, roots below 2) are
reported through the command's own parser, so each usage error (exit 2) prints
the usage of its command.  Then, before any work, a value above its cap exits 3.
`verify` leaves its ranges to identities.run, whose one gate refuses them before
any check: its ValueError is the usage error, its LimitExceeded exits 3.

A request imports only the layers its command runs, as the parser gives
arguments only to the command it names: `oracle` loads permutations, `poly`
and `triangle` the family table (series, families, polynomial, permutations),
`verify` every layer, and `--version`, `--help` or a top-level usage error none.

main(argv) runs one request in process: it calls the handler that the parser of
its command carries, and returns the handler's exit code.  Every way of starting
a process (`python -m peakpoly`, this module as a script, the `peakpoly` console
script) goes through entry(), which, unless a tracer, a profiler or `python -i`
watches it, ends the process as soon as stdout and stderr are flushed, without
interpreter teardown.  Output and exit codes are those of the normal exit.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import LimitExceeded, __version__

COMMANDS = ("triangle", "poly", "oracle", "verify")
ORACLE_STATS = ("pk", "lpk", "des", "desb", "ades", "alt")


def count(text: str) -> int:
    """The type of every count flag: an integer >= 1, else a usage error.
    A non-integer keeps argparse's own `invalid int value` text."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """Every command with its help; arguments, and their layers, only for `commands`."""
    parser = argparse.ArgumentParser(
        prog="peakpoly",
        description="Exact peak-statistic families: triangles, polynomials, verification.",
    )
    parser.add_argument("--version", action="version", version=f"peakpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_tri = sub.add_parser("triangle", help="print rows of a coefficient triangle")
    p_poly = sub.add_parser("poly", help="print one family polynomial, coefficients ascending")
    p_oracle = sub.add_parser("oracle", help="brute-force statistic distribution")
    p_verify = sub.add_parser("verify", help="run verification suites, JSON report on stdout")
    for command_parser, handler in ((p_tri, cmd_triangle), (p_poly, cmd_poly), (p_oracle, cmd_oracle),
                                    (p_verify, cmd_verify)):  # each parser reports its handler's usage errors
        command_parser.set_defaults(handler=handler, command_parser=command_parser)
    if "triangle" in commands or "poly" in commands:
        from . import series
    if "triangle" in commands:
        triangles = [name for name, family in series.FAMILIES.items() if "triangle" in family.routes]
        p_tri.add_argument("--family", required=True, choices=triangles)
        p_tri.add_argument("--nmax", required=True, type=int)
        p_tri.add_argument("--format", default="csv", choices=("csv", "json"))
    if "poly" in commands:
        p_poly.add_argument("--family", required=True, choices=tuple(series.FAMILIES))
        p_poly.add_argument("--n", required=True, type=int)
        p_poly.add_argument("--format", default="csv", choices=("csv", "json"))
    if "oracle" in commands:
        p_oracle.add_argument("--stat", required=True, choices=ORACLE_STATS)
        p_oracle.add_argument("--n", required=True, type=count)
        p_oracle.add_argument("--jobs", type=count, default=1)
    if "verify" in commands:
        from . import identities

        p_verify.add_argument("--suite", default="all", choices=[s for knob in identities.RANGES for s in knob.nmax_of])
        p_verify.add_argument("--nmax", type=count, default=None, help="range for the selected suite")
        for knob in identities.RANGES:
            if knob.flag:
                p_verify.add_argument(knob.flag, type=count, default=knob.default)
        p_verify.add_argument("--jobs", type=count, default=1)
    return parser


def _emit_rows(rows, fmt: str) -> None:
    if fmt == "csv":
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        import json

        print(json.dumps([[str(v) for v in row] for row in rows]))


def _family(name: str, flag: str, n: int, parser) -> series.Family:
    """The family table entry, once n is within its minimum and cap."""
    from . import series

    family = series.FAMILIES[name]
    if n < family.min_n:
        parser.error(f"argument {flag}: must be >= {family.min_n} for family {name}, not {n}")
    if n > family.cap:
        raise LimitExceeded(f"{flag} {n} above cap {family.cap} for family {name}")
    return family


def cmd_triangle(args, parser) -> int:
    family = _family(args.family, "--nmax", args.nmax, parser)
    row = family.routes["triangle"]
    _emit_rows([row(n).coeffs for n in range(family.min_n, args.nmax + 1)], args.format)
    return 0


def cmd_poly(args, parser) -> int:
    p = _family(args.family, "--n", args.n, parser).poly(args.n)
    coeffs = p.coeffs if p.coeffs else ("0",)
    _emit_rows([coeffs], args.format)
    return 0


def cmd_oracle(args, parser) -> int:
    from . import permutations

    if args.stat == "alt":
        row = (permutations.count_alternating(args.n),)
    elif args.stat in ("desb", "ades"):
        stat = "des_b" if args.stat == "desb" else "ades"
        row = permutations.signed_distribution(args.n, stat).counts
    else:
        row = permutations.distribution(args.n, args.stat).counts
    _emit_rows([row], "csv")
    return 0


def cmd_verify(args, parser) -> int:
    import json

    from . import identities

    ranges = {knob.name: getattr(args, knob.name, knob.default) for knob in identities.RANGES}
    if args.nmax is not None:
        ranges[next(knob.name for knob in identities.RANGES if args.suite in knob.nmax_of)] = args.nmax
    try:
        results = identities.run(args.suite, **ranges)
    except LimitExceeded:  # a knob above its cap, once every check has an n: exit 3
        raise
    except ValueError as exc:  # a selected check with no n to run over
        parser.error(str(exc))
    report = {
        "tool_version": __version__,
        "configuration": {"suite": args.suite, **ranges},
        "results": [r.to_json() for r in results],
        "aggregate": identities.aggregate_verdict(results),
    }
    print(json.dumps(report, indent=2))
    return 0 if report["aggregate"] == "pass" else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no top-level option takes a value, so the first other token is the command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser((command,) if command in COMMANDS else ()).parse_args(argv)
    try:
        return args.handler(args, args.command_parser)
    except LimitExceeded as exc:
        print(f"peakpoly: {exc}", file=sys.stderr)
        return 3


def _watched() -> bool:
    """A tracer, a profiler, a sys.monitoring tool or `python -i` waits for the normal end."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, tool ids 0-5
    return (
        sys.gettrace() is not None or sys.getprofile() is not None or bool(sys.flags.inspect)
        or (monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6)))
    )


def entry() -> None:
    """Run main() as a process and, unless it is watched, end it once stdout and stderr are flushed.

    The code is main()'s or argparse's (0 for --help and --version, 2 for a usage error).  A
    failed flush (Python reports it and exits 120) or a watched process takes the normal exit."""
    try:
        code = main()
    except SystemExit as exc:  # --help, --version, usage errors
        code = exc.code
    if not _watched():
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:  # reported again, and as always, by the normal exit
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
