"""Command-line interface.

Subcommands: triangle, poly, oracle, verify.  All output is deterministic:
the same invocation produces byte-identical output.  Enumeration runs in this
process; --jobs / PEAKPOLY_JOBS is still accepted and validated, but changes
neither the work nor the output.

Exit codes: 0 success, 1 verification failure or error, 2 usage error, 3
limit exceeded.  The families, their minimum n and their caps come from the family
table, series.FAMILIES; the verify checks from one table, identities.CHECKS,
which a suite filters; the range knobs, their flags, defaults and caps from
identities.RANGES.  Before any work, a knob below 1 or leaving a selected check
empty (clt below 4, roots below 2) exits 2, and a knob above its cap exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, identities, permutations, series
from .permutations import LimitExceeded

ORACLE_STATS = ("pk", "lpk", "des", "desb", "ades", "alt")


def _check_jobs(args, parser) -> None:
    """--jobs, else PEAKPOLY_JOBS, must be an integer >= 1, else a usage error.

    Enumeration is serial, so a valid value is accepted for the sake of
    existing invocations and otherwise ignored."""
    name, jobs = "--jobs", args.jobs
    if jobs is None:
        name, raw = "PEAKPOLY_JOBS", os.environ.get("PEAKPOLY_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            parser.error(f"PEAKPOLY_JOBS must be an integer, got {raw!r}")
    if jobs < 1:
        parser.error(f"{name} must be >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakpoly",
        description="Exact peak-statistic families: triangles, polynomials, verification.",
    )
    parser.add_argument("--version", action="version", version=f"peakpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print rows of a coefficient triangle")
    triangles = [name for name, family in series.FAMILIES.items() if "triangle" in family.routes]
    p_tri.add_argument("--family", required=True, choices=triangles)
    p_tri.add_argument("--nmax", required=True, type=int)
    p_tri.add_argument("--format", default="csv", choices=("csv", "json"))

    p_poly = sub.add_parser("poly", help="print one family polynomial, coefficients ascending")
    p_poly.add_argument("--family", required=True, choices=tuple(series.FAMILIES))
    p_poly.add_argument("--n", required=True, type=int)
    p_poly.add_argument("--format", default="csv", choices=("csv", "json"))

    p_oracle = sub.add_parser("oracle", help="brute-force statistic distribution")
    p_oracle.add_argument("--stat", required=True, choices=ORACLE_STATS)
    p_oracle.add_argument("--n", required=True, type=int)
    p_oracle.add_argument("--jobs", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run verification suites, JSON report on stdout")
    p_verify.add_argument("--suite", default="all", choices=[s for knob in identities.RANGES for s in knob.nmax_of])
    p_verify.add_argument("--nmax", type=int, default=None, help="range for the selected suite")
    for knob in identities.RANGES:
        if knob.flag:
            p_verify.add_argument(knob.flag, type=int, default=knob.default)
    p_verify.add_argument("--jobs", type=int, default=None)
    return parser


def _emit_rows(rows, fmt: str) -> None:
    if fmt == "csv":
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        print(json.dumps([[str(v) for v in row] for row in rows]))


def _family(name: str, flag: str, n: int, parser) -> series.Family:
    """The family table entry, once n is within its minimum and cap."""
    family = series.FAMILIES[name]
    if n < family.min_n:
        parser.error(f"{flag} must be >= {family.min_n} for family {name}")
    if n > family.cap:
        raise LimitExceeded(f"{flag} above cap {family.cap} for family {name}")
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
    if args.n < 1:
        parser.error("--n must be >= 1")
    _check_jobs(args, parser)
    if args.stat == "alt":
        print(permutations.count_alternating(args.n))
        return 0
    if args.stat in ("desb", "ades"):
        stat = "des_b" if args.stat == "desb" else "ades"
        dist = permutations.signed_distribution(args.n, stat)
    else:
        dist = permutations.distribution(args.n, args.stat)
    print(",".join(str(c) for c in dist.counts))
    return 0


def cmd_verify(args, parser) -> int:
    ranges = {knob.name: getattr(args, knob.name, knob.default) for knob in identities.RANGES}
    for knob in identities.RANGES:
        if ranges[knob.name] < 1:
            parser.error(f"{knob.flag} must be >= 1")
    if args.nmax is not None and args.nmax < 1:
        parser.error("--nmax must be >= 1")
    _check_jobs(args, parser)
    if args.nmax is not None:
        ranges[next(knob.name for knob in identities.RANGES if args.suite in knob.nmax_of)] = args.nmax
    try:
        identities.plan(args.suite, ranges)
    except ValueError as exc:  # a selected check with no n to run over
        parser.error(str(exc))
    for knob in identities.RANGES:
        if ranges[knob.name] > knob.cap:
            raise LimitExceeded(f"{knob.name} {ranges[knob.name]} above cap {knob.cap}")

    results = identities.run(args.suite, **ranges)
    report = {
        "tool_version": __version__,
        "configuration": {"suite": args.suite, **ranges},
        "results": [r.to_json() for r in results],
        "aggregate": identities.aggregate_verdict(results),
    }
    print(json.dumps(report, indent=2))
    return 0 if report["aggregate"] == "pass" else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "triangle":
            return cmd_triangle(args, parser)
        if args.command == "poly":
            return cmd_poly(args, parser)
        if args.command == "oracle":
            return cmd_oracle(args, parser)
        return cmd_verify(args, parser)
    except LimitExceeded as exc:
        print(f"peakpoly: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
