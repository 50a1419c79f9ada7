"""Command-line interface.

Subcommands: triangle, poly, oracle, verify.  All output is deterministic:
the same invocation produces byte-identical output.  Enumeration runs in this
process; --jobs / PEAKPOLY_JOBS is still accepted and validated, but changes
neither the work nor the output.

Exit codes: 0 success, 1 verification failure or error, 2 usage error, 3
limit exceeded.  The families, their minimum n and their caps come from the family
table, series.FAMILIES; every verify range has a cap (VERIFY_CAPS) checked
before any work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, identities, permutations, series
from .permutations import S_N_LIMIT, SIGNED_LIMIT, LimitExceeded

ORACLE_STATS = ("pk", "lpk", "des", "desb", "ades", "alt")
# the verify suites, each with the configuration entry its --nmax sets
SUITES = {
    "all": "nmax_exact", "identities": "nmax_exact", "gf": "gf_order",
    "roots": "roots_nmax", "clt": "clt_nmax", "oracle": "oracle_nmax",
}
# The largest value of each verify range: the enumeration caps, the highest
# solved z-order (the identities suite solves C to order nmax_exact for its
# Dilks GF checks), 64 for roots, whose Sturm certification grows steeply
# with n, and the cap of R for clt.
VERIFY_CAPS = {
    "nmax_exact": series.MAX_ORDER,
    "oracle_nmax": S_N_LIMIT,
    "signed_nmax": SIGNED_LIMIT,
    "gf_order": series.MAX_ORDER,
    "roots_nmax": 64,
    "clt_nmax": series.FAMILIES["R"].cap,
}


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
    p_verify.add_argument("--suite", default="all", choices=tuple(SUITES))
    p_verify.add_argument("--nmax", type=int, default=None, help="range for the selected suite")
    p_verify.add_argument("--oracle-nmax", type=int, default=identities.DEFAULT_ORACLE_NMAX)
    p_verify.add_argument("--signed-nmax", type=int, default=identities.DEFAULT_SIGNED_NMAX)
    p_verify.add_argument("--gf-order", type=int, default=identities.DEFAULT_GF_ORDER)
    p_verify.add_argument("--roots-nmax", type=int, default=identities.DEFAULT_ROOTS_NMAX)
    p_verify.add_argument("--clt-nmax", type=int, default=identities.DEFAULT_CLT_NMAX)
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
    for name in ("oracle_nmax", "signed_nmax", "gf_order", "roots_nmax", "clt_nmax"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    if args.nmax is not None and args.nmax < 1:
        parser.error("--nmax must be >= 1")
    _check_jobs(args, parser)

    config = {
        "suite": args.suite,
        "nmax_exact": identities.DEFAULT_NMAX_EXACT,
        "oracle_nmax": args.oracle_nmax,
        "signed_nmax": args.signed_nmax,
        "gf_order": args.gf_order,
        "roots_nmax": args.roots_nmax,
        "clt_nmax": args.clt_nmax,
    }
    if args.nmax is not None:
        config[SUITES[args.suite]] = args.nmax
    for name, cap in VERIFY_CAPS.items():
        if config[name] > cap:
            raise LimitExceeded(f"{name} {config[name]} above cap {cap}")

    if args.suite == "all":
        ranges = {name: value for name, value in config.items() if name != "suite"}
        results = identities.run_all(**ranges)
    elif args.suite == "identities":
        results = identities.run_identity_suite(config["nmax_exact"], config["signed_nmax"])
    elif args.suite == "gf":
        results = identities.run_gf_suite(config["gf_order"])
    elif args.suite == "roots":
        results = identities.run_roots_suite(config["roots_nmax"])
    elif args.suite == "clt":
        results = identities.run_clt_suite(config["clt_nmax"])
    else:
        results = identities.run_oracle_suite(config["oracle_nmax"], config["signed_nmax"])

    report = {
        "tool_version": __version__,
        "configuration": config,
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
