"""Command-line interface.

Subcommands: triangle, poly, oracle, verify.  All output is deterministic:
the same invocation produces byte-identical output, regardless of the worker
count (--jobs / PEAKPOLY_JOBS only changes how enumeration work is sharded).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 limit
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, families, identities, permutations
from .permutations import S_N_LIMIT, SIGNED_LIMIT, LimitExceeded

RECURRENCE_CAP = 128
GF_CAP = 64

TRIANGLE_FAMILIES = ("R", "W", "WL")
POLY_FAMILIES = ("P", "Q", "A", "R", "G", "T", "C", "CT", "W", "WL")
ORACLE_STATS = ("pk", "lpk", "des", "desb", "ades", "alt")
SUITES = ("all", "identities", "gf", "roots", "clt", "oracle")


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("PEAKPOLY_JOBS", "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakpoly",
        description="Exact peak-statistic families: triangles, polynomials, verification.",
    )
    parser.add_argument("--version", action="version", version=f"peakpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print rows of a coefficient triangle")
    p_tri.add_argument("--family", required=True, choices=TRIANGLE_FAMILIES)
    p_tri.add_argument("--nmax", required=True, type=int)
    p_tri.add_argument("--format", default="csv", choices=("csv", "json"))

    p_poly = sub.add_parser("poly", help="print one family polynomial, coefficients ascending")
    p_poly.add_argument("--family", required=True, choices=POLY_FAMILIES)
    p_poly.add_argument("--n", required=True, type=int)
    p_poly.add_argument("--format", default="csv", choices=("csv", "json"))

    p_oracle = sub.add_parser("oracle", help="brute-force statistic distribution")
    p_oracle.add_argument("--stat", required=True, choices=ORACLE_STATS)
    p_oracle.add_argument("--n", required=True, type=int)
    p_oracle.add_argument("--jobs", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run verification suites, JSON report on stdout")
    p_verify.add_argument("--suite", default="all", choices=SUITES)
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


def cmd_triangle(args, parser) -> int:
    if args.family == "R" and args.nmax < 0:
        parser.error("--nmax must be >= 0 for family R")
    if args.family in ("W", "WL") and args.nmax < 1:
        parser.error("--nmax must be >= 1 for families W and WL")
    if args.nmax > RECURRENCE_CAP:
        raise LimitExceeded(f"--nmax above cap {RECURRENCE_CAP}")
    if args.family == "R":
        rows = families.tan_sec_triangle(args.nmax)
    elif args.family == "W":
        rows = families.peak_triangle(args.nmax)
    else:
        rows = families.left_peak_triangle(args.nmax)
    _emit_rows(rows, args.format)
    return 0


def _poly_for(family: str, n: int, parser) -> "families.Poly":
    if family in ("P", "Q", "R") and n < 0:
        parser.error(f"--n must be >= 0 for family {family}")
    if family in ("A", "G", "T", "C", "CT", "W", "WL") and n < 1:
        parser.error(f"--n must be >= 1 for family {family}")
    if family in ("C", "CT", "T"):
        if n > GF_CAP:
            raise LimitExceeded(f"--n above cap {GF_CAP} for family {family}")
    elif n > RECURRENCE_CAP:
        raise LimitExceeded(f"--n above cap {RECURRENCE_CAP}")
    if family == "P":
        return families.tangent_derivative_poly(n)
    if family == "Q":
        return families.secant_derivative_poly(n)
    if family == "A":
        return families.eulerian_poly(n)
    if family == "R":
        return families.tan_sec_poly(n)
    if family == "G":
        return families.reduced_tan_sec_poly(n)
    if family == "T":
        return families.signed_interleave_poly(n)
    if family == "C":
        return families.type_b_eulerian_poly(n)
    if family == "CT":
        return families.affine_eulerian_poly(n)
    if family == "W":
        return families.peak_poly(n)
    return families.left_peak_poly(n)


def cmd_poly(args, parser) -> int:
    p = _poly_for(args.family, args.n, parser)
    coeffs = p.coeffs if p.coeffs else ("0",)
    _emit_rows([coeffs], args.format)
    return 0


def cmd_oracle(args, parser) -> int:
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.stat == "alt":
        print(permutations.count_alternating(args.n, limit=S_N_LIMIT, jobs=jobs))
        return 0
    if args.stat in ("desb", "ades"):
        stat = "des_b" if args.stat == "desb" else "ades"
        dist = permutations.signed_distribution(args.n, stat, limit=SIGNED_LIMIT, jobs=jobs)
    else:
        dist = permutations.distribution(args.n, args.stat, limit=S_N_LIMIT, jobs=jobs)
    print(",".join(str(c) for c in dist.counts))
    return 0


def cmd_verify(args, parser) -> int:
    for name in ("oracle_nmax", "signed_nmax", "gf_order", "roots_nmax", "clt_nmax"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    if args.nmax is not None and args.nmax < 1:
        parser.error("--nmax must be >= 1")
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if jobs < 1:
        parser.error("--jobs must be >= 1")

    nmax_exact = identities.DEFAULT_NMAX_EXACT
    oracle_nmax = args.oracle_nmax
    signed_nmax = args.signed_nmax
    gf_order = args.gf_order
    roots_nmax = args.roots_nmax
    clt_nmax = args.clt_nmax
    if args.nmax is not None:
        if args.suite in ("all", "identities"):
            nmax_exact = args.nmax
        elif args.suite == "gf":
            gf_order = args.nmax
        elif args.suite == "roots":
            roots_nmax = args.nmax
        elif args.suite == "clt":
            clt_nmax = args.nmax
        else:
            oracle_nmax = args.nmax

    if args.suite == "all":
        results = identities.run_all(
            nmax_exact, oracle_nmax, signed_nmax, gf_order, roots_nmax, clt_nmax, jobs
        )
    elif args.suite == "identities":
        results = identities.run_identity_suite(nmax_exact, signed_nmax, jobs)
    elif args.suite == "gf":
        results = identities.run_gf_suite(gf_order, signed_nmax, jobs)
    elif args.suite == "roots":
        results = identities.run_roots_suite(roots_nmax)
    elif args.suite == "clt":
        results = identities.run_clt_suite(clt_nmax)
    else:
        results = identities.run_oracle_suite(oracle_nmax, signed_nmax, jobs)

    report = {
        "tool_version": __version__,
        "configuration": {
            "suite": args.suite,
            "nmax_exact": nmax_exact,
            "oracle_nmax": oracle_nmax,
            "signed_nmax": signed_nmax,
            "gf_order": gf_order,
            "roots_nmax": roots_nmax,
            "clt_nmax": clt_nmax,
        },
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
