"""Seeded request lists for the benchmark workloads.

A request is a CLI invocation: the argv after `python -m peakpoly`.  The seed
draws the inputs; the package only ever sees the generated requests.

Seeds must change the inputs without changing how much work a pass is, or
the median over seeds would measure the seed and not the code.  So seeded
sizes are drawn with `spread`: one value per equal cell of the range, at an
offset mirrored in alternate cells, which keeps the pass cost nearly
seed-independent.  Sizes whose cost grows steeply use narrow ranges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JOBS_FLAG = "--jobs"


@dataclass(frozen=True)
class Request:
    """One request; requests sharing a `pair` key must print the same bytes."""

    args: tuple[str, ...]
    pair: str | None = None

    @property
    def key(self) -> str:
        """Reference-output key: the request without its worker count."""
        args = list(self.args)
        if JOBS_FLAG in args:
            i = args.index(JOBS_FLAG)
            del args[i : i + 2]
        return " ".join(args)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nominal_pass_s: float  # pass wall time at the baseline commit on a 2-core box
    min_passes: int  # verify needs 2 to run `--suite all` with both worker counts


def spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` distinct integers covering [lo, hi] evenly, in seeded order.

    The range is cut into `count` equal cells; even cells take the value at
    a seeded offset from their bottom and odd cells the same offset from
    their top, so neighbouring pairs cost about the same on every seed.
    """
    if count < 1 or hi - lo + 1 < count:
        raise ValueError(f"cannot spread {count} values over [{lo}, {hi}]")
    edges = [lo + round(k * (hi - lo + 1) / count) for k in range(count + 1)]
    u = rng.random()
    out = []
    for k in range(count):
        a, b = edges[k], edges[k + 1] - 1
        r = int(u * (b - a + 1))
        out.append(a + r if k % 2 == 0 else b - r)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# verify: the flagship path, the only one touching every layer
# ---------------------------------------------------------------------------

# Three single-suite requests per suite and pass.  The ranges sit at the low
# end of what the CLI accepts so a pass fits the run; the signed enumeration
# at the default 7 is paid once per pass by the `--suite all` request, so
# single suites lower it to 5.
VERIFY_SUITES = {
    "identities": (7, 10),
    "gf": (10, 13),
    "roots": (13, 17),
    "clt": (20, 30),
    "oracle": (5, 7),
}
SIGNED_SUITES = ("identities", "gf", "oracle")
VERIFY_SINGLE_SIGNED_NMAX = 5
VERIFY_PER_SUITE = 3


def _single_suite(suite: str, k: int) -> Request:
    args = ("verify", "--suite", suite, "--nmax", str(k))
    if suite in SIGNED_SUITES:
        args += ("--signed-nmax", str(VERIFY_SINGLE_SIGNED_NMAX))
    return Request(args)


def verify_passes(rng: random.Random, passes: int) -> list[list[Request]]:
    """Every pass runs the same singles plus `verify --suite all` at default
    limits, with --jobs 1 on even passes and --jobs 2 on odd ones; those
    reports form a pair that must be byte-identical."""
    singles = [
        _single_suite(suite, k)
        for suite, (lo, hi) in VERIFY_SUITES.items()
        for k in spread(rng, lo, hi, VERIFY_PER_SUITE)
    ]
    rng.shuffle(singles)
    slot = rng.randrange(len(singles) + 1)
    plan = []
    for p in range(passes):
        full = Request(("verify", "--suite", "all", JOBS_FLAG, str(1 + p % 2)), pair="verify all")
        plan.append(singles[:slot] + [full] + singles[slot:])
    return plan


# ---------------------------------------------------------------------------
# oracle_enum: brute-force enumeration only, the bypass for every Poly change
# ---------------------------------------------------------------------------

ORACLE_SPACE = (("pk", (9, 10)), ("lpk", (9, 10)), ("des", (9, 10)), ("alt", (9, 10)),
                ("desb", (6, 7)), ("ades", (6, 7)))


def oracle_passes(rng: random.Random, passes: int) -> list[list[Request]]:
    """The whole 24-request space (each (stat, n) with --jobs 1 and 2) in a
    seeded order; the seed also picks which worker count runs first."""
    reqs = []
    for stat, sizes in ORACLE_SPACE:
        for n in sizes:
            pair = [
                Request(("oracle", "--stat", stat, "--n", str(n), JOBS_FLAG, str(j)), pair=f"oracle {stat} {n}")
                for j in (1, 2)
            ]
            rng.shuffle(pair)
            reqs.append(pair)
    rng.shuffle(reqs)
    flat = [r for pair in reqs for r in pair]
    return [flat] * passes


WORKLOADS = {
    "verify": Workload(
        "verify",
        "flagship verify path, the only one touching every layer; --suite all alternates --jobs 1 and 2",
        10.0, 2,
    ),
    "oracle_enum": Workload(
        "oracle_enum",
        "brute-force oracle over S_n and signed windows with --jobs 1 and 2: enumeration and pools, no Poly work",
        20.0, 1,
    ),
}

_BUILDERS = {
    "verify": verify_passes,
    "oracle_enum": oracle_passes,
}


def pass_count(workload: str, seconds: float) -> int:
    """Passes in one run: fixed by the run length, never by the code's speed,
    so both sides of a comparison time the same requests."""
    w = WORKLOADS[workload]
    return max(w.min_passes, round(seconds / w.nominal_pass_s))


def plan(workload: str, seed: int, passes: int) -> list[list[Request]]:
    """The request list of every pass of one run."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, passes)


def request_space(workload: str) -> list[Request]:
    """Every distinct request (up to --jobs) any seed can generate."""
    if workload == "verify":
        return [Request(("verify", "--suite", "all", JOBS_FLAG, "1"))] + [
            _single_suite(suite, k) for suite, (lo, hi) in VERIFY_SUITES.items() for k in range(lo, hi + 1)
        ]
    return [Request(("oracle", "--stat", s, "--n", str(n))) for s, sizes in ORACLE_SPACE for n in sizes]
