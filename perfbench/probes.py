"""Layer probes: Poly multiplication, divmod and Horner evaluation of R_d.

Usage: python perfbench/probes.py

Times each operation on the tan+sec polynomial R_d (degree d) for d = 50,
100 and 200: R_d * R_(d-1); divmod of R_d by (1+x)^(floor(d/2)+1), the
division behind the reduced polynomial G_d; and R_d(-1/3).  Prints one
JSON object of per-operation medians in seconds, named like
`probe.poly_mul_d100_s`.  The benchmark runs this only in its
traced pass, in a process of its own, so the probes never touch the
end-to-end numbers.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

DEGREES = (50, 100, 200)
MIN_REPEATS = 5
MIN_PROBE_S = 0.05  # keep repeating a probe until it has run this long


def _median_time(op) -> float:
    times = []
    while len(times) < MIN_REPEATS or sum(times) < MIN_PROBE_S:
        t0 = perf_counter()
        op()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    from peakpoly import families

    rs = families.tan_sec_polys(max(DEGREES))
    x = Fraction(-1, 3)
    out = {}
    for d in DEGREES:
        r, prev = rs[d], rs[d - 1]
        factor = families.ONE_PLUS_X ** (d // 2 + 1)
        out[f"probe.poly_mul_d{d}_s"] = _median_time(lambda: r * prev)
        out[f"probe.poly_divmod_d{d}_s"] = _median_time(lambda: divmod(r, factor))
        out[f"probe.poly_eval_d{d}_s"] = _median_time(lambda: r(x))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
