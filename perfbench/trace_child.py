"""One traced CLI request: `python -m peakpoly ARGS` with the tracer installed.

Usage: python perfbench/trace_child.py PREFIX ARGS...

Behaves like `python -m peakpoly ARGS` (same stdout, same exit code) and
writes the request's spans and counts to PREFIX.* when `cli.main` returns.
"""

from __future__ import annotations

import sys
from time import perf_counter

from tracer import Tracer


def main() -> None:
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from peakpoly import cli

    t0 = perf_counter()
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(prefix, top_s=perf_counter() - t0)
    sys.exit(code)


if __name__ == "__main__":
    main()
