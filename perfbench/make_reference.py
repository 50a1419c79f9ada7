"""Write reference.json: the SHA-256 of every output any seed can request.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 perfbench/make_reference.py

Covers `workloads.request_space` of every workload.  The outputs are the
bytes `peakpoly.cli.main` prints, which are the bytes `python -m peakpoly`
prints.  The benchmark fails any request whose output digest differs from
this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def cli_output(args) -> bytes:
    from peakpoly import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    if code != 0:
        raise RuntimeError(f"{' '.join(args)} exited {code}")
    return buf.getvalue().encode()


def main() -> None:
    reference = {}
    for name in workloads.WORKLOADS:
        for req in workloads.request_space(name):
            reference[req.key] = hashlib.sha256(cli_output(req.args)).hexdigest()
        print(f"{name}: {len(reference)} references so far", file=sys.stderr)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
