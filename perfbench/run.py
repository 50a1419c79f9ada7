"""peakpoly benchmark: seeded workloads run against the package from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Requests run as fresh `python -m peakpoly` processes in a closed loop with
one client: each request starts when the previous one has returned.  Every output is checked against
reference digests made at the baseline commit (`make_reference.py`), every
verify report must pass, and every --jobs 1/--jobs 2 pair must print the same
bytes.  `--trace 0` reports the end-to-end metrics; `--trace 1` reruns the
first pass with the wrappers of `tracer.py` installed and reports the
per-layer metrics and the layer probes.  Each metric is printed with its
unit; the last line of stdout is one JSON object, and the run's metadata and
raw samples go to .bench_out/.

Exit status 2, with no result printed, when the package cannot be run from
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import probes
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 7
REQUEST_TIMEOUT_S = 120
RUN_DEADLINE_S = 170  # requests still running then are killed and fail, so a run always ends
TAIL_BEYOND = 10

END_TO_END = {
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Printed and kept with the raw samples, but not in BENCHMARK.json: on a
# shared 2-core box the host slows and stalls the machine for minutes at a
# time, so wall times and latency percentiles move by 15-30% between runs of
# the same code, while CPU time, which leaves out the time a request waits
# instead of running, moves by about 10%; failed_ratio is 0 when all is well.
REPORTED = {
    "wall_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "failed_ratio": "ratio",
}

PER_LAYER = {
    "cli.outside_main_s": "s",
    "cli.self_s": "s",
    "identities.self_s": "s",
    "identities.checks": "count",
    "families.self_s": "s",
    "families.calls": "count",
    "series.self_s": "s",
    "series.solve_calls": "count",
    "series.mul_calls": "count",
    "polynomial.self_s": "s",
    "polynomial.mul_calls": "count",
    "polynomial.mul_s": "s",
    "polynomial.divmod_calls": "count",
    "polynomial.divmod_s": "s",
    "polynomial.eval_calls": "count",
    "polynomial.eval_s": "s",
    "roots.self_s": "s",
    "roots.sturm_chains": "count",
    "roots.sturm_evals": "count",
    "roots.refinements": "count",
    "permutations.busy_s": "s",
    "permutations.leaves": "count.computed",
    "permutations.leaves_per_s": "1/s",
    "permutations.worker_starts": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
PROBES = {f"probe.poly_{op}_d{d}_s": "s" for op in ("mul", "divmod", "eval") for d in probes.DEGREES}


class SetupFailed(RuntimeError):
    """The package cannot be started from this checkout."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

# PYTHONDONTWRITEBYTECODE would make every request recompile the package.
CHILD_ENV_DROP = ("PEAKPOLY_JOBS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")


def child_env() -> dict[str, str]:
    """The package from this checkout's src/, no inherited worker count, and
    a fixed hash seed so call counts repeat exactly."""
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Context:
    env: dict[str, str]
    reference: dict[str, str]
    deadline: float  # perf_counter() value at which running requests are killed

    def timeout(self) -> float:
        return min(REQUEST_TIMEOUT_S, self.deadline - perf_counter())


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mib: float
    code: int
    stdout: bytes
    stderr: str
    timed_out: bool


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(argv: list[str], env: dict[str, str], timeout: float) -> Outcome:
    """Run one process to completion; its CPU time and peak RSS include the
    pool workers it started and reaped."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    expired = []
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, lambda: (expired.append(True), _kill_group(proc.pid)))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the request left behind
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().decode(errors="replace")
    return Outcome(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
        code=proc.returncode,
        stdout=stdout,
        stderr=stderr[-2000:],
        timed_out=bool(expired),
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_mismatch(key: str, output_digest: str, reference: dict[str, str]) -> str | None:
    expected = reference.get(key)
    if expected is None:
        return "no reference output for this request"
    if output_digest != expected:
        return "output differs from the reference"
    return None


def check_output(request: workloads.Request, stdout: bytes, reference: dict[str, str]) -> str | None:
    """Why a request's stdout is wrong, or None when it is right."""
    if request.args[0] == "verify":
        try:
            aggregate = json.loads(stdout)["aggregate"]
        except (ValueError, KeyError, TypeError):
            return "verify report has no aggregate verdict"
        if aggregate != "pass":
            return f"verify aggregate is {aggregate!r}"
    return reference_mismatch(request.key, digest(stdout), reference)


def check_pairs(records: list[dict]) -> None:
    """Fail every member of a --jobs pair whose outputs differ."""
    seen: dict[str, set[str]] = {}
    for rec in records:
        if rec["pair"] is not None:
            seen.setdefault(rec["pair"], set()).add(rec["digest"])
    for rec in records:
        if rec["pair"] is not None and len(seen[rec["pair"]]) > 1 and rec["ok"]:
            rec["ok"], rec["reason"] = False, "--jobs pair outputs differ"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _record(request, pass_index, outcome: Outcome, reason):
    return {
        "pass": pass_index,
        "request": " ".join(request.args),
        "pair": request.pair,
        "latency_s": outcome.wall,
        "cpu_s": outcome.cpu,
        "rss_mib": outcome.rss_mib,
        "digest": digest(outcome.stdout),
        "ok": reason is None,
        "reason": reason,
    }


def _process_failure(outcome: Outcome) -> str | None:
    if outcome.timed_out:
        return "timed out"
    if outcome.code == 3:
        return "refused (exit 3)"
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.stderr.strip()[-300:]}"
    return None


def run_pass(requests, pass_index, ctx: Context, trace_dir=None):
    """Run requests one after another; returns (pass summary, records)."""
    records, procs = [], []
    t0 = perf_counter()
    for i, req in enumerate(requests):
        if trace_dir is None:
            argv = [sys.executable, "-m", "peakpoly", *req.args]
        else:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(trace_dir / f"req{i:04d}"), *req.args]
        outcome = run_child(argv, ctx.env, ctx.timeout())
        reason = _process_failure(outcome) or check_output(req, outcome.stdout, ctx.reference)
        records.append(_record(req, pass_index, outcome, reason))
        procs.append(outcome)
    wall = perf_counter() - t0
    summary = {
        "wall_s": wall,
        "cpu_s": sum(o.cpu for o in procs),
        "rss_mib": max(o.rss_mib for o in procs),
        "process_walls_s": [o.wall for o in procs],
    }
    return summary, records


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def preflight(env) -> dict[str, str]:
    """Check that the package imports from this checkout; untimed."""
    probe = "import mpmath.libmp, peakpoly; print(peakpoly.__file__); print(mpmath.libmp.BACKEND)"
    outcome = run_child([sys.executable, "-c", probe], env, REQUEST_TIMEOUT_S)
    lines = outcome.stdout.decode(errors="replace").split()
    if outcome.code != 0 or len(lines) != 2:
        raise SetupFailed(f"cannot import peakpoly from {SRC}: {outcome.stderr.strip()[-500:]}")
    if Path(lines[0]).resolve().parent.parent != SRC.resolve():
        raise SetupFailed(f"peakpoly imports from {lines[0]}, not from {SRC}")
    # Untimed warm-up, so byte-code compilation is not billed to a request.
    warm = run_child([sys.executable, "-m", "peakpoly", "--version"], env, REQUEST_TIMEOUT_S)
    if warm.code != 0:
        raise SetupFailed(f"`python -m peakpoly --version` failed: {warm.stderr.strip()[-500:]}")
    return {"mpmath_backend": lines[1]}


def measure_setup(env) -> list[float]:
    """Cold interpreter start to a ready package, SETUP_REPEATS times."""
    argv = [sys.executable, "-m", "peakpoly", "--version"]
    samples = []
    for _ in range(SETUP_REPEATS):
        outcome = run_child(argv, env, REQUEST_TIMEOUT_S)
        if outcome.code != 0:
            raise SetupFailed(f"set-up command failed: {outcome.stderr.strip()[-500:]}")
        samples.append(outcome.wall)
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _host_wait_s() -> dict[str, float]:
    """Seconds all CPUs of this machine spent in iowait and stolen by the
    host, from /proc/stat; the runs' noise shows here."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return {}
    hz = os.sysconf("SC_CLK_TCK")
    return {"iowait_s": ticks[4] / hz, "steal_s": ticks[7] / hz}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND
    return xs[k - 1], math.floor(1000 * k / n) / 10, n


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    return {
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mib": max(p["rss_mib"] for p in passes),
        "setup_s": statistics.median(setup),
    }


def reported(passes: list[dict], records: list[dict], latencies: list[float]) -> dict[str, float]:
    """Unbounded metrics, from untraced passes only."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail(latencies)[0],
        "failed_ratio": sum(not r["ok"] for r in records) / len(records),
    }


def layer_metrics(traced: dict, untraced: dict, traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `traces` holds what each traced
    process dumped, in the order of `traced["process_walls_s"]`."""
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s = dict.fromkeys(tracer.LAYERS, 0.0)
    outside = covered = 0.0
    leaves = workers = 0
    for wall, t in zip(traced["process_walls_s"], traces):
        for name, c, s in zip(t["names"], t["calls"], t["inclusive_s"]):
            calls[name] = calls.get(name, 0) + c
            inclusive[name] = inclusive.get(name, 0.0) + s
        for layer, s in tracer.self_times(
            t["names"], t["span_name"], t["span_start"], t["span_end"], t["span_parent"]
        ).items():
            self_s[layer] += s
        outside += wall - t["top_s"]
        covered += tracer.root_time(t["span_start"], t["span_end"], t["span_parent"])
        leaves += t["leaves"]
        workers += t["worker_starts"]
    busy = self_s["permutations"]
    return {
        "cli.outside_main_s": outside,
        "cli.self_s": self_s["cli"],
        "identities.self_s": self_s["identities"],
        "identities.checks": sum(c for n, c in calls.items() if n.startswith("identities.check_")),
        "families.self_s": self_s["families"],
        "families.calls": sum(c for n, c in calls.items() if tracer.layer_of(n) == "families"),
        "series.self_s": self_s["series"],
        "series.solve_calls": calls.get("series.solve_series", 0),
        "series.mul_calls": calls.get("series.TruncSeries.__mul__", 0),
        "polynomial.self_s": self_s["polynomial"],
        "polynomial.mul_calls": calls.get("polynomial.Poly.__mul__", 0),
        "polynomial.mul_s": inclusive.get("polynomial.Poly.__mul__", 0.0),
        "polynomial.divmod_calls": calls.get("polynomial.Poly.__divmod__", 0),
        "polynomial.divmod_s": inclusive.get("polynomial.Poly.__divmod__", 0.0),
        "polynomial.eval_calls": calls.get("polynomial.Poly.__call__", 0),
        "polynomial.eval_s": inclusive.get("polynomial.Poly.__call__", 0.0),
        "roots.self_s": self_s["roots"],
        "roots.sturm_chains": calls.get("roots.sturm_chain", 0),
        "roots.sturm_evals": calls.get("roots.SturmChain.variations", 0),
        "roots.refinements": calls.get("roots.refine_interval", 0),
        "permutations.busy_s": busy,
        "permutations.leaves": leaves,
        "permutations.leaves_per_s": leaves / busy if busy > 0 else 0.0,
        "permutations.worker_starts": workers,
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - outside - covered,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    started = perf_counter()
    env = child_env()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "load_avg_start": os.getloadavg(),
    }
    host_start = _host_wait_s()
    meta.update(preflight(env))
    ctx = Context(env, json.loads(REFERENCE.read_text()), started + RUN_DEADLINE_S)
    setup = measure_setup(env)
    passes = workloads.plan(args.workload, args.seed, workloads.pass_count(args.workload, args.seconds))

    summaries, records = [], []
    if args.trace == 0:
        for p, requests in enumerate(passes):
            summary, recs = run_pass(requests, p, ctx)
            summaries.append(summary)
            records += recs
        metrics = end_to_end(summaries, setup)
    else:
        trace_dir = OUT / "trace" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        for p, traced_dir in enumerate((None, trace_dir)):
            summary, recs = run_pass(passes[0], p, ctx, traced_dir)
            summaries.append(summary)
            records += recs
        traces = [tracer.load(str(trace_dir / f"req{i:04d}")) for i in range(len(passes[0]))]
        metrics = layer_metrics(summaries[1], summaries[0], traces)
        probe = run_child([sys.executable, str(BENCH / "probes.py")], env, ctx.timeout())
        if probe.code != 0:
            raise SetupFailed(f"probes failed: {probe.stderr.strip()[-500:]}")
        metrics.update(json.loads(probe.stdout))
    check_pairs(records)
    latencies = [r["latency_s"] for r in records if args.trace == 0 or r["pass"] == 0]  # untraced only
    _, percentile, samples = tail(latencies)
    meta["load_avg_end"] = os.getloadavg()
    meta.update({f"host_{k}": v - host_start[k] for k, v in _host_wait_s().items() if k in host_start})
    return {
        "meta": meta,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
        "reported": reported(summaries if args.trace == 0 else summaries[:1], records, latencies),
        "tail": {"percentile": percentile, "samples": samples},
        "setup_samples_s": setup,
        "passes": summaries,
        "requests": records,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = {**END_TO_END, **REPORTED, **PER_LAYER, **PROBES}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))

    for name, value in {**result["metrics"], **result["reported"]}.items():
        print(f"{name:30s} {value:>16.6f} {units[name]}")
    tail_info = result["tail"]
    print(f"{result['failed']} of {result['attempted']} requests failed;"
          f" request_tail_s is p{tail_info['percentile']} of {tail_info['samples']} requests;"
          f" raw samples and metadata in {out_file.relative_to(ROOT)}")
    for rec in result["requests"]:
        if not rec["ok"]:
            print(f"FAILED {rec['request']}: {rec['reason']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
