"""Tests of the benchmark's own code (not of peakpoly).

Run with: PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from peakpoly import cli, series
from peakpoly.permutations import S_N_LIMIT, SIGNED_LIMIT

SEEDS = range(40)
NPROC_JOBS = 2  # --jobs never exceeds the two cores the benchmark is sized for


def _all_requests(workload: str, seed: int) -> list[workloads.Request]:
    passes = workloads.pass_count(workload, 40)
    return [r for p in workloads.plan(workload, seed, passes) for r in p]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests_other_seed_other_requests(workload):
    a = _all_requests(workload, 7)
    assert a == _all_requests(workload, 7)
    assert a != _all_requests(workload, 8)


def test_spread_covers_range_evenly_and_distinctly():
    import random

    for seed in SEEDS:
        values = sorted(workloads.spread(random.Random(seed), 96, 128, 8))
        assert len(set(values)) == 8
        assert values[0] <= 99 and values[-1] >= 125  # first and last cells
        assert all(96 <= v <= 128 for v in values)
    with pytest.raises(ValueError):
        workloads.spread(random.Random(0), 7, 8, 3)


def _check_cli_caps(args: tuple[str, ...]) -> None:
    ns = cli.build_parser().parse_args(list(args))  # a usage error raises SystemExit
    if getattr(ns, "jobs", None) is not None:
        assert 1 <= ns.jobs <= NPROC_JOBS
    if ns.command == "oracle":
        assert 1 <= ns.n <= (SIGNED_LIMIT if ns.stat in ("desb", "ades") else S_N_LIMIT)
    else:
        assert ns.signed_nmax <= SIGNED_LIMIT and ns.oracle_nmax <= S_N_LIMIT
        if ns.suite == "oracle":
            assert ns.nmax <= S_N_LIMIT
        if ns.suite == "gf":
            assert ns.nmax <= series.MAX_ORDER


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_generated_request_is_within_caps_and_has_a_reference(workload):
    reference = json.loads(run.REFERENCE.read_text())
    space = {r.key for r in workloads.request_space(workload)}
    for seed in SEEDS:
        for req in _all_requests(workload, seed):
            assert req.key in space and req.key in reference
            _check_cli_caps(req.args)


def test_jobs_pairs_are_complete():
    for seed in SEEDS:
        for workload in ("verify", "oracle_enum"):
            pairs: dict[str, set[str]] = {}
            for req in _all_requests(workload, seed):
                if req.pair is not None:
                    pairs.setdefault(req.pair, set()).add(req.args[-1])
            assert pairs and all(jobs == {"1", "2"} for jobs in pairs.values())


def test_self_time_on_hand_built_span_tree():
    # cli.main [0, 10] -> families.f [1, 7] -> polynomial.mul [2, 5]
    #                                        -> polynomial.mul [5.5, 6]
    #                  -> roots.g [8, 9.5]
    names = ["cli.main", "families.f", "polynomial.Poly.__mul__", "roots.g"]
    span_name = [0, 1, 2, 2, 3]
    start = [0.0, 1.0, 2.0, 5.5, 8.0]
    end = [10.0, 7.0, 5.0, 6.0, 9.5]
    parent = [-1, 0, 1, 1, 0]
    got = tracer.self_times(names, span_name, start, end, parent)
    assert got["cli"] == pytest.approx(10 - 6 - 1.5)
    assert got["families"] == pytest.approx(6 - 3 - 0.5)
    assert got["polynomial"] == pytest.approx(3.5)
    assert got["roots"] == pytest.approx(1.5)
    assert got["series"] == 0.0
    assert sum(got.values()) == pytest.approx(tracer.root_time(start, end, parent))


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 41)]
    value, percentile, samples = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert (value, percentile, samples) == (30.0, 75.0, 40)


def test_output_check_flags_corrupted_output():
    req = workloads.Request(("poly", "--family", "R", "--n", "3"))
    good = b"1,4,5,2\n"
    reference = {req.key: run.digest(good)}
    assert run.check_output(req, good, reference) is None
    assert run.check_output(req, b"1,4,5,3\n", reference) == "output differs from the reference"
    assert run.check_output(workloads.Request(("poly", "--family", "R", "--n", "4")), good, reference)


def test_output_check_requires_a_passing_verify_report():
    req = workloads.Request(("verify", "--suite", "clt", "--nmax", "20"))
    failing = json.dumps({"results": [], "aggregate": "fail"}).encode()
    reference = {req.key: run.digest(failing)}
    assert run.check_output(req, failing, reference) == "verify aggregate is 'fail'"
    assert run.check_output(req, b"not json", reference) == "verify report has no aggregate verdict"


def test_pair_check_fails_both_members_of_a_differing_pair():
    records = [
        {"pair": "p", "digest": "a", "ok": True, "reason": None},
        {"pair": "p", "digest": "b", "ok": True, "reason": None},
        {"pair": "q", "digest": "c", "ok": True, "reason": None},
        {"pair": "q", "digest": "c", "ok": True, "reason": None},
        {"pair": None, "digest": "d", "ok": True, "reason": None},
    ]
    run.check_pairs(records)
    assert [r["ok"] for r in records] == [False, False, True, True, True]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**run.PER_LAYER, **run.PROBES}


def _traced_counts(tmp_path: Path, tag: str, args: list[str]) -> dict:
    prefix = str(tmp_path / tag)
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "trace_child.py"), prefix, *args],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tracer.load(prefix)


def test_traced_request_counts_repeat_and_reach_names_bound_by_import(tmp_path):
    args = ["verify", "--suite", "roots", "--nmax", "4"]
    first = _traced_counts(tmp_path, "a", args)
    second = _traced_counts(tmp_path, "b", args)
    calls = dict(zip(first["names"], first["calls"]))
    assert calls == dict(zip(second["names"], second["calls"]))
    assert calls["cli.main"] == 1
    # roots binds gcd_poly by name; the wrapper must be installed there too
    assert calls["polynomial.gcd_poly"] > 0
    assert calls["roots.sturm_chain"] > 0 and calls["roots.SturmChain.variations"] > 0
    spans = list(first["span_name"])
    assert spans and first["span_parent"][0] == -1
    assert first["names"][spans[0]] == "cli.main"
