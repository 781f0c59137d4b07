"""Smoke test of the benchmark: a few jobs per workload, in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no job fails, that the traced run emits every per-layer metric, and
that job lists are reproducible from the seed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, seed=1, jobs=8):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--jobs", str(jobs)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def assert_metrics(result, specs):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 8
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    result, _ = run_bench(workload, trace=0)
    assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics(workload):
    result, _ = run_bench(workload, trace=1)
    assert_metrics(result, BENCH["per_layer"])


def test_job_lists_reproducible():
    for workload in NAMES:
        first = workloads.job_list(workload, 7)
        assert len(first) >= 100
        assert workloads.list_digest(first) == workloads.list_digest(workloads.job_list(workload, 7))
        assert workloads.list_digest(first) != workloads.list_digest(workloads.job_list(workload, 8))


def test_held_out_seed_passes_checks():
    for workload in NAMES:
        result, lines = run_bench(workload, trace=0, seed=424242, jobs=12)
        assert result["correct"] and result["failed"] == 0, lines


def test_every_pool_job_has_a_golden_digest():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    for workload in NAMES:
        assert {j["key"] for j in workloads.pool(workload)} <= set(golden[workload])
