"""Smoke test of the end-to-end benchmark (about 25 s).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_smoke.py

Runs ``run.py --smoke --reps 2 --trace`` once and checks that every metric
BENCHMARK.json names is printed with its unit, that no job failed, that the
paper clock (``sim_s``, ``total_ios``) repeats exactly across the two reps,
and that traced spans have non-negative self times and nest inside their
parents.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "2",
         "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text()), out.with_name(
        "trace.jsonl"
    )


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, results, _ = smoke
    printed = {tuple(line.split()[:3]) for line in stdout.splitlines()}
    for workload in results["workloads"]:
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert (workload, metric["name"], metric["unit"]) in printed


def test_no_job_failed(smoke):
    _, results, _ = smoke
    for result in results["workloads"].values():
        assert result["failed"] == 0, result["failures"]
        assert result["summary"]["failed_frac"]["median"] == 0


def test_paper_clock_repeats_exactly(smoke):
    _, results, _ = smoke
    for result in results["workloads"].values():
        plain = [rep for rep in result["reps"] if not rep["traced"]]
        assert len(plain) == 2
        for key in ("sim_s", "total_ios"):
            assert plain[0]["metrics"][key] == plain[1]["metrics"][key]


def test_traced_spans_nest_with_nonnegative_self_time(smoke):
    _, results, trace = smoke
    jobs = defaultdict(dict)
    for line in trace.read_text().splitlines():
        span = json.loads(line)
        jobs[span["job"]][span["id"]] = span
    assert len(jobs) == 2 * len(results["workloads"])
    for spans in jobs.values():
        assert spans
        for span in spans.values():
            assert span["self_s"] >= 0
            assert span["start_s"] <= span["end_s"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start_s"] <= span["start_s"]
                assert span["end_s"] <= parent["end_s"]
    for result in results["workloads"].values():
        assert all(row["self_s"] >= 0 for row in result["per_parent"])
