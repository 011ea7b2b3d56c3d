"""The benchmark's own tests, on tiny inputs (``--smoke``).

    python -m pytest perfbench/tests -q

They pin the output contract (metric names and units equal
BENCHMARK.json's), prove every oracle fails the run when fed a wrong
expected value, check that the clock-free build counts repeat exactly
across two runs of one seed, and that the benchmark refuses to report
anything when the program is absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import uuid

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("build", "serve-mixed")
SECONDS = "1.5"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace=0, seed=3, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    attrs = next((json.loads(line[len("attrs "):]) for line in lines
                  if line.startswith("attrs ")), None)
    return proc, result, attrs


_CACHE = {}


def _cached(workload, trace):
    key = (workload, trace)
    if key not in _CACHE:
        _CACHE[key] = _run(workload, trace)
    return _CACHE[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_spec(workload, trace, kind):
    proc, result, attrs = _cached(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _spec()[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    assert attrs["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(workload):
    _, result, _ = _cached(workload, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_oracle_value_fails_the_run(workload):
    proc, result, attrs = _run(workload, 0, 3, "--break-oracle")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert attrs["problems"]


def test_clock_free_build_counts_repeat_exactly():
    first = _cached("build", 1)[2]["clock_free_counts"]
    second = _run("build", 1)[2]["clock_free_counts"]
    assert first == second
    for kind in ("xmark", "imdb"):
        assert first[kind]["core.partition.merges"] > 0
        assert first[kind]["core.pool.scored"] > 0


def test_build_layer_self_times_cover_the_traced_build():
    _, result, _ = _cached("build", 1)
    metrics = result["metrics"]
    for prefix in ("", "xmark.", "imdb."):
        value = metrics[prefix + "trace.build_unattributed"]["value"]
        assert 0 <= value <= 0.05


def test_pair_layers_add_up_the_per_document_layers():
    metrics = _cached("build", 1)[1]["metrics"]
    for name in ("core.partition.merges", "core.stable.classes"):
        assert metrics[name]["value"] == (metrics["xmark." + name]["value"]
                                          + metrics["imdb." + name]["value"])


def test_auto_kernel_choice_is_recorded():
    documents = _cached("build", 1)[2]["documents"]
    assert documents["xmark"]["partition"] == "KernelPartition"
    assert documents["imdb"]["partition"] == "MergePartition"


def test_without_the_program_it_fails_without_a_result():
    copy = os.path.join(ROOT, ".perfbench-work", f"bare-{uuid.uuid4().hex}")
    try:
        shutil.copytree(BENCH, os.path.join(copy, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
        proc, result, _ = _run("build", 0, 3, cwd=copy)
        assert proc.returncode != 0
        assert result is None
    finally:
        shutil.rmtree(copy, ignore_errors=True)
