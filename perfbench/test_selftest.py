"""Smoke self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_selftest.py

It checks the result contract (every metric declared in BENCHMARK.json is
emitted with its unit), that the layers run where perfbench/layers.json says
they do, that the counts and the output digest repeat for a fixed seed, that
the demo golden check passes, and that the benchmark fails cleanly where the
sylpipe sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
    LAYERS = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def results(workload, trace, seed=3):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_layer_map_matches_benchmark_json():
    assert list(LAYERS["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert sorted(LAYERS["workloads"]) == sorted(WORKLOADS)
    for entry in LAYERS["metrics"].values():
        assert set(entry["applies_to"]) <= set(WORKLOADS)
        for target in entry["moves"]:
            metric, workload = target.split("@")
            assert workload in WORKLOADS
            assert metric in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    meta, result = results(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]
    assert meta["demo_golden"] is True
    for key in ("backend", "nproc", "python", "numpy", "seed", "models", "check_set",
                "timed_loop", "latency"):
        assert key in meta, key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    meta, result = results(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        applies = workload in LAYERS["metrics"][m["name"]]["applies_to"]
        if m["unit"] == "s" and applies:
            assert got["value"] > 0, f"{m['name']} did not run on {workload}"
        if not applies:
            assert got["value"] == 0, f"{m['name']} ran on {workload}"
    # The spans cover the traced passes: their self times add up to the
    # traced wall time, less only the loop between units.
    trace = meta["trace"]
    assert 0.5 < trace["self_sum_s"] / trace["traced_pass_s"] <= 1.0

    # Counts and the output digest repeat exactly for a fixed seed.
    meta2, result2 = results(workload, 1)
    for m in SPEC["per_layer"]:
        if m["unit"] != "s" and not m["name"].startswith(("trace.", "failed")):
            assert result2["metrics"][m["name"]] == result["metrics"][m["name"]], m["name"]
    assert meta2["check_set"] == meta["check_set"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("bulk_doc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
