"""Smoke test of the benchmark at tiny op sizes.

Kept out of the library's test suite (pytest collects ``tests/`` only);
run it with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def test_spec_matches_harness():
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    assert PER_LAYER == [name for name, _ in run.LAYER_METRICS]
    units = dict(run.LAYER_METRICS)
    assert all(m["unit"] == units[m["name"]] for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_line(workload):
    record = run.run_benchmark(workload, seed=3, seconds=0, trace=False, smoke=True)
    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert line["correct"] is True
    # at this commit the only failing ops are the SI plane-wave Maxwell checks
    assert line["failed"] == (record["rounds"] if workload == "audit" else 0)
    assert all(note.startswith("si-plane-wave") for note in record["failures"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = run.run_benchmark(workload, seed=5, seconds=0, trace=True, smoke=True)
    second = run.run_benchmark(workload, seed=5, seconds=0, trace=True, smoke=True)
    assert list(first["metrics"]) == PER_LAYER
    assert first["counts_repeat_across_rounds"] and second["counts_repeat_across_rounds"]
    counts = {name: value for name, (value, unit) in first["metrics"].items()
              if unit in ("count/round", "bytes/round", "calls/step", "ratio") and not name.startswith("trace.")}
    assert counts == {name: second["metrics"][name][0] for name in counts}
    assert ({n: t["calls"] for n, t in first["function_totals"].items()}
            == {n: t["calls"] for n, t in second["function_totals"].items()})
    assert first["checks"] == second["checks"]   # same seed, same inputs


def test_spans_written(tmp_path):
    record = run.run_benchmark("develop-long", seed=5, seconds=0, trace=True, smoke=True)
    path = tmp_path / "spans.npz"
    record["_tracer"].write_spans(path)
    spans = np.load(path)
    n = record["spans_stored"]
    assert n > 0 and all(len(spans[k]) == n for k in ("name", "start_s", "end_s", "parent", "op"))
    assert np.all(spans["parent"] < np.arange(n))      # a parent opens before its child
    assert np.all(spans["end_s"] >= spans["start_s"])
    names = set(spans["names"][spans["name"]])
    assert {"models.coeff", "transport.horizontal_lift", "fieldexpr.evaluate"} <= names


def test_fails_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
