"""Smoke test of the benchmark: every workload at a tiny size, traced.

    python3 -m pytest -q perfbench/tests

Checks that each workload's checks pass and that every end-to-end and
per-layer metric is reported with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_opscale()

TINY = {
    "decide-3x4": {"pool": 6},
    "dense-solve": {"sizes": [4], "ranks": [2], "reps": 1},
    "cli-apps": {"reps": 1, "matscale_sizes": [3], "forster_points": [4]},
}

E2E = {"setup_s": "s", "calls_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p90": "ms",
       "iterations_total": "count", "peak_rss_mb": "MB"}

LAYERS = {"trace.overhead_pct": "%", "scaler.loop_us_per_iter": "us",
          "scaler.iterations": "count", "scaler.lift_fill_shrinks": "count",
          "cpmap.balance_factor.not_pd": "count", "cpmap.CPMap.constructions": "count",
          "cpmap.CPMap.self_ms": "ms", "apps.solve.self_ms": "ms",
          "apps.kraus_bytes_max": "B_computed", "cli.rebuild_ms": "ms",
          "feasibility.conclusive_ratio": "ratio"}
for _layer in ("cpmap.apply", "cpmap.dual_apply", "cpmap.balance_factor", "cpmap.scale",
               "relmetrics.ds_from_marginals", "relmetrics.log_relative_det",
               "scaler.solve", "scaler.project_to_support", "scaler.lift_pair",
               "feasibility.bit_complexity", "feasibility.certificate_epsilon",
               "apps.build_cpmap", "cli.parse_instance", "cli.dumps_report"):
    LAYERS[f"{_layer}.calls"] = "count"
    LAYERS[f"{_layer}.self_ms"] = "ms"
for _status in ("SUCCESS", "ERROR_NOT_PD", "ERROR_BUDGET", "ERROR_SINGULAR_INIT"):
    LAYERS[f"scaler.status.{_status}"] = "count"


def _benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric(name, tmp_path):
    record = run.measure(name, seed=3, seconds=0.01, trace=True,
                         params=TINY[name], results_dir=str(tmp_path))
    assert record["correct"], record["failures"]
    assert record["fail_rate"] == 0.0
    spec = _benchmark_json()
    e2e = {k: m["unit"] for k, m in run.metric_lines(record, trace=False).items()}
    layers = run.metric_lines(record, trace=True)
    assert e2e == E2E == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in layers.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, unit in LAYERS.items():
        assert layers[key]["unit"] == unit, key
    assert record["trace"]["missing_hooks"] == []
    assert record["trace"]["counts_repeat"]
    assert os.path.exists(os.path.join(run.ROOT, record["trace"]["spans_file"]))
    if name == "decide-3x4":
        assert layers["feasibility.bit_complexity.calls"]["value"] == 0
    header = record["header"]
    for key in ("python", "numpy", "scipy", "blas", "nproc", "threads_env", "seed",
                "params", "git_commit"):
        assert key in header


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(run.NAMES)


def test_fails_without_the_package(tmp_path):
    """Without ./src the benchmark exits nonzero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-3x4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
