"""Checks on the benchmark itself.  Slow: each workload runs in child processes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run
import spec

WORKLOADS = spec.WORKLOADS


@pytest.fixture(scope="module")
def rep(tmp_path_factory):
    """rep(workload, mode, seed) -> the child's report, each run once per module."""
    done: dict[tuple, dict] = {}

    def get(workload: str, mode: str, seed: int = 1) -> dict:
        key = (workload, mode, seed)
        if key not in done:
            runner = run.Runner(workload, seed, tmp_path_factory.mktemp(workload))
            out = runner.spawn(mode)
            assert out["ok"], out["failures"]
            done[key] = out
        return done[key]

    return get


def test_benchmark_json_matches_spec():
    assert list(run.PER_LAYER) == list(spec.LAYERS)
    bounds = {m["name"]: m["bound"] for m in spec.BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_fire_where_mapped_and_are_zero_where_bypassed(rep, workload):
    traced, counted = rep(workload, "trace"), rep(workload, "count")
    metrics = run.layer_metrics(traced, traced, counted)
    assert set(metrics) == set(spec.LAYERS)
    for name, layer in spec.LAYERS.items():
        if workload in layer["zero_on"]:
            assert metrics[name] == 0, name
        if any(w == workload for _, w in layer["moves"]):
            assert metrics[name] > 0, name
    assert metrics["harness.cache_files_warm"] == 0


def test_spans_cover_level2_fit(rep):
    traced = rep("level2_fit", "trace")
    metrics = run.layer_metrics(traced, traced, rep("level2_fit", "count"))
    assert metrics["trace.coverage"] >= 0.95


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_under_another_seed(rep, workload):
    assert rep(workload, "count", 1)["count"] == rep(workload, "count", 2)["count"]


def test_counts_match_known_values(rep):
    fit = rep("level2_fit", "count")["count"]
    assert [300_000, 620] in fit["built"]["clifford"]
    direct = rep("chardeg_direct", "count")
    assert direct["count"]["built"]["tables"] == [[11_232, 24], [26_208, 168]]
    assert direct["cache_files_written"] == [2, 0]
    assert rep("lietype_gl3", "count")["count"]["counts"]["lietype.candidates"] == 70_252


def test_child_refuses_optimized_mode(tmp_path):
    child = run.HERE / "child.py"
    proc = subprocess.run(
        [sys.executable, "-O", str(child), "setup", "level2_fit", "1", str(tmp_path)],
        capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "level2_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout
