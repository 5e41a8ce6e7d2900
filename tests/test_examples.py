"""Smoke tests: every example script runs to completion."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, *args, timeout=240):
    path = os.path.join(EXAMPLES_DIR, name)
    result = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "predicate cache" in out
    assert "cache hits this query: 1" in out


def test_dashboard_ingestion():
    out = run_example("dashboard_ingestion.py")
    assert "invalidations - loads only extend entries" in out
    assert "vacuum invalidated" in out


def test_join_index():
    out = run_example("join_index.py")
    assert "more selective than the plain entry" in out
    assert "join entries dropped as stale by the re-run: 1;" in out


def test_caching_techniques_tour():
    out = run_example("caching_techniques_tour.py")
    assert "predicate caching" in out
    assert "result caching" in out


def test_data_lake():
    out = run_example("data_lake.py")
    assert "cache hit: True" in out
    assert "per-file invalidations" in out


@pytest.mark.slow
def test_tpch_comparison_small():
    out = run_example("tpch_comparison.py", "0.003")
    assert "GeoMean/Sum" in out
