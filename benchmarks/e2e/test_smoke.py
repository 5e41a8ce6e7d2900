"""Smoke test of the e2e benchmark (outside tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --smoke`` twice untraced and once traced (about a minute)
and checks the vocabulary ``BENCHMARK.json`` declares is what comes out.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (
    "blocks_per_select", "remote_fetches_per_select", "rows_scanned_per_select",
    "cache_bytes",
)


def _smoke(tmp_path: Path, name: str, *extra: str) -> dict:
    target = tmp_path / name
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(target), *extra],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(target.read_text())


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return (
        _smoke(tmp, "a.json"),
        _smoke(tmp, "b.json"),
        _smoke(tmp, "layers.json", "--trace"),
    )


def _check_names(document: dict, declared: list) -> None:
    assert list(document["workloads"]) == WORKLOADS
    for workload, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, workload
        assert list(entry["metrics"]) == [m["name"] for m in declared], workload
        for metric in declared:
            slot = entry["metrics"][metric["name"]]
            assert NAME.match(metric["name"]) and len(metric["name"]) <= 64
            assert slot["unit"] == metric["unit"] and slot["unit"]
            assert len(slot["values"]) == 1
            assert math.isfinite(slot["values"][0]), (workload, metric["name"])


def test_every_end_to_end_metric_once_per_workload(documents):
    _check_names(documents[0], SPEC["end_to_end"])
    for entry in documents[0]["workloads"].values():
        for metric in SPEC["end_to_end"]:
            assert entry["metrics"][metric["name"]]["values"][0] > 0, metric["name"]


def test_every_per_layer_metric_once_per_workload(documents):
    _check_names(documents[2], SPEC["per_layer"])
    served = documents[2]["workloads"]["served_mix"]["metrics"]
    for name in ("persist.journal_ms", "serve.lock_wait_ms", "cluster.route_ms"):
        assert served[name]["values"][0] > 0, name
    reuse = documents[2]["workloads"]["drilldown_reuse"]["metrics"]
    assert reuse["reuse.plan_ms"]["values"][0] > 0


def test_counts_repeat_between_runs(documents):
    first, second = documents[0]["workloads"], documents[1]["workloads"]
    for workload in WORKLOADS:
        for name in COUNTS:
            a = first[workload]["metrics"][name]["values"][0]
            b = second[workload]["metrics"][name]["values"][0]
            if workload == "served_mix":  # two threads: within 1 %
                assert abs(a - b) <= 0.01 * a, (workload, name, a, b)
            else:
                assert a == b, (workload, name, a, b)


def test_self_times_add_up_to_the_statement(documents):
    """Per-layer self times sum to the root span by construction."""
    trace = json.loads((HERE / "out" / "trace_warm_repeat.json").read_text())
    roots = [
        event for event in trace["traceEvents"] if "self_ms" in event["args"]
    ]
    assert len(roots) >= 50
    for event in roots:
        total = sum(event["args"]["self_ms"].values())
        assert total == pytest.approx(event["dur"] / 1e3, rel=1e-3, abs=2e-3)


def test_compare_same_code_has_no_worse_row(documents, tmp_path):
    for index in (0, 1):
        (tmp_path / f"{index}.json").write_text(json.dumps(documents[index]))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare",
         str(tmp_path / "0.json"), str(tmp_path / "1.json")],
        capture_output=True, text=True,
    )
    # Smoke runs are too short for the timing bounds to hold; the rows
    # for counts must still read "within bound".
    assert done.returncode in (0, 1), done.stderr
    rows = [line for line in done.stdout.splitlines() if "cache_bytes" in line]
    assert len(rows) == len(WORKLOADS)
    assert all(row.endswith("within bound") for row in rows), rows
