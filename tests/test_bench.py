"""Benchmark harness: runner and reporting."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import Database
from repro.bench import (
    Variant,
    compare_variants,
    format_series,
    format_table,
    geomean,
    run_query_set,
)
from repro.bench.report import format_bytes
from repro.core.config import PredicateCacheConfig
from repro.predicates import parse_predicate
from repro.storage import ColumnSpec, DataType, TableSchema


def loader(db):
    db.create_table(
        TableSchema(
            "t", (ColumnSpec("x", DataType.INT64), ColumnSpec("v", DataType.FLOAT64))
        )
    )
    rng = np.random.default_rng(0)
    x = np.sort(rng.integers(0, 1000, 20_000))
    db.table("t").insert({"x": x, "v": rng.random(20_000)}, db.begin())


QUERIES = {
    "A": "select count(*) as c from t where x < 50",
    "B": "select sum(v) as s from t where x between 100 and 120",
}


class TestRunner:
    def test_run_query_set_reports_repeat_run(self):
        db = Database(num_slices=2, rows_per_block=100)
        loader(db)
        engine = Variant("pc", PredicateCacheConfig()).build_engine(db)
        rows = run_query_set(engine, QUERIES, "pc")
        assert {r.query for r in rows} == {"A", "B"}
        for row in rows:
            assert row.model_seconds > 0
            assert row.cold_model_seconds >= row.model_seconds * 0.5

    def test_compare_variants_isolates_databases(self):
        variants = [
            Variant("orig"),
            Variant("pc_bitmap", PredicateCacheConfig(variant="bitmap", bitmap_block_rows=100)),
            Variant(
                "ps",
                sort_predicates={"t": [parse_predicate("x < 50")]},
            ),
        ]
        results = compare_variants(
            loader, lambda: Database(num_slices=2, rows_per_block=100), QUERIES, variants
        )
        assert set(results) == {"orig", "pc_bitmap", "ps"}
        # The cached variant's repeat run never scans more than original.
        for orig_row, pc_row in zip(results["orig"], results["pc_bitmap"]):
            assert pc_row.rows_scanned <= orig_row.rows_scanned

    def test_sorting_variant_reorganizes(self):
        database = Database(num_slices=1, rows_per_block=100)
        loader(database)
        # Shuffle first so sorting has something to do.
        rng = np.random.default_rng(1)
        database.table("t").reorganize(
            lambda t: [rng.permutation(s.num_rows) for s in t.slices]
        )
        layout_before = database.table("t").layout_version
        Variant("ps", sort_predicates={"t": [parse_predicate("x < 50")]}).build_engine(
            database
        )
        assert database.table("t").layout_version == layout_before + 1


class TestReport:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 2.0]) == pytest.approx(2.0)  # zeros skipped

    def test_format_table(self):
        text = format_table(
            ["q", "runtime"], [["Q1", 1.5], ["Q2", 0.0001]], title="Table X"
        )
        assert "Table X" in text
        assert "Q1" in text and "0.0001" in text

    def test_format_series(self):
        text = format_series("hit rate", [0.1 * i for i in range(100)])
        assert "hit rate" in text
        assert "[0..9.9]" in text

    def test_format_bytes(self):
        assert format_bytes(8) == "8 B"
        assert format_bytes(2 * 1024 * 1024) == "2.0 MB"
        assert "GB" in format_bytes(540e9)


# -- benchmarks/e2e/layers.py binds the program by name --------------------------

#: Shims whose target no longer exists, with why.  ``Recorder.install``
#: skips a method no class defines, so without this list a rename blinds
#: a per-layer metric silently (it reads 0).  An entry leaves when a
#: benchmark PR rebinds the layer.
RETIRED_SHIMS = {
    "ColumnStore.prunable_block_ranges": (
        "deleted when zone-map pruning became a block mask inside "
        "BlockCoverage; storage.zonemap_ms reads 0 (its time shows under "
        "engine.scan_self_ms) until SHIMS binds ZoneMap.pruned_blocks"
    ),
}


def test_every_layer_shim_names_something_that_exists():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "layers.py"
    spec = importlib.util.spec_from_file_location("e2e_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    unresolved = set()
    for owner, names, _, _ in layers.SHIMS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        holders = [module]
        if class_name:
            holders = [getattr(module, class_name.rstrip("*"))]
            if class_name.endswith("*"):
                holders += layers._all_subclasses(holders[0])
        for name in names:
            if not any(name in vars(holder) for holder in holders):
                unresolved.add(f"{holders[0].__name__}.{name}")
    assert unresolved == set(RETIRED_SHIMS)
