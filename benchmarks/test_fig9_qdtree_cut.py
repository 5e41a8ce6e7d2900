"""Figure 9: the Qd-tree cut on (x < 10, y > 42).

Paper: the two cut predicates split the table into four partitions; a
scan with both predicates reads only one of the four parts, and a
narrower predicate (x < 5) still exploits the x < 10 cut.
"""

import numpy as np

from repro import Database, QueryEngine
from repro.baselines.qdtree import QdTree
from repro.bench import format_table
from repro.predicates import parse_predicate
from repro.storage import ColumnSpec, DataType, TableSchema

from _util import save_report


def test_fig9_qdtree_cut(benchmark):
    db = Database(num_slices=1, rows_per_block=100)
    db.create_table(
        TableSchema(
            "t", (ColumnSpec("x", DataType.INT64), ColumnSpec("y", DataType.INT64))
        )
    )
    rng = np.random.default_rng(9)
    n = 20_000
    db.table("t").insert(
        {"x": rng.integers(0, 20, n), "y": rng.integers(0, 100, n)}, db.begin()
    )
    predicates = [parse_predicate("x < 10"), parse_predicate("y > 42")]
    tree = QdTree(predicates, min_leaf_rows=100)

    benchmark.pedantic(lambda: tree.build_and_apply(db.table("t")), rounds=1, iterations=1)

    both = len(tree.candidate_rows({0: True, 1: True}, 0))
    narrower = len(tree.candidate_rows({0: True}, 0))
    engine = QueryEngine(db)
    exact = engine.execute("select count(*) as c from t where x < 10 and y > 42").scalar()

    rows = [
        ["partitions", tree.num_leaves, "4"],
        ["rows for x<10 AND y>42", f"{both} of {n}", "1 of 4 parts"],
        ["exact matches inside", int(exact), "all covered"],
        ["rows for narrower x<5", f"{narrower} of {n}", "2 of 4 parts"],
    ]
    report = format_table(
        ["metric", "measured", "paper"],
        rows,
        title="Fig. 9 - Qd-tree cut on (x < 10, y > 42)",
    )
    save_report("fig9_qdtree_cut", report)

    assert tree.num_leaves == 4
    assert both <= n * 0.35          # ~one quarter (+ rounding)
    assert exact <= both             # no false negatives
    assert n * 0.4 <= narrower <= n * 0.6
