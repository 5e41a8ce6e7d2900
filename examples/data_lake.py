"""Predicate caching over an open-format data lake (§4.5).

A lake table evolves like Iceberg/Delta: other engines commit whole
immutable files (Parquet-shaped: row groups with column statistics).
The warehouse cannot reorganize the layout — but the predicate cache
needs no ownership: it remembers *which row groups qualified* by their
ordinal in commit order, appends extend entries like any uncached tail,
and removals invalidate nothing (dead ordinals are never consulted).

Run:  python examples/data_lake.py
"""

import numpy as np

from repro.lake import LakeScanner, LakeTable
from repro.predicates import parse_predicate


def batch(rng, n=20_000):
    status = rng.integers(0, 4, n)
    status[rng.random(n) < 0.003] = 4  # "failed" is rare
    return {
        "day": np.sort(rng.integers(0, 365, n)),
        "status": status,
        "amount": rng.random(n).round(3),
    }


def show(label, stats):
    print(f"{label:<28} groups read {stats.row_groups_read:>3}/{stats.row_groups_total:<3}  "
          f"bytes {stats.chunk_bytes_read:>7}  cache hit: {stats.cache_hit}")


def main() -> None:
    rng = np.random.default_rng(11)
    table = LakeTable("events", rows_per_group=500)
    for _ in range(4):
        table.append_file(batch(rng))
    print(f"lake table: {len(table.current_snapshot.file_ids)} files, "
          f"{table.num_rows():,} rows, snapshot {table.current_snapshot.snapshot_id}")

    scanner = LakeScanner(table)
    pred = parse_predicate("day between 200 and 230 and status = 4")
    print(f"\nquery: failed events in days 200-230\n")

    out, cold = scanner.scan(pred, ["amount"])
    show("cold scan", cold)
    out, warm = scanner.scan(pred, ["amount"])
    show("repeat (cached groups)", warm)

    # Another engine (Glue, Spark, ...) commits a new file.
    table.append_file(batch(rng))
    out, after = scanner.scan(pred, ["amount"])
    show("after foreign append", after)

    # Compaction: two old files become one.
    old = list(table.current_snapshot.file_ids[:2])
    merged = {
        "day": np.concatenate([
            g.read_columns(["day"])["day"]
            for fid in old for g in table.file(fid).row_groups
        ]),
        "status": np.concatenate([
            g.read_columns(["status"])["status"]
            for fid in old for g in table.file(fid).row_groups
        ]),
        "amount": np.concatenate([
            g.read_columns(["amount"])["amount"]
            for fid in old for g in table.file(fid).row_groups
        ]),
    }
    table.replace_files(old, merged)
    out, compacted = scanner.scan(pred, ["amount"])
    show("after compaction", compacted)
    out, relearned = scanner.scan(pred, ["amount"])
    show("relearned", relearned)

    print(f"\nscanner: {scanner.num_entries} cached predicates, "
          f"{scanner.total_nbytes} bytes, "
          f"hit rate {scanner.cache.stats.hit_rate:.0%}, "
          f"{scanner.cache.stats.invalidations} per-file invalidations")
    print("matching rows:", len(out["amount"]))


if __name__ == "__main__":
    main()
