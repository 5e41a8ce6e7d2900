"""The join-index extension (§4.4), step by step.

Replays the paper's running example:

    select count(*) from lineitem, orders
    where l_discount = 0.1 and l_quantity >= 40
      and o_orderkey = l_orderkey
      and o_orderdate between '1995-01-01' and '1995-01-31'

and shows (1) the two plain entries plus the join-extended entry with
its nested build-side key, (2) how the join entry is ~100x more
selective, and (3) how DML on the build side (orders) invalidates only
the join entries while plain entries survive: the insert leaves them
stale, and the next probe of their key drops them.

Run:  python examples/join_index.py
"""

from repro import Database, PredicateCache, QueryEngine
from repro.workloads import tpch


def main() -> None:
    db = Database(num_slices=4, rows_per_block=500)
    tpch.load(db, scale_factor=0.01, skew=0.5, seed=4)
    engine = QueryEngine(db, predicate_cache=PredicateCache())
    cache = engine.predicate_cache

    sql = f"""
        select count(*) from lineitem, orders
        where l_discount = 0.1 and l_quantity >= 40
          and o_orderkey = l_orderkey
          and o_orderdate between {tpch.d('1995-01-01')} and {tpch.d('1995-01-31')}
    """
    first = engine.execute(sql)
    print("matching lineitems:", first.rows()[0][0])
    print()
    print("cache entries after the first run:")
    for entry in cache.entries():
        kind = "JOIN " if entry.key.is_join_key else "plain"
        print(f"  [{kind}] selectivity={entry.selectivity:8.5f}  {entry.key.key()}")

    plain = [e for e in cache.entries()
             if e.key.table == "lineitem" and not e.key.is_join_key][0]
    joined = [e for e in cache.entries()
              if e.key.table == "lineitem" and e.key.is_join_key][0]
    print()
    print(f"join entry is {plain.selectivity / max(joined.selectivity, 1e-9):.0f}x "
          f"more selective than the plain entry "
          f"(paper: ~100x for this query)")

    second = engine.execute(sql)
    print(f"\nrepeat run: rows scanned {first.counters.rows_scanned} -> "
          f"{second.counters.rows_scanned}")

    # DML on the build side: the semi-join filter contents changed, so
    # the join entries' recorded orders stamp is stale and the next
    # probe of their key drops them; plain entries survive (§4.4).
    engine.insert(
        "orders",
        {
            "o_orderkey": [10**7], "o_custkey": [1], "o_orderstatus": ["O"],
            "o_totalprice": [1.0], "o_orderdate": [tpch.d("1995-01-15")],
            "o_orderpriority": ["1-URGENT"], "o_shippriority": [0],
        },
    )
    print("\nafter inserting into orders (a build side):")
    for entry in cache.entries():
        kind = "JOIN " if entry.key.is_join_key else "plain"
        stale = any(
            db.table(name).data_version != version
            for name, version in entry.build_versions.items()
        )
        print(f"  [{kind}] {entry.key.table}: {entry.key.predicate_key[:60]}"
              f"{'  (stale)' if stale else ''}")

    rejected = cache.stats.stale_rejections
    third = engine.execute(sql)
    plain_kept = sum(not e.key.is_join_key for e in cache.entries())
    print(f"join entries dropped as stale by the re-run: "
          f"{cache.stats.stale_rejections - rejected}; "
          f"plain entries kept: {plain_kept}")
    print(f"re-run relearns the join entry; answer stays correct: "
          f"{third.rows()[0][0]}")


if __name__ == "__main__":
    main()
