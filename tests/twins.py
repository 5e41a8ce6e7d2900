"""The cache-off twin harness every oracle suite runs through.

The predicate cache's safety argument is one sentence: cached ranges
are a superset of the truth, and the scan re-checks them.  So a cached
engine must answer exactly what the same engine answers without a
cache.  The pieces here build such twins and compare them:

* :func:`seeded_engine` — an engine over a fresh database holding the
  seeded table ``t(k, v, w)``; the cached side passes its cache, the
  cache-off side ``None``; :func:`create_seeded_table` — that table
  (re-)created in a database, from any seed;
* :func:`assert_rows_equal` — two row lists agree (order-free, NaN-equal);
* :func:`replay` / :func:`assert_matches` — a load generator's scripts
  replayed serially on one engine, and a concurrent run's responses
  held to that replay;
* :func:`crash_next_write` / :func:`restart` — a cache process that dies
  mid-write and comes back from its store, as the resilience drills and
  the persistence tests stage it; :func:`corrupt_next_write` — a write
  that lands with one bit flipped.
"""

import math
from contextlib import contextmanager

import numpy as np

from repro import (
    CacheStore,
    ClusterCaches,
    Database,
    FaultInjector,
    PredicateCache,
    QueryEngine,
)
from repro.storage import ColumnSpec, DataType, TableSchema

COLUMNS = ("k", "v", "w")


def create_seeded_table(db, *, seed, rows):
    """Create ``t(k, v, w)`` in ``db``: ``rows`` rows, every column drawn
    from ``[0, 100)`` by ``default_rng(seed)``."""
    db.create_table(
        TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
    )
    rng = np.random.default_rng(seed)
    db.table("t").insert(
        {c: rng.integers(0, 100, rows) for c in COLUMNS}, db.begin()
    )


def seeded_engine(cache, *, seed, rows, **db_kwargs):
    """A :class:`QueryEngine` with ``cache`` (``None``: cache-off) over a
    fresh ``Database(**db_kwargs)`` holding the seeded ``t(k, v, w)``."""
    db = Database(**db_kwargs)
    create_seeded_table(db, seed=seed, rows=rows)
    return QueryEngine(db, predicate_cache=cache)


def assert_rows_equal(a, b, context):
    assert len(a) == len(b), f"{context}: row counts differ {len(a)} vs {len(b)}"
    for ra, rb in zip(sorted(a, key=repr), sorted(b, key=repr)):
        for va, vb in zip(ra, rb):
            both_nan = (
                isinstance(va, float)
                and isinstance(vb, float)
                and math.isnan(va)
                and math.isnan(vb)
            )
            if not both_nan:
                assert va == vb, f"{context}: {ra} != {rb}"


# -- load scripts ---------------------------------------------------------------


def _columns(result):
    return {name: values.tolist() for name, values in result.columns.items()}


def replay(engine, generator):
    """Run every script of ``generator`` serially on ``engine``.

    Returns ``{client_id: [(columns, blocks_accessed), ...]}``, one pair
    per statement in script order.
    """
    expected = {}
    for script in generator.scripts():
        results = [engine.execute(sql) for sql in script.statements]
        expected[script.client_id] = [
            (_columns(result), result.counters.blocks_accessed)
            for result in results
        ]
    return expected


def assert_matches(report, generator, expected, blocks=False):
    """Every client ran every statement OK with the columns of
    ``expected`` (a :func:`replay`), and with its ``blocks_accessed`` too
    when ``blocks`` is set."""
    for script in generator.scripts():
        responses = report.responses[script.client_id]
        assert len(responses) == len(script.statements)
        for position, ((columns, blocks_accessed), response) in enumerate(
            zip(expected[script.client_id], responses)
        ):
            context = f"client {script.client_id} statement {position}"
            assert response.ok, f"{context}: {response.error}"
            assert _columns(response.result) == columns, context
            if blocks:
                got = response.result.counters.blocks_accessed
                assert got == blocks_accessed, context


# -- crash and restart ------------------------------------------------------------


@contextmanager
def _fault_next_write(store, kind):
    saved = store.injector
    store.injector = injector = FaultInjector(schedule={0: kind})
    try:
        yield injector
    finally:
        store.injector = saved


def crash_next_write(store):
    """Tear exactly the next write of ``store``, as a process killed
    mid-write would: a snapshot leaves a partial temp file, a journal
    append a torn tail that wedges the store.  Yields the one-shot
    injector that tears it."""
    return _fault_next_write(store, "error")


def corrupt_next_write(store):
    """Flip one bit in exactly the next write of ``store``, for the CRCs
    to catch at load time.  Yields the one-shot injector that flips it."""
    return _fault_next_write(store, "corrupt")


def _keys(cache):
    return {key for node in cache.nodes() for key in node.keys()}


def restart(engine, store):
    """Restart the engine's cache process from ``store``'s directory.

    The dead caches stop journaling and the old store lets go of its
    append handle (one writer per directory), a fresh store re-reads the
    directory, and a cache of the same shape hydrates from it and takes
    over the engine: a :class:`ClusterCaches` rebuilds from its config,
    node count and ``policy_factory``, a bare :class:`PredicateCache`
    carries its policy over.  The old caches close last, once nothing
    hands them out.  Returns ``(fresh store, keys before, keys after)``.
    """
    old = engine.predicate_cache
    before = _keys(old)
    old_nodes = old.nodes()
    for cache in old_nodes:
        cache.detach_store()
    store.close()
    fresh = CacheStore(store.directory, catalog=engine.database)
    if isinstance(old, ClusterCaches):
        replacement = ClusterCaches(
            old.num_nodes,
            config=old.config,
            policy_factory=old.policy_factory,
            store=fresh,
        )
    else:
        replacement = PredicateCache(old.config, policy=old.policy)
        fresh.attach(replacement)
    engine.set_predicate_cache(replacement)
    for cache in old_nodes:
        cache.close()
    return fresh, before, _keys(replacement)
