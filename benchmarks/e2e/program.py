"""The program under test, one configuration per workload, and its oracle.

``build`` is the set-up the benchmark times as ``setup_s``: create the
tables, load them, execute the hot pool once, then drop the decoded-block
cache.  Every timed section therefore starts with a populated predicate
cache and a cold block cache (a node that kept its predicate cache but
lost its blocks), so ``remote_fetches_per_select`` counts the distinct
blocks a workload decodes and is never 0.

``run_direct`` / ``run_served`` execute the generated statements and
clock each one from SQL text in to result out.  ``check_against_oracle``
replays them on a cache-off twin database afterwards.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import gen
from repro import (
    CacheStore,
    ClusterCaches,
    Database,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    QueryServer,
    Request,
)
from repro.storage import ColumnSpec, DataType, TableSchema

#: Decoded-block cache of ``adhoc_bounded``: 1/8 of the 2 400 sealed
#: blocks of ``sales`` (6 columns x 4 slices x 100 blocks).
ADHOC_BLOCK_CAPACITY = (
    len(gen.FACT_COLUMNS) * gen.SALES_ROWS // gen.ROWS_PER_BLOCK // 8
)
#: Predicate-cache budget of ``adhoc_bounded``: a bitmap entry is 28
#: bytes here (7 per slice), so this holds ~70 of 1 000 entries.
ADHOC_CACHE_BYTES = 2000
SERVED_WORKERS = 2
SERVED_NODES = 2
#: The oracle replays every write and 1 in this many SELECTs.
ORACLE_SAMPLE = 8


def _cache_config(workload: str) -> PredicateCacheConfig:
    if workload == "adhoc_bounded":
        return PredicateCacheConfig(variant="bitmap", max_bytes=ADHOC_CACHE_BYTES)
    return PredicateCacheConfig(
        variant="range", enable_reuse=workload == "drilldown_reuse"
    )


@dataclass
class Program:
    """One freshly built instance of the system under test."""

    database: Database
    engine: QueryEngine
    cache: object  # PredicateCache or ClusterCaches
    server: Optional[QueryServer] = None
    store: Optional[CacheStore] = None

    def execute(self, stmt: gen.Stmt):
        """Run one statement on the engine directly."""
        if stmt.rows is not None:
            affected = self.engine.insert(stmt.table, stmt.rows)
            return {"affected": np.array([affected])}, None
        result = self.engine.execute(stmt.sql)
        return result.columns, result.counters

    def cache_stats(self):
        if isinstance(self.cache, ClusterCaches):
            return self.cache.aggregate_stats()
        return self.cache.stats.snapshot()

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()


def _no_tick() -> None:
    pass


def _create_and_load(
    engine: QueryEngine, tables: Dict[str, gen.Columns], tick=_no_tick
) -> None:
    for name, columns in tables.items():
        engine.database.create_table(
            TableSchema(
                name, tuple(ColumnSpec(c, DataType.INT64) for c in columns)
            )
        )
    for name, columns in tables.items():
        tick()
        engine.insert(name, columns)


def build(
    inputs: gen.Inputs, store_dir: Optional[str] = None, tick=_no_tick
) -> Program:
    """Set up the program for one workload (timed as ``setup_s``).

    ``tick`` is called between steps and, in the ``run_*`` functions,
    between statements: the speed probe's hook (see ``speed.py``).
    """
    workload = inputs.workload
    database = Database(
        num_slices=gen.NUM_SLICES,
        rows_per_block=gen.ROWS_PER_BLOCK,
        cache_capacity=ADHOC_BLOCK_CAPACITY if workload == "adhoc_bounded" else None,
    )
    store = None
    if workload == "served_mix":
        store = CacheStore(store_dir, catalog=database, fsync=False)
        cache = ClusterCaches(SERVED_NODES, _cache_config(workload), store=store)
    else:
        cache = PredicateCache(_cache_config(workload))
    # scan_workers=0: serial slice scans whatever the environment says.
    engine = QueryEngine(database, predicate_cache=cache, scan_workers=0)
    _create_and_load(engine, inputs.tables, tick)
    for stmt in inputs.prefill:
        tick()
        engine.execute(stmt.sql)
    tick()
    database.rms.clear()
    server = None
    if workload == "served_mix":
        # The server's workers run the statements, so they run the
        # probe: per-core speed is measured on the core doing the work.
        execute = engine.execute

        def execute_after_tick(sql: str):
            tick()
            return execute(sql)

        engine.execute = execute_after_tick
        server = QueryServer(engine, max_workers=SERVED_WORKERS)
    return Program(database, engine, cache, server, store)


# -- executing statements -------------------------------------------------------


@dataclass
class Observed:
    """What one client saw: latency and outcome of every statement."""

    script: Sequence[gen.Stmt]
    #: ``perf_counter`` at submission and wall seconds until the result.
    started: np.ndarray
    seconds: np.ndarray
    #: Result columns per statement (None where the statement failed).
    results: List[Optional[Dict[str, np.ndarray]]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    # Sums of QueryCounters over the SELECTs.
    blocks: int = 0
    remote: int = 0
    scanned: int = 0
    qualifying: int = 0
    skipped: int = 0
    pruned: int = 0
    recheck: int = 0
    #: Serving-side timings (``served_mix`` only), seconds.
    queued: List[float] = field(default_factory=list)
    executing: List[float] = field(default_factory=list)

    def add_counters(self, counters) -> None:
        self.blocks += counters.blocks_accessed
        self.remote += counters.remote_fetches
        self.scanned += counters.rows_scanned
        self.qualifying += counters.rows_qualifying
        self.skipped += counters.rows_skipped_cache
        self.pruned += counters.blocks_pruned_zonemap
        self.recheck += counters.reuse_recheck_rows


def run_direct(
    program: Program, script: Sequence[gen.Stmt], tick=_no_tick
) -> Observed:
    """One closed-loop client calling the engine; returns what it saw."""
    seen = Observed(script, np.zeros(len(script)), np.zeros(len(script)))
    clock = time.perf_counter
    for index, stmt in enumerate(script):
        tick()
        seen.started[index] = started = clock()
        try:
            columns, counters = program.execute(stmt)
        except Exception as exc:  # noqa: BLE001 - a failed statement is a result
            seen.seconds[index] = clock() - started
            seen.results.append(None)
            seen.errors.append(f"{stmt.sql[:80]}: {type(exc).__name__}: {exc}")
            continue
        seen.seconds[index] = clock() - started
        seen.results.append(columns)
        if counters is not None and stmt.is_select:
            seen.add_counters(counters)
    return seen


def run_served(
    program: Program, scripts: Sequence[Sequence[gen.Stmt]]
) -> Tuple[List[Observed], float]:
    """One closed-loop thread per script through the QueryServer.

    Latency is clocked by the client around ``submit(...).result()``.
    Returns the per-client observations and the wall time of the run.
    """
    server = program.server
    observed = [
        Observed(script, np.zeros(len(script)), np.zeros(len(script)))
        for script in scripts
    ]

    def client(client_id: int) -> None:
        seen = observed[client_id]
        clock = time.perf_counter
        for index, stmt in enumerate(seen.script):
            seen.started[index] = started = clock()
            response = server.submit(
                Request(stmt.sql, tenant=f"client{client_id}")
            ).result()
            seen.seconds[index] = clock() - started
            if not response.ok:
                seen.results.append(None)
                seen.errors.append(
                    f"{stmt.sql[:80]}: {response.status.value}: {response.error}"
                )
                continue
            seen.results.append(response.result.columns)
            seen.queued.append(response.queued_seconds)
            seen.executing.append(response.total_seconds - response.queued_seconds)
            if stmt.is_select:
                seen.add_counters(response.result.counters)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"e2e-client-{i}")
        for i in range(len(scripts))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return observed, time.perf_counter() - started


def restart_and_replay(
    program: Program, hot_pool: Sequence[gen.Stmt]
) -> Tuple[List[Tuple[gen.Stmt, Optional[Dict[str, np.ndarray]]]], Dict[str, float]]:
    """The restart step of ``served_mix``: snapshot, build fresh cluster
    caches from the store alone, replay the hot pool on them.

    Returns the replayed statements with their results (for the oracle)
    and the two ratios the restart is judged by.
    """
    program.close()
    old, old_store = program.cache, program.store
    keys_before = {key for node in old.nodes() for key in node.keys()}
    cache_bytes = old.total_nbytes
    old_store.snapshot(old)
    for node in old.nodes():
        node.detach_store()
    program.store = CacheStore(
        old_store.directory, catalog=program.database, fsync=False
    )
    program.cache = ClusterCaches(SERVED_NODES, old.config, store=program.store)
    program.engine.set_predicate_cache(program.cache)
    keys_after = {key for node in program.cache.nodes() for key in node.keys()}
    after = []
    for stmt in hot_pool:
        try:
            after.append((stmt, program.engine.execute(stmt.sql).columns))
        except Exception:  # noqa: BLE001 - counted by the caller as a mismatch
            after.append((stmt, None))
    return after, {
        "snapshot_bytes_per_cache_byte": old_store.snapshot_bytes / max(1, cache_bytes),
        "warm_hit_retention": (
            len(keys_before & keys_after) / len(keys_before) if keys_before else 1.0
        ),
    }


# -- the oracle -------------------------------------------------------------------


def _canonical(columns: Dict[str, np.ndarray]) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Result rows as a float matrix in a row order both sides share."""
    names = tuple(sorted(columns))
    matrix = np.column_stack(
        [np.asarray(columns[name], dtype=np.float64) for name in names]
    ) if names else np.zeros((0, 0))
    if len(matrix):
        matrix = matrix[np.lexsort(matrix.T[::-1])]
    return names, matrix


def same_rows(left: Dict[str, np.ndarray], right: Dict[str, np.ndarray]) -> bool:
    left_names, left_rows = _canonical(left)
    right_names, right_rows = _canonical(right)
    return left_names == right_names and np.array_equal(
        left_rows, right_rows, equal_nan=True
    )


def table_checksums(engine: QueryEngine) -> Dict[str, Dict[str, np.ndarray]]:
    """Every visible row of every table (compared with ``same_rows``)."""
    return {
        name: engine.execute(f"select * from {name}").columns
        for name in engine.database.table_names()
    }


def check_against_oracle(
    inputs: gen.Inputs,
    clients: Sequence[Observed],
    after: Sequence[Tuple[gen.Stmt, Optional[Dict[str, np.ndarray]]]],
    final_tables: Dict[str, Dict[str, np.ndarray]],
    sample_every: int,
) -> List[str]:
    """Replay on a cache-off twin; returns one line per mismatch.

    The twin executes every write and one SELECT in ``sample_every`` of
    each client's statements, in script order, and compares rows; then
    the ``after`` statements (all of them); then every table, row for
    row.  Clients of ``served_mix`` own disjoint tables, so replaying
    them one after the other is an exact oracle for the concurrent run.
    """
    twin = QueryEngine(
        Database(num_slices=gen.NUM_SLICES, rows_per_block=gen.ROWS_PER_BLOCK),
        predicate_cache=None,
        scan_workers=0,
    )
    _create_and_load(twin, inputs.tables)
    mismatches: List[str] = []

    def replay(stmt: gen.Stmt, got) -> None:
        if got is None:
            return  # already counted as a failed statement
        if stmt.rows is not None:
            want = {"affected": np.array([twin.insert(stmt.table, stmt.rows)])}
        else:
            want = twin.execute(stmt.sql).columns
        if not same_rows(got, want):
            mismatches.append(f"result differs from oracle: {stmt.sql[:100]}")

    for seen in clients:
        for index, (stmt, got) in enumerate(zip(seen.script, seen.results)):
            if stmt.is_select and index % sample_every:
                continue
            replay(stmt, got)
    for stmt, got in after:
        replay(stmt, got)
    want_tables = table_checksums(twin)
    for name, want in want_tables.items():
        if not same_rows(final_tables[name], want):
            mismatches.append(f"table {name} differs from oracle after the run")
    return mismatches
