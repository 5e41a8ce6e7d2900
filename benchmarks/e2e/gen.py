"""Inputs of the e2e benchmark: tables and statements from one seed.

numpy only, and deliberately independent of ``repro.workloads``: a later
PR may change that package, it may not change what this benchmark feeds
the program.  ``golden.json`` pins sha256 digests of everything built
here for seeds 11 and 12; ``run.py`` refuses to run when they drift.

The program under test receives nothing but the SQL text and the arrays
in a :class:`Stmt` — no generator state, no hints.

Fact table ``sales(id, day, store, discount, qty, price)``, all INT64,
loaded round-robin into 4 slices of 500-row blocks.  The four filter
columns differ in how much qualifying rows cluster, the property that
decides whether a block-granular cache pays off:

* ``id``        ascending: zone maps alone answer range predicates (the
  cache-bypass shape);
* ``day``       arrival order with +-3 jitter: mostly clustered;
* ``store``     one run per store (~1 000 rows) plus 1 % uniform outliers: the
  outliers widen every block's min/max so zone maps prune nothing, yet
  the qualifying rows sit in a few blocks (the paper's sweet spot);
* ``discount``  uniform 0..999: every block holds qualifying rows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

WORKLOADS = (
    "warm_repeat",
    "adhoc_bounded",
    "star_dml",
    "drilldown_reuse",
    "served_mix",
)

NUM_SLICES = 4
ROWS_PER_BLOCK = 500
SALES_ROWS = 200_000
#: ``star_dml`` pays a cold three-way join after every dimension write
#: and VACUUM; half the rows keep its timed section near ``run_seconds``.
STAR_ROWS = 50_000
#: ``served_mix`` gives each of its 2 clients its own fact table.
SERVED_CLIENTS = 2
SERVED_ROWS = 100_000
NUM_STORES = 200
NUM_DAYS = 730
DISCOUNTS = 1000

FACT_COLUMNS = ("id", "day", "store", "discount", "qty", "price")

#: Statement counts at scale 1.0 (``--seconds`` = BENCHMARK.json's
#: ``run_seconds``); a smaller ``--seconds`` runs a prefix.  Sized so
#: each timed section takes about ``run_seconds`` on 2 cores and no
#: workload has fewer than 1 000 SELECTs.
WARM_DRAWS = 2400
ADHOC_SELECTS = 1000
STAR_STATEMENTS = 1800
DRILL_SELECTS = 1500
SERVED_PER_CLIENT = 720
#: Writes appended to the read-only workloads (see ``Inputs.tail``).
TAIL_WRITES = 200

Columns = Dict[str, np.ndarray]


@dataclass(frozen=True)
class Stmt:
    """One statement: SQL text, or a bulk INSERT handed over as arrays."""

    kind: str  # "select" | "insert" | "delete" | "update" | "vacuum"
    sql: str
    table: Optional[str] = None
    rows: Optional[Columns] = None  # bulk INSERT payload (engine.insert)

    @property
    def is_select(self) -> bool:
        return self.kind == "select"


@dataclass
class Inputs:
    """Everything one workload run consumes."""

    workload: str
    tables: Dict[str, Columns]
    #: Hot-pool statements executed once during set-up.
    prefill: List[Stmt] = field(default_factory=list)
    #: One statement list per closed-loop client.
    scripts: List[List[Stmt]] = field(default_factory=list)
    #: Writes run after the timed section of a read-only workload, so
    #: ``write_ms_p50`` exists everywhere: what a write costs against
    #: the cache population this workload left behind.
    tail: List[Stmt] = field(default_factory=list)

    def truncated(self, scale: float) -> "Inputs":
        """The prefix a shorter ``--seconds`` runs (scale capped at 1)."""
        if scale >= 1.0:
            return self

        def cut(stmts: List[Stmt], floor: int) -> List[Stmt]:
            return stmts[: max(min(floor, len(stmts)), math.ceil(len(stmts) * scale))]

        return Inputs(
            self.workload,
            self.tables,
            self.prefill,
            [cut(script, 20) for script in self.scripts],
            cut(self.tail, 12),
        )


# -- tables -----------------------------------------------------------------


def fact_rows(rng: np.random.Generator, rows: int) -> Columns:
    """``rows`` fact rows in arrival order."""
    position = np.arange(rows, dtype=np.int64)
    day = np.clip(
        position * NUM_DAYS // max(rows, 1) + rng.integers(-3, 4, rows),
        0,
        NUM_DAYS - 1,
    )
    # One run per store on average (0.7..1.3 x rows / stores, so 1 000
    # rows in the 200 k table); stores cycle through seeded permutations
    # so every store owns a run and no store owns many more than another.
    mean_run = rows // NUM_STORES
    run_lengths = rng.integers(
        mean_run * 7 // 10, mean_run * 13 // 10 + 1, rows // (mean_run * 7 // 10) + 1
    )
    cycles = math.ceil(len(run_lengths) / NUM_STORES)
    run_store = np.concatenate(
        [rng.permutation(NUM_STORES) for _ in range(cycles)]
    )[: len(run_lengths)]
    store = np.repeat(run_store, run_lengths)[:rows]
    outlier = rng.random(rows) < 0.01
    store = np.where(outlier, rng.integers(0, NUM_STORES, rows), store)
    return {
        "id": position,
        "day": day.astype(np.int64),
        "store": store.astype(np.int64),
        "discount": rng.integers(0, DISCOUNTS, rows),
        "qty": rng.integers(1, 51, rows),
        "price": rng.integers(100, 10_000, rows),
    }


def dimension_tables() -> Dict[str, Columns]:
    """8 regions x 5 sizes x 5 stores, 30-day months: every dimension
    predicate selects the same number of keys whatever the seed.  The
    planner wants column names unique across joined tables, so the day
    key is ``day_id`` (``sales`` already has ``day``)."""
    store_id = np.arange(NUM_STORES, dtype=np.int64)
    day_id = np.arange(NUM_DAYS, dtype=np.int64)
    return {
        "stores": {
            "store_id": store_id,
            "region": store_id % 8,
            "size": store_id // 8 % 5 + 1,
        },
        "days": {
            "day_id": day_id,
            "month": day_id // 30,
            "year": day_id // 365,
        },
    }


def _tables(seed: int, workload: str) -> Dict[str, Columns]:
    # Stream 0 of the seed: workloads over the same table get the same rows.
    rng = np.random.default_rng([seed, 0])
    if workload == "served_mix":
        return {
            f"sales_c{client}": fact_rows(rng, SERVED_ROWS)
            for client in range(SERVED_CLIENTS)
        }
    if workload == "star_dml":
        return {"sales": fact_rows(rng, STAR_ROWS), **dimension_tables()}
    return {"sales": fact_rows(rng, SALES_ROWS)}


# -- predicate templates ------------------------------------------------------


class _Templates:
    """SELECT text over one fact table, literals drawn from ``rng``."""

    def __init__(self, rng: np.random.Generator, table: str, rows: int) -> None:
        self.rng = rng
        self.table = table
        self.rows = rows
        self._grids: Dict[str, List[int]] = {}

    def _int(self, low: int, high: int) -> int:
        return int(self.rng.integers(low, high))

    def _spread(self, name: str, low: int, high: int, size: int = 40) -> int:
        """The next value of an evenly spaced ``low..high`` grid, taken in
        seeded order: widths and bounds — what a statement costs — cover
        the same values for every seed; only where they land moves."""
        grid = self._grids.get(name)
        if not grid:
            grid = self._grids[name] = [
                int(v) for v in self.rng.permutation(np.linspace(low, high, size))
            ]
        return grid.pop()

    def scattered(self, width: int) -> str:
        low = self._int(0, DISCOUNTS - width)
        return (
            f"select count(*), sum(qty) from {self.table} "
            f"where discount >= {low} and discount < {low + width}"
        )

    def clustered(self, stores: int) -> str:
        picks = sorted(
            int(s) for s in self.rng.choice(NUM_STORES, size=stores, replace=False)
        )
        if stores == 1:
            where = f"store = {picks[0]}"
        else:
            where = f"store in ({', '.join(map(str, picks))})"
        return f"select count(*), sum(price) from {self.table} where {where}"

    def sorted_id(self, width: int) -> str:
        low = self._int(0, self.rows - width)
        return (
            f"select count(*), min(price), max(price) from {self.table} "
            f"where id >= {low} and id < {low + width}"
        )

    def store_and_discount(self) -> str:
        return (
            f"select count(*), sum(price) from {self.table} "
            f"where store = {self._int(0, NUM_STORES)} "
            f"and discount < {self._spread('store_discount', 100, 600)}"
        )

    def day_and_discount(self, days: int) -> str:
        low = self._int(0, NUM_DAYS - days)
        return (
            f"select count(*), sum(qty) from {self.table} "
            f"where day >= {low} and day < {low + days} "
            f"and discount < {self._spread('day_discount', 50, 400)}"
        )

    def adhoc(self, family: int) -> str:
        """A draw from one of four predicate families, free literals."""
        if family == 0:
            return self.scattered(self._spread("scattered", 5, 200))
        if family == 1:
            return self.clustered(self._spread("clustered", 2, 3, 2))
        if family == 2:
            return self.sorted_id(self._spread("sorted_id", 500, 8000))
        if self._spread("conjunction", 0, 1, 2):
            return self.store_and_discount()
        return self.day_and_discount(self._spread("days", 3, 30))

    def hot_pool(self) -> List[str]:
        """24 templates: 8 scattered, 8 clustered-with-outliers, 4 on
        sorted ``id``, 4 conjunctions.  Widths are fixed so the latency
        distribution keeps its shape across seeds; only positions move."""
        pool = [self.scattered(w) for w in (10, 20, 40, 60, 80, 100, 125, 150)]
        pool += [self.clustered(n) for n in (1, 1, 1, 1, 3, 3, 3, 3)]
        pool += [self.sorted_id(w) for w in (1000, 2000, 4000, 8000)]
        pool += [self.store_and_discount(), self.store_and_discount()]
        pool += [self.day_and_discount(10), self.day_and_discount(20)]
        return pool


def _apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Largest-remainder split of ``total`` by ``weights`` (exact sum)."""
    scaled = np.asarray(weights, dtype=np.float64) * total / float(sum(weights))
    counts = np.floor(scaled).astype(np.int64)
    remainder = total - int(counts.sum())
    # Stable order so ties break by position, not by float noise.
    order = np.argsort(-(scaled - counts), kind="stable")
    counts[order[:remainder]] += 1
    return [int(c) for c in counts]


def _even_draws(rng: np.random.Generator, choices: int, total: int) -> np.ndarray:
    """``total`` indices below ``choices``, each equally often, seeded order."""
    return rng.permutation(
        np.repeat(np.arange(choices), _apportion(total, [1.0] * choices))
    )


def _skewed_draws(
    rng: np.random.Generator, class_sizes: Sequence[int],
    class_shares: Sequence[float], total: int,
) -> np.ndarray:
    """``total`` pool indices: fixed per-template counts, seeded order.

    Each class gets a fixed share of the draws, split 1/rank inside the
    class, so counts per template repeat exactly for every seed.
    """
    counts: List[int] = []
    for size, class_total in zip(class_sizes, _apportion(total, class_shares)):
        counts += _apportion(class_total, [1.0 / (r + 1) for r in range(size)])
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def _interleave(
    rng: np.random.Generator, counts: Sequence[int], strata: int
) -> np.ndarray:
    """Kind index per position: ``strata`` consecutive stretches with the
    same composition, shuffled inside.  Rare kinds (a dimension write)
    end up evenly spread, so how much of the run executes against
    freshly invalidated caches does not depend on the seed."""
    shares = [_apportion(count, [1.0] * strata) for count in counts]
    return np.concatenate(
        [
            rng.permutation(
                np.repeat(np.arange(len(counts)), [share[i] for share in shares])
            )
            for i in range(strata)
        ]
    )


def _selects(sqls: Sequence[str]) -> List[Stmt]:
    return [Stmt("select", sql) for sql in sqls]


def _unique(make, seen: set) -> str:
    """Draw until the text was never issued before (bounded retries)."""
    for _ in range(1000):
        sql = make()
        if sql not in seen:
            seen.add(sql)
            return sql
    raise RuntimeError("template space exhausted")


# -- writes -------------------------------------------------------------------


class _FactWriter:
    """INSERT / DELETE / UPDATE statements continuing a fact table."""

    def __init__(self, rng: np.random.Generator, table: str, rows: int) -> None:
        self.rng = rng
        self.table = table
        self.next_id = rows
        self.rows = rows

    def _batch(self, count: int) -> Columns:
        """New arrivals: ascending ids, latest days, one store run."""
        rng = self.rng
        store = np.full(count, int(rng.integers(0, NUM_STORES)), dtype=np.int64)
        outlier = rng.random(count) < 0.01
        store = np.where(outlier, rng.integers(0, NUM_STORES, count), store)
        batch = {
            "id": np.arange(self.next_id, self.next_id + count, dtype=np.int64),
            "day": np.clip(
                NUM_DAYS - 1 + rng.integers(-3, 1, count), 0, NUM_DAYS - 1
            ).astype(np.int64),
            "store": store.astype(np.int64),
            "discount": rng.integers(0, DISCOUNTS, count),
            "qty": rng.integers(1, 51, count),
            "price": rng.integers(100, 10_000, count),
        }
        self.next_id += count
        return batch

    def insert_arrays(self, count: int) -> Stmt:
        return Stmt(
            "insert",
            f"insert into {self.table} /* {count} rows as arrays */",
            table=self.table,
            rows=self._batch(count),
        )

    def insert_sql(self, count: int) -> Stmt:
        """A VALUES list — the only INSERT a QueryServer accepts."""
        batch = self._batch(count)
        rows = zip(*(batch[name].tolist() for name in FACT_COLUMNS))
        values = ", ".join("(" + ", ".join(map(str, row)) + ")" for row in rows)
        return Stmt("insert", f"insert into {self.table} values {values}")

    def delete(self) -> Stmt:
        low = int(self.rng.integers(0, self.rows - 200))
        width = int(self.rng.integers(20, 200))
        return Stmt(
            "delete",
            f"delete from {self.table} where id >= {low} and id < {low + width}",
        )

    def update(self) -> Stmt:
        low = int(self.rng.integers(0, self.rows - 200))
        width = int(self.rng.integers(20, 200))
        return Stmt(
            "update",
            f"update {self.table} set qty = {int(self.rng.integers(1, 51))} "
            f"where id >= {low} and id < {low + width}",
        )

    def vacuum(self) -> Stmt:
        return Stmt("vacuum", f"vacuum {self.table}")

    def batch_sizes(self, inserts: int, low: int = 200, high: int = 2000):
        """``low..high`` rows, the same sizes for every seed in seeded
        order (insert latency follows batch size, so ``write_ms_p50``
        would otherwise move with the seed's median batch)."""
        return iter(
            self.rng.permutation(np.linspace(low, high, inserts).astype(np.int64))
        )

    def tail(self, count: int) -> List[Stmt]:
        """The write mix of ``star_dml`` without dimensions or VACUUM."""
        kinds = np.repeat(np.arange(3), _apportion(count, [10.0, 1.5, 1.5]))
        sizes = self.batch_sizes(int((kinds == 0).sum()))
        make = (
            lambda: self.insert_arrays(int(next(sizes))), self.delete, self.update,
        )
        return [make[int(k)]() for k in self.rng.permutation(kinds)]


# -- the five workloads ---------------------------------------------------------


def _warm_repeat(rng: np.random.Generator, inputs: Inputs) -> None:
    templates = _Templates(rng, "sales", SALES_ROWS)
    pool = templates.hot_pool()
    draws = _skewed_draws(rng, (8, 8, 4, 4), (0.30, 0.40, 0.15, 0.15), WARM_DRAWS)
    inputs.prefill = _selects(pool)
    inputs.scripts = [_selects([pool[int(i)] for i in draws])]
    inputs.tail = _FactWriter(rng, "sales", SALES_ROWS).tail(TAIL_WRITES)


def _adhoc_bounded(rng: np.random.Generator, inputs: Inputs) -> None:
    templates = _Templates(rng, "sales", SALES_ROWS)
    families = np.repeat(
        np.arange(4), _apportion(ADHOC_SELECTS, [0.25, 0.35, 0.20, 0.20])
    )
    seen: set = set()
    inputs.scripts = [
        _selects(
            [
                _unique(lambda f=int(f): templates.adhoc(f), seen)
                for f in rng.permutation(families)
            ]
        )
    ]
    inputs.tail = _FactWriter(rng, "sales", SALES_ROWS).tail(TAIL_WRITES)


def _star_pool(rng: np.random.Generator) -> List[str]:
    """12 star joins with dimension predicates: 4 over both dimensions,
    4 over ``stores`` only, 4 over ``days`` only (so a write to one
    dimension spares the entries built on the other); half of each
    also filter the fact table."""
    both = "from sales, stores, days where store = store_id and day = day_id"
    by_store = "from sales, stores where store = store_id"
    by_day = "from sales, days where day = day_id"
    pool: List[str] = []
    for index in range(4):
        region = int(rng.integers(0, 8))
        # Months 0..21: appended rows carry the latest days (month 24),
        # so no day-dimension predicate starts to swallow every INSERT.
        month = int(rng.integers(0, 22))
        size = int(rng.integers(1, 6))
        fact = (
            f" and discount < {200 * index + int(rng.integers(0, 20))}"
            if index % 2
            else ""
        )
        pool.append(
            f"select region, count(*), sum(price) {both} and region = {region} "
            f"and month = {month}{fact} group by region"
        )
        pool.append(
            f"select size, sum(qty) {by_store} and region = {region} "
            f"and size = {size}{fact} group by size"
        )
        pool.append(
            f"select month, count(*), sum(price) {by_day} and month >= {month} "
            f"and month < {month + 2}{fact} group by month order by month"
        )
    return pool


def _star_dml(rng: np.random.Generator, inputs: Inputs) -> None:
    pool = _star_pool(rng)
    facts = _FactWriter(rng, "sales", STAR_ROWS)
    next_store = NUM_STORES
    dimension_writes = 0

    def dimension_write() -> Stmt:
        """Cycles INSERT stores / UPDATE stores / UPDATE days."""
        nonlocal next_store, dimension_writes
        kind = dimension_writes % 3
        dimension_writes += 1
        if kind == 0:
            next_store += 1
            return Stmt(
                "insert",
                f"insert into stores values ({next_store - 1}, "
                f"{int(rng.integers(0, 8))}, {int(rng.integers(1, 6))})",
            )
        if kind == 1:
            return Stmt(
                "update",
                f"update stores set size = {int(rng.integers(1, 6))} "
                f"where store_id = {int(rng.integers(0, NUM_STORES))}",
            )
        return Stmt(
            "update",
            f"update days set year = {int(rng.integers(0, 2))} "
            f"where day_id = {int(rng.integers(0, NUM_DAYS))}",
        )

    # 85 % SELECT, 10 % fact INSERT, 3 % fact DELETE/UPDATE, 1.5 %
    # dimension INSERT/UPDATE, 0.5 % VACUUM — fixed counts, seeded order
    # inside 6 strata with the VACUUM in the middle of each: the entries
    # alive at the end (``cache_bytes``) are those rebuilt in the last
    # half stratum, whatever the seed.
    counts = _apportion(STAR_STATEMENTS, [85.0, 10.0, 1.5, 1.5, 1.5, 0.5])
    vacuums = counts[5]
    strata = np.split(_interleave(rng, counts[:5], vacuums), vacuums)
    kinds = np.concatenate(
        [np.insert(stratum, len(stratum) // 2, 5) for stratum in strata]
    )
    # Every template equally often: with 12 templates a 1/rank skew
    # would let the literals of the top two decide the run's counts.
    hot = iter(_even_draws(rng, len(pool), int((kinds == 0).sum())))
    # 50..500 rows: the 200..2 000 of a 200 k table, scaled to this one
    # (the run appends about a third of the table either way).
    sizes = facts.batch_sizes(int((kinds == 1).sum()), 50, 500)
    make = (
        lambda: Stmt("select", pool[int(next(hot))]),
        lambda: facts.insert_arrays(int(next(sizes))),
        facts.delete,
        facts.update,
        dimension_write,
        facts.vacuum,
    )
    inputs.prefill = _selects(pool)
    inputs.scripts = [[make[int(k)]() for k in kinds]]


def _drilldown_reuse(rng: np.random.Generator, inputs: Inputs) -> None:
    """Analyst sessions A, A∧B, A∧B∧C, then narrowed ranges; 30 % of
    the statements are exact repeats of earlier ones."""

    sessions = 0
    # Each session drills into a store no earlier session started from:
    # drawing with replacement would let the number of distinct stores —
    # each one a cold 200 k-row scan — vary with the seed.
    stores = rng.permutation(NUM_STORES)

    def session() -> List[str]:
        nonlocal sessions
        store = int(stores[sessions % NUM_STORES])
        sessions += 1
        day_low = int(rng.integers(0, NUM_DAYS - 100))
        day_high = day_low + int(rng.integers(80, 100))
        disc = int(rng.integers(450, 550))
        a = f"store = {store}"
        if sessions % 2:
            a = f"store >= {store} and store < {store + 2}"
        head = "select count(*), sum(price) from sales where "
        steps = [
            head + a,
            head + f"{a} and day >= {day_low} and day < {day_high}",
            head + f"{a} and day >= {day_low} and day < {day_high} "
            f"and discount < {disc}",
        ]
        # Narrow the day range twice, then the discount bound.
        for _ in range(2):
            shrink = (day_high - day_low) // 6
            day_low += int(rng.integers(shrink - 2, shrink + 3))
            day_high -= int(rng.integers(shrink - 2, shrink + 3))
            steps.append(head + f"{a} and day >= {day_low} and day < {day_high}")
        steps.append(
            head + f"{a} and day >= {day_low} and day < {day_high} "
            f"and discount < {disc - int(rng.integers(100, 200))}"
        )
        return steps

    fresh_total = DRILL_SELECTS * 7 // 10
    seen: set = set()
    fresh: List[str] = []
    while len(fresh) < fresh_total:
        for sql in session():
            if sql not in seen and len(fresh) < fresh_total:
                seen.add(sql)
                fresh.append(sql)
    # Interleave: position p is a repeat with fixed count, seeded places;
    # a repeat re-issues a uniformly drawn earlier statement.
    is_repeat = np.zeros(DRILL_SELECTS, dtype=bool)
    is_repeat[
        rng.choice(
            np.arange(6, DRILL_SELECTS), DRILL_SELECTS - fresh_total, replace=False
        )
    ] = True
    script: List[str] = []
    fresh_iter = iter(fresh)
    for repeat in is_repeat:
        if repeat:
            script.append(script[int(rng.integers(0, len(script)))])
        else:
            script.append(next(fresh_iter))
    inputs.scripts = [_selects(script)]
    inputs.tail = _FactWriter(rng, "sales", SALES_ROWS).tail(TAIL_WRITES)


def _served_mix(rng: np.random.Generator, inputs: Inputs) -> None:
    """60 % hot repeats / 35 % ad-hoc / 5 % writes per client."""
    for client in range(SERVED_CLIENTS):
        table = f"sales_c{client}"
        templates = _Templates(rng, table, SERVED_ROWS)
        pool = templates.hot_pool()[::2]  # 12 templates, same class mix
        writer = _FactWriter(rng, table, SERVED_ROWS)
        kinds = _interleave(
            rng, _apportion(SERVED_PER_CLIENT, [60.0, 35.0, 3.0, 1.0, 1.0]), 4
        )
        hot = iter(
            _skewed_draws(
                rng, (4, 4, 2, 2), (0.30, 0.40, 0.15, 0.15), int((kinds == 0).sum())
            )
        )
        seen = set(pool)
        sizes = writer.batch_sizes(int((kinds == 2).sum()), 10, 40)
        families = iter(_even_draws(rng, 4, int((kinds == 1).sum())))
        make = (
            lambda: Stmt("select", pool[int(next(hot))]),
            lambda: Stmt(
                "select",
                _unique(lambda f=int(next(families)): templates.adhoc(f), seen),
            ),
            lambda: writer.insert_sql(int(next(sizes))),
            writer.delete,
            writer.update,
        )
        script = [make[int(k)]() for k in kinds]
        # One VACUUM per client, mid-script: layout invalidation under load.
        script[len(script) // 2] = writer.vacuum()
        inputs.prefill += _selects(pool)
        inputs.scripts.append(script)


_BUILDERS = {
    "warm_repeat": _warm_repeat,
    "adhoc_bounded": _adhoc_bounded,
    "star_dml": _star_dml,
    "drilldown_reuse": _drilldown_reuse,
    "served_mix": _served_mix,
}


def make_inputs(workload: str, seed: int) -> Inputs:
    """The full-scale inputs of one workload for one seed."""
    inputs = Inputs(workload, _tables(seed, workload))
    rng = np.random.default_rng([seed, 1 + WORKLOADS.index(workload)])
    _BUILDERS[workload](rng, inputs)
    return inputs


# -- digests ----------------------------------------------------------------


def _hash_columns(digest, columns: Columns) -> None:
    for name in sorted(columns):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(columns[name], dtype="<i8").tobytes())


def digests(inputs: Inputs) -> Tuple[str, str]:
    """(tables sha256, statements sha256) of one workload's inputs."""
    tables = hashlib.sha256()
    for name in sorted(inputs.tables):
        tables.update(name.encode())
        _hash_columns(tables, inputs.tables[name])
    statements = hashlib.sha256()
    for group in (inputs.prefill, *inputs.scripts, inputs.tail):
        statements.update(b"|group|")
        for stmt in group:
            statements.update(f"{stmt.kind}\x00{stmt.sql}\x00".encode())
            if stmt.rows is not None:
                _hash_columns(statements, stmt.rows)
    return tables.hexdigest(), statements.hexdigest()


if __name__ == "__main__":
    # Re-pin: python3 benchmarks/e2e/gen.py > benchmarks/e2e/golden.json
    import json

    print(
        json.dumps(
            {
                str(seed): {
                    workload: dict(
                        zip(("tables", "statements"), digests(make_inputs(workload, seed)))
                    )
                    for workload in WORKLOADS
                }
                for seed in (11, 12)
            },
            indent=1,
        )
    )
