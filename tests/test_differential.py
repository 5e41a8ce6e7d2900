"""Differential oracle: cache-enabled vs cache-disabled twin engines.

The predicate cache is an *optimization* — it must never change what a
query returns.  These tests drive randomized workloads (scans mixed
with inserts, deletes, updates, vacuums, and ``t`` dropped and
re-created from another seed) against two engines over
identical twin databases: one with a predicate cache, one without.
After every step the two must agree on result rows, ``rows_output``,
MVCC-visible row counts and one filtered scan the cached twin repeats.  Any divergence is a caching bug
(false negative, stale entry, or broken invalidation).

Two layers of generation:

* hypothesis-driven examples (shrinkable counter-examples), and
* a deterministic seeded 200-step run per variant, so a full-length
  workload is exercised on every CI run regardless of hypothesis
  profiles.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PredicateCache, PredicateCacheConfig, parse_predicate

from tests.twins import (
    COLUMNS,
    assert_rows_equal,
    create_seeded_table,
    seeded_engine,
)

SEED_ROWS = 1200
#: Seed and layout of the twins' table ``t``.
TWIN_DATA = dict(seed=7, rows=SEED_ROWS, num_slices=2, rows_per_block=64)


def build_twins(variant):
    """A cached engine and its cache-off twin over identical data."""
    cache = PredicateCache(PredicateCacheConfig(variant=variant))
    return seeded_engine(cache, **TWIN_DATA), seeded_engine(None, **TWIN_DATA)


# -- the oracle ---------------------------------------------------------------


def apply_step(cached, plain, step, step_no):
    """Apply one workload step to both twins; assert they agree."""
    kind = step[0]
    context = f"step {step_no} {step}"
    if kind == "scan":
        _, column, op, value, shape = step
        where = f"{column} {op} {value}"
        if shape == "agg":
            sql = f"select count(*) as c, sum(v) as s from t where {where}"
        else:
            sql = f"select k, v, w from t where {where}"
        ra = cached.execute(sql)
        rb = plain.execute(sql)
        assert_rows_equal(ra.rows(), rb.rows(), context)
        assert ra.counters.rows_output == rb.counters.rows_output, context
    elif kind == "insert":
        _, seed, n = step
        for engine in (cached, plain):
            rng = np.random.default_rng(seed)
            engine.insert(
                "t",
                {
                    "k": rng.integers(0, 100, n),
                    "v": rng.integers(0, 100, n),
                    "w": rng.integers(0, 100, n),
                },
            )
    elif kind == "delete":
        _, column, value = step
        predicate = f"{column} = {value}"
        na = cached.delete_where("t", parse_predicate(predicate))
        nb = plain.delete_where("t", parse_predicate(predicate))
        assert na == nb, context
    elif kind == "update":
        _, column, value, target = step
        predicate = f"{column} = {value}"
        na = cached.update_where("t", parse_predicate(predicate), {"w": target})
        nb = plain.update_where("t", parse_predicate(predicate), {"w": target})
        assert na == nb, context
    elif kind == "vacuum":
        cached.vacuum(["t"])
        plain.vacuum(["t"])
    elif kind == "recreate":
        for engine in (cached, plain):
            engine.database.drop_table("t")
            create_seeded_table(engine.database, seed=step[1], rows=SEED_ROWS)
    else:  # pragma: no cover - strategy bug
        raise AssertionError(f"unknown step kind {kind!r}")

    # MVCC visibility must agree after every step.
    visible_a = cached.execute("select count(*) as c from t").scalar()
    visible_b = plain.execute("select count(*) as c from t").scalar()
    assert visible_a == visible_b, context


#: One filtered scan both twins answer after every step: the cached
#: twin repeats it, so a stale entry shows as soon as a step makes one.
REPEATED_SCAN = "select count(*) as c, sum(v) as s from t where k < 50"


def assert_repeated_scan_agrees(cached, plain, step_no):
    """Both twins answer :data:`REPEATED_SCAN` alike."""
    context = f"repeated scan after step {step_no}"
    assert_rows_equal(
        cached.execute(REPEATED_SCAN).rows(), plain.execute(REPEATED_SCAN).rows(), context
    )


# -- hypothesis-driven workloads ----------------------------------------------

step_strategy = st.one_of(
    st.tuples(
        st.just("scan"),
        st.sampled_from(COLUMNS),
        st.sampled_from(["<", ">=", "="]),
        st.integers(0, 100),
        st.sampled_from(["agg", "rows"]),
    ),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.integers(1, 60)),
    st.tuples(st.just("delete"), st.sampled_from(COLUMNS), st.integers(0, 100)),
    st.tuples(
        st.just("update"),
        st.sampled_from(COLUMNS),
        st.integers(0, 100),
        st.integers(0, 100),
    ),
    st.just(("vacuum",)),
    st.tuples(st.just("recreate"), st.integers(0, 2**16)),
)


@pytest.mark.parametrize("variant", ["range", "bitmap"])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(step_strategy, min_size=4, max_size=25))
def test_random_workload_never_diverges(variant, steps):
    cached, plain = build_twins(variant)
    for step_no, step in enumerate(steps):
        apply_step(cached, plain, step, step_no)
        assert_repeated_scan_agrees(cached, plain, step_no)


# -- deterministic full-length workload ---------------------------------------


def generate_steps(rng, n):
    # Scans draw from a small predicate pool so the workload *repeats*
    # scans — a hot working set, like the paper's dashboard queries.
    # Unique-every-time predicates would never exercise cache hits.
    scan_pool = [
        (column, op, value, shape)
        for column in COLUMNS
        for op, value in (("<", 25), ("<", 70), (">=", 50), ("=", 13))
        for shape in ("agg", "rows")
    ]
    steps = []
    for _ in range(n):
        kind = rng.choice(
            ["scan"] * 5 + ["insert", "delete", "update", "vacuum", "recreate"]
        )
        column = str(rng.choice(COLUMNS))
        value = int(rng.integers(0, 100))
        if kind == "scan":
            steps.append(("scan", *scan_pool[rng.integers(len(scan_pool))]))
        elif kind == "insert":
            steps.append(("insert", int(rng.integers(0, 2**16)), int(rng.integers(1, 60))))
        elif kind == "delete":
            steps.append(("delete", column, value))
        elif kind == "update":
            steps.append(("update", column, value, int(rng.integers(0, 100))))
        elif kind == "recreate":
            steps.append(("recreate", int(rng.integers(0, 2**16))))
        else:
            steps.append(("vacuum",))
    return steps


@pytest.mark.parametrize("variant,seed", [("range", 101), ("bitmap", 202)])
def test_deterministic_200_step_workload(variant, seed):
    """The acceptance-length run: >= 200 workload steps, zero divergence,
    and the cache must actually have been exercised."""
    cached, plain = build_twins(variant)
    steps = generate_steps(np.random.default_rng(seed), 200)
    assert len(steps) >= 200
    for step_no, step in enumerate(steps):
        apply_step(cached, plain, step, step_no)
        assert_repeated_scan_agrees(cached, plain, step_no)
    stats = cached.predicate_cache.stats
    assert stats.hits > 0, "workload never hit the cache — oracle is vacuous"
    assert plain.predicate_cache is None
