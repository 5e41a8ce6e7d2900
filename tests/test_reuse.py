"""The predicate reuse lattice (DESIGN.md §14).

Three serving paths beyond exact-match lookup: conjunct decomposition,
intersection composition, and subsumption matching.  All of them serve
*supersets* of the true qualifying rows, and the scan kernel
(``scan._run_scan`` / ``_evaluate_all``) re-checks every candidate, so
the correctness bar is the same differential oracle as the base cache:
a reuse-enabled engine must be bit-identical to a cache-off twin —
rows, ``rows_output``, and ``blocks_accessed`` never worse — under
chaos and across persistence round trips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    FaultInjector,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    RetryPolicy,
    Tracer,
    invariants,
    parse_predicate,
)
from repro.core.entry import CacheEntry, RangeSliceState
from repro.core.keys import ScanKey, SemiJoinDescriptor, conjunct_key
from repro.persist.format import (
    decode_journal_payload,
    decode_snapshot,
    encode_snapshot,
    encode_state_event,
)
from repro.persist.records import EntryRecord, key_digest
from repro.predicates import (
    Bounds,
    exact_interval,
    exact_interval_of_key,
    single_column_range,
)
from repro.predicates.normalize import _simplify, normalize, push_not_inward, to_cnf
from repro.predicates.parser import PredicateParseError
from repro.reuse import decompose, find_subsuming
from repro.reuse.decompose import MAX_CONJUNCTS
from repro.storage import ColumnSpec, DataType, TableSchema
from repro.storage.table import INCARNATION

from tests.rowsets import rows
from tests.twins import COLUMNS, assert_rows_equal, seeded_engine

SEED_ROWS = 1500


def reuse_config(variant="range", **overrides):
    return PredicateCacheConfig(variant=variant, enable_reuse=True, **overrides)


def build_twins(config, seed_rows=SEED_ROWS, inject=None):
    """Reuse-enabled cached engine vs cache-off twin; ``inject`` faults
    the cached side's storage only."""
    data = dict(seed=11, rows=seed_rows, num_slices=2, rows_per_block=64)
    cached = seeded_engine(PredicateCache(config), **data)
    if inject is not None:
        cached.database.attach_faults(inject, RetryPolicy(max_attempts=8))
    return cached, seeded_engine(None, **data)


def drilldown_steps(rounds=4, seed=5):
    """Drill-down scan session over t (the SSB shape, smaller data):
    broad single conjunct, then conjunctions, then narrowed repeats."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rounds):
        k_lo = int(rng.integers(0, 30))
        k_hi = k_lo + int(rng.integers(30, 60))
        v_lo = int(rng.integers(0, 40))
        w_hi = int(rng.integers(40, 90))
        a = f"k between {k_lo} and {k_hi}"
        b = f"v >= {v_lo}"
        c = f"w < {w_hi}"
        out.append(a)
        out.append(f"{a} and {b}")
        out.append(f"{a} and {b} and {c}")
        nk_lo, nk_hi = k_lo + 3, max(k_lo + 3, k_hi - 5)
        na = f"k between {nk_lo} and {nk_hi}"
        nb = f"v >= {v_lo + 2}"
        out.append(na)
        out.append(f"{na} and {nb}")
        out.append(f"{na} and {nb} and {c}")
    return out


#: Cached/requested pairs where the cached predicate's zone-map *hull*
#: contains the request but its truth does not (AND <> -> =, IN -> =,
#: IN -> BETWEEN).  Serving the request from such an entry returns no
#: rows.  The values sit above every range ``drilldown_steps`` caches,
#: and the least selective bad entry goes first, so no sound tighter
#: entry outranks the bad one and masks it.
HULL_SUBSUMPTION_STEPS = [
    "k >= 5 and k <> 93",
    "k = 93",
    "k in (7, 97)",
    "k = 95",
    "k in (3, 99)",
    "k between 90 and 98",
]


def run_drilldown(cached, plain, predicates):
    """Execute the session on both twins, asserting the oracle per query."""
    for i, where in enumerate(predicates):
        for sql in (
            f"select k, v, w from t where {where}",
            f"select count(*) as c, sum(v) as s from t where {where}",
        ):
            ra = cached.execute(sql)
            rb = plain.execute(sql)
            assert_rows_equal(ra.rows(), rb.rows(), f"query {i}: {sql}")
            assert ra.counters.rows_output == rb.counters.rows_output
            assert (
                ra.counters.blocks_accessed <= rb.counters.blocks_accessed
            ), f"query {i}: reuse read more blocks than cache-off ({sql})"


# -- decomposition ------------------------------------------------------------


def test_decompose_splits_conjunctions():
    pred = parse_predicate("k < 50 and v >= 20 and w = 3")
    d = decompose("t", pred)
    assert d is not None and d.table == "t"
    keys = {c.key.predicate_key for c in d.conjuncts}
    assert len(d.conjuncts) == 3
    assert any("k" in k for k in keys)
    for c in d.conjuncts:
        assert c.key == conjunct_key("t", c.predicate.cache_key())
        assert c.key.semijoins == ()


def test_decompose_rejects_trivial_and_oversized():
    from repro.predicates.ast import TruePredicate

    assert decompose("t", TruePredicate()) is None
    # Contradictions normalize to FalsePredicate — also undecomposable.
    assert decompose("t", parse_predicate("k < 5 and k > 10")) is None

    def conjunction(n):
        return parse_predicate(" and ".join(f"c{i} = {i}" for i in range(n)))

    assert len(decompose("t", conjunction(MAX_CONJUNCTS)).conjuncts) == MAX_CONJUNCTS
    assert decompose("t", conjunction(MAX_CONJUNCTS + 1)) is None


def test_decompose_dedups_repeated_conjuncts():
    pred = parse_predicate("k < 50 and k < 50 and v >= 1")
    d = decompose("t", pred)
    assert d is not None
    keys = [c.key.predicate_key for c in d.conjuncts]
    assert len(keys) == len(set(keys))


# -- subsumption --------------------------------------------------------------


def test_bounds_containment():
    def bounds_of(expr):
        parsed = single_column_range(parse_predicate(expr))
        assert parsed is not None, expr
        return parsed[1]

    wide = bounds_of("k between 10 and 90")
    narrow = bounds_of("k between 20 and 80")
    assert wide.contains(narrow)
    assert not narrow.contains(wide)
    # Half-open containment and strictness at the edges.
    assert bounds_of("k < 50").contains(bounds_of("k < 50"))
    assert bounds_of("k <= 50").contains(bounds_of("k < 50"))
    assert not bounds_of("k < 50").contains(bounds_of("k <= 50"))
    assert bounds_of("k >= 10").contains(bounds_of("k between 10 and 20"))
    assert not bounds_of("k >= 30").contains(bounds_of("k between 10 and 20"))


def test_single_column_range_rejects_multi_column_and_unbounded():
    assert single_column_range(parse_predicate("k < v")) is None
    assert single_column_range(parse_predicate("k < 5 or v < 5")) is None


# -- the subsumption matcher against its linear reference ---------------------


def linear_find_subsuming(cache, conjunct):
    """The matcher as a walk of every live entry, re-parsing each key —
    the reference the interval index must agree with, entry for entry."""

    def parsed(predicate_key):
        try:
            return single_column_range(parse_predicate(predicate_key))
        except PredicateParseError:
            return None

    requested = parsed(conjunct.key.predicate_key)
    if requested is None:
        return None
    column, wanted, _ = requested
    best, best_rank = None, (float("inf"), float("inf"))
    for entry in cache.entries():
        key = entry.key
        if (
            key.is_join_key
            or key.table != conjunct.key.table
            or key.predicate_key == conjunct.key.predicate_key
        ):
            continue
        cached = parsed(key.predicate_key)
        if cached is None or cached[0] != column or not cached[2]:
            continue
        if not cached[1].contains(wanted):
            continue
        if not any(state is not None for state in entry.slice_states):
            continue
        rank = (entry.selectivity, cached[1].width())
        if rank < best_rank:
            best, best_rank = entry, rank
    return best


def linear_build_side(cache, table_name):
    """The keys a write to ``table_name`` makes stale, by a walk."""
    return {key for key in cache.keys() if table_name in key.referenced_tables()}


def the_conjunct(text):
    """The one conjunct of a single-conjunct predicate."""
    (conjunct,) = decompose("t", parse_predicate(text)).conjuncts
    return conjunct


def plain_key(text):
    """The plain cache key of predicate ``text`` on ``t``."""
    return ScanKey("t", parse_predicate(text).cache_key())


def install_plain(cache, text, stats=None):
    """A plain entry on ``text`` with one recorded slice state and, if
    given, ``(rows_qualifying, rows_considered)``."""
    entry = cache.get_or_create(plain_key(text), 2)
    cache.record_slice_scan(entry, 0, rows((0, 4)), 16)
    if stats is not None:
        entry.rows_qualifying, entry.rows_considered = stats
    return entry


def served(cache, request):
    """``find_subsuming``'s answer for ``request``, checked against the
    linear reference."""
    conjunct = the_conjunct(request)
    found = find_subsuming(cache, conjunct)
    assert found is linear_find_subsuming(cache, conjunct)
    return found


def test_hull_entries_never_serve_a_point_in_their_hole():
    cache = PredicateCache(reuse_config())
    install_plain(cache, "k in (7, 80)")
    install_plain(cache, "k >= 5 and k <> 26")
    assert served(cache, "k = 26") is None
    exact = install_plain(cache, "k between 20 and 30")
    assert served(cache, "k = 26") is exact


def test_equal_intervals_most_selective_wins():
    """Same interval, two keys: the more selective one serves although
    the other is less recently used (which would win a full tie)."""
    cache = PredicateCache(reuse_config())
    install_plain(cache, "k between 10 and 50", stats=(50, 100))
    tighter = install_plain(cache, "k >= 10 and k <= 50", stats=(10, 100))
    assert served(cache, "k = 26") is tighter


def test_equal_selectivity_narrowest_wins():
    cache = PredicateCache(reuse_config())
    texts = ("k < 95", "k between 0 and 90", "k between 10 and 60")
    entries = [install_plain(cache, text) for text in texts]
    assert served(cache, "k = 26") is entries[-1]
    assert len({entry.selectivity for entry in entries}) == 1


def test_entry_without_recorded_state_is_skipped():
    cache = PredicateCache(reuse_config())
    cache.get_or_create(ScanKey("t", "k BETWEEN 10 AND 60"), 2)
    assert served(cache, "k = 26") is None
    wide = install_plain(cache, "k < 90")
    assert served(cache, "k = 26") is wide


def test_bounds_a_float_cannot_hold_are_rechecked():
    """2**53 + 1 is 2**53 as a float, and a string is no float at all: the
    interval index keeps such an end as inexact and ``Bounds.contains``
    decides, so no true container is dropped and no false one serves."""
    cache = PredicateCache(reuse_config())
    big = 2**53
    huge = install_plain(cache, f"g < {big + 1}")
    assert served(cache, f"g <= {big}") is huge
    assert served(cache, f"g <= {big + 1}") is None
    text = install_plain(cache, "s < 'c'")
    assert served(cache, "s <= 'bb'") is text
    assert served(cache, "s <= 'c'") is None


def test_strict_and_non_strict_ends_tied_at_equal_values():
    """An open end contains an equal end only if that end is open too;
    a closed end contains both.  ``4`` and ``4.0`` are one value."""
    for cached, tied, inside in (
        ("k > 4", ("k >= 4", "k = 4", "k >= 4.0"), ("k > 4.0", "k between 5 and 6")),
        ("k < 9", ("k <= 9", "k = 9", "k <= 9.0"), ("k < 9.0", "k between 5 and 8")),
    ):
        cache = PredicateCache(reuse_config())
        entry = install_plain(cache, cached)
        for request in tied:
            assert served(cache, request) is None, request
        for request in inside:
            assert served(cache, request) is entry, request
    cache = PredicateCache(reuse_config())
    closed = install_plain(cache, "k between 4 and 9")
    for request in ("k between 4 and 8", "k between 4.0 and 9.0", "k = 4", "k = 9.0"):
        assert served(cache, request) is closed, request


def test_half_open_tie_goes_to_the_least_recently_used_entry():
    """Two half-open entries at equal selectivity rank equal (width inf):
    the one used least recently serves — in the order a walk of the
    whole cache meets them, not the order they were installed."""
    cache = PredicateCache(reuse_config())
    first = install_plain(cache, "day < 707")
    second = install_plain(cache, "day < 698")
    assert served(cache, "day < 697") is first
    assert cache.lookup(first.key) is first  # now the most recently used
    assert served(cache, "day < 697") is second
    assert cache.lookup_part(second.key) is second
    assert served(cache, "day < 697") is first


@pytest.mark.parametrize("drop", ["evict", "invalidate", "vacuum"])
def test_dropped_entries_are_never_returned(drop):
    one = install_plain(PredicateCache(reuse_config()), "k < 90").nbytes
    cache = PredicateCache(reuse_config(max_bytes=one))
    wide = install_plain(cache, "k < 90")
    assert served(cache, "k = 26") is wide
    if drop == "evict":
        install_plain(cache, "v < 3")
        assert cache.stats.evictions == 1
    elif drop == "invalidate":
        assert cache.drop_stale(wide.key)
    else:
        cache.invalidate_table("t")
    assert wide.key not in cache
    assert served(cache, "k = 26") is None


def test_write_to_region_drops_lineitem_key_joined_through_nation():
    db = Database(num_slices=1)
    for name in ("lineitem", "nation", "region"):
        db.create_table(TableSchema(name, (ColumnSpec("x", DataType.INT64),)))
    cache = PredicateCache(reuse_config())
    region = SemiJoinDescriptor("n_regionkey = r_regionkey", "region", "x = 2")
    through_region = ScanKey(
        "lineitem", "x < 5",
        (SemiJoinDescriptor("l_nationkey = n_nationkey", "nation", "TRUE", (region,)),),
    )
    nation_only = ScanKey(
        "lineitem", "x < 5", (SemiJoinDescriptor("l_nationkey = n_nationkey", "nation"),)
    )
    plain = ScanKey("lineitem", "x < 5")
    def versions():
        return {name: db.table(name).data_version for name in ("nation", "region")}

    recorded = versions()
    for key in (through_region, nation_only, plain):
        cache.get_or_create(
            key, 1, {name: recorded[name] for name in key.referenced_tables()}
        )
    assert linear_build_side(cache, "region") == {through_region}
    db.table("region").insert({"x": [1]}, db.begin())
    # The write calls into no cache; the next probe drops the stale key.
    assert through_region in cache
    cache.select_entry([through_region, nation_only, plain], versions())
    assert through_region not in cache
    assert nation_only in cache and plain in cache
    assert cache.stats.stale_rejections == 1
    invariants.check_cache(cache)


def test_clear_leaves_both_indexes_empty():
    cache = PredicateCache(reuse_config())
    for text in ("k < 5", "k between 1 and 9", "v >= 3", "k in (1, 2)"):
        install_plain(cache, text)
    join = ScanKey("t", "k < 5", (SemiJoinDescriptor("a = b", "d", "TRUE", (
        SemiJoinDescriptor("c = e", "d2"),
    )),))
    cache.get_or_create(join, 2)
    assert set(cache._ranges) == {("t", "k"), ("t", "v")}
    cache.clear()
    assert cache._ranges == {} and cache._range_columns == {}
    invariants.check_cache(cache)


def test_reuse_off_keeps_no_interval_index():
    cache = PredicateCache(PredicateCacheConfig(variant="range"))
    install_plain(cache, "k < 5")
    assert cache._ranges == {}
    assert cache.range_candidates("t", "k", Bounds(hi=9)) is None
    invariants.check_cache(cache)


def _weighted(*options):
    """One of the ``(weight, strategy)`` options, drawn in proportion to
    its weight (``st.one_of`` draws its branches evenly)."""
    choices = [strategy for weight, strategy in options for _ in range(weight)]
    return st.sampled_from(range(len(choices))).flatmap(choices.__getitem__)


_column = st.sampled_from(["k", "v", "day"])
_value = st.integers(0, 9)
_comparison = st.builds(
    "{} {} {}".format,
    _column,
    st.sampled_from(["<", "<", "<=", ">", ">", ">=", "=", "<>"]),
    _value,
)
_between = st.builds(
    lambda c, lo, width: f"{c} between {lo} and {lo + width}",
    _column, _value, st.integers(0, 5),
)
_atom = _weighted(
    (2, _comparison),
    (2, _between),
    (1, st.builds(lambda c, a, b: f"{c} in ({a}, {b})", _column, _value, _value)),
    (1, st.builds(lambda c, p: f"{c} like '{p}%'", _column, st.integers(0, 9))),
)
_predicate_text = _weighted((3, _atom), (1, st.builds("{} and {}".format, _atom, _atom)))
#: Drill-down keys: half-open ranges on one column, which all rank at
#: width ``inf`` — where equal ranks, hence the LRU tie rule, are common.
_drill = st.builds("day {} {}".format, st.sampled_from(["<", "<="]), st.integers(4, 9))
_join_key = st.builds(
    lambda text, build, nested: ScanKey(
        "t",
        plain_key(text).predicate_key,
        (SemiJoinDescriptor(
            "a = b", build, "TRUE",
            tuple(SemiJoinDescriptor("c = d", n) for n in nested),
        ),),
    ),
    _predicate_text,
    st.sampled_from(["d1", "d2"]),
    st.lists(st.sampled_from(["d2", "d3"]), max_size=2, unique=True),
)
#: Bounds a float array cannot hold exactly, which the matcher re-checks
#: with ``Bounds.contains``: strings, and ints past 2**53 (2**53 + 1 reads
#: as 2**53 as a float).  Their small value sets, with ``<`` beside
#: ``<=`` and ``>`` beside ``>=``, tie strict and non-strict ends at
#: equal values, as ``day 4.0`` beside ``day 4`` ties a float to an int.
_huge = st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3])
_inexact = _weighted(
    (1, st.builds(
        "s {} '{}'".format, st.sampled_from(["<", "<=", ">", ">=", "="]),
        st.sampled_from(["a", "b", "bb", "c"]),
    )),
    (1, st.builds(
        lambda lo, hi: f"s between '{min(lo, hi)}' and '{max(lo, hi)}'",
        st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"]),
    )),
    (3, st.builds(
        "g {} {}".format, st.sampled_from(["<", "<=", ">", ">=", "="]), _huge,
    )),
    (1, st.builds(
        lambda lo, hi: f"g between {min(lo, hi)} and {max(lo, hi)}", _huge, _huge,
    )),
    (1, st.builds(
        "day {} {}".format, st.sampled_from(["<", "<=", ">", ">="]),
        st.sampled_from(["4", "4.0", "4.5", "5"]),
    )),
)
_install = st.tuples(
    st.just("install"),
    _weighted(
        (2, _drill.map(plain_key)),
        (2, _predicate_text.map(plain_key)),
        (2, _inexact.map(plain_key)),
        (1, _join_key),
    ),
    st.sampled_from([{0}, {1}, {0, 1}, {0, 1}, set()]),
    st.sampled_from([(0, 0), (0, 0), (1, 2), (1, 4)]),
)
#: Lookups, restores and stale drops name an earlier install by index.
_installed = st.integers(0, 63)
#: Weighted so the cache grows past its byte budget between the rare
#: whole-table wipes.
_operation = _weighted(
    (16, _install),
    (8, st.tuples(st.sampled_from(["lookup", "lookup_part"]), _installed)),
    (1, st.tuples(st.just("restore"), _installed)),
    (2, st.tuples(st.just("build_write"), st.sampled_from(["d1", "d2", "d3"]))),
    (1, st.tuples(st.just("drop_stale"), _installed)),
    (1, st.tuples(st.sampled_from(["vacuum", "clear"]))),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    operations=st.lists(_operation, min_size=20, max_size=60),
    requests=st.lists(
        st.one_of(
            _atom,
            st.builds("day {} {}".format, st.sampled_from(["<", "="]), st.integers(0, 4)),
            _inexact,
            _inexact,
        ),
        min_size=3,
        max_size=8,
    ),
)
def test_indexed_matcher_twins_the_linear_walk(operations, requests):
    """Installs, lookups (each touches the LRU), restores over live keys,
    evictions under ``max_bytes``, build-side writes, stale drops,
    vacuums and clears, in any order: after every step the indexed
    matcher returns the very entry the linear walk does, and probes
    after a build-side write drop the very key set a walk selects."""
    cache = PredicateCache(reuse_config("range", max_bytes=480))
    stamps = {"d1": 0, "d2": 0, "d3": 0}

    def recorded(key):
        return {name: stamps[name] for name in key.referenced_tables()}

    installed = []
    # ``day < 1`` lies inside every drill-down key: most steps pit
    # equally ranked entries against each other.
    conjuncts = [the_conjunct("day < 1")]
    for text in requests:
        decomposition = decompose("t", parse_predicate(text))
        if decomposition is not None:
            conjuncts.extend(decomposition.conjuncts)
    for operation in operations:
        kind = operation[0]
        if kind in ("lookup", "lookup_part", "restore", "drop_stale"):
            if not installed:
                continue
            key = installed[operation[1] % len(installed)]
        if kind == "install":
            _, key, slices, stats = operation
            installed.append(key)
            entry = cache.get_or_create(key, 2, recorded(key))
            for slice_id in sorted(slices):
                cache.record_slice_scan(entry, slice_id, rows((0, 3)), 12)
            entry.rows_qualifying, entry.rows_considered = stats
        elif kind == "lookup":
            cache.lookup(key, stamps)
        elif kind == "lookup_part":
            cache.lookup_part(key, stamps)
        elif kind == "restore":
            cache.install_restored(
                key, 2, recorded(key),
                {0: RangeSliceState(rows((1, 2)), 8, 16)},
                stats=(1, 2, 4),
            )
        elif kind == "build_write":
            stamps[operation[1]] += 1
            expected = linear_build_side(cache, operation[1])
            before = set(cache.keys())
            for stale in expected:
                cache.lookup(stale, stamps)
            assert before - set(cache.keys()) == expected
        elif kind == "drop_stale":
            cache.drop_stale(key)
        elif kind == "vacuum":
            cache.invalidate_table("t")
        else:
            cache.clear()
        for conjunct in conjuncts:
            assert find_subsuming(cache, conjunct) is linear_find_subsuming(
                cache, conjunct
            ), (operation, conjunct.key)
        invariants.check_cache(cache)


@settings(max_examples=100, deadline=None)
@given(text=_predicate_text)
def test_requested_side_read_off_the_conjunct_equals_parsing_its_key(text):
    """The matcher reads the requested interval off the decomposed
    conjunct's predicate instead of parsing its canonical key back."""
    decomposition = decompose("t", parse_predicate(text))
    if decomposition is None:
        return
    for conjunct in decomposition.conjuncts:
        assert single_column_range(conjunct.predicate) == single_column_range(
            parse_predicate(conjunct.key.predicate_key)
        )


@settings(max_examples=200, deadline=None)
@given(text=_predicate_text)
def test_the_range_index_reads_the_interval_parsing_the_key_would(text):
    """A new plain entry's range index takes the interval of the
    predicate the scan holds — the parsed one, its normalized form, or a
    decomposed conjunct — not of its key parsed back: the two agree,
    exact or not."""
    parsed = parse_predicate(text)
    held = [parsed, normalize(parsed)]
    decomposition = decompose("t", parsed)
    if decomposition is not None:
        held += [conjunct.predicate for conjunct in decomposition.conjuncts]
    for predicate in held:
        interval = exact_interval(predicate)
        assert interval == exact_interval_of_key(predicate.cache_key())
        whole = single_column_range(predicate)
        if whole is not None and whole[2]:
            assert interval == whole[:2]


def two_pass_normalize(predicate):
    """``normalize`` as it was before it returned early: simplified, put
    in CNF and simplified again, whatever the first pass left."""
    return _simplify(to_cnf(_simplify(push_not_inward(predicate))))


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        _predicate_text,
        st.builds("not ({})".format, _predicate_text),
        st.builds("({}) or ({})".format, _predicate_text, _predicate_text),
        st.builds("not (({}) or ({}))".format, _predicate_text, _predicate_text),
    )
)
def test_one_pass_normalize_equals_the_two_pass_form(text):
    """A first simplification that leaves no OR is already canonical:
    the same predicate, hence the same cache key."""
    predicate = parse_predicate(text)
    once, twice = normalize(predicate), two_pass_normalize(predicate)
    assert once == twice
    assert once.cache_key() == twice.cache_key()


def test_derived_entries_do_not_double_count_budget():
    """A reuse serve reads its source entries' states in place and
    stores nothing of its own, so serving from composition adds zero
    bytes; only real installs count."""
    cached, plain = build_twins(reuse_config())
    cache = cached.predicate_cache
    run_drilldown(cached, plain, drilldown_steps(rounds=2))
    assert cache.reuse_stats.serves > 0
    for entry in cache.entries():
        assert type(entry) is CacheEntry
    assert cache.total_nbytes == sum(e.nbytes for e in cache.entries())
    invariants.check_cache(cache)


def test_composed_serve_drops_every_source_when_one_is_stale():
    """One source's watermark outruns its slice (a missed
    invalidation): the scan drops *every* entry it was composed from
    and scans in full, with the cache-off twin's answer."""
    cached, plain = build_twins(reuse_config("range"))
    cache = cached.predicate_cache
    for where in ("k < 50", "v >= 20"):
        cached.execute(f"select count(*) as c from t where {where}")
    sources = cache.entries()
    assert len(sources) == 2
    for state in sources[1].slice_states:
        state.last_cached_row = 10**9

    sql = "select count(*) as c from t where k < 50 and v >= 20"
    result = cached.execute(sql)
    assert result.scalar() == plain.execute(sql).scalar()
    assert cache.reuse_stats.composed_serves == 1
    assert result.counters.degraded_scans == 1
    assert cache.stats.invalidations == 2
    assert not any(source.key in cache for source in sources)
    invariants.check_cache(cache)


@pytest.mark.parametrize("variant", ["range", "bitmap"])
def test_a_column_interval_is_probed_as_one_part(variant):
    """``k >= 10 and k < 30`` decomposes into two half-open conjuncts.
    Its first scan is served from a wider interval and reads only that
    one's rows, so each half's derived set holds nearly every row, while
    the interval's own plain key holds its exact rows: that entry serves
    the column, and neither half is probed."""
    cached, plain = build_twins(reuse_config(variant), seed_rows=2000)
    cache = cached.predicate_cache
    both_twins(cached, plain, "select k, v from t where k >= 5 and k < 40")
    interval = "k >= 10 and k < 30"
    first = both_twins(cached, plain, f"select k, v from t where {interval}")
    assert first.counters.reuse_subsumed_serves == 1
    (entry,) = (live for live in cache.entries() if live.key == plain_key(interval))
    lookups = cache.reuse_stats.conjunct_lookups
    where = f"{interval} and v < 50"
    result = both_twins(cached, plain, f"select k, v from t where {where}")
    assert result.counters.reuse_composed_serves == 1
    # One probe for the interval, one for ``v < 50``: none for a half.
    assert cache.reuse_stats.conjunct_lookups - lookups == 2
    candidates = sum(
        state.count(data_slice.num_rows)
        for state, data_slice in zip(
            entry.slice_states, cached.database.table("t").slices
        )
    )
    assert result.counters.rows_scanned <= candidates
    if variant == "range":  # exact: the candidates are the interval's rows
        assert candidates == first.counters.rows_qualifying
    invariants.check_cache(cache)


@pytest.mark.parametrize("variant", ["range", "bitmap"])
def test_an_interval_entry_without_state_falls_back_to_its_halves(variant):
    cached, plain = build_twins(reuse_config(variant))
    cache = cached.predicate_cache
    halves = ("k >= 10", "k < 30")
    for half in halves:
        both_twins(cached, plain, f"select k from t where {half}")
    cache.get_or_create(plain_key("k >= 10 and k < 30"), 2)
    lookups = cache.reuse_stats.conjunct_lookups
    keys = {plain_key(half) for half in halves}
    parts = [entry for entry in cache.entries() if entry.key in keys]
    hits = [part.hits for part in parts]
    where = "k >= 10 and k < 30 and v < 50"
    result = both_twins(cached, plain, f"select k, v from t where {where}")
    assert result.counters.reuse_composed_serves == 1
    assert cache.reuse_stats.conjunct_lookups - lookups == 4
    # Each half was probed and found live: the serve was composed of them.
    assert len(parts) == 2
    assert [part.hits for part in parts] == [hit + 1 for hit in hits]


def test_an_exact_hit_stays_exact_with_reuse_on():
    """A repeat of a conjunction is an exact-match hit: it derives no
    conjunct set (the first run did), so its exact states take their
    verdict instead of re-evaluating every candidate."""
    engine = traced_engine()
    sql = "select count(*) as c from t where k < 50 and v >= 20"
    engine.execute(sql)
    repeat = engine.execute(sql)
    assert repeat.counters.cache_hits == 1
    for slice_id in range(2):
        span = repeat.trace.find(f"scan[slice {slice_id}]")
        assert span.attrs["cache_basis"] == "plain"
        assert span.attrs["exact"] is True


def both_twins(cached, plain, sql):
    """Run ``sql`` on both twins, assert they agree, return the cached result."""
    ra, rb = cached.execute(sql), plain.execute(sql)
    assert_rows_equal(ra.rows(), rb.rows(), sql)
    return ra


def traced_engine(rows=500):
    """A traced, reuse-enabled engine over ``rows`` rows of t in 2 slices."""
    db = Database(num_slices=2, rows_per_block=64)
    db.create_table(
        TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
    )
    engine = QueryEngine(
        db, predicate_cache=PredicateCache(reuse_config()), tracer=Tracer()
    )
    rng = np.random.default_rng(3)
    engine.insert("t", {c: rng.integers(0, 100, rows) for c in COLUMNS})
    return engine


def test_reuse_serve_lookup_span_reports_no_entry_stats():
    """A reuse serve has no single entry: its cache-lookup span carries
    the outcome and basis only, while an exact hit adds the entry's
    selectivity and size."""
    engine = traced_engine()
    engine.execute("select count(*) as c from t where k < 50")

    def lookup_attrs(where):
        trace = engine.execute(f"select count(*) as c from t where {where}").trace
        return trace.find("cache-lookup").attrs

    served = lookup_attrs("k < 50 and v >= 20")
    assert served["outcome"] == "reuse-composed"
    assert "entry_selectivity" not in served and "entry_nbytes" not in served
    hit = lookup_attrs("k < 50")
    assert hit["outcome"] == "hit"
    assert "entry_selectivity" in hit and hit["entry_nbytes"] > 0


# -- the oracle: drill-down session -------------------------------------------


@pytest.mark.parametrize("variant", ["range", "bitmap"])
def test_drilldown_bit_identical_and_reuse_exercised(variant):
    cached, plain = build_twins(reuse_config(variant))
    run_drilldown(cached, plain, drilldown_steps(rounds=4))
    run_drilldown(cached, plain, HULL_SUBSUMPTION_STEPS)
    reuse = cached.predicate_cache.reuse_stats
    assert reuse.composed_serves > 0, "workload never composed — vacuous"
    assert reuse.subsumed_serves > 0, "workload never subsumed — vacuous"
    assert reuse.conjunct_hits > 0
    invariants.check_cache(cached.predicate_cache)


def test_reuse_off_by_default_and_stats_stay_pure():
    """Exact-match stats (paper Fig 13) are unchanged by the lattice:
    a reuse-served scan still counts as an exact-match miss."""
    cached, plain = build_twins(PredicateCacheConfig())
    assert cached.predicate_cache.config.enable_reuse is False
    run_drilldown(cached, plain, drilldown_steps(rounds=2))
    reuse = cached.predicate_cache.reuse_stats
    assert reuse.composed_serves == 0 and reuse.subsumed_serves == 0

    cached2, plain2 = build_twins(reuse_config())
    run_drilldown(cached2, plain2, drilldown_steps(rounds=2))
    stats = cached2.predicate_cache.stats
    reuse2 = cached2.predicate_cache.reuse_stats
    assert reuse2.serves > 0
    # Every reuse serve is still an exact-match miss underneath.
    assert stats.misses >= reuse2.serves


def test_conjunct_list_on_a_scanned_key_is_never_an_exact_hit():
    """A direct scan of ``x < 25`` and the decomposer's ``x < 25``
    conjunct share one entry.  After an INSERT, a composed scan of ``x <
    25 and y > 50`` extends that entry's tail with a complement-padded
    conjunct list: false positives.  Exactness must follow the state,
    not the entry's ``scan`` provenance, or the next exact-match hit on
    ``x < 25`` skips the re-check and returns the padding."""
    twins = []
    for use_cache in (True, False):
        db = Database(num_slices=1, rows_per_block=64)
        db.create_table(
            TableSchema(
                "t", tuple(ColumnSpec(c, DataType.INT64) for c in ("x", "y"))
            )
        )
        cache = PredicateCache(reuse_config()) if use_cache else None
        twins.append(QueryEngine(db, predicate_cache=cache))
    cached, plain = twins
    rng = np.random.default_rng(3)
    seed = {c: rng.integers(0, 100, 1000) for c in ("x", "y")}
    more = {c: rng.integers(0, 100, 300) for c in ("x", "y")}

    def both(sql):
        ra, rb = cached.execute(sql), plain.execute(sql)
        assert_rows_equal(ra.rows(), rb.rows(), sql)
        assert ra.counters.rows_qualifying == rb.counters.rows_qualifying
        return ra

    for engine in twins:
        engine.insert("t", seed)
    both("select x, y from t where x < 25")
    for engine in twins:
        engine.insert("t", more)
    both("select x, y from t where y > 50")
    composed = both("select x, y from t where x < 25 and y > 50")
    assert composed.counters.reuse_composed_serves == 1
    live = {entry.key: entry for entry in cached.predicate_cache.entries()}
    (state,) = live[plain_key("x < 25")].slice_states
    assert state.last_cached_row == 1300 and not state.exact
    repeat = both("select x, y from t where x < 25")
    assert repeat.counters.cache_hits == 1


# -- hypothesis property: random conjunctive sessions -------------------------

conjunct_strategy = st.tuples(
    st.sampled_from(COLUMNS),
    st.sampled_from(["<", "<=", ">=", ">"]),
    st.integers(0, 100),
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scans=st.lists(
        st.lists(conjunct_strategy, min_size=1, max_size=3),
        min_size=3,
        max_size=12,
    ),
)
def test_random_conjunctive_scans_never_diverge(scans):
    cached, plain = build_twins(reuse_config(), seed_rows=500)
    for i, conjuncts in enumerate(scans):
        where = " and ".join(f"{c} {op} {val}" for c, op, val in conjuncts)
        sql = f"select k, v, w from t where {where}"
        ra = cached.execute(sql)
        rb = plain.execute(sql)
        assert_rows_equal(ra.rows(), rb.rows(), f"scan {i}: {sql}")
        assert ra.counters.blocks_accessed <= rb.counters.blocks_accessed
    invariants.check_cache(cached.predicate_cache)


# -- chaos: reuse serving under fault injection -------------------------------


def test_drilldown_under_chaos_with_dml():
    """Faults on the cached twin only; drill-down scans interleaved
    with inserts, deletes, and vacuums.  Zero divergence."""
    injector = FaultInjector(
        seed=17,
        error_rate=0.05,
        corruption_rate=0.01,
        latency_rate=0.0,
    )
    cached, plain = build_twins(reuse_config(), inject=injector)
    rng = np.random.default_rng(23)
    predicates = drilldown_steps(rounds=3, seed=9)
    for i, where in enumerate(predicates):
        sql = f"select k, v, w from t where {where}"
        ra = cached.execute(sql)
        rb = plain.execute(sql)
        assert_rows_equal(ra.rows(), rb.rows(), f"chaos query {i}: {sql}")
        if i % 4 == 1:
            seed = int(rng.integers(0, 2**16))
            for engine in (cached, plain):
                r = np.random.default_rng(seed)
                engine.insert(
                    "t", {c: r.integers(0, 100, 40) for c in COLUMNS}
                )
        elif i % 4 == 3:
            value = int(rng.integers(0, 100))
            na = cached.delete_where("t", parse_predicate(f"k = {value}"))
            nb = plain.delete_where("t", parse_predicate(f"k = {value}"))
            assert na == nb
        elif i % 8 == 6:
            cached.vacuum(["t"])
            plain.vacuum(["t"])
    assert (
        injector.errors_injected + injector.corruptions_injected > 0
    ), "chaos was vacuous"
    reuse = cached.predicate_cache.reuse_stats
    assert reuse.serves > 0 or reuse.conjunct_hits > 0
    invariants.check_cache(cached.predicate_cache)


# -- persistence: derived entries survive round trips -------------------------


def derived_record():
    """A record whose reserved provenance fields hold what a version-2
    writer could have put there: they still round-trip."""
    entry = CacheEntry(ScanKey("t", "k < 50 and v >= 20"), 2, {})
    entry.slice_states[0] = RangeSliceState(rows((0, 10), (20, 32)), 40, 16)
    record = EntryRecord.from_entry(entry, table_layout=0)
    record.provenance = "composed"
    record.source_digests = (
        key_digest(conjunct_key("t", "k < 50")),
        key_digest(conjunct_key("t", "v >= 20")),
    )
    return record


def test_snapshot_round_trip_preserves_provenance():
    record = derived_record()
    decoded, _meta, issues = decode_snapshot(
        encode_snapshot({record.digest: record})
    )
    assert issues.clean
    got = decoded[record.digest]
    assert got == record
    assert got.provenance == "composed"
    assert got.source_digests == record.source_digests


def test_journal_event_round_trip_preserves_provenance():
    record = derived_record()
    payload = encode_state_event(record, 0, record.states[0])
    op, meta, slice_id, state = decode_journal_payload(payload)
    assert op == "state" and slice_id == 0
    assert meta.provenance == "composed"
    assert meta.source_digests == record.source_digests
    assert state == record.states[0]


def test_v1_snapshot_decodes_with_default_provenance():
    """A version-1 snapshot (no provenance bytes) loads cleanly with
    every entry tagged ``scan`` — forward compatibility."""
    import struct

    from repro.persist import format as fmt

    record = EntryRecord.from_entry(
        CacheEntry(ScanKey("t", "k < 9"), 1, {}), table_layout=0
    )
    record.states[0] = derived_record().states[0]
    buf = bytearray()
    fmt._encode_meta(buf, record)
    meta_v1 = bytes(buf[: len(buf) - 5])  # strip provenance + count
    state_buf = bytearray(struct.pack("<I", 1))
    fmt._encode_state(state_buf, 0, record.states[0])
    snap = (
        fmt._HEADER.pack(fmt.SNAPSHOT_MAGIC, 1, 0, 0)
        + fmt._section(fmt.SECTION_META, b"{}")
        + fmt._section(fmt.SECTION_ENTRY, meta_v1 + bytes(state_buf))
        + fmt._section(fmt.SECTION_END, b"")
    )
    decoded, _meta, issues = fmt.decode_snapshot(snap)
    assert issues.clean
    got = decoded[record.digest]
    assert got.provenance == "scan" and got.source_digests == ()
    assert got == record


def test_reuse_survives_snapshot_restart():
    """Warm-started cache keeps serving composition/subsumption from
    restored conjunct entries."""
    cached, plain = build_twins(reuse_config())
    run_drilldown(cached, plain, drilldown_steps(rounds=2))
    from repro.persist.records import collect_records

    records = collect_records([cached.predicate_cache])
    payload = encode_snapshot(records)
    decoded, _meta, issues = decode_snapshot(payload)
    assert issues.clean
    for digest, record in records.items():
        assert decoded[digest] == record
    # A live cache writes its process's incarnation, and the reserved
    # fields as "scan" and ().
    assert {
        (r.generation, r.provenance, r.source_digests) for r in decoded.values()
    } == {(INCARNATION, "scan", ())}


# -- metrics ------------------------------------------------------------------


def test_reuse_metrics_registered():
    from repro.obs import MetricsRegistry

    cache = PredicateCache(reuse_config())
    registry = MetricsRegistry()
    cache.register_metrics(registry)
    names = set(registry.names())
    for field in (
        "conjunct_lookups",
        "conjunct_hits",
        "composed_serves",
        "subsumed_serves",
    ):
        assert any(field in n and "reuse" in n for n in names), (field, names)


def test_reuse_counters_surface_on_query_results():
    cached, plain = build_twins(reuse_config())
    totals = {"reuse_composed_serves": 0, "reuse_subsumed_serves": 0}
    for where in drilldown_steps(rounds=3):
        counters = cached.execute(
            f"select count(*) as c from t where {where}"
        ).counters
        plain.execute(f"select count(*) as c from t where {where}")
        for name in totals:
            totals[name] += getattr(counters, name)
        if counters.reuse_composed_serves or counters.reuse_subsumed_serves:
            assert (
                counters.reuse_recheck_rows + counters.reuse_skipped_rows > 0
            )
    reuse = cached.predicate_cache.reuse_stats
    assert totals["reuse_composed_serves"] == reuse.composed_serves
    assert totals["reuse_subsumed_serves"] == reuse.subsumed_serves
