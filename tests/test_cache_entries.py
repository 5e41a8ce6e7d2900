"""Cache entry payloads: range and bitmap per-slice states (§4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import PredicateCache
from repro.core.config import PredicateCacheConfig
from repro.core.entry import BitmapSliceState, CacheEntry, RangeSliceState
from repro.core.keys import ScanKey
from repro.core.rowrange import RangeList
from repro.engine.scan import _SliceCacheContext, _resolve_source
from repro.storage import DataType
from repro.storage.slice import DataSlice

from tests.gapheap import GapHeapRangeBuilder
from tests.rowsets import pairs, rows


class TestRangeSliceState:
    def test_initial_state(self):
        state = RangeSliceState(rows((5, 10)), scanned_upto=100, max_ranges=8)
        assert pairs(state.ranges) == [(5, 10)]
        assert state.last_cached_row == 100

    def test_candidates_include_uncached_tail(self):
        state = RangeSliceState(rows((5, 10)), 100, 8)
        assert pairs(state.rows(120)) == [(5, 10), (100, 120)]

    def test_candidates_without_growth(self):
        state = RangeSliceState(rows((5, 10)), 100, 8)
        assert pairs(state.rows(100)) == [(5, 10)]

    def test_candidates_without_growth_are_the_stored_list(self):
        state = RangeSliceState(rows((5, 10), (40, 60)), 100, 8)
        assert state.rows(100).tolist() == state.ranges.to_row_ids().tolist()

    def test_bounded_ranges(self):
        qualifying = rows(*((i * 10, i * 10 + 2) for i in range(50)))
        state = RangeSliceState(qualifying, 500, max_ranges=4)
        assert len(state.ranges) <= 4
        assert np.isin(qualifying, state.rows(500)).all()

    def test_extend_folds_in_tail(self):
        state = RangeSliceState(rows((0, 5)), 100, 8)
        grown = state.extended(rows((100, 103)), 150)
        assert grown.last_cached_row == 150
        assert pairs(grown.ranges) == [(0, 5), (100, 103)]
        assert state.last_cached_row == 100
        assert pairs(state.ranges) == [(0, 5)]

    def test_extend_clips_to_tail_region(self):
        state = RangeSliceState(rows((0, 5)), 100, 8)
        # Qualifying rows below the watermark must not be re-added
        # (they may come from a scan restricted to cached candidates).
        grown = state.extended(rows((0, 5), (100, 101)), 120)
        assert pairs(grown.ranges) == [(0, 5), (100, 101)]

    def test_extend_without_growth_keeps_the_stored_list(self):
        state = RangeSliceState(rows((0, 5)), 100, 8)
        assert state.extended(rows((0, 5)), 100) is state

    def test_extend_cannot_shrink(self):
        state = RangeSliceState(rows((0, 5)), 100, 8)
        with pytest.raises(ValueError):
            state.extended(rows(), 50)

    def test_extend_respects_bound(self):
        state = RangeSliceState(rows(*((i * 10, i * 10 + 1) for i in range(4))), 40, 4)
        grown = state.extended(rows(*((40 + i * 10, 41 + i * 10) for i in range(4))), 80)
        assert len(grown.ranges) <= 4

    def test_nbytes(self):
        state = RangeSliceState(rows((0, 1), (5, 6)), 10, 8)
        assert state.nbytes == 2 * 16 + 8


class TestBitmapSliceState:
    def test_blocks_marked(self):
        state = BitmapSliceState(rows((0, 5), (2500, 2600)), 3000, 1000)
        assert state.bits.tolist() == [True, False, True]

    def test_candidates_are_block_aligned(self):
        state = BitmapSliceState(rows((1500, 1501)), 3000, 1000)
        assert pairs(state.rows(3000)) == [(1000, 2000)]

    def test_range_spanning_blocks(self):
        state = BitmapSliceState(rows((900, 1100)), 3000, 1000)
        assert state.bits.tolist() == [True, True, False]

    def test_last_block_clipped_to_watermark(self):
        state = BitmapSliceState(rows((0, 100)), 500, 1000)
        assert pairs(state.rows(500)) == [(0, 500)]

    def test_candidates_without_growth_equal_the_cached_list(self):
        # Watermark inside the last (partial) block, a run ending in it.
        state = BitmapSliceState(rows((0, 5), (2100, 2450)), 2500, 1000)
        assert pairs(state.rows(2500)) == [(0, 1000), (2000, 2500)]
        assert pairs(state.rows(2400)) == pairs(state.rows(2500))

    def test_tail_appended(self):
        state = BitmapSliceState(rows((0, 10)), 1000, 1000)
        assert pairs(state.rows(1200)) == [(0, 1200)]

    def test_extend_grows_bitmap(self):
        state = BitmapSliceState(rows((0, 10)), 1000, 1000)
        grown = state.extended(rows((2100, 2200)), 3000)
        assert grown.bits.tolist() == [True, False, True]
        assert grown.last_cached_row == 3000
        assert state.bits.tolist() == [True] and state.last_cached_row == 1000

    def test_extend_ignores_already_cached_region(self):
        state = BitmapSliceState(rows((0, 10)), 2000, 1000)
        assert state.bits.tolist() == [True, False]
        grown = state.extended(rows((1500, 1600), (2500, 2600)), 3000)
        # The (1500,1600) rows are below the old watermark: a scan that
        # produced them was candidate-restricted, so only the tail counts.
        assert grown.bits.tolist() == [True, False, True]

    def test_bits_cannot_be_written(self):
        state = BitmapSliceState(rows((0, 10)), 2000, 1000)
        for held in (state, state.extended(rows(), 2500)):
            with pytest.raises(ValueError):
                held.bits[1] = True

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            BitmapSliceState(rows(), 0, 0)

    def test_nbytes_is_bits(self):
        state = BitmapSliceState(rows(), 16_000, 1000)
        assert state.nbytes == 2 + 8  # 16 bits -> 2 bytes + watermark


class TestCacheEntry:
    def test_completeness(self):
        entry = CacheEntry(ScanKey("t", "x = 1"), num_slices=2, build_versions={})
        assert not entry.complete
        entry.slice_states[0] = RangeSliceState(rows(), 0, 4)
        assert not entry.complete
        entry.slice_states[1] = RangeSliceState(rows(), 0, 4)
        assert entry.complete

    def test_selectivity(self):
        entry = CacheEntry(ScanKey("t", "x = 1"), 1, {})
        assert entry.selectivity == 1.0
        entry.rows_qualifying, entry.rows_considered = 10, 1000
        assert entry.selectivity == 0.01

    def test_nbytes_sums_slices(self):
        entry = CacheEntry(ScanKey("t", "x = 1"), 2, {})
        entry.slice_states[0] = RangeSliceState(rows((0, 1)), 10, 4)
        assert entry.nbytes == entry.slice_states[0].nbytes


# -- the core soundness property, for both variants ---------------------------------

row_sets = st.lists(st.integers(0, 2000), max_size=80, unique=True)


@given(row_sets, st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_range_state_has_no_false_negatives(qualifying, max_ranges):
    state = RangeSliceState(np.array(sorted(qualifying), dtype=np.int64), 2100, max_ranges)
    assert set(qualifying) <= set(state.rows(2100).tolist())


@given(row_sets, st.sampled_from([64, 100, 1000]))
@settings(max_examples=200, deadline=None)
def test_bitmap_state_has_no_false_negatives(qualifying, block_size):
    state = BitmapSliceState(np.array(sorted(qualifying), dtype=np.int64), 2100, block_size)
    assert set(qualifying) <= set(state.rows(2100).tolist())


# -- states are values: what was handed out never changes --------------------

# A build followed by extensions: per step, how many rows were appended
# and which of them qualified (offsets into the appended tail).
_steps = st.lists(
    st.tuples(
        st.integers(0, 700), st.lists(st.integers(0, 699), max_size=30, unique=True)
    ),
    min_size=1,
    max_size=5,
)
_variants = st.one_of(
    st.tuples(st.just(RangeSliceState), st.integers(1, 8)),
    st.tuples(st.just(BitmapSliceState), st.sampled_from([1, 64, 100, 1000])),
)


def _twin(state):
    """An equal state built from copies of ``state``'s representation."""
    if isinstance(state, RangeSliceState):
        ranges = RangeList._wrap(state.ranges.bounds.copy())
        return RangeSliceState._wrap(ranges, state.last_cached_row, state.max_ranges)
    return BitmapSliceState._wrap(
        state.bits.copy(), state.last_cached_row, state.block_size
    )


@given(_steps, _variants)
@settings(max_examples=200, deadline=None)
def test_states_handed_out_earlier_never_change(steps, variant):
    cls, param = variant
    handed_out = []  # (state, probe n, rows(n), nbytes, equal twin)
    truth, num_rows, state = [], 0, None
    for appended, offsets in steps:
        tail = np.array(sorted(num_rows + o for o in offsets if o < appended), dtype=np.int64)
        num_rows += appended
        if state is None:
            new = cls(tail, num_rows, param)
        else:
            # A repeat scans cached candidates + tail, so what it reports
            # reaches below the watermark: that part must be ignored.
            reported = np.union1d(state.rows(state.last_cached_row), tail)
            new = state.extended(reported, num_rows)
            assert (new is state) == (appended == 0)
            if new is not state:
                assert new != state
        state = new
        truth += tail.tolist()
        assert state.last_cached_row == num_rows
        # The newest has no false negatives, and rows appended after it
        # was built are all candidates.
        probe = num_rows + 50
        cands = state.rows(probe)
        assert set(truth) <= set(cands.tolist())
        assert set(range(num_rows, probe)) <= set(cands.tolist())
        handed_out.append((state, probe, cands, state.nbytes, _twin(state)))
        # Every state handed out so far answers exactly as it did then.
        for held, n, expected, nbytes, twin in handed_out:
            assert np.array_equal(held.rows(n), expected)
            assert held.nbytes == nbytes
            assert held == twin and twin == held


# -- the build-from-rows oracle ---------------------------------------------------------

# A first scan's qualifying rows, then one to three appended tails, each
# (rows appended, offsets of its qualifying rows into them).
_builds = st.tuples(
    st.integers(0, 600),
    st.lists(st.integers(0, 599), max_size=60, unique=True),
    st.lists(
        st.tuples(
            st.integers(0, 400), st.lists(st.integers(0, 399), max_size=40, unique=True)
        ),
        min_size=1,
        max_size=3,
    ),
)


def _oracle_rows(state):
    """The state's cached rows, from its payload by plain Python."""
    if isinstance(state, RangeSliceState):
        return {row for start, end in pairs(state.ranges) for row in range(start, end)}
    size = state.block_size
    return {
        row
        for block, bit in enumerate(state.bits.tolist()) if bit
        for row in range(block * size, min((block + 1) * size, state.last_cached_row))
    }


def _build(cls, param, build):
    """Install the first scan exact, then extend over every tail the way
    a repeat reports it (cached rows plus the tail's qualifying rows);
    returns the state, the watermark and the true rows."""
    first, offsets, tails = build
    truth = sorted(o for o in offsets if o < first)
    exact = {"exact": True} if cls is RangeSliceState else {}
    state = cls(np.array(truth, dtype=np.int64), first, param, **exact)
    num_rows = first
    for appended, tail_offsets in tails:
        tail = sorted(num_rows + o for o in tail_offsets if o < appended)
        truth += tail
        reported = np.array(
            sorted(_oracle_rows(state) | set(tail)), dtype=np.int64
        )
        num_rows += appended
        state = state.extended(reported, num_rows, exact=True)
    return state, num_rows, truth


@given(_builds, st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_range_state_built_from_rows_matches_the_streaming_gap_heap(build, max_ranges):
    state, num_rows, truth = _build(RangeSliceState, max_ranges, build)
    truth_ranges = RangeList.from_rows(np.array(truth, dtype=np.int64))
    builder = GapHeapRangeBuilder(max_ranges)
    for start, end in pairs(truth_ranges):
        builder.add(start, end)
    streamed = builder.finish()
    assert len(state.ranges) == len(streamed) <= max_ranges
    assert state.ranges.num_rows == streamed.num_rows
    bounds = truth_ranges.bounds
    gaps = (bounds[1:, 0] - bounds[:-1, 1]).tolist()
    if len(set(gaps)) == len(gaps):  # unambiguous gap choice
        assert state.ranges == streamed
    assert state.exact == (pairs(state.ranges) == pairs(truth_ranges))
    assert state.exact == (len(truth_ranges) <= max_ranges)


@given(_builds, st.sampled_from([1, 7, 64, 1000]))
@settings(max_examples=300, deadline=None)
def test_bitmap_bits_are_the_blocks_of_the_rows(build, block_size):
    state, num_rows, truth = _build(BitmapSliceState, block_size, build)
    want = np.zeros(-(-num_rows // block_size), dtype=bool)
    want[[row // block_size for row in truth]] = True
    assert state.bits.tolist() == want.tolist()
    assert not state.exact


@given(
    _builds,
    _builds,
    st.sampled_from([(RangeSliceState, 3), (RangeSliceState, 64), (BitmapSliceState, 50)]),
    st.integers(0, 300),
)
@settings(max_examples=200, deadline=None)
def test_rows_and_a_composed_intersection_match_set_oracles(left, right, variant, grown):
    """A plan's rows are the cached rows plus the uncached tail, and a
    state counts and tests them without expanding its payload — also
    asked for fewer rows than it cached, where it counts every cached
    row; a composed serve's candidates are the intersection of its
    parts'."""
    cls, param = variant
    parts = [_build(cls, param, build)[0] for build in (left, right)]
    num_rows = max(part.last_cached_row for part in parts) + grown
    wants = []
    for part in parts:
        want = _oracle_rows(part) | set(range(part.last_cached_row, num_rows))
        assert part.rows(num_rows).tolist() == sorted(want)
        assert part.count(num_rows) == len(want)
        assert np.flatnonzero(part.mask(num_rows)).tolist() == sorted(want)
        wants.append(want)
        shrunk = max(0, part.last_cached_row - grown)
        assert part.count(shrunk) == len(part.rows(shrunk)) == len(_oracle_rows(part))
    entries = []
    for part in parts:
        entry = CacheEntry(ScanKey("t", f"x < {len(entries)}"), 1, {})
        entry.slice_states[0] = part
        entries.append(entry)
    context = _SliceCacheContext(PredicateCache(), tuple(entries), "composed")
    source = _resolve_source(context, 0, _slice_of(num_rows))
    assert source.candidates.tolist() == sorted(wants[0] & wants[1])
    assert source.verdict_below == 0 and not source.exact


def _slice_of(num_rows):
    """A one-column data slice of ``num_rows`` rows."""
    data_slice = DataSlice("t", 0, {"x": DataType.INT64}, rows_per_block=16)
    data_slice.append_rows({"x": np.arange(num_rows)}, txid=1)
    return data_slice


# -- the rejected-rows build oracle ------------------------------------------------


def _padded(rejected, state, num_rows):
    """A conjunct set as the row ids it keeps: every row from the state's
    watermark on but the ascending ``rejected`` — how the set was built
    before it was handed over as its rejected rows, kept as their oracle."""
    start = 0 if state is None else min(state.last_cached_row, num_rows)
    kept = np.ones(num_rows - start, dtype=bool)
    kept[rejected[np.searchsorted(rejected, start):] - start] = False
    return np.flatnonzero(kept) + start


# Per install, rows appended and which rows of the slice the scan
# rejected; the first may be a direct scan's exact qualifying rows.
_rejections = st.tuples(
    st.booleans(),
    st.lists(
        st.tuples(
            st.integers(0, 300),
            st.lists(st.integers(0, 1199), max_size=80, unique=True),
        ),
        min_size=2,
        max_size=4,
    ),
)


@given(
    _rejections,
    st.one_of(
        st.builds(
            dict, variant=st.just("range"), max_ranges_per_slice=st.integers(1, 4)
        ),
        st.builds(
            dict,
            variant=st.just("bitmap"),
            bitmap_block_rows=st.sampled_from([1, 7, 64]),
        ),
    ),
)
@settings(max_examples=300, deadline=None)
def test_a_set_built_from_rejected_rows_is_the_padded_build(rejections, config):
    """A build and one to three extensions, each from the rows a conjunct
    rejected: the same payload, watermark, exactness and size as the
    state built from the padded row ids, for either variant, with
    ``coalesce`` merging past a small ``max_ranges``."""
    scanned_first, installs = rejections
    twins = []
    for _ in range(2):
        cache = PredicateCache(PredicateCacheConfig(**config))
        twins.append((cache, cache.get_or_create(ScanKey("t", "x < 5"), 1)))
    (padded_cache, padded), (built_cache, built) = twins
    num_rows = 0
    for step, (appended, offsets) in enumerate(installs):
        num_rows += appended
        rejected = np.array(sorted(o for o in offsets if o < num_rows), dtype=np.int64)
        if step == 0 and scanned_first:
            # A direct scan created the entry; conjunct sets extend it.
            for cache, entry in twins:
                cache.record_slice_scan(entry, 0, rejected, num_rows, exact=True)
            continue
        kept = _padded(rejected, padded.slice_states[0], num_rows)
        padded_cache.record_slice_scan(padded, 0, kept, num_rows)
        built_cache.record_slice_scan(built, 0, rejected, num_rows, rejected=True)
        want, got = padded.slice_states[0], built.slice_states[0]
        assert got == want
        assert got.exact == want.exact
        assert got.nbytes == want.nbytes
        assert built_cache.total_nbytes == padded_cache.total_nbytes
        if config["variant"] == "range":
            assert got.ranges.bounds.tobytes() == want.ranges.bounds.tobytes()
            assert got.ranges.num_rows == want.ranges.num_rows
        else:
            assert got.bits.tobytes() == want.bits.tobytes()
