"""Cache entry payloads: range and bitmap per-slice states (§4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import BitmapSliceState, CacheEntry, RangeSliceState
from repro.core.keys import ScanKey
from repro.core.rowrange import RangeList


class TestRangeSliceState:
    def test_initial_state(self):
        state = RangeSliceState(RangeList([(5, 10)]), scanned_upto=100, max_ranges=8)
        assert state.cached_candidates().to_pairs() == [(5, 10)]
        assert state.last_cached_row == 100

    def test_candidates_include_uncached_tail(self):
        state = RangeSliceState(RangeList([(5, 10)]), 100, 8)
        cands = state.candidates(120)
        assert cands.to_pairs() == [(5, 10), (100, 120)]

    def test_candidates_without_growth(self):
        state = RangeSliceState(RangeList([(5, 10)]), 100, 8)
        assert state.candidates(100).to_pairs() == [(5, 10)]

    def test_candidates_without_growth_are_the_stored_list(self):
        state = RangeSliceState(RangeList([(5, 10), (40, 60)]), 100, 8)
        assert state.candidates(100) is state.ranges

    def test_bounded_ranges(self):
        qualifying = RangeList([(i * 10, i * 10 + 2) for i in range(50)])
        state = RangeSliceState(qualifying, 500, max_ranges=4)
        assert len(state.ranges) <= 4
        assert state.ranges.covers(qualifying)

    def test_extend_folds_in_tail(self):
        state = RangeSliceState(RangeList([(0, 5)]), 100, 8)
        grown = state.extended(RangeList([(100, 103)]), 150)
        assert grown.last_cached_row == 150
        assert grown.cached_candidates().to_pairs() == [(0, 5), (100, 103)]
        assert state.last_cached_row == 100
        assert state.cached_candidates().to_pairs() == [(0, 5)]

    def test_extend_clips_to_tail_region(self):
        state = RangeSliceState(RangeList([(0, 5)]), 100, 8)
        # Qualifying ranges below the watermark must not be re-added
        # (they may come from a scan restricted to cached candidates).
        grown = state.extended(RangeList([(0, 5), (100, 101)]), 120)
        assert grown.cached_candidates().to_pairs() == [(0, 5), (100, 101)]

    def test_extend_without_growth_keeps_the_stored_list(self):
        state = RangeSliceState(RangeList([(0, 5)]), 100, 8)
        assert state.extended(RangeList([(0, 5)]), 100) is state

    def test_extend_cannot_shrink(self):
        state = RangeSliceState(RangeList([(0, 5)]), 100, 8)
        with pytest.raises(ValueError):
            state.extended(RangeList(), 50)

    def test_extend_respects_bound(self):
        state = RangeSliceState(RangeList([(i * 10, i * 10 + 1) for i in range(4)]), 40, 4)
        grown = state.extended(
            RangeList([(40 + i * 10, 41 + i * 10) for i in range(4)]), 80
        )
        assert len(grown.ranges) <= 4

    def test_nbytes(self):
        state = RangeSliceState(RangeList([(0, 1), (5, 6)]), 10, 8)
        assert state.nbytes == 2 * 16 + 8


class TestBitmapSliceState:
    def test_blocks_marked(self):
        state = BitmapSliceState(RangeList([(0, 5), (2500, 2600)]), 3000, 1000)
        assert state.bits.tolist() == [True, False, True]

    def test_candidates_are_block_aligned(self):
        state = BitmapSliceState(RangeList([(1500, 1501)]), 3000, 1000)
        assert state.candidates(3000).to_pairs() == [(1000, 2000)]

    def test_range_spanning_blocks(self):
        state = BitmapSliceState(RangeList([(900, 1100)]), 3000, 1000)
        assert state.bits.tolist() == [True, True, False]

    def test_last_block_clipped_to_watermark(self):
        state = BitmapSliceState(RangeList([(0, 100)]), 500, 1000)
        assert state.candidates(500).to_pairs() == [(0, 500)]

    def test_candidates_without_growth_equal_the_cached_list(self):
        # Watermark inside the last (partial) block, a run ending in it.
        state = BitmapSliceState(RangeList([(0, 5), (2100, 2450)]), 2500, 1000)
        assert state.candidates(2500) == state.cached_candidates()
        assert state.candidates(2500).to_pairs() == [(0, 1000), (2000, 2500)]

    def test_tail_appended(self):
        state = BitmapSliceState(RangeList([(0, 10)]), 1000, 1000)
        assert state.candidates(1200).to_pairs() == [(0, 1200)]

    def test_extend_grows_bitmap(self):
        state = BitmapSliceState(RangeList([(0, 10)]), 1000, 1000)
        grown = state.extended(RangeList([(2100, 2200)]), 3000)
        assert grown.bits.tolist() == [True, False, True]
        assert grown.last_cached_row == 3000
        assert state.bits.tolist() == [True] and state.last_cached_row == 1000

    def test_extend_ignores_already_cached_region(self):
        state = BitmapSliceState(RangeList([(0, 10)]), 2000, 1000)
        assert state.bits.tolist() == [True, False]
        grown = state.extended(RangeList([(1500, 1600), (2500, 2600)]), 3000)
        # The (1500,1600) range is below the old watermark: a scan that
        # produced it was candidate-restricted, so only the tail counts.
        assert grown.bits.tolist() == [True, False, True]

    def test_bits_cannot_be_written(self):
        state = BitmapSliceState(RangeList([(0, 10)]), 2000, 1000)
        for held in (state, state.extended(RangeList(), 2500)):
            with pytest.raises(ValueError):
                held.bits[1] = True

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            BitmapSliceState(RangeList(), 0, 0)

    def test_nbytes_is_bits(self):
        state = BitmapSliceState(RangeList(), 16_000, 1000)
        assert state.nbytes == 2 + 8  # 16 bits -> 2 bytes + watermark


class TestCacheEntry:
    def test_completeness(self):
        entry = CacheEntry(ScanKey("t", "x = 1"), num_slices=2, build_versions={})
        assert not entry.complete
        entry.slice_states[0] = RangeSliceState(RangeList(), 0, 4)
        assert not entry.complete
        entry.slice_states[1] = RangeSliceState(RangeList(), 0, 4)
        assert entry.complete

    def test_selectivity(self):
        entry = CacheEntry(ScanKey("t", "x = 1"), 1, {})
        assert entry.selectivity == 1.0
        entry.record_scan_stats(10, 1000)
        assert entry.selectivity == 0.01

    def test_nbytes_sums_slices(self):
        entry = CacheEntry(ScanKey("t", "x = 1"), 2, {})
        entry.slice_states[0] = RangeSliceState(RangeList([(0, 1)]), 10, 4)
        assert entry.nbytes == entry.slice_states[0].nbytes


# -- the core soundness property, for both variants ---------------------------------

row_sets = st.lists(st.integers(0, 2000), max_size=80, unique=True)


@given(row_sets, st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_range_state_has_no_false_negatives(rows, max_ranges):
    qualifying = RangeList.from_rows(np.array(sorted(rows), dtype=np.int64))
    state = RangeSliceState(qualifying, 2100, max_ranges)
    cands = state.candidates(2100)
    for row in rows:
        assert cands.contains_row(row)


@given(row_sets, st.sampled_from([64, 100, 1000]))
@settings(max_examples=200, deadline=None)
def test_bitmap_state_has_no_false_negatives(rows, block_size):
    qualifying = RangeList.from_rows(np.array(sorted(rows), dtype=np.int64))
    state = BitmapSliceState(qualifying, 2100, block_size)
    cands = state.candidates(2100)
    for row in rows:
        assert cands.contains_row(row)


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
        ranges = RangeList.from_bounds(state.ranges.bounds.copy())
        return RangeSliceState._wrap(ranges, state.last_cached_row, state.max_ranges)
    return BitmapSliceState._wrap(
        state.bits.copy(), state.last_cached_row, state.block_size
    )


@given(_steps, _variants)
@settings(max_examples=200, deadline=None)
def test_states_handed_out_earlier_never_change(steps, variant):
    cls, param = variant
    handed_out = []  # (state, probe n, candidates(n), nbytes, equal twin)
    truth, num_rows, state = [], 0, None
    for appended, offsets in steps:
        tail = sorted(num_rows + o for o in offsets if o < appended)
        qualifying = RangeList.from_rows(np.array(tail, dtype=np.int64))
        num_rows += appended
        if state is None:
            new = cls(qualifying, num_rows, param)
        else:
            # A repeat scans cached candidates + tail, so what it reports
            # reaches below the watermark: that part must be ignored.
            new = state.extended(qualifying.union(state.cached_candidates()), num_rows)
            assert (new is state) == (appended == 0)
            if new is not state:
                assert new != state
        state = new
        truth += tail
        assert state.last_cached_row == num_rows
        # The newest has no false negatives, and rows appended after it
        # was built are all candidates.
        probe = num_rows + 50
        cands = state.candidates(probe)
        assert all(cands.contains_row(row) for row in truth)
        assert cands.contains_row(num_rows) and cands.contains_row(probe - 1)
        assert state.candidates(num_rows) == state.cached_candidates()
        handed_out.append((state, probe, cands, state.nbytes, _twin(state)))
        # Every state handed out so far answers exactly as it did then.
        for held, n, expected, nbytes, twin in handed_out:
            assert held.candidates(n) == expected
            assert held.nbytes == nbytes
            assert held == twin and twin == held
