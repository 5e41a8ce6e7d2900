"""The streaming gap heap (§4.1.1, ``tests/gapheap.py``): its own cases,
and the reference ``RangeList.coalesce`` — what installs run — is held to."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.gapheap import GapHeapRangeBuilder
from tests.rowsets import pairs, ranges


class TestGapHeapBasics:
    def test_paper_example(self):
        # [1,2] and [4,6] merge into [1,6] (§4.1.1, closed-interval text;
        # half-open here).
        builder = GapHeapRangeBuilder(max_ranges=1)
        builder.add(1, 3)
        builder.add(4, 7)
        assert pairs(builder.finish()) == [(1, 7)]

    def test_keeps_largest_gaps(self):
        builder = GapHeapRangeBuilder(max_ranges=2)
        for start, end in [(0, 2), (4, 6), (100, 110)]:
            builder.add(start, end)
        assert pairs(builder.finish()) == [(0, 6), (100, 110)]

    def test_no_merging_needed(self):
        builder = GapHeapRangeBuilder(max_ranges=10)
        builder.add(0, 2)
        builder.add(50, 60)
        assert pairs(builder.finish()) == [(0, 2), (50, 60)]

    def test_empty(self):
        assert pairs(GapHeapRangeBuilder(max_ranges=4).finish()) == []

    def test_empty_ranges_ignored(self):
        builder = GapHeapRangeBuilder(max_ranges=4)
        builder.add(5, 5)
        assert pairs(builder.finish()) == []

    def test_rejects_out_of_order(self):
        builder = GapHeapRangeBuilder(max_ranges=4)
        builder.add(10, 20)
        with pytest.raises(ValueError):
            builder.add(5, 8)

    def test_rejects_invalid_capacity(self):
        with pytest.raises(ValueError):
            GapHeapRangeBuilder(max_ranges=0)

    def test_finish_is_terminal(self):
        builder = GapHeapRangeBuilder(max_ranges=4)
        builder.add(0, 1)
        builder.finish()
        with pytest.raises(RuntimeError):
            builder.add(2, 3)

    def test_add_range_list(self):
        builder = GapHeapRangeBuilder(max_ranges=2)
        builder.add_range_list(ranges((0, 1), (5, 6), (100, 101)))
        assert pairs(builder.finish()) == [(0, 6), (100, 101)]


# -- the reference for RangeList.coalesce ----------------------------------------------

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 20)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=0,
    max_size=30,
)


@given(pairs_strategy, st.integers(1, 6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_matches_offline_coalesce(spans, max_ranges, one_at_a_time):
    """``coalesce`` == the gap heap fed the same sorted ranges, streamed
    through ``heapq`` one at a time or in bulk.

    Both keep the (max_ranges - 1) widest gaps; on gap-width ties they
    may differ in *which* equal-width gap is kept, so ties compare range
    count and row coverage, and distinct gap widths compare identity.
    """
    normalized = ranges(*spans)
    builder = GapHeapRangeBuilder(max_ranges)
    if one_at_a_time:
        for start, end in pairs(normalized):
            builder.add(start, end)
    else:
        builder.add_range_list(normalized)
    streamed = builder.finish()
    offline = normalized.coalesce(max_ranges)

    qualifying = set(normalized.to_row_ids().tolist())
    assert qualifying <= set(offline.to_row_ids().tolist())
    assert qualifying <= set(streamed.to_row_ids().tolist())
    assert len(offline) == len(streamed) <= max_ranges
    bounds = normalized.bounds
    gaps = (bounds[1:, 0] - bounds[:-1, 1]).tolist()
    if len(set(gaps)) == len(gaps):  # unambiguous gap choice
        assert offline == streamed
    else:
        assert offline.num_rows == streamed.num_rows


@given(pairs_strategy, st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_never_false_negative(spans, max_ranges):
    """Every qualifying row stays covered — the cache's safety property."""
    normalized = ranges(*spans)
    builder = GapHeapRangeBuilder(max_ranges)
    builder.add_range_list(normalized)
    result = builder.finish()
    assert set(normalized.to_row_ids().tolist()) <= set(result.to_row_ids().tolist())
