"""Row-range algebra: RowRange and RangeList."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rowrange import RangeList, RowRange


# -- RowRange -------------------------------------------------------------------


class TestRowRange:
    def test_length_and_truthiness(self):
        assert len(RowRange(2, 5)) == 3
        assert RowRange(2, 5)
        assert not RowRange(4, 4)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            RowRange(-1, 3)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            RowRange(5, 2)

    def test_contains(self):
        r = RowRange(10, 20)
        assert 10 in r
        assert 19 in r
        assert 20 not in r
        assert 9 not in r

    def test_overlaps(self):
        assert RowRange(0, 5).overlaps(RowRange(4, 10))
        assert not RowRange(0, 5).overlaps(RowRange(5, 10))  # adjacent
        assert not RowRange(0, 5).overlaps(RowRange(7, 10))

    def test_touches_includes_adjacency(self):
        assert RowRange(0, 5).touches(RowRange(5, 10))
        assert not RowRange(0, 5).touches(RowRange(6, 10))

    def test_intersect(self):
        assert RowRange(0, 10).intersect(RowRange(5, 15)) == RowRange(5, 10)
        empty = RowRange(0, 5).intersect(RowRange(8, 10))
        assert len(empty) == 0

    def test_shift(self):
        assert RowRange(3, 7).shift(10) == RowRange(13, 17)


# -- RangeList constructors ---------------------------------------------------------


class TestRangeListConstruction:
    def test_normalizes_overlapping_input(self):
        rl = RangeList([(5, 10), (0, 6), (20, 25)])
        assert rl.to_pairs() == [(0, 10), (20, 25)]

    def test_merges_adjacent(self):
        rl = RangeList([(0, 5), (5, 10)])
        assert rl.to_pairs() == [(0, 10)]

    def test_drops_empty_ranges(self):
        rl = RangeList([(3, 3), (5, 8)])
        assert rl.to_pairs() == [(5, 8)]

    def test_full_and_empty(self):
        assert RangeList.full(10).to_pairs() == [(0, 10)]
        assert RangeList.full(0).to_pairs() == []
        assert RangeList.empty().num_rows == 0

    def test_from_mask(self):
        mask = np.array([1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
        rl = RangeList.from_mask(mask)
        assert rl.to_pairs() == [(0, 2), (4, 5), (6, 9)]

    def test_from_mask_with_offset(self):
        mask = np.array([0, 1, 1], dtype=bool)
        assert RangeList.from_mask(mask, offset=100).to_pairs() == [(101, 103)]

    def test_from_mask_empty(self):
        assert RangeList.from_mask(np.zeros(0, dtype=bool)).to_pairs() == []
        assert RangeList.from_mask(np.zeros(5, dtype=bool)).to_pairs() == []

    def test_from_rows(self):
        rl = RangeList.from_rows([7, 1, 2, 3, 9, 8])
        assert rl.to_pairs() == [(1, 4), (7, 10)]

    def test_from_rows_deduplicates(self):
        assert RangeList.from_rows([2, 2, 3]).to_pairs() == [(2, 4)]


# -- measures -------------------------------------------------------------------------


class TestRangeListMeasures:
    def test_num_rows(self):
        assert RangeList([(0, 3), (10, 15)]).num_rows == 8

    def test_span(self):
        assert RangeList([(3, 5), (9, 12)]).span == RowRange(3, 12)
        assert RangeList().span == RowRange(0, 0)

    def test_contains_row(self):
        rl = RangeList([(0, 3), (10, 15), (20, 21)])
        for row in (0, 2, 10, 14, 20):
            assert rl.contains_row(row)
        for row in (3, 9, 15, 19, 21, 100):
            assert not rl.contains_row(row)


# -- set algebra -------------------------------------------------------------------------


class TestRangeListAlgebra:
    def test_union(self):
        a = RangeList([(0, 5), (10, 15)])
        b = RangeList([(3, 12), (20, 22)])
        assert a.union(b).to_pairs() == [(0, 15), (20, 22)]

    def test_intersect(self):
        a = RangeList([(0, 10), (20, 30)])
        b = RangeList([(5, 25)])
        assert a.intersect(b).to_pairs() == [(5, 10), (20, 25)]

    def test_intersect_disjoint(self):
        a = RangeList([(0, 5)])
        b = RangeList([(5, 10)])
        assert a.intersect(b).to_pairs() == []

    def test_complement(self):
        rl = RangeList([(2, 4), (6, 8)])
        assert rl.complement(10).to_pairs() == [(0, 2), (4, 6), (8, 10)]

    def test_complement_of_empty_is_full(self):
        assert RangeList().complement(5).to_pairs() == [(0, 5)]

    def test_difference(self):
        a = RangeList([(0, 10)])
        b = RangeList([(3, 5), (8, 20)])
        assert a.difference(b).to_pairs() == [(0, 3), (5, 8)]

    def test_covers(self):
        outer = RangeList([(0, 100)])
        inner = RangeList([(5, 10), (50, 60)])
        assert outer.covers(inner)
        assert not inner.covers(outer)

    def test_clip(self):
        rl = RangeList([(0, 10), (20, 30)])
        assert rl.clip(5, 25).to_pairs() == [(5, 10), (20, 25)]

    def test_shift(self):
        assert RangeList([(0, 2)]).shift(5).to_pairs() == [(5, 7)]


# -- coalesce (the bounded-range property) -----------------------------------------------


class TestCoalesce:
    def test_keeps_when_under_limit(self):
        rl = RangeList([(0, 2), (10, 12)])
        assert rl.coalesce(5) is rl

    def test_merges_smallest_gaps_first(self):
        rl = RangeList([(0, 2), (4, 6), (100, 110)])
        # One merge allowed: close the 2-wide gap, keep the 94-wide one.
        assert rl.coalesce(2).to_pairs() == [(0, 6), (100, 110)]

    def test_single_range_result(self):
        rl = RangeList([(0, 2), (4, 6), (8, 10)])
        assert rl.coalesce(1).to_pairs() == [(0, 10)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            RangeList([(0, 1)]).coalesce(0)

    def test_coalesce_is_superset(self):
        rl = RangeList([(i * 10, i * 10 + 3) for i in range(20)])
        merged = rl.coalesce(4)
        assert len(merged) <= 4
        assert merged.covers(rl)


# -- materialization ----------------------------------------------------------------------


class TestMaterialization:
    def test_mask_roundtrip(self):
        rl = RangeList([(1, 4), (7, 9)])
        mask = rl.to_mask(12)
        assert RangeList.from_mask(mask) == rl

    def test_row_ids(self):
        rl = RangeList([(0, 2), (5, 7)])
        assert rl.to_row_ids().tolist() == [0, 1, 5, 6]

    def test_nbytes(self):
        assert RangeList([(0, 1), (5, 9)]).nbytes == 32


# -- property-based invariants --------------------------------------------------------------

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 50)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    max_size=20,
)


@given(ranges_strategy, ranges_strategy)
@settings(max_examples=200, deadline=None)
def test_union_matches_set_semantics(a_pairs, b_pairs):
    a, b = RangeList(a_pairs), RangeList(b_pairs)
    expected = set(a.to_row_ids().tolist()) | set(b.to_row_ids().tolist())
    assert set(a.union(b).to_row_ids().tolist()) == expected


@given(ranges_strategy, ranges_strategy)
@settings(max_examples=200, deadline=None)
def test_intersect_matches_set_semantics(a_pairs, b_pairs):
    a, b = RangeList(a_pairs), RangeList(b_pairs)
    expected = set(a.to_row_ids().tolist()) & set(b.to_row_ids().tolist())
    assert set(a.intersect(b).to_row_ids().tolist()) == expected


@given(ranges_strategy, ranges_strategy)
@settings(max_examples=200, deadline=None)
def test_difference_matches_set_semantics(a_pairs, b_pairs):
    a, b = RangeList(a_pairs), RangeList(b_pairs)
    expected = set(a.to_row_ids().tolist()) - set(b.to_row_ids().tolist())
    assert set(a.difference(b).to_row_ids().tolist()) == expected


@given(ranges_strategy, st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_complement_partitions_domain(pairs, num_rows):
    rl = RangeList(pairs).clip(0, num_rows)
    comp = rl.complement(num_rows)
    assert rl.intersect(comp).num_rows == 0
    assert rl.num_rows + comp.num_rows == num_rows


@given(ranges_strategy, st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_coalesce_never_loses_rows(pairs, max_ranges):
    rl = RangeList(pairs)
    merged = rl.coalesce(max_ranges)
    assert len(merged) <= max_ranges
    assert merged.covers(rl)


@given(ranges_strategy)
@settings(max_examples=100, deadline=None)
def test_normalization_is_canonical(pairs):
    rl = RangeList(pairs)
    # Disjoint, sorted, non-adjacent.
    for earlier, later in zip(rl, list(rl)[1:]):
        assert earlier.end < later.start
