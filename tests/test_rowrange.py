"""The range state's payload: RangeList built from row ids, bounded by
``coalesce`` and expanded back to row ids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rowrange import RangeList

from tests.rowsets import pairs, ranges

# -- RangeList constructors ---------------------------------------------------------


class TestRangeListConstruction:
    def test_from_rows(self):
        rl = RangeList.from_rows([7, 1, 2, 3, 9, 8])
        assert pairs(rl) == [(1, 4), (7, 10)]

    def test_from_rows_deduplicates(self):
        assert pairs(RangeList.from_rows([2, 2, 3])) == [(2, 4)]


# -- measures -------------------------------------------------------------------------


class TestRangeListMeasures:
    def test_num_rows(self):
        assert ranges((0, 3), (10, 15)).num_rows == 8


# -- coalesce (the bounded-range property) -----------------------------------------------


class TestCoalesce:
    def test_keeps_when_under_limit(self):
        rl = ranges((0, 2), (10, 12))
        assert rl.coalesce(5) is rl

    def test_merges_smallest_gaps_first(self):
        rl = ranges((0, 2), (4, 6), (100, 110))
        # One merge allowed: close the 2-wide gap, keep the 94-wide one.
        assert pairs(rl.coalesce(2)) == [(0, 6), (100, 110)]

    def test_single_range_result(self):
        rl = ranges((0, 2), (4, 6), (8, 10))
        assert pairs(rl.coalesce(1)) == [(0, 10)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ranges((0, 1)).coalesce(0)

    def test_coalesce_is_superset(self):
        rl = ranges(*((i * 10, i * 10 + 3) for i in range(20)))
        merged = rl.coalesce(4)
        assert len(merged) <= 4
        assert set(rl.to_row_ids().tolist()) <= set(merged.to_row_ids().tolist())


# -- materialization ----------------------------------------------------------------------


class TestMaterialization:
    def test_mask_roundtrip(self):
        mask = np.zeros(12, dtype=bool)
        mask[[1, 2, 3, 7, 8]] = True
        rl = RangeList.from_rows(np.flatnonzero(mask))
        assert rl == ranges((1, 4), (7, 9))
        assert rl.to_row_ids().tolist() == np.flatnonzero(mask).tolist()

    def test_row_ids(self):
        rl = ranges((0, 2), (5, 7))
        assert rl.to_row_ids().tolist() == [0, 1, 5, 6]

    def test_nbytes(self):
        assert ranges((0, 1), (5, 9)).nbytes == 32


# -- property-based invariants --------------------------------------------------------------

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 50)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    max_size=20,
)


@given(ranges_strategy, st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_coalesce_never_loses_rows(spans, max_ranges):
    rl = ranges(*spans)
    merged = rl.coalesce(max_ranges)
    assert len(merged) <= max_ranges
    assert set(rl.to_row_ids().tolist()) <= set(merged.to_row_ids().tolist())
