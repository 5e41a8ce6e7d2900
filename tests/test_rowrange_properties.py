"""Property suite: the range payload's builders and measures against a
boolean-mask oracle.

A :class:`RangeList` is built from row ids (``from_rows``), bounded by
``coalesce`` and expanded back to row ids; the oracle re-derives every
answer from plain boolean masks over the row domain.  The strategies
overweight the edge cases run detection has to get right: empty input,
adjacent ranges (end == next start) and single-row ranges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rowrange import RangeList

from tests.rowsets import pairs, ranges

DOMAIN = 256  # all oracle masks live over [0, DOMAIN)

# Small-coordinate ranges collide constantly: adjacency, containment and
# coincident boundaries all appear within a few dozen examples.
range_pairs = st.tuples(st.integers(0, 60), st.integers(0, 12)).map(
    lambda t: (t[0], t[0] + t[1])
)
pair_lists = st.lists(range_pairs, max_size=16)


def oracle_mask(spans) -> np.ndarray:
    mask = np.zeros(DOMAIN, dtype=bool)
    for start, end in spans:
        mask[start:end] = True
    return mask


def as_mask(rl: RangeList, size: int = DOMAIN) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[rl.to_row_ids()] = True
    return mask


def assert_normalized(rl: RangeList) -> None:
    """Sorted, disjoint, non-adjacent, no empties — the class invariant."""
    bounds = rl.bounds
    assert (bounds[:, 1] > bounds[:, 0]).all()
    if len(bounds) > 1:
        assert (bounds[1:, 0] > bounds[:-1, 1]).all()


# -- constructors ---------------------------------------------------------------


@given(st.lists(st.integers(0, DOMAIN - 1), max_size=40))
@settings(max_examples=300, deadline=None)
def test_from_rows_matches_oracle(rows):
    rl = RangeList.from_rows(rows)
    assert_normalized(rl)
    expected = np.zeros(DOMAIN, dtype=bool)
    expected[rows] = True
    assert np.array_equal(as_mask(rl), expected)
    assert rl.to_row_ids().tolist() == sorted(set(rows))


@given(st.lists(st.integers(0, DOMAIN - 1), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_from_rows_presorted_fast_path(rows):
    presorted = np.array(sorted(set(rows)), dtype=np.int64)
    assert RangeList.from_rows(presorted) == RangeList.from_rows(rows)


# -- measures and round-trips ------------------------------------------------------


@given(pair_lists)
@settings(max_examples=300, deadline=None)
def test_num_rows_matches_oracle(spans):
    assert ranges(*spans).num_rows == int(oracle_mask(spans).sum())


@given(pair_lists)
@settings(max_examples=300, deadline=None)
def test_row_ids_mask_roundtrip(spans):
    rl = ranges(*spans)
    ids = rl.to_row_ids()
    assert np.array_equal(ids, np.flatnonzero(oracle_mask(spans)))
    assert RangeList.from_rows(ids) == rl
    assert RangeList.from_rows(np.flatnonzero(as_mask(rl))) == rl


@given(pair_lists, st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_coalesce_superset_and_bound(spans, max_ranges):
    rl = ranges(*spans)
    merged = rl.coalesce(max_ranges)
    assert_normalized(merged)
    assert len(merged) <= max_ranges
    # Supersets only (false positives allowed, never false negatives).
    assert not (oracle_mask(spans) & ~as_mask(merged, DOMAIN + 20)[:DOMAIN]).any()


# -- single-row / empty edge cases (explicitly) -------------------------------------


def test_empty_edge_cases():
    empty = RangeList.from_rows([])
    assert empty.num_rows == 0
    assert len(empty) == 0 and pairs(empty) == []
    assert empty.to_row_ids().size == 0
    assert empty.coalesce(1) is empty
    assert RangeList.from_rows(np.flatnonzero(np.zeros(5, dtype=bool))) == empty


def test_single_row_ranges():
    rl = ranges((4, 5), (6, 7), (8, 9))
    assert rl.num_rows == 3
    assert rl.to_row_ids().tolist() == [4, 6, 8]
    assert pairs(rl.coalesce(1)) == [(4, 9)]
