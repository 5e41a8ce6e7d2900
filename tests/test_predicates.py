"""Predicate ASTs: evaluation, cache keys, bounds, and the parser."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.predicates import (
    And,
    Between,
    ColumnComparison,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    TruePredicate,
    col,
    conjunction_of,
    lit,
    parse_predicate,
)
from repro.predicates.ast import Bounds
from repro.predicates.parser import PredicateParseError
from repro.storage.compression import seal_blocks
from repro.storage.zonemap import ZoneMap


def batch(**cols):
    return {k: np.asarray(v) for k, v in cols.items()}


# -- evaluation ---------------------------------------------------------------------


class TestEvaluation:
    def test_comparison_ops(self):
        values = batch(x=[1, 2, 3, 4])
        cases = {
            "=": [False, True, False, False],
            "<>": [True, False, True, True],
            "<": [True, False, False, False],
            "<=": [True, True, False, False],
            ">": [False, False, True, True],
            ">=": [False, True, True, True],
        }
        for op, expected in cases.items():
            pred = Comparison(col("x"), op, lit(2))
            assert pred.evaluate(values).tolist() == expected

    def test_comparison_rejects_bad_op(self):
        with pytest.raises(ValueError):
            Comparison(col("x"), "~", lit(1))

    def test_between_is_inclusive(self):
        pred = Between(col("x"), lit(2), lit(4))
        assert pred.evaluate(batch(x=[1, 2, 3, 4, 5])).tolist() == [
            False, True, True, True, False,
        ]

    def test_in_list(self):
        pred = InList(col("x"), (1, 5))
        assert pred.evaluate(batch(x=[1, 2, 5])).tolist() == [True, False, True]

    def test_in_list_strings(self):
        pred = InList(col("s"), ("a", "c"))
        values = batch(s=np.array(["a", "b", "c"], dtype=object))
        assert pred.evaluate(values).tolist() == [True, False, True]

    # InList.evaluate asks np.isin for kind="sort"; the default kind
    # answers the same on every dtype a column or literal list can have.
    IN_LIST_TWIN_CASES = {
        "int64 narrow": (np.arange(2_000) * 7 % 50, (3, 7)),
        "int64 wide": (
            np.array([-(2**62), -5, 0, 5, 2**62, 2**40 + 1] * 50),
            (2**62, -5, 2**40 + 1, 3),
        ),
        "float64 specials": (
            np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5, 2.0] * 30),
            (0.0, float("nan"), float("inf"), 2),
        ),
        "float64 negative zero": (np.array([-0.0, 0.0, 1.0]), (-0.0,)),
        "bool": (np.array([True, False, True, False]), (True,)),
        "object strings with None": (
            np.array(["a", None, "b", "c", None], dtype=object), ("a", "c"),
        ),
        "mixed literals on int64": (np.arange(100) % 9, (1, 2.5, 4.0)),
        "mixed literals on float64": (np.arange(100) % 9 / 2, (1, 2.5, 4)),
        "one value": (np.arange(1_000) % 13, (12,)),
        "200 values": (np.arange(5_000) * 31 % 997, tuple(range(0, 1_000, 5))),
    }

    @pytest.mark.parametrize("name", sorted(IN_LIST_TWIN_CASES))
    def test_in_list_twin_of_default_isin(self, name):
        column, values = self.IN_LIST_TWIN_CASES[name]
        got = InList(col("x"), values).evaluate({"x": column})
        assert got.dtype == bool
        assert np.array_equal(got, np.isin(column, np.asarray(values)))

    def test_column_comparison(self):
        pred = ColumnComparison(col("a"), ">", col("b"))
        assert pred.evaluate(batch(a=[1, 5, 3], b=[2, 2, 3])).tolist() == [
            False, True, False,
        ]

    def test_is_null_without_validity(self):
        pred = IsNull(col("x"))
        assert pred.evaluate(batch(x=[1, 2])).tolist() == [False, False]
        assert IsNull(col("x"), negated=True).evaluate(batch(x=[1, 2])).tolist() == [
            True, True,
        ]

    def test_and_or_not(self):
        values = batch(x=[1, 2, 3, 4])
        a = Comparison(col("x"), ">", lit(1))
        b = Comparison(col("x"), "<", lit(4))
        assert And((a, b)).evaluate(values).tolist() == [False, True, True, False]
        assert Or((a, b)).evaluate(values).tolist() == [True, True, True, True]
        assert Not(a).evaluate(values).tolist() == [True, False, False, False]

    def test_true_predicate(self):
        assert TruePredicate().evaluate(batch(x=[1, 2])).tolist() == [True, True]

    def test_missing_column_raises(self):
        with pytest.raises(KeyError):
            Comparison(col("nope"), "=", lit(1)).evaluate(batch(x=[1]))

    def test_operator_sugar(self):
        values = batch(x=[1, 2, 3])
        a = Comparison(col("x"), ">", lit(1))
        b = Comparison(col("x"), "<", lit(3))
        assert (a & b).evaluate(values).tolist() == [False, True, False]
        assert (a | b).evaluate(values).tolist() == [True, True, True]
        assert (~a).evaluate(values).tolist() == [True, False, False]


# -- cache keys -------------------------------------------------------------------------


class TestCacheKeys:
    def test_comparison_key(self):
        assert Comparison(col("x"), "=", lit(1)).cache_key() == "x = 1"

    def test_float_and_int_keys_differ(self):
        assert Comparison(col("x"), "=", lit(1)).cache_key() != Comparison(
            col("x"), "=", lit(1.0)
        ).cache_key()

    def test_string_escaping(self):
        key = Comparison(col("s"), "=", lit("O'Neil")).cache_key()
        assert key == "s = 'O''Neil'"

    def test_and_is_order_insensitive(self):
        a = Comparison(col("x"), "=", lit(1))
        b = Comparison(col("y"), ">", lit(2))
        assert And((a, b)).cache_key() == And((b, a)).cache_key()

    def test_or_is_order_insensitive(self):
        a = Comparison(col("x"), "=", lit(1))
        b = Comparison(col("y"), ">", lit(2))
        assert Or((a, b)).cache_key() == Or((b, a)).cache_key()

    def test_between_key(self):
        key = Between(col("d"), lit(5), lit(9)).cache_key()
        assert key == "d BETWEEN 5 AND 9"

    def test_in_key(self):
        assert InList(col("m"), ("A", "B")).cache_key() == "m IN ('A', 'B')"

    def test_true_key(self):
        assert TruePredicate().cache_key() == "TRUE"


# -- bounds (zone-map pruning) -------------------------------------------------------------


class TestBounds:
    def test_equality_bounds(self):
        assert Comparison(col("x"), "=", lit(5)).bounds("x").as_pair() == (5, 5)

    def test_range_bounds_carry_strictness(self):
        lt = Comparison(col("x"), "<", lit(5)).bounds("x")
        assert lt.as_pair() == (None, 5) and lt.hi_strict
        le = Comparison(col("x"), "<=", lit(5)).bounds("x")
        assert le.as_pair() == (None, 5) and not le.hi_strict
        ge = Comparison(col("x"), ">=", lit(5)).bounds("x")
        assert ge.as_pair() == (5, None) and not ge.lo_strict
        gt = Comparison(col("x"), ">", lit(5)).bounds("x")
        assert gt.lo_strict

    def test_not_equal_has_no_bound(self):
        assert Comparison(col("x"), "<>", lit(5)).bounds("x") is None

    def test_other_column_unbounded(self):
        assert Comparison(col("x"), "=", lit(5)).bounds("y") is None

    def test_between_bounds(self):
        assert Between(col("x"), lit(2), lit(9)).bounds("x").as_pair() == (2, 9)

    def test_in_bounds(self):
        assert InList(col("x"), (5, 1, 9)).bounds("x").as_pair() == (1, 9)

    def test_and_tightens_bounds(self):
        pred = And(
            (
                Comparison(col("x"), ">=", lit(2)),
                Comparison(col("x"), "<", lit(10)),
                Comparison(col("x"), ">=", lit(5)),
            )
        )
        b = pred.bounds("x")
        assert b.as_pair() == (5, 10)
        assert b.hi_strict and not b.lo_strict

    def test_and_strictness_on_equal_bounds(self):
        pred = And(
            (
                Comparison(col("x"), "<", lit(10)),
                Comparison(col("x"), "<=", lit(10)),
            )
        )
        assert pred.bounds("x").hi_strict

    def test_or_widens_bounds(self):
        pred = Or(
            (
                Between(col("x"), lit(0), lit(5)),
                Between(col("x"), lit(20), lit(30)),
            )
        )
        assert pred.bounds("x").as_pair() == (0, 30)

    def test_or_with_unbounded_branch(self):
        pred = Or(
            (
                Between(col("x"), lit(0), lit(5)),
                Comparison(col("y"), "=", lit(1)),
            )
        )
        assert pred.bounds("x") is None


# -- the interval algebra against brute force ------------------------------------
#
# Bounds ends come from a few integers or short strings; each method is
# checked against the set of values a Bounds admits over a domain dense
# enough that two distinct ends always have a value strictly between them
# (half steps for the integers; one more character, '0' sorting below
# 'a', for the strings) and a value beyond every end.

INT_ENDS = list(range(5))
INT_DOMAIN = [k / 2 for k in range(-2, 11)]
STR_ENDS = ["".join(p) for n in (1, 2) for p in product("ab", repeat=n)]
STR_DOMAIN = ["".join(p) for n in range(4) for p in product("0ab", repeat=n)]


def bounds_over(ends):
    side = st.none() | st.sampled_from(ends)
    return st.builds(
        lambda lo, hi, lo_strict, hi_strict: Bounds(
            lo, hi, lo_strict and lo is not None, hi_strict and hi is not None
        ),
        side, side, st.booleans(), st.booleans(),
    )


def algebra_cases(ends, domain):
    block = st.lists(st.sampled_from(domain), min_size=2, max_size=2).map(sorted)
    return st.tuples(
        st.just((ends, domain)), bounds_over(ends), bounds_over(ends), block
    )


ALGEBRA_CASES = algebra_cases(INT_ENDS, INT_DOMAIN) | algebra_cases(
    STR_ENDS, STR_DOMAIN
)


def admits(bounds, value):
    lo, hi = bounds.lo, bounds.hi
    return (lo is None or (value > lo if bounds.lo_strict else value >= lo)) and (
        hi is None or (value < hi if bounds.hi_strict else value <= hi)
    )


def admitted(bounds, domain):
    return {value for value in domain if admits(bounds, value)}


def as_predicate(bounds):
    """The conjunction of comparisons whose ``bounds("x")`` is ``bounds``."""
    parts = []
    if bounds.lo is not None:
        op = ">" if bounds.lo_strict else ">="
        parts.append(Comparison(col("x"), op, lit(bounds.lo)))
    if bounds.hi is not None:
        op = "<" if bounds.hi_strict else "<="
        parts.append(Comparison(col("x"), op, lit(bounds.hi)))
    return conjunction_of(parts)


@settings(max_examples=300, deadline=None)
@given(ALGEBRA_CASES)
def test_algebra_meet_is_the_intersection_and_matches_and(case):
    (_, domain), a, b, _ = case
    met = a.meet(b)
    assert admitted(met, domain) == admitted(a, domain) & admitted(b, domain)
    conjunction = And((as_predicate(a), as_predicate(b)))
    assert conjunction.bounds("x") == (None if met.unbounded else met)
    truth = conjunction.evaluate(batch(x=np.array(domain, dtype=object)))
    assert {v for v, keep in zip(domain, truth) if keep} == admitted(met, domain)


@settings(max_examples=300, deadline=None)
@given(ALGEBRA_CASES)
def test_algebra_hull_holds_the_union_and_matches_or(case):
    (ends, domain), a, b, _ = case
    hull = a.hull(b)
    assert not hull.lo_strict and not hull.hi_strict
    union = admitted(a, domain) | admitted(b, domain)
    assert union <= admitted(hull, domain)
    # Or bounds a column only when both branches do and the hull is bounded.
    disjunction = Or((as_predicate(a), as_predicate(b)))
    assert disjunction.bounds("x") == (None if hull.unbounded else hull)
    # The least closed interval holding two non-empty ones.
    if admitted(a, domain) and admitted(b, domain):
        sides = [None, *ends]
        for lo, hi in product(sides, sides):
            closed = admitted(Bounds(lo, hi), domain)
            if union <= closed:
                assert admitted(hull, domain) <= closed


@settings(max_examples=300, deadline=None)
@given(ALGEBRA_CASES)
def test_algebra_contains_is_the_subset_relation(case):
    (ends, domain), a, b, _ = case
    subset = admitted(b, domain) <= admitted(a, domain)
    if a.contains(b):
        assert subset
    if admitted(b, domain):  # an empty interval's ends still rank
        assert a.contains(b) == subset
    numeric = ends is INT_ENDS and a.lo is not None and a.hi is not None
    assert a.width() == (a.hi - a.lo if numeric else float("inf"))
    if a.contains(b):
        assert a.width() >= b.width()


@settings(max_examples=300, deadline=None)
@given(ALGEBRA_CASES)
def test_algebra_excludes_a_block_with_no_admitted_value(case):
    (_, domain), bounds, _, (minimum, maximum) = case
    inside = {value for value in domain if minimum <= value <= maximum}
    holds = bool(admitted(bounds, domain) & inside)
    if bounds.excludes(minimum, maximum):
        assert not holds
    if admitted(bounds, domain):  # an empty interval may exclude nothing
        assert bounds.excludes(minimum, maximum) == (not holds)


@pytest.mark.parametrize(
    "bounds, minimum, maximum, excluded",
    [
        (Bounds(15, 18), 10, 20, False),
        (Bounds(None, 10), 10, 20, False),  # touches the minimum
        (Bounds(20, None), 10, 20, False),
        (Bounds(None, 9), 10, 20, True),
        (Bounds(21, None), 10, 20, True),
        # A strict end excludes a block whose extreme equals it.
        (Bounds(hi=10, hi_strict=True), 10, 20, True),
        (Bounds(lo=20, lo_strict=True), 10, 20, True),
        (Bounds(hi=10), 10, 20, False),
        (Bounds(lo=20), 10, 20, False),
        # Unknown, incomparable and NaN block bounds never exclude.
        (Bounds(0, 1), None, None, False),
        (Bounds(1, 5), "apple", "pear", False),
        (Bounds("a", "b"), 1, 2, False),
        (Bounds(0, 1), float("nan"), float("nan"), False),
        (Bounds(lo=float("nan")), 0, 1, False),
    ],
)
def test_algebra_excludes_known_cases(bounds, minimum, maximum, excluded):
    assert bounds.excludes(minimum, maximum) is excluded
    # Arrays answer per block, or one plain False when a side raised.
    arrays = bounds.excludes(np.array([minimum]), np.array([maximum]))
    assert np.broadcast_to(arrays, 1).tolist() == [excluded]


def test_algebra_incomparable_ends_never_contain():
    assert not Bounds(1, 5).contains(Bounds("a", "b"))
    assert not Bounds("a", "b").contains(Bounds(1, 5))
    assert Bounds("a", "b").width() == float("inf")


# The zone map's two array comparisons against excludes on each block:
# int, float (NaN and infinities included) and string blocks, some mixed
# with a number (bounds unknown), against comparable and incomparable
# bounds.

INTS = st.integers(-(2**40), 2**40)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
WORDS = st.text("abcxyz", max_size=3)


def blocks_of(values, dtype):
    # A sealed block is never empty.
    return st.lists(
        st.lists(values, min_size=1, max_size=4).map(
            lambda v: np.array(v, dtype=dtype)
        ),
        max_size=6,
    )


def bounds_of(values):
    side = st.none() | values
    return st.builds(Bounds, side, side, st.booleans(), st.booleans())


ZONE_MAP_CASES = st.one_of(
    st.tuples(blocks_of(INTS, np.int64), bounds_of(INTS | FLOATS)),
    st.tuples(blocks_of(FLOATS, np.float64), bounds_of(INTS | FLOATS)),
    st.tuples(blocks_of(WORDS | st.just(7), object), bounds_of(WORDS)),
    st.tuples(blocks_of(WORDS, object), bounds_of(INTS)),
)


@settings(max_examples=300, deadline=None)
@given(ZONE_MAP_CASES)
@example(([np.array([1.0, np.nan]), np.array([2.0, 3.0])], Bounds(hi=1.5)))
@example(([np.array(["a", 7], dtype=object), np.array(["b"], dtype=object)], Bounds("c")))
def test_algebra_pruned_blocks_is_excludes_block_by_block(case):
    blocks, bounds = case
    zm, expected = ZoneMap(), []
    for block in blocks:
        _, minima, maxima = seal_blocks(block.reshape(1, -1))
        zm.append_blocks(minima, maxima)
        expected.append(bool(bounds.excludes(minima.tolist()[0], maxima.tolist()[0])))
    assert zm.pruned_blocks(bounds).tolist() == expected


# -- structure helpers ----------------------------------------------------------------------


class TestStructure:
    def test_conjuncts_flatten(self):
        a = Comparison(col("x"), "=", lit(1))
        b = Comparison(col("y"), "=", lit(2))
        c = Comparison(col("z"), "=", lit(3))
        pred = And((And((a, b)), c))
        assert set(p.cache_key() for p in pred.conjuncts()) == {
            "x = 1", "y = 2", "z = 3",
        }

    def test_and_drops_true(self):
        a = Comparison(col("x"), "=", lit(1))
        combined = And((a, TruePredicate()))
        assert len(combined.operands) == 1

    def test_conjunction_of(self):
        assert isinstance(conjunction_of([]), TruePredicate)
        a = Comparison(col("x"), "=", lit(1))
        assert conjunction_of([a]) is a
        both = conjunction_of([a, Comparison(col("y"), "=", lit(2))])
        assert isinstance(both, And)

    def test_columns(self):
        pred = parse_predicate("a = 1 and (b > 2 or c < 3)")
        assert pred.columns() == frozenset({"a", "b", "c"})


# -- parser -----------------------------------------------------------------------------------


class TestParser:
    def test_simple_comparison(self):
        pred = parse_predicate("x >= 42")
        assert pred.cache_key() == "x >= 42"

    def test_floats_and_strings(self):
        pred = parse_predicate("price = 0.07 and name = 'widget'")
        values = batch(
            price=[0.07, 0.08], name=np.array(["widget", "widget"], dtype=object)
        )
        assert pred.evaluate(values).tolist() == [True, False]

    def test_between(self):
        pred = parse_predicate("d between 10 and 20")
        assert pred.evaluate(batch(d=[9, 10, 20, 21])).tolist() == [
            False, True, True, False,
        ]

    def test_in_and_not_in(self):
        pred = parse_predicate("m in ('A', 'B')")
        values = batch(m=np.array(["A", "C"], dtype=object))
        assert pred.evaluate(values).tolist() == [True, False]
        negated = parse_predicate("m not in ('A', 'B')")
        assert negated.evaluate(values).tolist() == [False, True]

    def test_precedence_or_binds_loosest(self):
        pred = parse_predicate("a = 1 or b = 2 and c = 3")
        assert isinstance(pred, Or)

    def test_parentheses(self):
        pred = parse_predicate("(a = 1 or b = 2) and c = 3")
        assert isinstance(pred, And)

    def test_not(self):
        pred = parse_predicate("not x > 3")
        assert pred.evaluate(batch(x=[2, 5])).tolist() == [True, False]

    def test_is_null(self):
        pred = parse_predicate("x is not null")
        assert isinstance(pred, IsNull)
        assert pred.negated

    def test_column_comparison_parse(self):
        pred = parse_predicate("a > b")
        assert isinstance(pred, ColumnComparison)

    def test_qualified_column(self):
        pred = parse_predicate("lineitem.l_quantity < 24")
        assert pred.columns() == frozenset({"l_quantity"})

    def test_negative_literal(self):
        pred = parse_predicate("x < -5")
        assert pred.evaluate(batch(x=[-10, 0])).tolist() == [True, False]

    def test_parse_errors(self):
        for bad in ("", "x", "x <", "x between 1", "and x = 1", "x = 1 or"):
            with pytest.raises(PredicateParseError):
                parse_predicate(bad)

    def test_reparse_of_cache_key_is_stable(self):
        pred = parse_predicate("l_discount = 0.1 and l_quantity >= 40")
        again = parse_predicate(pred.cache_key())
        assert again.cache_key() == pred.cache_key()


# -- property-based: evaluation matches Python semantics -----------------------------------


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=50),
    st.integers(-50, 50),
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
)
@settings(max_examples=200, deadline=None)
def test_comparison_matches_python(values, literal, op):
    import operator

    ops = {
        "=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    }
    pred = Comparison(col("x"), op, lit(literal))
    result = pred.evaluate(batch(x=values))
    expected = [ops[op](v, literal) for v in values]
    assert result.tolist() == expected


@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=30),
    st.integers(0, 20),
    st.integers(0, 20),
)
@settings(max_examples=200, deadline=None)
def test_between_matches_python(values, a, b):
    low, high = min(a, b), max(a, b)
    pred = Between(col("x"), lit(low), lit(high))
    assert pred.evaluate(batch(x=values)).tolist() == [
        low <= v <= high for v in values
    ]
