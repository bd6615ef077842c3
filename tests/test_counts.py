"""Count arithmetic and accumulation."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import counts_strategy
from votewire.counts import MAX_COUNT, VoteCount, accumulate
from votewire.errors import ArithmeticOverflow


class TestVoteCount:
    def test_defaults_to_zero(self):
        assert VoteCount() == VoteCount(0, 0, 0, 0)

    def test_total_sums_all_four_fields(self):
        assert VoteCount(yes=3, no=5, blank=7, invalid=11).total() == 26

    def test_is_immutable(self):
        counts = VoteCount(yes=1)
        with pytest.raises(AttributeError):
            counts.yes = 2
        with pytest.raises(AttributeError):
            counts.extra = 2
        assert counts == VoteCount(1, 0, 0, 0) and counts.yes == 1

    @pytest.mark.parametrize("field", ["yes", "no", "blank", "invalid"])
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError):
            VoteCount(**{field: -1})

    @pytest.mark.parametrize("value", [1.0, "3", None, True])
    def test_rejects_non_int(self, value):
        with pytest.raises(TypeError):
            VoteCount(yes=value)

    def test_rejects_value_beyond_64_bit_range(self):
        assert VoteCount(yes=MAX_COUNT).yes == MAX_COUNT
        with pytest.raises(ArithmeticOverflow):
            VoteCount(yes=MAX_COUNT + 1)


class TestAccumulate:
    def test_empty_sum_is_zero(self):
        assert accumulate([]) == VoteCount()

    def test_sums_component_wise(self):
        total = accumulate([VoteCount(1, 2, 3, 4), VoteCount(10, 20, 30, 40)])
        assert total == VoteCount(11, 22, 33, 44)

    def test_overflow_raises_instead_of_wrapping(self):
        with pytest.raises(ArithmeticOverflow):
            accumulate([VoteCount(yes=MAX_COUNT), VoteCount(yes=1)])

    @given(counts_strategy(), counts_strategy(), counts_strategy())
    def test_associative_commutative_with_identity(self, a, b, c):
        assert accumulate([a, b]) == accumulate([b, a])
        assert accumulate([accumulate([a, b]), c]) == accumulate([a, accumulate([b, c])])
        assert accumulate([a, VoteCount()]) == a

    @given(st.lists(counts_strategy(), max_size=12))
    def test_matches_field_wise_python_sums(self, items):
        total = accumulate(items)
        assert total.yes == sum(c.yes for c in items)
        assert total.no == sum(c.no for c in items)
        assert total.blank == sum(c.blank for c in items)
        assert total.invalid == sum(c.invalid for c in items)


class TestCheckedTuple:
    """Every way to build a count goes through the constructor's checks."""

    def test_keyword_construction_and_repr(self):
        counts = VoteCount(yes=1, invalid=4)
        assert counts == VoteCount(1, 0, 0, 4)
        assert repr(counts) == "VoteCount(yes=1, no=0, blank=0, invalid=4)"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_copy_round_trip(self, protocol):
        counts = VoteCount(1, 2, 3, 4)
        loaded = pickle.loads(pickle.dumps(counts, protocol))
        assert loaded == counts and type(loaded) is VoteCount
        assert copy.copy(counts) == copy.deepcopy(counts) == counts

    def test_replace_and_make_are_checked(self):
        counts = VoteCount(1, 2, 3, 4)
        assert counts._replace(no=5) == VoteCount(1, 5, 3, 4)
        with pytest.raises(ValueError, match="no must be >= 0, got -1"):
            counts._replace(no=-1)
        with pytest.raises(ArithmeticOverflow, match=f"blank={MAX_COUNT + 1} exceeds"):
            VoteCount._make((0, 0, MAX_COUNT + 1, 0))

    @pytest.mark.parametrize(
        "operation",
        [lambda c: c + c, lambda c: c + (1,), lambda c: (1,) + c, lambda c: c * 2, lambda c: 2 * c],
        ids=["count + count", "count + tuple", "tuple + count", "count * 2", "2 * count"],
    )
    def test_plus_and_times_raise_instead_of_concatenating(self, operation):
        with pytest.raises(TypeError, match=r"accumulate\(\) is the checked sum"):
            operation(VoteCount(1, 2))

    def test_equality_and_hash_stay_the_tuple_s(self):
        assert VoteCount.__eq__ is tuple.__eq__ and VoteCount.__hash__ is tuple.__hash__
