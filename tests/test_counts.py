"""Count arithmetic and accumulation."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import counts_strategy
from votewire.counts import MAX_COUNT, ZERO, VoteCount, accumulate
from votewire.errors import ArithmeticOverflow


class TestVoteCount:
    def test_defaults_to_zero(self):
        assert VoteCount() == VoteCount(0, 0, 0, 0) == ZERO

    def test_total_sums_all_four_fields(self):
        assert VoteCount(yes=3, no=5, blank=7, invalid=11).total() == 26

    def test_is_immutable(self):
        counts = VoteCount(yes=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            counts.yes = 2

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
        assert accumulate([]) == ZERO

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
        assert accumulate([a, ZERO]) == a

    @given(st.lists(counts_strategy(), max_size=12))
    def test_matches_field_wise_python_sums(self, items):
        total = accumulate(items)
        assert total.yes == sum(c.yes for c in items)
        assert total.no == sum(c.no for c in items)
        assert total.blank == sum(c.blank for c in items)
        assert total.invalid == sum(c.invalid for c in items)
