"""Popular, cantonal, and combined outcome rules."""

from fractions import Fraction

import pytest
from hypothesis import given

from helpers import canton_id, cantonal_instances, make_canton_tree
from votewire.counts import VoteCount
from votewire.errors import MissingCanton
from votewire.tally import (
    Decision,
    MajorityRule,
    Outcome,
    ReferendumSpec,
    cantonal_outcome,
    popular_outcome,
    referendum_outcome,
)
from votewire.tree import tree_from_paths


class TestPopularOutcome:
    def test_narrow_national_win_is_accepted(self):
        assert popular_outcome(VoteCount(yes=1_128_522, no=1_124_873)) is Decision.ACCEPTED

    def test_all_zero_tie_is_rejected(self):
        assert popular_outcome(VoteCount()) is Decision.REJECTED

    def test_blanks_do_not_break_ties(self):
        assert popular_outcome(VoteCount(yes=5, no=5, blank=100)) is Decision.REJECTED

    def test_opposite_flips_decision(self):
        assert Decision.ACCEPTED.opposite() is Decision.REJECTED
        assert Decision.REJECTED.opposite() is Decision.ACCEPTED


class TestCantonalOutcome:
    def test_weighted_majority_with_half_canton(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 1})
        decision, yes_w, no_w = cantonal_outcome(
            {
                canton_id("A"): VoteCount(yes=10, no=2),
                canton_id("B"): VoteCount(yes=1, no=9),
                canton_id("C"): VoteCount(yes=4, no=3),
            },
            tree,
        )
        assert decision is Decision.ACCEPTED
        assert yes_w == Fraction(3, 2)
        assert no_w == Fraction(1)

    def test_tied_canton_counts_for_neither_side(self):
        tree = make_canton_tree({"A": 2, "B": 2})
        decision, yes_w, no_w = cantonal_outcome(
            {
                canton_id("A"): VoteCount(yes=5, no=5),
                canton_id("B"): VoteCount(yes=9, no=1),
            },
            tree,
        )
        # B's single vote is not strictly more than half of 2.0 total.
        assert decision is Decision.REJECTED
        assert yes_w == Fraction(1)
        assert no_w == Fraction(0)

    def test_exact_half_weight_rejects(self):
        tree = make_canton_tree({"A": 2, "B": 2})
        decision, _, _ = cantonal_outcome(
            {
                canton_id("A"): VoteCount(yes=9, no=1),
                canton_id("B"): VoteCount(yes=1, no=9),
            },
            tree,
        )
        assert decision is Decision.REJECTED

    def test_missing_canton_raises(self):
        tree = make_canton_tree({"A": 2, "B": 2})
        with pytest.raises(MissingCanton):
            cantonal_outcome({canton_id("A"): VoteCount(yes=1)}, tree)

    def test_a_tree_without_weights_has_no_cantonal_vote(self):
        tree = tree_from_paths([("CH", "A"), ("CH", "B")])
        with pytest.raises(MissingCanton) as exc:
            cantonal_outcome({}, tree)
        assert str(exc.value) == "tree defines no weighted cantons"

    def test_unknown_jurisdiction_raises(self):
        tree = make_canton_tree({"A": 2})
        with pytest.raises(ValueError):
            cantonal_outcome(
                {canton_id("A"): VoteCount(), canton_id("Z"): VoteCount()}, tree
            )


class TestReferendumOutcome:
    def test_popular_only_rule_ignores_cantonal_split(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 2})
        spec = ReferendumSpec("law-1", MajorityRule.POPULAR_ONLY)
        outcome = referendum_outcome(
            spec,
            {
                canton_id("A"): VoteCount(yes=100, no=0),
                canton_id("B"): VoteCount(yes=0, no=30),
                canton_id("C"): VoteCount(yes=0, no=30),
            },
            tree,
        )
        assert outcome == Outcome(
            popular=Decision.ACCEPTED,
            cantonal=None,
            yes_weight=Fraction(0),
            no_weight=Fraction(0),
        )
        assert outcome.overall is Decision.ACCEPTED

    def test_double_majority_needs_both(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 2})
        spec = ReferendumSpec("amendment-1", MajorityRule.DOUBLE_MAJORITY)
        outcome = referendum_outcome(
            spec,
            {
                canton_id("A"): VoteCount(yes=100, no=0),
                canton_id("B"): VoteCount(yes=0, no=30),
                canton_id("C"): VoteCount(yes=0, no=30),
            },
            tree,
        )
        assert outcome.popular is Decision.ACCEPTED
        assert outcome.cantonal is Decision.REJECTED
        assert outcome.overall is Decision.REJECTED

    @given(cantonal_instances())
    def test_acceptance_implies_both_majorities(self, instance):
        tree, per_canton = instance
        spec = ReferendumSpec("any", MajorityRule.DOUBLE_MAJORITY)
        outcome = referendum_outcome(spec, per_canton, tree)
        if outcome.overall is Decision.ACCEPTED:
            assert outcome.popular is Decision.ACCEPTED
            assert outcome.cantonal is Decision.ACCEPTED
        else:
            assert (
                outcome.popular is Decision.REJECTED
                or outcome.cantonal is Decision.REJECTED
            )
        assert outcome.yes_weight + outcome.no_weight <= Fraction(
            tree.total_half_votes(), 2
        )
