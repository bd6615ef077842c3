"""Minimum-flip solvers against brute-force references."""

import pytest
from hypothesis import given, settings

import oracles
from helpers import canton_id, cantonal_instances, counts_strategy, make_canton_tree
from votewire.counts import VoteCount, accumulate
from votewire.errors import Infeasible
from votewire.flips import (
    FlipPlan,
    apply_flips,
    apply_plan,
    min_flips_cantonal,
    min_flips_double,
    min_flips_outcome,
    min_flips_popular,
)
from votewire.tally import (
    Decision,
    MajorityRule,
    ReferendumSpec,
    cantonal_outcome,
    popular_outcome,
    referendum_outcome,
)
from votewire.swiss import swiss_tree

ACCEPT = Decision.ACCEPTED
REJECT = Decision.REJECTED


class TestFlipPlan:
    def test_total_must_match_sum(self):
        with pytest.raises(ValueError):
            FlipPlan({canton_id("A"): 3}, total_flips=2, achieves=ACCEPT)

    def test_rejects_negative_allocation(self):
        with pytest.raises(ValueError):
            FlipPlan({canton_id("A"): -1}, total_flips=-1, achieves=ACCEPT)

    def test_apply_plan_requires_canton_attribution(self):
        plan = FlipPlan({None: 2}, 2, ACCEPT)
        with pytest.raises(ValueError):
            apply_plan({canton_id("A"): VoteCount(yes=1, no=5)}, plan)


class TestPopularSolver:
    def test_wide_margin_costs_half_plus_one(self):
        plan = min_flips_popular(VoteCount(yes=1_128_522, no=1_124_873), REJECT)
        assert plan.total_flips == 1825
        assert plan.flips_per_canton == {None: 1825}

    def test_even_margin_needs_strict_majority_not_tie(self):
        # 1790 behind: 895 flips only tie, 896 give a strict majority.
        plan = min_flips_popular(VoteCount(yes=36_130, no=37_920), ACCEPT)
        assert plan.total_flips == 896

    def test_odd_margin_case(self):
        assert min_flips_popular(VoteCount(yes=17_703, no=19_570), ACCEPT).total_flips == 934

    def test_tie_breaks_with_one_flip(self):
        assert min_flips_popular(VoteCount(yes=7, no=7), ACCEPT).total_flips == 1

    def test_already_at_target_is_free(self):
        plan = min_flips_popular(VoteCount(yes=9, no=1), ACCEPT)
        assert plan.total_flips == 0
        assert plan.flips_per_canton == {}

    def test_empty_ballot_box_cannot_accept(self):
        with pytest.raises(Infeasible):
            min_flips_popular(VoteCount(), ACCEPT)

    @given(counts=counts_strategy())
    @pytest.mark.parametrize("target", [ACCEPT, REJECT])
    def test_matches_linear_scan_oracle_and_is_minimal(self, counts, target):
        expected = oracles.popular_flips_scan(counts, target)
        if expected is None:
            with pytest.raises(Infeasible):
                min_flips_popular(counts, target)
            return
        plan = min_flips_popular(counts, target)
        assert plan.total_flips == expected
        assert plan.achieves is target
        if plan.total_flips:
            after = apply_flips(counts, plan.total_flips, target)
            assert oracles.strict_target(after, target)
            almost = apply_flips(counts, plan.total_flips - 1, target)
            assert not oracles.strict_target(almost, target)


class TestCantonalSolver:
    def test_three_equal_cantons_need_one_more(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 2})
        per_canton = {
            canton_id("A"): VoteCount(yes=6, no=4),
            canton_id("B"): VoteCount(yes=4, no=6),
            canton_id("C"): VoteCount(yes=4, no=6),
        }
        plan = min_flips_cantonal(per_canton, tree, ACCEPT)
        assert plan.total_flips == 2
        assert len(plan.cantons()) == 1
        assert plan.cantons()[0] in (canton_id("B"), canton_id("C"))
        decision, _, _ = cantonal_outcome(apply_plan(per_canton, plan), tree)
        assert decision is ACCEPT

    def test_half_votes_defeat_greedy_selection(self):
        # One full canton at cost 3 beats two half cantons at cost 2 each.
        tree = make_canton_tree({"H": 2, "X": 2, "Y": 1, "Z": 1})
        per_canton = {
            canton_id("H"): VoteCount(yes=9, no=0),
            canton_id("X"): VoteCount(yes=0, no=5),
            canton_id("Y"): VoteCount(yes=0, no=3),
            canton_id("Z"): VoteCount(yes=0, no=3),
        }
        plan = min_flips_cantonal(per_canton, tree, ACCEPT)
        assert plan.flips_per_canton == {canton_id("X"): 3}
        assert plan.total_flips == oracles.cantonal_flips_subsets(per_canton, tree, ACCEPT)

    def test_already_at_target_is_free(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 2})
        per_canton = {
            canton_id("A"): VoteCount(yes=6, no=4),
            canton_id("B"): VoteCount(yes=6, no=4),
            canton_id("C"): VoteCount(yes=4, no=6),
        }
        assert min_flips_cantonal(per_canton, tree, ACCEPT).total_flips == 0

    def test_tied_canton_costs_one_flip_in_a_rejection_cover(self):
        # B's tie already reads as rejection on its own, but selecting it for
        # the cover still takes one flip before it casts its weight.
        tree = make_canton_tree({"A": 2, "D": 1, "B": 1})
        per_canton = {
            canton_id("A"): VoteCount(yes=9, no=0),
            canton_id("D"): VoteCount(yes=3, no=0),
            canton_id("B"): VoteCount(yes=2, no=2),
        }
        plan = min_flips_cantonal(per_canton, tree, REJECT)
        assert plan.flips_per_canton == {canton_id("A"): 5, canton_id("B"): 1}
        assert plan.total_flips == oracles.cantonal_flips_subsets(per_canton, tree, REJECT)

    def test_infeasible_when_opposing_cantons_have_no_ballots(self):
        tree = make_canton_tree({"A": 1, "B": 2})
        per_canton = {
            canton_id("A"): VoteCount(yes=1, no=0),
            canton_id("B"): VoteCount(),
        }
        with pytest.raises(Infeasible):
            min_flips_cantonal(per_canton, tree, ACCEPT)

    @given(instance=cantonal_instances())
    @pytest.mark.parametrize("target", [ACCEPT, REJECT])
    def test_matches_subset_oracle(self, instance, target):
        tree, per_canton = instance
        expected = oracles.cantonal_flips_subsets(per_canton, tree, target)
        if expected is None:
            with pytest.raises(Infeasible):
                min_flips_cantonal(per_canton, tree, target)
            return
        plan = min_flips_cantonal(per_canton, tree, target)
        assert plan.total_flips == expected
        for canton, n in plan.flips_per_canton.items():
            # Each selected canton gets exactly its own strict-majority cost.
            assert oracles.strict_target(apply_flips(per_canton[canton], n, target), target)
            assert not oracles.strict_target(
                apply_flips(per_canton[canton], n - 1, target), target
            )
        if expected:
            decision, _, _ = cantonal_outcome(apply_plan(per_canton, plan), tree)
            assert decision is target


class TestDoubleSolver:
    def _toy(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 2})
        per_canton = {
            canton_id("A"): VoteCount(yes=6, no=4),
            canton_id("B"): VoteCount(yes=4, no=6),
            canton_id("C"): VoteCount(yes=4, no=6),
        }
        spec = ReferendumSpec("toy", MajorityRule.DOUBLE_MAJORITY)
        return tree, per_canton, spec

    def test_three_canton_toy_instance(self):
        tree, per_canton, spec = self._toy()
        plan = min_flips_double(per_canton, tree, spec, ACCEPT)
        assert plan.total_flips == 2
        assert plan.total_flips == oracles.double_flips_vectors(per_canton, tree, ACCEPT)

    def test_popular_only_rule_is_rejected(self):
        tree, per_canton, _ = self._toy()
        with pytest.raises(ValueError):
            min_flips_double(
                per_canton, tree, ReferendumSpec("law", MajorityRule.POPULAR_ONLY), ACCEPT
            )

    def test_equals_popular_solver_when_cantons_already_agree(self):
        tree = make_canton_tree({"A": 2, "B": 1})
        per_canton = {
            canton_id("A"): VoteCount(yes=10, no=0),
            canton_id("B"): VoteCount(yes=0, no=30),
        }
        spec = ReferendumSpec("x", MajorityRule.DOUBLE_MAJORITY)
        plan = min_flips_double(per_canton, tree, spec, ACCEPT)
        national = accumulate(per_canton.values())
        assert plan.total_flips == min_flips_popular(national, ACCEPT).total_flips == 11

    def test_equals_cantonal_solver_when_popular_already_agrees(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 2})
        per_canton = {
            canton_id("A"): VoteCount(yes=100, no=0),
            canton_id("B"): VoteCount(yes=40, no=60),
            canton_id("C"): VoteCount(yes=40, no=60),
        }
        spec = ReferendumSpec("x", MajorityRule.DOUBLE_MAJORITY)
        plan = min_flips_double(per_canton, tree, spec, ACCEPT)
        assert plan.total_flips == min_flips_cantonal(per_canton, tree, ACCEPT).total_flips == 11

    def test_nothing_to_do_when_both_majorities_agree(self):
        tree = make_canton_tree({"A": 2, "B": 1})
        per_canton = {
            canton_id("A"): VoteCount(yes=10, no=0),
            canton_id("B"): VoteCount(yes=3, no=0),
        }
        spec = ReferendumSpec("x", MajorityRule.DOUBLE_MAJORITY)
        assert min_flips_double(per_canton, tree, spec, ACCEPT).total_flips == 0

    def test_infeasible_with_empty_ballot_boxes(self):
        tree = make_canton_tree({"A": 2, "B": 1})
        per_canton = {canton_id("A"): VoteCount(), canton_id("B"): VoteCount()}
        spec = ReferendumSpec("x", MajorityRule.DOUBLE_MAJORITY)
        with pytest.raises(Infeasible):
            min_flips_double(per_canton, tree, spec, ACCEPT)

    @settings(max_examples=40)
    @given(instance=cantonal_instances(max_cantons=3, max_side=6))
    @pytest.mark.parametrize("target", [ACCEPT, REJECT])
    def test_matches_exhaustive_vector_oracle_on_tiny_instances(self, instance, target):
        tree, per_canton = instance
        spec = ReferendumSpec("x", MajorityRule.DOUBLE_MAJORITY)
        expected = oracles.double_flips_vectors(per_canton, tree, target)
        self._check_against(expected, per_canton, tree, spec, target)

    @given(instance=cantonal_instances())
    @pytest.mark.parametrize("target", [ACCEPT, REJECT])
    def test_matches_subset_oracle(self, instance, target):
        tree, per_canton = instance
        spec = ReferendumSpec("x", MajorityRule.DOUBLE_MAJORITY)
        expected = oracles.double_flips_subsets(per_canton, tree, target)
        self._check_against(expected, per_canton, tree, spec, target)

    def _check_against(self, expected, per_canton, tree, spec, target):
        if expected is None:
            with pytest.raises(Infeasible):
                min_flips_double(per_canton, tree, spec, target)
            return
        plan = min_flips_double(per_canton, tree, spec, target)
        assert plan.total_flips == expected
        flipped = apply_plan(per_canton, plan)
        assert popular_outcome(accumulate(flipped.values())) is target
        assert cantonal_outcome(flipped, tree)[0] is target


class TestOutcomeSolver:
    """Double majority: acceptance needs both majorities, rejection only one."""

    SPEC = ReferendumSpec("x", MajorityRule.DOUBLE_MAJORITY)

    def test_rejection_takes_the_cheaper_cantonal_plan(self):
        # Every canton 1000 yes to 900 no: flipping the popular vote costs
        # 1301, but 12 full cantons at 51 flips each carry 24 of 46 half votes.
        tree = swiss_tree()
        per_canton = {c: VoteCount(yes=1000, no=900) for c in tree.cantons()}
        plan = min_flips_outcome(per_canton, tree, self.SPEC, REJECT)
        assert plan.total_flips == 612
        assert set(plan.flips_per_canton.values()) == {51}
        assert min_flips_double(per_canton, tree, self.SPEC, REJECT).total_flips == 1301
        flipped = apply_plan(per_canton, plan)
        assert referendum_outcome(self.SPEC, flipped, tree).overall is REJECT

    @pytest.mark.parametrize("no_in_c, popular_cost", [(3, 1), (1, 2)])
    def test_popular_plan_when_cheaper_or_tied(self, no_in_c, popular_cost):
        # Cantonal rejection flips A (2 ballots) to join C; the popular vote
        # costs 1 (cheaper) or 2 (tied, and the popular plan wins ties).
        tree = make_canton_tree({"A": 2, "B": 2, "C": 1})
        per_canton = {
            canton_id("A"): VoteCount(yes=12, no=10),
            canton_id("B"): VoteCount(yes=12, no=10),
            canton_id("C"): VoteCount(yes=0, no=no_in_c),
        }
        assert min_flips_cantonal(per_canton, tree, REJECT).total_flips == 2
        plan = min_flips_outcome(per_canton, tree, self.SPEC, REJECT)
        assert plan.flips_per_canton == {None: popular_cost}

    def test_acceptance_is_the_double_solver(self):
        tree = make_canton_tree({"A": 2, "B": 2, "C": 2})
        per_canton = {
            canton_id("A"): VoteCount(yes=100, no=0),
            canton_id("B"): VoteCount(yes=40, no=60),
            canton_id("C"): VoteCount(yes=40, no=60),
        }
        assert min_flips_outcome(per_canton, tree, self.SPEC, ACCEPT) == min_flips_double(
            per_canton, tree, self.SPEC, ACCEPT
        )

    def test_already_rejected_costs_nothing(self):
        tree = make_canton_tree({"A": 2, "B": 1})
        per_canton = {canton_id("A"): VoteCount(yes=10, no=0), canton_id("B"): VoteCount(yes=0, no=30)}
        assert min_flips_outcome(per_canton, tree, self.SPEC, REJECT).total_flips == 0

    def test_popular_only_rule_is_rejected(self):
        tree = make_canton_tree({"A": 2})
        with pytest.raises(ValueError):
            min_flips_outcome(
                {canton_id("A"): VoteCount(yes=2, no=1)}, tree,
                ReferendumSpec("law", MajorityRule.POPULAR_ONLY), REJECT,
            )

    @settings(max_examples=60)
    @given(instance=cantonal_instances(max_cantons=3, max_side=6))
    @pytest.mark.parametrize("target", [ACCEPT, REJECT])
    def test_matches_exhaustive_outcome_oracle(self, instance, target):
        tree, per_canton = instance
        expected = oracles.outcome_flips_vectors(per_canton, tree, target)
        if expected is None:
            with pytest.raises(Infeasible):
                min_flips_outcome(per_canton, tree, self.SPEC, target)
            return
        plan = min_flips_outcome(per_canton, tree, self.SPEC, target)
        assert plan.total_flips == expected
        if None in plan.flips_per_canton:
            national = apply_flips(accumulate(per_canton.values()), plan.total_flips, target)
            assert popular_outcome(national) is target
        else:
            flipped = apply_plan(per_canton, plan)
            assert referendum_outcome(self.SPEC, flipped, tree).overall is target
