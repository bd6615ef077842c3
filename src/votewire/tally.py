"""Referendum outcome rules: simple popular majority and double majority.

Every majority here is strict: ties reject, and a canton whose own vote
ties contributes its weight to neither side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .counts import VoteCount, accumulate
from .errors import MissingCanton
from .tree import JurisdictionId, JurisdictionTree


class Decision(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"

    def opposite(self) -> "Decision":
        return Decision.REJECTED if self is Decision.ACCEPTED else Decision.ACCEPTED


class MajorityRule(enum.Enum):
    POPULAR_ONLY = "popular"  # ordinary law referendums
    DOUBLE_MAJORITY = "double"  # constitutional changes


@dataclass(frozen=True)
class ReferendumSpec:
    election_id: str
    majority_rule: MajorityRule


@dataclass(frozen=True)
class Outcome:
    """The rule's majorities: ``cantonal`` is None under the popular-only rule.

    ``overall`` is derived: accepted when ``popular`` is and ``cantonal`` is not rejected."""

    popular: Decision
    cantonal: Decision | None
    yes_weight: Fraction
    no_weight: Fraction

    @property
    def overall(self) -> Decision:
        accepted = self.popular is Decision.ACCEPTED and self.cantonal is not Decision.REJECTED
        return Decision.ACCEPTED if accepted else Decision.REJECTED


def popular_outcome(counts: VoteCount) -> Decision:
    """Accepted iff strictly more yes than no ballots; blanks and invalids are ignored."""
    return Decision.ACCEPTED if counts.yes > counts.no else Decision.REJECTED


def cantonal_outcome(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
) -> tuple[Decision, Fraction, Fraction]:
    """Tally the cantonal vote and return (decision, yes_weight, no_weight).

    Each canton casts its full weight for the side holding a strict majority
    within the canton. Acceptance needs strictly more than half of the
    tree's total cantonal weight.
    """
    cantons = tree.cantons()
    if not cantons:
        raise MissingCanton("tree defines no weighted cantons")
    unknown = set(per_canton) - set(cantons)
    if unknown:
        raise ValueError(f"counts given for non-canton jurisdictions: {sorted(map(str, unknown))}")
    yes_half = no_half = 0
    for canton in cantons:
        if canton not in per_canton:
            raise MissingCanton(f"no vote count for canton {canton}")
        counts = per_canton[canton]
        if counts.yes > counts.no:
            yes_half += tree.canton_half_votes[canton]
        elif counts.no > counts.yes:
            no_half += tree.canton_half_votes[canton]
        # exact tie: weight goes to neither side
    total_half = tree.total_half_votes()
    decision = Decision.ACCEPTED if 2 * yes_half > total_half else Decision.REJECTED
    return decision, Fraction(yes_half, 2), Fraction(no_half, 2)


def referendum_outcome(
    spec: ReferendumSpec,
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
) -> Outcome:
    """Combine the national popular tally with the cantonal tally as the rule demands."""
    popular = popular_outcome(accumulate(per_canton.values()))
    if spec.majority_rule is MajorityRule.POPULAR_ONLY:
        return Outcome(popular, None, Fraction(0), Fraction(0))
    return Outcome(popular, *cantonal_outcome(per_canton, tree))
