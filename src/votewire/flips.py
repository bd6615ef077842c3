"""Minimum-vote-flip solvers.

A flip moves one ballot from one side to the other, so every flip changes
the yes/no margin by two. Costs follow the tally, ties included: a tie
rejects, so erasing a yes lead is enough to reject. The cantonal solver
picks the cheapest set of cantons to flip by one exact 0/1 knapsack over
half-vote units, capped at the weight the target still lacks; with
half-canton weights in play a greedy choice is not always optimal. Each
cell holds its own selection, so nothing is traced back. Cantons enter in
tree order and a canton takes over a cell only when strictly cheaper, so
of equally cheap selections the one without the later canton is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .counts import VoteCount, accumulate
from .errors import Infeasible
from .tally import Decision, cantonal_outcome, popular_outcome
from .tree import JurisdictionId, JurisdictionTree


@dataclass(frozen=True)
class FlipPlan:
    """A minimal flip allocation reaching ``achieves``.

    The ``None`` key attributes flips to the national ballot pool as a
    whole, for solvers that run on accumulated counts without canton
    context. ``total_flips`` is derived: the sum of ``flips_per_canton``.
    """

    flips_per_canton: Mapping[JurisdictionId | None, int] = field(default_factory=dict)
    achieves: Decision = Decision.ACCEPTED

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.flips_per_canton.values()):
            raise ValueError("per-canton flip counts must be >= 0")

    @property
    def total_flips(self) -> int:
        return sum(self.flips_per_canton.values())


def flips_to_majority(counts: VoteCount, target: Decision) -> int:
    """Minimal single-ballot flips after which ``popular_outcome`` reads ``target``.

    Ties reject, as in the tally: acceptance needs strictly more yes than
    no ballots, so a yes deficit of d costs d // 2 + 1 flips, while a yes
    lead of d only has to be erased, which takes ceil(d / 2). Returns 0
    when the counts already read the target. Raises Infeasible when the
    side being drained runs out of ballots first.
    """
    if popular_outcome(counts) is target:
        return 0
    if target is Decision.ACCEPTED:
        k = (counts.no - counts.yes) // 2 + 1
        if k > counts.no:
            raise Infeasible(
                f"need {k} flips toward {target.value} but only {counts.no} opposing ballots exist"
            )
        return k
    # Never short of ballots: the lead is at most the yes side.
    return (counts.yes - counts.no + 1) // 2


def apply_flips(counts: VoteCount, n: int, target: Decision) -> VoteCount:
    """Move ``n`` ballots from the side opposing ``target`` onto it."""
    if target is Decision.ACCEPTED:
        return VoteCount(counts.yes + n, counts.no - n, counts.blank, counts.invalid)
    return VoteCount(counts.yes - n, counts.no + n, counts.blank, counts.invalid)


def apply_plan(
    per_canton: Mapping[JurisdictionId, VoteCount],
    plan: FlipPlan,
) -> dict[JurisdictionId, VoteCount]:
    """Apply a per-canton flip plan; the plan must not use the national pool key."""
    if None in plan.flips_per_canton:
        raise ValueError("plan attributes flips to the national pool, not to cantons")
    out = dict(per_canton)
    for canton, n in plan.flips_per_canton.items():
        out[canton] = apply_flips(out[canton], n, plan.achieves)
    return out


def min_flips_popular(counts: VoteCount, target: Decision) -> FlipPlan:
    """Minimal flips after which the popular vote reads ``target``."""
    k = flips_to_majority(counts, target)
    return FlipPlan({None: k} if k else {}, target)


def min_flips_cantonal(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> FlipPlan:
    """Cheapest flips after which the cantonal vote reads ``target``.

    Per-canton cost is the canton's own flip count (``flips_to_majority``);
    cantons that already read the target hold their weight for free, and
    cantons with no opposing ballots left cannot be flipped at all. The
    selection of the rest is solved exactly, not greedily.
    """
    current, _, _ = cantonal_outcome(per_canton, tree)
    if current is target:
        return FlipPlan({}, target)
    total_half = tree.total_half_votes()
    # Acceptance needs yes cantons holding strictly more than half the
    # weight; rejection needs the other cantons to hold at least the rest.
    if target is Decision.ACCEPTED:
        deficit = total_half // 2 + 1
    else:
        deficit = total_half - total_half // 2
    costs: dict[JurisdictionId, int] = {}
    for canton in tree.cantons():
        try:
            cost = flips_to_majority(per_canton[canton], target)
        except Infeasible:
            continue
        if cost:
            costs[canton] = cost
        else:
            deficit -= tree.canton_half_votes[canton]
    # The recount above found the held weight short, so deficit > 0.
    # best[h]: the cheapest (cost, chosen (canton, flips) pairs) adding h
    # half votes, h capped at the deficit, or None while none does. A
    # canton replaces a cell only when strictly cheaper, so on a tie the
    # selection without it stays, then the one from the smallest h.
    best: list[tuple[int, tuple[tuple[JurisdictionId, int], ...]] | None]
    best = [(0, ())] + [None] * deficit
    for canton, cost in costs.items():
        row = best[:]
        for h, entry in enumerate(best):
            if entry is None:
                continue
            reach = min(deficit, h + tree.canton_half_votes[canton])
            if row[reach] is None or entry[0] + cost < row[reach][0]:
                row[reach] = (entry[0] + cost, entry[1] + ((canton, cost),))
        best = row
    if best[deficit] is None:
        raise Infeasible("flipping every flippable canton still leaves the target short")
    return FlipPlan(dict(best[deficit][1]), target)


def min_flips_double(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> FlipPlan:
    """Minimal flips after which both the popular and the cantonal majority read ``target``.

    Flipped ballots keep counting nationally, so the cheapest canton
    selection may already cover the national margin; any shortfall is made
    up by extra flips wherever opposing ballots remain.
    """
    national = accumulate(per_canton.values())
    popular_need = flips_to_majority(national, target)

    base = dict(min_flips_cantonal(per_canton, tree, target).flips_per_canton)
    # Pour the national flips the selection leaves short into whichever
    # cantons still have opposing ballots, selected cantons first so their
    # majorities widen. Those ballots make up the national pool, which
    # flips_to_majority has found large enough, so every flip finds room.
    extra = popular_need - sum(base.values())
    for canton in [*base, *(c for c in tree.cantons() if c not in base)]:
        counts = per_canton[canton]
        opposing = counts.no if target is Decision.ACCEPTED else counts.yes
        take = min(opposing - base.get(canton, 0), extra)
        if take > 0:
            base[canton] = base.get(canton, 0) + take
            extra -= take

    plan = FlipPlan(base, target)
    _assert_double_plan(per_canton, tree, plan, target)
    return plan


def min_flips_outcome(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> FlipPlan:
    """Minimal flips after which the double-majority outcome reads ``target``.

    Acceptance needs both majorities, so it costs min_flips_double's plan.
    Rejection needs only one of them to fail, so it costs the cheaper of
    the popular plan (national pool) and the cantonal plan, the popular
    one on a tie. Ties reject, as in the solvers above.
    """
    if target is Decision.ACCEPTED:
        return min_flips_double(per_canton, tree, target)
    # Neither raises Infeasible: a majority that accepts has yes ballots
    # (or yes-majority cantons) enough to drain.
    popular = min_flips_popular(accumulate(per_canton.values()), target)
    cantonal = min_flips_cantonal(per_canton, tree, target)
    return cantonal if cantonal.total_flips < popular.total_flips else popular


def _assert_double_plan(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    plan: FlipPlan,
    target: Decision,
) -> None:
    flipped = apply_plan(per_canton, plan)
    popular = popular_outcome(accumulate(flipped.values()))
    cantonal, _, _ = cantonal_outcome(flipped, tree)
    if popular is not target or cantonal is not target:
        raise AssertionError(
            f"solver produced a non-achieving plan: popular={popular}, cantonal={cantonal}"
        )
