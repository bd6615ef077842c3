"""Minimum-vote-flip solvers.

A flip moves one ballot from one side to the other, so every flip changes
the yes/no margin by two. The cantonal solver picks the cheapest set of
cantons to flip by an exact dynamic program over half-vote units; with
half-canton weights in play a greedy choice is not always optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .counts import VoteCount, accumulate
from .errors import Infeasible
from .tally import Decision, MajorityRule, ReferendumSpec, cantonal_outcome, popular_outcome
from .tree import JurisdictionId, JurisdictionTree


@dataclass(frozen=True)
class FlipPlan:
    """A minimal flip allocation reaching ``achieves``.

    The ``None`` key attributes flips to the national ballot pool as a
    whole, for solvers that run on accumulated counts without canton
    context.
    """

    flips_per_canton: Mapping[JurisdictionId | None, int] = field(default_factory=dict)
    total_flips: int = 0
    achieves: Decision = Decision.ACCEPTED

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.flips_per_canton.values()):
            raise ValueError("per-canton flip counts must be >= 0")
        if self.total_flips != sum(self.flips_per_canton.values()):
            raise ValueError("total_flips must equal the sum of per-canton flips")

    def cantons(self) -> tuple[JurisdictionId, ...]:
        return tuple(c for c in self.flips_per_canton if c is not None)


def flips_to_majority(counts: VoteCount, target: Decision) -> int:
    """Minimal single-ballot flips giving ``target`` a strict yes/no majority.

    Returns 0 when the outcome already reads the target side. Raises
    Infeasible when the side being drained runs out of ballots first.
    """
    if popular_outcome(counts) is target:
        return 0
    return _strict_flip_cost(counts, target)


def _strict_flip_cost(counts: VoteCount, target: Decision) -> int:
    """Flips until the target side holds strictly more ballots; a tie costs one.

    Unlike flips_to_majority this never shortcuts on the outcome rule: the
    cantonal cover needs each selected canton to end with a strict target
    majority, and a tied canton rejects without casting any weight.
    """
    if target is Decision.ACCEPTED:
        deficit, pool = counts.no - counts.yes, counts.no
    else:
        deficit, pool = counts.yes - counts.no, counts.yes
    k = deficit // 2 + 1
    if k > pool:
        raise Infeasible(
            f"need {k} flips toward {target.value} but only {pool} opposing ballots exist"
        )
    return k


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
    """Minimal flips reversing (or keeping) the strict popular outcome."""
    k = flips_to_majority(counts, target)
    if k == 0:
        return FlipPlan({}, 0, target)
    return FlipPlan({None: k}, k, target)


def _canton_flip_items(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> tuple[int, list[tuple[JurisdictionId, int, int]]]:
    """Current target-side half votes plus (canton, half_votes, cost) for the rest.

    Cantons that cannot reach a strict target majority at all (no opposing
    ballots left to flip) are silently excluded from the item list.
    """
    held_half = 0
    items: list[tuple[JurisdictionId, int, int]] = []
    for canton in tree.cantons():
        counts = per_canton[canton]
        # A tied canton casts its weight for neither side, so "holds" means a
        # strict majority even when the target is rejection.
        if target is Decision.ACCEPTED:
            holds = counts.yes > counts.no
        else:
            holds = counts.no > counts.yes
        if holds:
            held_half += tree.canton_half_votes[canton]
            continue
        try:
            cost = _strict_flip_cost(counts, target)
        except Infeasible:
            continue
        items.append((canton, tree.canton_half_votes[canton], cost))
    return held_half, items


def _cheapest_cover(
    items: list[tuple[JurisdictionId, int, int]],
    deficit_half: int,
) -> tuple[list[tuple[JurisdictionId, int]], int] | None:
    """Exact min-cost subset of items whose half votes total at least ``deficit_half``.

    Dynamic program over half-vote units (capacity is the deficit, at most
    the tree's total weight, 46 for the Swiss hierarchy). Returns the
    chosen (canton, cost) list and the total cost, or None when even
    selecting everything falls short.
    """
    inf = float("inf")
    # dp[i][h]: min cost over the first i items reaching >= h half votes (h capped).
    n = len(items)
    dp = [[inf] * (deficit_half + 1) for _ in range(n + 1)]
    dp[0][0] = 0
    for i, (_, half, cost) in enumerate(items):
        row, nxt = dp[i], dp[i + 1]
        for h in range(deficit_half + 1):
            if row[h] is inf:
                continue
            if row[h] < nxt[h]:
                nxt[h] = row[h]
            reach = min(deficit_half, h + half)
            if row[h] + cost < nxt[reach]:
                nxt[reach] = row[h] + cost
    if dp[n][deficit_half] is inf:
        return None
    chosen: list[tuple[JurisdictionId, int]] = []
    h = deficit_half
    for i in range(n, 0, -1):
        canton, half, cost = items[i - 1]
        if dp[i][h] == dp[i - 1][h]:
            continue
        chosen.append((canton, cost))
        # Undo the item: find the predecessor state it came from.
        for prev in range(deficit_half + 1):
            if min(deficit_half, prev + half) == h and dp[i - 1][prev] + cost == dp[i][h]:
                h = prev
                break
        else:
            raise AssertionError("dp backtrack lost its predecessor state")
    chosen.reverse()
    return chosen, int(dp[n][deficit_half])


def min_flips_cantonal(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> FlipPlan:
    """Cheapest flips handing ``target`` a strict cantonal majority.

    Per-canton cost is the canton's own strict-majority flip count; the
    selection of cantons is solved exactly, not greedily.
    """
    current, _, _ = cantonal_outcome(per_canton, tree)
    if current is target:
        return FlipPlan({}, 0, target)
    total_half = tree.total_half_votes()
    need_half = total_half // 2 + 1
    held_half, items = _canton_flip_items(per_canton, tree, target)
    deficit_half = need_half - held_half
    if deficit_half <= 0:
        # The weight is already there; the recount above says otherwise only
        # if the caller's counts are inconsistent.
        return FlipPlan({}, 0, target)
    cover = _cheapest_cover(items, deficit_half)
    if cover is None:
        raise Infeasible("flipping every flippable canton still leaves the target short")
    chosen, total = cover
    return FlipPlan({c: cost for c, cost in chosen}, total, target)


def min_flips_double(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    spec: ReferendumSpec,
    target: Decision,
) -> FlipPlan:
    """Minimal flips after which both the popular and the cantonal majority read ``target``.

    Flipped ballots keep counting nationally, so the cheapest canton
    selection may already cover the national margin; any shortfall is made
    up by extra flips wherever opposing ballots remain.
    """
    if spec.majority_rule is not MajorityRule.DOUBLE_MAJORITY:
        raise ValueError("double-majority solver called for a popular-only referendum")
    national = accumulate(per_canton.values())
    popular_need = flips_to_majority(national, target)

    current, _, _ = cantonal_outcome(per_canton, tree)
    base: dict[JurisdictionId, int] = {}
    if current is not target:
        cantonal_plan = min_flips_cantonal(per_canton, tree, target)
        base = dict(cantonal_plan.flips_per_canton)
    structural = sum(base.values())

    extra = popular_need - structural
    if extra > 0:
        # Pour the remaining national flips into whichever cantons still have
        # opposing ballots, selected cantons first so their majorities widen.
        pool = national.no if target is Decision.ACCEPTED else national.yes
        if popular_need > pool:
            raise Infeasible("the national pool has too few opposing ballots")
        ordering = list(base) + [c for c in tree.cantons() if c not in base]
        for canton in ordering:
            if extra == 0:
                break
            counts = per_canton[canton]
            opposing = counts.no if target is Decision.ACCEPTED else counts.yes
            room = opposing - base.get(canton, 0)
            if room <= 0:
                continue
            take = min(room, extra)
            base[canton] = base.get(canton, 0) + take
            extra -= take
        if extra > 0:
            raise Infeasible("the national pool has too few opposing ballots")

    plan = FlipPlan(base, sum(base.values()), target)
    _assert_double_plan(per_canton, tree, plan, target)
    return plan


def min_flips_outcome(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    spec: ReferendumSpec,
    target: Decision,
) -> FlipPlan:
    """Minimal flips after which the double-majority outcome reads ``target``.

    Acceptance needs both majorities, so it costs min_flips_double's plan.
    Rejection needs only one of them to fail, so it costs the cheaper of
    the popular plan (national pool) and the cantonal plan, the popular
    one on a tie. Either dimension, if flipped, ends with a strict target
    majority, as in the solvers above.
    """
    if spec.majority_rule is not MajorityRule.DOUBLE_MAJORITY:
        raise ValueError("outcome solver called for a popular-only referendum")
    if target is Decision.ACCEPTED:
        return min_flips_double(per_canton, tree, spec, target)
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
