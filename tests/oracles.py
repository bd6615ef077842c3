"""Independent brute-force references that pin the solver results.

These deliberately avoid the solver code paths: selection is exhaustive
enumeration, costs come from a linear scan, and every candidate is checked
by applying its flips and re-reading the outcome from first principles.

The solvers' contract, restated for the checks below: a majority dimension
that already reads the target costs nothing and must merely stay there;
a dimension that does not must end with the target side holding a strict
majority (popular: more ballots; cantonal: more than half the total weight).
"""

from __future__ import annotations

import itertools
from typing import Mapping

from votewire.counts import VoteCount, accumulate
from votewire.tally import Decision, cantonal_outcome, popular_outcome
from votewire.tree import JurisdictionId, JurisdictionTree


def flip(counts: VoteCount, n: int, target: Decision) -> VoteCount:
    if target is Decision.ACCEPTED:
        return VoteCount(counts.yes + n, counts.no - n, counts.blank, counts.invalid)
    return VoteCount(counts.yes - n, counts.no + n, counts.blank, counts.invalid)


def strict_target(counts: VoteCount, target: Decision) -> bool:
    if target is Decision.ACCEPTED:
        return counts.yes > counts.no
    return counts.no > counts.yes


def scan_until_strict(counts: VoteCount, target: Decision) -> int | None:
    """Smallest k >= 1 of flips giving the target side a strict ballot majority."""
    pool = counts.no if target is Decision.ACCEPTED else counts.yes
    for k in range(1, pool + 1):
        if strict_target(flip(counts, k, target), target):
            return k
    return None


def popular_flips_scan(counts: VoteCount, target: Decision) -> int | None:
    """Linear-scan reference for the popular solver (0 when already at target)."""
    if popular_outcome(counts) is target:
        return 0
    return scan_until_strict(counts, target)


def _strict_half(
    flipped: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int:
    return sum(
        tree.canton_half_votes[c] for c in tree.cantons() if strict_target(flipped[c], target)
    )


def cantonal_flips_subsets(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Subset-exhaustive reference for the cantonal solver."""
    decision, _, _ = cantonal_outcome(per_canton, tree)
    if decision is target:
        return 0
    half_needed = tree.total_half_votes() // 2 + 1
    cantons = list(tree.cantons())
    best: int | None = None
    for r in range(1, len(cantons) + 1):
        for subset in itertools.combinations(cantons, r):
            total = 0
            flipped = dict(per_canton)
            ok = True
            for canton in subset:
                # Cover pricing is strict: a selected canton must end with a
                # strict target majority of its own, so a tie is not free.
                k = scan_until_strict(per_canton[canton], target)
                if k is None:
                    ok = False
                    break
                total += k
                flipped[canton] = flip(per_canton[canton], k, target)
            if not ok or (best is not None and total >= best):
                continue
            if _strict_half(flipped, tree, target) >= half_needed:
                best = total
    return best


def double_flips_vectors(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Fully exhaustive per-canton flip-vector search; tiny instances only."""
    cantons = list(tree.cantons())
    pop_held = popular_outcome(accumulate(per_canton.values())) is target
    can_held = cantonal_outcome(per_canton, tree)[0] is target
    half_needed = tree.total_half_votes() // 2 + 1
    pools = [
        per_canton[c].no if target is Decision.ACCEPTED else per_canton[c].yes for c in cantons
    ]
    best: int | None = None
    for vector in itertools.product(*(range(p + 1) for p in pools)):
        total = sum(vector)
        if best is not None and total >= best:
            continue
        flipped = {c: flip(per_canton[c], k, target) for c, k in zip(cantons, vector)}
        national = accumulate(flipped.values())
        if pop_held:
            if popular_outcome(national) is not target:
                continue
        elif not strict_target(national, target):
            continue
        if can_held:
            if cantonal_outcome(flipped, tree)[0] is not target:
                continue
        elif _strict_half(flipped, tree, target) < half_needed:
            continue
        best = total
    return best


def double_flips_subsets(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Subset-exhaustive reference for the double solver.

    For each candidate set of cantons to flip outright, tops the allocation
    up to the national requirement wherever ballots remain, then verifies
    the combined predicate on the applied result.
    """
    cantons = list(tree.cantons())
    pop_held = popular_outcome(accumulate(per_canton.values())) is target
    can_held = cantonal_outcome(per_canton, tree)[0] is target
    half_needed = tree.total_half_votes() // 2 + 1
    best: int | None = None
    for r in range(len(cantons) + 1):
        for subset in itertools.combinations(cantons, r):
            base_total = 0
            flipped = dict(per_canton)
            ok = True
            for canton in subset:
                k = scan_until_strict(per_canton[canton], target)
                if k is None:
                    ok = False
                    break
                base_total += k
                flipped[canton] = flip(per_canton[canton], k, target)
            if not ok:
                continue
            national = accumulate(flipped.values())
            if pop_held or strict_target(national, target):
                extra = 0
            else:
                scanned = scan_until_strict(national, target)
                if scanned is None:
                    continue
                extra = scanned
            total = base_total + extra
            if best is not None and total >= best:
                continue
            remaining = extra
            for canton in cantons:
                if remaining == 0:
                    break
                room = (
                    flipped[canton].no if target is Decision.ACCEPTED else flipped[canton].yes
                )
                take = min(room, remaining)
                if take:
                    flipped[canton] = flip(flipped[canton], take, target)
                    remaining -= take
            if remaining:
                continue
            if can_held:
                if cantonal_outcome(flipped, tree)[0] is not target:
                    continue
            elif _strict_half(flipped, tree, target) < half_needed:
                continue
            best = total
    return best


def outcome_flips_vectors(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Exhaustive reference for the double-majority outcome solver; tiny instances only.

    Acceptance needs both majorities, which double_flips_vectors prices.
    Rejection needs only one to fail: nothing if either already rejects,
    else the cheapest flip vector after which the no side holds a strict
    ballot majority or strictly more than half the cantonal weight.
    """
    if target is Decision.ACCEPTED:
        return double_flips_vectors(per_canton, tree, target)
    if (
        popular_outcome(accumulate(per_canton.values())) is target
        or cantonal_outcome(per_canton, tree)[0] is target
    ):
        return 0
    cantons = list(tree.cantons())
    half_needed = tree.total_half_votes() // 2 + 1
    best: int | None = None
    for vector in itertools.product(*(range(per_canton[c].yes + 1) for c in cantons)):
        total = sum(vector)
        if best is not None and total >= best:
            continue
        flipped = {c: flip(per_canton[c], k, target) for c, k in zip(cantons, vector)}
        if (
            strict_target(accumulate(flipped.values()), target)
            or _strict_half(flipped, tree, target) >= half_needed
        ):
            best = total
    return best
