"""Independent brute-force references that pin the solver results.

These deliberately avoid the solver code paths: selection is exhaustive
enumeration, costs come from a linear scan, and every candidate is decided
by applying its flips and asking the tally itself (``popular_outcome``,
``cantonal_outcome``, ``referendum_outcome``). No oracle restates a
majority or tie rule, so none can share a solver's mistake about one.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from votewire.counts import VoteCount, accumulate
from votewire.tally import (
    Decision,
    MajorityRule,
    ReferendumSpec,
    cantonal_outcome,
    popular_outcome,
    referendum_outcome,
)
from votewire.tree import JurisdictionId, JurisdictionTree

DOUBLE = ReferendumSpec("oracle", MajorityRule.DOUBLE_MAJORITY)


def flip(counts: VoteCount, n: int, target: Decision) -> VoteCount:
    if target is Decision.ACCEPTED:
        return VoteCount(counts.yes + n, counts.no - n, counts.blank, counts.invalid)
    return VoteCount(counts.yes - n, counts.no + n, counts.blank, counts.invalid)


def opposing(counts: VoteCount, target: Decision) -> int:
    """Ballots a flip toward ``target`` can take from."""
    return counts.no if target is Decision.ACCEPTED else counts.yes


def scan_flips(counts: VoteCount, target: Decision) -> int | None:
    """Smallest k >= 1 of flips after which the tally reads ``target``."""
    for k in range(1, opposing(counts, target) + 1):
        if popular_outcome(flip(counts, k, target)) is target:
            return k
    return None


def popular_flips_scan(counts: VoteCount, target: Decision) -> int | None:
    """Linear-scan reference for the popular solver (0 when already at target)."""
    if popular_outcome(counts) is target:
        return 0
    return scan_flips(counts, target)


def _both_read(
    flipped: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> bool:
    return (
        popular_outcome(accumulate(flipped.values())) is target
        and cantonal_outcome(flipped, tree)[0] is target
    )


def cantonal_flips_subsets(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Subset-exhaustive reference for the cantonal solver."""
    if cantonal_outcome(per_canton, tree)[0] is target:
        return 0
    cantons = list(tree.cantons())
    best: int | None = None
    for r in range(1, len(cantons) + 1):
        for subset in itertools.combinations(cantons, r):
            total = 0
            flipped = dict(per_canton)
            ok = True
            for canton in subset:
                k = scan_flips(per_canton[canton], target)
                if k is None:
                    ok = False
                    break
                total += k
                flipped[canton] = flip(per_canton[canton], k, target)
            if not ok or (best is not None and total >= best):
                continue
            if cantonal_outcome(flipped, tree)[0] is target:
                best = total
    return best


def double_flips_vectors(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Fully exhaustive per-canton flip-vector search; tiny instances only.

    The popular and the cantonal tally must both read ``target``.
    """
    cantons = list(tree.cantons())
    pools = [opposing(per_canton[c], target) for c in cantons]
    best: int | None = None
    for vector in itertools.product(*(range(p + 1) for p in pools)):
        total = sum(vector)
        if best is not None and total >= best:
            continue
        flipped = {c: flip(per_canton[c], k, target) for c, k in zip(cantons, vector)}
        if _both_read(flipped, tree, target):
            best = total
    return best


def double_flips_subsets(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Subset-exhaustive reference for the double solver.

    For each candidate set of cantons to flip outright, tops the allocation
    up to the national requirement wherever ballots remain, then asks the
    tally whether both majorities read ``target``.
    """
    cantons = list(tree.cantons())
    best: int | None = None
    for r in range(len(cantons) + 1):
        for subset in itertools.combinations(cantons, r):
            base_total = 0
            flipped = dict(per_canton)
            ok = True
            for canton in subset:
                k = scan_flips(per_canton[canton], target)
                if k is None:
                    ok = False
                    break
                base_total += k
                flipped[canton] = flip(per_canton[canton], k, target)
            if not ok:
                continue
            extra = popular_flips_scan(accumulate(flipped.values()), target)
            if extra is None:
                continue
            total = base_total + extra
            if best is not None and total >= best:
                continue
            remaining = extra
            for canton in cantons:
                if remaining == 0:
                    break
                take = min(opposing(flipped[canton], target), remaining)
                if take:
                    flipped[canton] = flip(flipped[canton], take, target)
                    remaining -= take
            if remaining:
                continue
            if _both_read(flipped, tree, target):
                best = total
    return best


def outcome_flips_vectors(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Exhaustive reference for the double-majority outcome solver; tiny instances only.

    The cheapest per-canton flip vector after which the referendum's
    overall outcome reads ``target``.
    """
    cantons = list(tree.cantons())
    pools = [opposing(per_canton[c], target) for c in cantons]
    best: int | None = None
    for vector in itertools.product(*(range(p + 1) for p in pools)):
        total = sum(vector)
        if best is not None and total >= best:
            continue
        flipped = {c: flip(per_canton[c], k, target) for c, k in zip(cantons, vector)}
        if referendum_outcome(DOUBLE, flipped, tree).overall is target:
            best = total
    return best
