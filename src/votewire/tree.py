"""Jurisdiction identifiers and the aggregation hierarchy.

Cantonal vote weights are stored in half-vote units (a full canton holds 2,
a half canton 1) so majority comparisons stay exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

# '/' separates path segments in every textual rendering, so segments must
# not contain it; that also keeps the rendering injective.
_FORBIDDEN_IN_SEGMENT = ("/", "\n")


@dataclass(frozen=True, slots=True)
class JurisdictionId:
    """Path of name segments from the root down, e.g. ``("CH", "ZH", "Uster")``."""

    path: tuple[str, ...]
    # Every engine and audit dict is keyed by these ids, so the hash is
    # computed once here instead of per lookup. It equals the hash the
    # dataclass would generate, so set and dict orders are unchanged.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("jurisdiction path must be nonempty")
        for segment in self.path:
            if not segment:
                raise ValueError("jurisdiction path segments must be nonempty")
            for ch in _FORBIDDEN_IN_SEGMENT:
                if ch in segment:
                    raise ValueError(f"segment {segment!r} contains forbidden character {ch!r}")
        object.__setattr__(self, "_hash", hash((self.path,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, the cache.
        return (JurisdictionId, (self.path,))

    @classmethod
    def of(cls, *segments: str) -> "JurisdictionId":
        return cls(tuple(segments))

    @classmethod
    def from_text(cls, text: str) -> "JurisdictionId":
        return cls(tuple(text.split("/")))

    @property
    def parent(self) -> "JurisdictionId | None":
        if len(self.path) == 1:
            return None
        return JurisdictionId(self.path[:-1])

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    @property
    def name(self) -> str:
        return self.path[-1]

    def __str__(self) -> str:
        return "/".join(self.path)


class JurisdictionTree:
    """The aggregation hierarchy: stations up to the federal root.

    ``canton_half_votes`` maps canton-level nodes to their weight in
    half-vote units; ``eligible_voters`` is optional per node and feeds the
    plausibility checks on incoming reports.
    """

    def __init__(
        self,
        root: JurisdictionId,
        children: Mapping[JurisdictionId, Sequence[JurisdictionId]],
        canton_half_votes: Mapping[JurisdictionId, int] | None = None,
        eligible_voters: Mapping[JurisdictionId, int] | None = None,
    ) -> None:
        self.root = root
        self._children: dict[JurisdictionId, tuple[JurisdictionId, ...]] = {
            parent: tuple(kids) for parent, kids in children.items()
        }
        self.canton_half_votes: dict[JurisdictionId, int] = dict(canton_half_votes or {})
        self.eligible_voters: dict[JurisdictionId, int] = dict(eligible_voters or {})
        self._validate()

    def _validate(self) -> None:
        seen: set[JurisdictionId] = {self.root}
        parent_of: dict[JurisdictionId, JurisdictionId] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in self._children.get(node, ()):
                if child in parent_of or child == self.root:
                    raise ValueError(f"{child} has more than one parent (or is the root)")
                if child.path[:-1] != node.path:
                    raise ValueError(f"{child} is not a path-child of {node}")
                parent_of[child] = node
                seen.add(child)
                stack.append(child)
        for parent in self._children:
            if parent not in seen:
                raise ValueError(f"{parent} is not reachable from the root {self.root}")
        for node, half in self.canton_half_votes.items():
            if node not in seen:
                raise ValueError(f"weighted canton {node} is not in the tree")
            if half not in (1, 2):
                raise ValueError(f"canton weight must be 0.5 or 1.0 vote, got {half} half-votes")
        for node, voters in self.eligible_voters.items():
            if node not in seen:
                raise ValueError(f"eligible-voter entry {node} is not in the tree")
            if voters < 0:
                raise ValueError(f"eligible voters for {node} must be >= 0")
        # A parent can never have fewer eligible voters than its children combined.
        for parent, kids in self._children.items():
            if parent not in self.eligible_voters:
                continue
            child_values = [self.eligible_voters[k] for k in kids if k in self.eligible_voters]
            if len(child_values) == len(kids) and kids:
                if self.eligible_voters[parent] < sum(child_values):
                    raise ValueError(
                        f"eligible voters of {parent} ({self.eligible_voters[parent]}) "
                        f"is less than the sum over its children ({sum(child_values)})"
                    )
        self._nodes = seen
        self._parent_of = parent_of

    def __contains__(self, node: JurisdictionId) -> bool:
        return node in self._nodes

    def nodes(self) -> frozenset[JurisdictionId]:
        return frozenset(self._nodes)

    def children(self, node: JurisdictionId) -> tuple[JurisdictionId, ...]:
        return self._children.get(node, ())

    def parent(self, node: JurisdictionId) -> JurisdictionId | None:
        return self._parent_of.get(node)

    def leaves(self) -> tuple[JurisdictionId, ...]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            kids = self.children(node)
            if kids:
                stack.extend(reversed(kids))
            else:
                out.append(node)
        return tuple(out)

    def cantons(self) -> tuple[JurisdictionId, ...]:
        """Weighted cantons in stable child order."""
        out = []
        stack = list(reversed(self.children(self.root)))
        while stack:
            node = stack.pop()
            if node in self.canton_half_votes:
                out.append(node)
            stack.extend(reversed(self.children(node)))
        # Weighted nodes that sit at unusual depths are still cantons.
        missing = [c for c in self.canton_half_votes if c not in out]
        return tuple(out + sorted(missing, key=lambda j: j.path))

    def total_half_votes(self) -> int:
        return sum(self.canton_half_votes.values())


def tree_from_paths(
    paths: Iterable[Sequence[str]],
    canton_half_votes: Mapping[JurisdictionId, int] | None = None,
    eligible_voters: Mapping[JurisdictionId, int] | None = None,
) -> JurisdictionTree:
    """Build a tree from full paths; intermediate nodes are created implicitly."""
    ids = set()
    for p in paths:
        p = tuple(p)
        for i in range(1, len(p) + 1):
            ids.add(JurisdictionId(p[:i]))
    roots = [j for j in ids if len(j.path) == 1]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {sorted(str(r) for r in roots)}")
    children: dict[JurisdictionId, list[JurisdictionId]] = {}
    for j in sorted(ids, key=lambda j: j.path):
        if j.parent is not None:
            children.setdefault(j.parent, []).append(j)
    return JurisdictionTree(roots[0], children, canton_half_votes, eligible_voters)
