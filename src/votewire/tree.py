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
    # Every trace and summary line renders ids, so the text is joined once too.
    _text: str = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_text", "/".join(self.path))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, the caches.
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
        return self._text


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
        # The tree's one walk: depth first, root first, children in listed
        # order. Every order the tree hands out is read from what it records.
        order: list[JurisdictionId] = []
        leaves: list[JurisdictionId] = []
        parent_of: dict[JurisdictionId, JurisdictionId] = {}
        position: dict[JurisdictionId, int] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            kids = self._children.get(node, ())
            if not kids:
                leaves.append(node)
            for i, child in enumerate(kids):
                if child in parent_of or child == self.root:
                    raise ValueError(f"{child} has more than one parent (or is the root)")
                if child.path[:-1] != node.path:
                    raise ValueError(f"{child} is not a path-child of {node}")
                parent_of[child] = node
                position[child] = i
            stack.extend(reversed(kids))
        seen = frozenset(order)
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
        self._order = tuple(order)
        self._leaves = tuple(leaves)
        self._nodes = seen
        self._parent_of = parent_of
        self._position = position

    def __contains__(self, node: JurisdictionId) -> bool:
        return node in self._nodes

    def nodes(self) -> frozenset[JurisdictionId]:
        return self._nodes

    def order(self) -> tuple[JurisdictionId, ...]:
        """Every node depth first: root first, each subtree contiguous,
        children in listed order."""
        return self._order

    def children(self, node: JurisdictionId) -> tuple[JurisdictionId, ...]:
        return self._children.get(node, ())

    def parent(self, node: JurisdictionId) -> JurisdictionId | None:
        return self._parent_of.get(node)

    def position(self, node: JurisdictionId) -> int:
        """Index of a non-root node among its parent's children."""
        return self._position[node]

    def leaves(self) -> tuple[JurisdictionId, ...]:
        """Childless nodes in ``order()``."""
        return self._leaves

    def cantons(self) -> tuple[JurisdictionId, ...]:
        """Weighted nodes in ``order()``, except that a weighted root comes last."""
        weighted = [n for n in self._order[1:] if n in self.canton_half_votes]
        if self.root in self.canton_half_votes:
            weighted.append(self.root)
        return tuple(weighted)

    def total_half_votes(self) -> int:
        return sum(self.canton_half_votes.values())


def tree_from_paths(
    paths: Iterable[Sequence[str]],
    canton_half_votes: Mapping[JurisdictionId, int] | None = None,
    eligible_voters: Mapping[JurisdictionId, int] | None = None,
) -> JurisdictionTree:
    """Build a tree from full paths; intermediate nodes are created implicitly.

    Each node is built once: a node that a weight or voter key names is
    that key, any other is built here. So a parent is the very object
    listed among its own parent's children, and every weight and voter
    entry, re-keyed to the node of its path, is found by identity.
    """
    named = {
        node.path: node for entries in (canton_half_votes, eligible_voters) for node in entries or ()
    }
    ids: dict[tuple[str, ...], JurisdictionId] = {}
    for p in paths:
        p = tuple(p)
        # Longest prefix first: once one is known, so are all shorter ones.
        for i in range(len(p), 0, -1):
            prefix = p[:i]
            if prefix in ids:
                break
            ids[prefix] = named.get(prefix) or JurisdictionId(prefix)
    roots = [j for prefix, j in ids.items() if len(prefix) == 1]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {sorted(str(r) for r in roots)}")
    children: dict[JurisdictionId, list[JurisdictionId]] = {}
    for prefix in sorted(ids):
        if len(prefix) > 1:
            children.setdefault(ids[prefix[:-1]], []).append(ids[prefix])
    return JurisdictionTree(
        roots[0], children, _rekeyed(canton_half_votes, ids), _rekeyed(eligible_voters, ids)
    )


def _rekeyed(
    mapping: Mapping[JurisdictionId, int] | None, ids: Mapping[tuple[str, ...], JurisdictionId]
) -> dict[JurisdictionId, int]:
    # A key that names no node stays as it is, for the tree to refuse.
    return {ids.get(node.path, node): value for node, value in (mapping or {}).items()}
