"""Jurisdiction identifiers and the aggregation hierarchy.

Cantonal vote weights are kept in half-vote units (a full canton holds 2,
a half canton 1) so majority comparisons stay exact integer arithmetic.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

_IdFields = NamedTuple("_IdFields", [("path", tuple[str, ...]), ("text", str)])


class JurisdictionId(tuple):
    """Path of name segments from the root down, e.g. ``("CH", "ZH", "Uster")``.

    A tuple ``(path, text)`` checked in its constructor, because every engine
    and audit dict is keyed by ids: ``==`` and ``hash`` run in C. The text
    is kept because every trace line renders ids. It is the path joined
    by '/', which no segment may contain, so text and path determine each
    other. An id never equals a bare path tuple or a string.
    """

    __slots__ = ()
    # The fields' C accessors, without namedtuple's unchecked _make and _replace.
    path = _IdFields.path
    _text = _IdFields.text

    def __new__(cls, path: Iterable[str]) -> "JurisdictionId":
        path = tuple(path)
        if not path:
            raise ValueError("jurisdiction path must be nonempty")
        text = "/".join(path)
        # One C check for the common case; the loop names the first fault.
        if "" in path or "\n" in text or text.count("/") != len(path) - 1:
            for segment in path:
                if not segment:
                    raise ValueError("jurisdiction path segments must be nonempty")
                for ch in ("/", "\n"):
                    if ch in segment:
                        raise ValueError(f"segment {segment!r} contains forbidden character {ch!r}")
        return tuple.__new__(cls, (path, text))

    def __reduce__(self):
        # Pickle the path alone: loading rebuilds, and so checks, the id.
        return (JurisdictionId, (self.path,))

    def __repr__(self) -> str:
        return f"JurisdictionId(path={self.path!r})"

    @classmethod
    def of(cls, *segments: str) -> "JurisdictionId":
        return cls(segments)

    @classmethod
    def from_text(cls, text: str) -> "JurisdictionId":
        return cls(text.split("/"))

    @property
    def parent(self) -> "JurisdictionId | None":
        if len(self.path) == 1:
            return None
        return JurisdictionId(self.path[:-1])

    @property
    def name(self) -> str:
        return self.path[-1]

    def __str__(self) -> str:
        return self._text

    def _no_concatenation(self, other):
        raise TypeError("JurisdictionId does not support + or *")

    __add__ = __radd__ = __mul__ = __rmul__ = _no_concatenation


class JurisdictionTree:
    """The aggregation hierarchy: stations up to the federal root.

    ``canton_half_votes`` maps canton-level nodes to their weight in
    half-vote units; ``eligible_voters`` is optional per node and feeds the
    plausibility checks on incoming reports. Both are read-only views of
    copies taken at construction, so what ``_validate`` checked is what
    every later run reads.
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
        self.canton_half_votes = MappingProxyType(dict(canton_half_votes or {}))
        self.eligible_voters = MappingProxyType(dict(eligible_voters or {}))
        self._validate()

    def _validate(self) -> None:
        # The tree's one walk: depth first, root first, children in listed
        # order. Every order the tree hands out is read from what it records.
        # ``ups`` holds, for each node on ``stack``, its parent's index.
        order: list[JurisdictionId] = []
        leaves: list[JurisdictionId] = []
        parents: list[int] = []
        seen = {self.root}
        stack, ups = [self.root], [0]
        while stack:
            node = stack.pop()
            parents.append(ups.pop())
            order.append(node)
            kids = self._children.get(node, ())
            if not kids:
                leaves.append(node)
            for child in kids:
                if child in seen:
                    raise ValueError(f"{child} has more than one parent (or is the root)")
                if child.path[:-1] != node.path:
                    raise ValueError(f"{child} is not a path-child of {node}")
                seen.add(child)
            stack.extend(reversed(kids))
            ups.extend([len(order) - 1] * len(kids))
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
        self._parents = tuple(parents)
        self._leaves = tuple(leaves)
        self._nodes = seen

    def __contains__(self, node: JurisdictionId) -> bool:
        return node in self._nodes

    def order(self) -> tuple[JurisdictionId, ...]:
        """Every node depth first: root first, each subtree contiguous,
        children in listed order."""
        return self._order

    def parents(self) -> tuple[int, ...]:
        """Each node's parent, as its index in ``order()``; the root's is 0."""
        return self._parents

    def children(self, node: JurisdictionId) -> tuple[JurisdictionId, ...]:
        return self._children.get(node, ())

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
    key is the tree's own node when both tables name a node with one
    object.
    """
    named = {
        node.path: node for table in (canton_half_votes, eligible_voters) for node in table or ()
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
    return JurisdictionTree(roots[0], children, canton_half_votes, eligible_voters)
