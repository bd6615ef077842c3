"""Jurisdiction identifiers and the aggregation hierarchy.

A tree is built from node paths alone: every id is its path from the
root, so each node's parent is stated once. Cantonal vote weights are kept
in half-vote units (a full canton holds 2, a half canton 1) so majority
comparisons stay exact integer arithmetic.
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
        if isinstance(path, str):
            raise ValueError(f"jurisdiction path {path!r} is a str, not a sequence of segments")
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

    Every prefix of every listed path is a node, and there must be exactly
    one root. Each node lists its children in the order the paths first
    name them. A node that a weight or voter key names is that key object;
    any other is built here, once. So every key is the tree's own node
    when both tables name a node with one object. Paths are read by segment
    (a ``str`` caches its hash), then walked once into the engine's columns.

    ``canton_half_votes`` maps canton-level nodes to their weight in
    half-vote units; ``eligible_voters`` is optional per node and feeds the
    plausibility checks on incoming reports. Both are read-only views of
    copies taken at construction, so what the constructor checked is what
    every later run reads.
    """

    def __init__(
        self,
        paths: Iterable[Sequence[str]],
        canton_half_votes: Mapping[JurisdictionId, int] | None = None,
        eligible_voters: Mapping[JurisdictionId, int] | None = None,
    ) -> None:
        self.canton_half_votes = MappingProxyType(dict(canton_half_votes or {}))
        self.eligible_voters = MappingProxyType(dict(eligible_voters or {}))
        named = {n._text: n for t in (self.canton_half_votes, self.eligible_voters) for n in t}
        # Each node is a dict of its children's, by segment, in first-named
        # order; ``firsts`` lists each new node's parent dict, ``top`` first.
        top, firsts = {}, []
        for p in paths:
            if isinstance(p, str):
                raise ValueError(f"jurisdiction path {p!r} is a str, not a sequence of segments")
            p = tuple(p)
            if not p:
                raise ValueError("jurisdiction path must be nonempty")
            below = top
            for segment in p:
                kids = below.get(segment)
                if kids is None:  # checked once, here, so the first bad path raises
                    if not segment or "/" in segment or "\n" in segment:
                        JurisdictionId(p[: p.index(segment) + 1])
                    firsts.append(below)
                    kids = below[segment] = {}
                below = kids
        if len(top) != 1:
            raise ValueError(f"expected exactly one root, found {sorted(top)}")
        # The one walk, depth first: a node's children are made, or taken from
        # a table, as it is reached, and every order the tree hands out is kept.
        order, parents, leaves, self._children, at = [], [], [], {}, {}
        stack = [(named.get(s) or JurisdictionId((s,)), kids, 0) for s, kids in top.items()]
        while stack:
            node, below, up = stack.pop()
            parents.append(up)
            order.append(node)
            if below:
                at[id(below)] = here = len(order) - 1
                text = node._text + "/"
                kids = self._children[node] = tuple(
                    [named.get(text + s) or JurisdictionId((*node.path, s)) for s in below]
                )
                stack.extend(zip(reversed(kids), reversed(below.values()), [here] * len(kids)))
            else:
                leaves.append(len(order) - 1)
        self._order, self._parents, self._leaf_at = tuple(order), tuple(parents), tuple(leaves)
        self._leaves = tuple(map(order.__getitem__, leaves))
        self._index = dict(zip(order, range(len(order))))
        for node, half in self.canton_half_votes.items():
            if node not in self._index:
                raise ValueError(f"weighted canton {node} is not in the tree")
            if half not in (1, 2):
                raise ValueError(f"canton weight must be 0.5 or 1.0 vote, got {half} half-votes")
        voters: list[int | None] = [None] * len(order)
        for node, given in self.eligible_voters.items():
            if (i := self._index.get(node)) is None:
                raise ValueError(f"eligible-voter entry {node} is not in the tree")
            if given < 0:
                raise ValueError(f"eligible voters for {node} must be >= 0")
            voters[i] = given
        self._eligible = tuple(voters)
        # A parent can never have fewer eligible voters than its children
        # combined; a sum turns None at a child without an entry.
        sums: list[int | None] = [0] * len(order)
        for up, given in zip(parents[1:], voters[1:]):
            sums[up] = None if given is None or sums[up] is None else sums[up] + given
        short = [c is not None and s is not None and c < s for c, s in zip(voters, sums)]
        if any(short):  # name the first parent to gain a child
            i = next(i for i in map(at.__getitem__, dict.fromkeys(map(id, firsts[1:]))) if short[i])
            raise ValueError(
                f"eligible voters of {order[i]} ({voters[i]}) "
                f"is less than the sum over its children ({sums[i]})"
            )

    @property
    def root(self) -> JurisdictionId:
        return self._order[0]

    def __contains__(self, node: JurisdictionId) -> bool:
        return node in self._index

    def order(self) -> tuple[JurisdictionId, ...]:
        """Every node depth first: root first, each subtree contiguous,
        children in the order the paths first name them."""
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
        at = self._index
        return tuple(sorted(self.canton_half_votes, key=lambda node: at[node] or len(at)))

    def total_half_votes(self) -> int:
        return sum(self.canton_half_votes.values())


def tree_from_paths(
    paths: Iterable[Sequence[str]],
    canton_half_votes: Mapping[JurisdictionId, int] | None = None,
    eligible_voters: Mapping[JurisdictionId, int] | None = None,
) -> JurisdictionTree:
    """The tree of ``paths`` with every node's children in sorted order,
    whatever order the paths come in."""
    return JurisdictionTree(sorted(paths, key=tuple), canton_half_votes, eligible_voters)
