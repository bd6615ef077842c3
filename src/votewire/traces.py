"""Simulation trace records and the trace container.

Every observable step of a run becomes exactly one record, and each record
renders to one stable text line of space-separated key=value fields. Two
runs with the same configuration and seed produce byte-identical text,
which makes traces diffable and suitable as golden files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counts import ZERO, VoteCount, accumulate
from .reports import ReportKind
from .tree import JurisdictionId, JurisdictionTree


def _counts_fields(counts: VoteCount) -> str:
    return (
        f"yes={counts.yes} no={counts.no} "
        f"blank={counts.blank} invalid={counts.invalid}"
    )


@dataclass(frozen=True, slots=True)
class EmitRecord:
    time: int
    node: JurisdictionId
    kind: ReportKind
    seq: int
    counts: VoteCount

    def to_line(self) -> str:
        return (
            f"emit t={self.time} node={self.node} kind={self.kind.value} "
            f"seq={self.seq} {_counts_fields(self.counts)}"
        )


@dataclass(frozen=True, slots=True)
class DeliverRecord:
    time: int
    sender: JurisdictionId
    receiver: JurisdictionId
    channel: str
    kind: ReportKind
    seq: int
    counts: VoteCount
    accepted: bool
    reason: str | None = None

    def to_line(self) -> str:
        line = (
            f"deliver t={self.time} from={self.sender} to={self.receiver} "
            f"channel={self.channel} kind={self.kind.value} seq={self.seq} "
            f"{_counts_fields(self.counts)} accepted={str(self.accepted).lower()}"
        )
        if self.reason is not None:
            line += f" reason={self.reason}"
        return line


@dataclass(frozen=True, slots=True)
class AttackRecord:
    time: int
    kind: str
    sender: JurisdictionId
    receiver: JurisdictionId
    mode: str
    detail: str

    def to_line(self) -> str:
        return (
            f"attack t={self.time} kind={self.kind} from={self.sender} "
            f"to={self.receiver} mode={self.mode} detail={self.detail}"
        )


@dataclass(frozen=True, slots=True)
class DetectRecord:
    time: int
    node: JurisdictionId
    reason: str
    child: JurisdictionId
    seq: int

    def to_line(self) -> str:
        return (
            f"detect t={self.time} node={self.node} reason={self.reason} "
            f"child={self.child} seq={self.seq}"
        )


@dataclass(frozen=True, slots=True)
class PublishRecord:
    """A running total released by the root.

    ``children`` pins the exact inputs: (child, sequence number, child
    subtree counts) for every child covered so far, in tree child order.
    """

    time: int
    node: JurisdictionId
    kind: ReportKind
    counts: VoteCount
    children: tuple[tuple[JurisdictionId, int, VoteCount], ...]

    def covered(self) -> tuple[JurisdictionId, ...]:
        return tuple(child for child, _, _ in self.children)

    def to_line(self) -> str:
        parts = ",".join(
            f"{child}:{seq}:{c.yes}:{c.no}:{c.blank}:{c.invalid}"
            for child, seq, c in self.children
        )
        return (
            f"publish t={self.time} node={self.node} kind={self.kind.value} "
            f"{_counts_fields(self.counts)} children={parts}"
        )


TraceRecord = EmitRecord | DeliverRecord | AttackRecord | DetectRecord | PublishRecord


@dataclass(frozen=True, slots=True)
class EventTrace:
    election_id: str
    seed: int
    tree: JurisdictionTree
    ground_truth: dict[JurisdictionId, VoteCount]
    records: tuple[TraceRecord, ...]

    def to_text(self) -> str:
        lines = [f"trace election={self.election_id} seed={self.seed}"]
        lines.extend(record.to_line() for record in self.records)
        lines.append(f"end records={len(self.records)}")
        return "\n".join(lines) + "\n"

    def publishes(self, kind: ReportKind | None = None) -> tuple[PublishRecord, ...]:
        return tuple(
            r
            for r in self.records
            if isinstance(r, PublishRecord) and (kind is None or r.kind is kind)
        )

    def detects(self) -> tuple[DetectRecord, ...]:
        return tuple(r for r in self.records if isinstance(r, DetectRecord))

    def final_publish(self) -> PublishRecord:
        finals = self.publishes(ReportKind.FINAL)
        if not finals:
            raise ValueError("trace holds no final publication")
        return finals[-1]

    def true_subtree_counts(self, node: JurisdictionId) -> VoteCount:
        """Ground-truth totals for one subtree.

        This sums the whole tree; to audit many subtrees, call
        ``subtree_truths`` once instead.
        """
        return self.subtree_truths()[node]

    def subtree_truths(self) -> dict[JurisdictionId, VoteCount]:
        """Ground-truth totals for every node's subtree, in one pass.

        Nodes are visited children first, so each total is the sum of its
        children's totals, or a leaf's own ground truth.
        """
        order = [self.tree.root]
        for node in order:
            order.extend(self.tree.children(node))
        truths: dict[JurisdictionId, VoteCount] = {}
        for node in reversed(order):
            kids = self.tree.children(node)
            truths[node] = (
                accumulate(truths[k] for k in kids) if kids else self.ground_truth.get(node, ZERO)
            )
        return truths


def publish_timeline(trace: EventTrace) -> list[tuple[int, ReportKind, VoteCount, Fraction]]:
    """Chronological (time, kind, totals, covered share of cantons) rows."""
    cantons = trace.tree.cantons()
    rows: list[tuple[int, ReportKind, VoteCount, Fraction]] = []
    for pub in trace.publishes():
        covered = set(pub.covered())
        share = Fraction(
            sum(1 for c in cantons if c in covered or any(a in covered for a in _ancestors(c))),
            len(cantons),
        ) if cantons else Fraction(0)
        rows.append((pub.time, pub.kind, pub.counts, share))
    return rows


def _ancestors(node: JurisdictionId) -> list[JurisdictionId]:
    out = []
    cur = node.parent
    while cur is not None:
        out.append(cur)
        cur = cur.parent
    return out
