"""Simulation trace records and the trace container.

Every observable step of a run becomes exactly one record, and each record
renders to one stable text line of space-separated key=value fields. Two
runs with the same configuration and seed produce byte-identical text,
which makes traces diffable and suitable as golden files.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

from .counts import ZERO, VoteCount, accumulate
from .reports import ReportKind
from .tree import JurisdictionId, JurisdictionTree


_T = TypeVar("_T")


def nogc(build: Callable[..., _T]) -> Callable[..., _T]:
    """Run ``build`` with the cyclic garbage collector paused.

    A large run and its audit each allocate ~100k tuples, and the collector
    would rescan them over and over while they are young, although none
    takes part in a reference cycle: reference counting frees them all.
    Whatever ``build`` does, ``gc.isenabled()`` is restored afterwards.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _counts_fields(counts: VoteCount) -> str:
    return (
        f"yes={counts.yes} no={counts.no} "
        f"blank={counts.blank} invalid={counts.invalid}"
    )


# Records are NamedTuples: immutable and built by tuple's C constructor,
# which matters at ~100k records per large run. Like any tuple, a record
# compares equal to a plain tuple of the same values. Rendering unpacks a
# record once: that is cheaper than reading its fields one by one.


class EmitRecord(NamedTuple):
    time: int
    node: JurisdictionId
    kind: ReportKind
    seq: int
    counts: VoteCount

    def to_line(self) -> str:
        time, node, kind, seq, counts = self
        return f"emit t={time} node={node} kind={kind.value} seq={seq} {_counts_fields(counts)}"


class DeliverRecord(NamedTuple):
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
        time, sender, receiver, channel, kind, seq, counts, accepted, reason = self
        line = (
            f"deliver t={time} from={sender} to={receiver} "
            f"channel={channel} kind={kind.value} seq={seq} "
            f"{_counts_fields(counts)} accepted={str(accepted).lower()}"
        )
        if reason is not None:
            line += f" reason={reason}"
        return line


class AttackRecord(NamedTuple):
    time: int
    kind: str
    sender: JurisdictionId
    receiver: JurisdictionId
    mode: str
    detail: str

    def to_line(self) -> str:
        time, kind, sender, receiver, mode, detail = self
        return (
            f"attack t={time} kind={kind} from={sender} "
            f"to={receiver} mode={mode} detail={detail}"
        )


class DetectRecord(NamedTuple):
    time: int
    node: JurisdictionId
    reason: str
    child: JurisdictionId
    seq: int

    def to_line(self) -> str:
        time, node, reason, child, seq = self
        return f"detect t={time} node={node} reason={reason} child={child} seq={seq}"


class PublishRecord(NamedTuple):
    """A running total released by the root.

    ``children`` pins the exact inputs: (child, sequence number, child
    subtree counts) for every child covered so far, in tree child order.
    """

    time: int
    node: JurisdictionId
    kind: ReportKind
    counts: VoteCount
    children: tuple[tuple[JurisdictionId, int, VoteCount], ...]

    def to_line(self) -> str:
        time, node, kind, counts, children = self
        parts = ",".join(
            f"{child}:{seq}:{c.yes}:{c.no}:{c.blank}:{c.invalid}"
            for child, seq, c in children
        )
        return (
            f"publish t={time} node={node} kind={kind.value} "
            f"{_counts_fields(counts)} children={parts}"
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
        """The last final publication, found by scanning from the end."""
        for record in reversed(self.records):
            if isinstance(record, PublishRecord) and record.kind is ReportKind.FINAL:
                return record
        raise ValueError("trace holds no final publication")

    def subtree_truths(self) -> dict[JurisdictionId, VoteCount]:
        """Ground-truth totals for every node's subtree, in one pass.

        Nodes are visited in reversed tree order, so children come before
        their parent: each total is the sum of its children's totals, or a
        leaf's own ground truth.
        """
        tree = self.tree
        truths: dict[JurisdictionId, VoteCount] = {}
        for node in reversed(tree.order()):
            kids = tree.children(node)
            truths[node] = (
                accumulate(truths[k] for k in kids) if kids else self.ground_truth.get(node, ZERO)
            )
        return truths

