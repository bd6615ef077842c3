"""Simulation trace records and the trace container.

Every observable step of a run becomes exactly one record, and each record
renders to one stable text line of space-separated key=value fields,
except a refused delivery: its line is followed by the receiver's
``detect`` line, derived from the same record. Two runs with the same
configuration and seed produce byte-identical text, which makes traces
diffable and suitable as golden files.

Records carry no rendering of their own: ``EventTrace.to_text`` renders
them all in one loop, one f-string per line, reading each id's and kind's
text instead of calling ``str`` or ``Enum.value`` per field. A large run
publishes the same child entries over and over, so each entry tuple is
rendered once per call.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

from .counts import VoteCount
from .reports import ReportKind
from .tree import JurisdictionId, JurisdictionTree


_T = TypeVar("_T")


def nogc(build: Callable[..., _T]) -> Callable[..., _T]:
    """Run ``build`` with the cyclic garbage collector paused.

    A large run and its audit each allocate ~100k tuples, and the collector
    would rescan them over and over while they are young, although none
    takes part in a reference cycle: reference counting frees them all.
    Whatever ``build`` does, ``gc.isenabled()`` is restored afterwards. A
    pause inside another pause is a no-op, so the pauses on
    ``Simulation.run`` and ``detection_report`` serve library callers and
    change nothing under ``simulate``'s own pause.

    The pause moves one scan, it does not remove it: what the paused call
    allocates still counts towards the next collection, so the first
    tracked allocation after the outermost pause ends scans everything the
    call left alive. A caller that drops its output before the pause ends
    pays none of that scan, because reference counting has already freed
    it: ``simulate`` pauses around the whole command for that reason. A
    caller that keeps the output pays one pass over it, ~100 ms per
    federation-lib benchmark operation (a run of 10,400 leaves, audited
    and rendered); only fewer surviving objects will shrink it.

    Survivors are not promoted with ``gc.freeze(); gc.unfreeze()``, which
    would skip that pass: unfreezing puts every object then alive, such
    as the CLI's argument parser, in the oldest generation, and freezing
    zeroes the counts that would start the full collection that frees it.
    Measured on Python 3.11: after 300 ``simulate`` commands in one
    process ~58k garbage objects were waiting against ~2k without it, and
    a 25 s run of the benchmark's cli-small workload (the README's seven
    commands, repeated) peaked at 74 MB resident instead of 36 MB.
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


# Records are immutable NamedTuples, which ``Simulation.run`` builds with
# tuple's C constructor, not their generated ``__new__``. Like any tuple, a
# record equals a plain tuple of the same values. Rendering unpacks a record
# once: that is cheaper than reading its fields one by one.


class EmitRecord(NamedTuple):
    time: int
    node: JurisdictionId
    kind: ReportKind
    seq: int
    counts: VoteCount


class DeliverRecord(NamedTuple):
    """A report's arrival; ``accepted`` is derived from ``reason``, None when accepted."""

    time: int
    sender: JurisdictionId
    receiver: JurisdictionId
    channel: str
    kind: ReportKind
    seq: int
    counts: VoteCount
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.reason is None


class AttackRecord(NamedTuple):
    time: int
    kind: str
    sender: JurisdictionId
    receiver: JurisdictionId
    mode: str
    detail: str


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


TraceRecord = EmitRecord | DeliverRecord | AttackRecord | PublishRecord


@dataclass(frozen=True, slots=True)
class EventTrace:
    election_id: str
    seed: int
    tree: JurisdictionTree
    ground_truth: dict[JurisdictionId, VoteCount]
    records: tuple[TraceRecord, ...]

    def to_text(self) -> str:
        """The header, one line per record, a refused delivery's detect line
        after it, and the footer, each ending in a newline.

        Each line is one f-string over the record's unpacked fields, ids
        and kinds read from their stored text: no Python-level call per
        field. Consecutive publications share most of their entry tuples
        (the root publishes copies of one child table), so each entry
        tuple is rendered once, in a table keyed by its identity that
        lives for this call. The trace keeps every entry alive meanwhile,
        so no identity is reused while the table is in use.
        """
        prelim = ReportKind.PRELIMINARY
        prelim_text, final_text = prelim.value, ReportKind.FINAL.value
        entry_texts: dict[int, str] = {}
        lines = [f"trace election={self.election_id} seed={self.seed}"]
        append = lines.append
        for record in self.records:
            cls = type(record)
            if cls is DeliverRecord:
                time, sender, receiver, channel, kind, seq, c, reason = record
                line = (
                    f"deliver t={time} from={sender._text} to={receiver._text} "
                    f"channel={channel} kind={prelim_text if kind is prelim else final_text} "
                    f"seq={seq} yes={c.yes} no={c.no} blank={c.blank} invalid={c.invalid} "
                    f"accepted={'true' if reason is None else 'false'}"
                )
                if reason is None:
                    append(line)
                else:
                    append(f"{line} reason={reason}")
                    append(
                        f"detect t={time} node={receiver._text} reason={reason} "
                        f"child={sender._text} seq={seq}"
                    )
            elif cls is EmitRecord:
                time, node, kind, seq, c = record
                append(
                    f"emit t={time} node={node._text} "
                    f"kind={prelim_text if kind is prelim else final_text} seq={seq} "
                    f"yes={c.yes} no={c.no} blank={c.blank} invalid={c.invalid}"
                )
            elif cls is PublishRecord:
                time, node, kind, c, children = record
                parts = []
                for entry in children:
                    text = entry_texts.get(id(entry))
                    if text is None:
                        child, seq, e = entry
                        text = f"{child._text}:{seq}:{e.yes}:{e.no}:{e.blank}:{e.invalid}"
                        entry_texts[id(entry)] = text
                    parts.append(text)
                append(
                    f"publish t={time} node={node._text} "
                    f"kind={prelim_text if kind is prelim else final_text} "
                    f"yes={c.yes} no={c.no} blank={c.blank} invalid={c.invalid} "
                    f"children={','.join(parts)}"
                )
            else:
                time, kind, sender, receiver, mode, detail = record
                append(
                    f"attack t={time} kind={kind} from={sender._text} "
                    f"to={receiver._text} mode={mode} detail={detail}"
                )
        # The footer counts the lines above it but the header: a refused
        # delivery wrote two. It carries the final newline, so the text is
        # joined once.
        append(f"end records={len(lines) - 1}\n")
        return "\n".join(lines)

    def final_publish(self) -> PublishRecord:
        """The last final publication, found by scanning from the end."""
        for record in reversed(self.records):
            if isinstance(record, PublishRecord) and record.kind is ReportKind.FINAL:
                return record
        raise ValueError("trace holds no final publication")
