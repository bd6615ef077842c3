"""Attacks on reporting edges, gated by whether the channel is signed.

An attack sits on one upward edge (identified by its child node) and fires
on matching reports. What an attacker can do is decided entirely by the
channel: tampering and front-running need an unsigned channel, and delay
is possible on any channel, since signatures cannot make a courier hurry.
That capability is checked once, when a ``Simulation`` is constructed (a
scenario file's, when it is loaded); the engine then applies each attack
to the values it sends without checking again. Attack specifications are
fixed before the run starts; the ``omniscient`` flag records whether their
parameters were chosen with knowledge of the true counts (versus blind),
which affects interpretation but not mechanics.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TypeVar

from .channels import ChannelSpec
from .counts import VoteCount, accumulate
from .errors import CapabilityError
from .reports import ReportKind
from .traces import FINAL, PUBLISH, REFUSE, STRIDE, EventTrace, nogc
from .tree import JurisdictionId


class AttackKind(enum.Enum):
    TAMPER = "tamper"
    DELAY = "delay"
    FRONT_RUN = "front_run"


class MutationKind(enum.Enum):
    SWAP_YES_NO = "swap_yes_no"
    SET_COUNTS = "set_counts"
    SHIFT = "shift"


_DIRECTIONS = ("yes_to_no", "no_to_yes")


@dataclass(frozen=True)
class Mutation:
    kind: MutationKind
    counts: VoteCount | None = None
    shift: int = 0
    direction: str = "yes_to_no"

    def __post_init__(self) -> None:
        if self.kind is MutationKind.SET_COUNTS and self.counts is None:
            raise ValueError("set_counts mutation needs replacement counts")
        if self.kind is MutationKind.SHIFT:
            if self.shift < 1:
                raise ValueError("shift mutation needs a positive ballot count")
            if self.direction not in _DIRECTIONS:
                raise ValueError(f"shift direction must be one of {_DIRECTIONS}")

    def describe(self) -> str:
        if self.kind is MutationKind.SWAP_YES_NO:
            return "swap_yes_no"
        if self.kind is MutationKind.SET_COUNTS:
            c = self.counts
            assert c is not None
            return f"set:{c.yes}:{c.no}:{c.blank}:{c.invalid}"
        return f"shift:{self.direction}:{self.shift}"


def apply_mutation(counts: VoteCount, mutation: Mutation) -> VoteCount:
    if mutation.kind is MutationKind.SWAP_YES_NO:
        return VoteCount(counts.no, counts.yes, counts.blank, counts.invalid)
    if mutation.kind is MutationKind.SET_COUNTS:
        assert mutation.counts is not None
        return mutation.counts
    source = counts.yes if mutation.direction == "yes_to_no" else counts.no
    if mutation.shift > source:
        raise ValueError(
            f"cannot shift {mutation.shift} ballots, only {source} on the source side"
        )
    delta = mutation.shift if mutation.direction == "yes_to_no" else -mutation.shift
    return VoteCount(counts.yes - delta, counts.no + delta, counts.blank, counts.invalid)


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    edge_child: JurisdictionId
    report_kind: ReportKind = ReportKind.PRELIMINARY
    # None fires on every matching report; n >= 1 fires on the first n.
    first_n: int | None = 1
    mutation: Mutation | None = None
    hold_ticks: int = 0
    forged_counts: VoteCount | None = None
    forged_seq: int | None = None
    seq_offset: int = 1000
    omniscient: bool = False

    def __post_init__(self) -> None:
        if self.first_n is not None and self.first_n < 1:
            raise ValueError("first_n must be >= 1, or None for every report")
        if self.kind is AttackKind.TAMPER and self.mutation is None:
            raise ValueError("tamper attack needs a mutation")
        if self.kind is AttackKind.DELAY and self.hold_ticks < 1:
            raise ValueError("delay attack needs hold_ticks >= 1")
        if self.kind is AttackKind.FRONT_RUN:
            if self.forged_counts is None:
                raise ValueError("front_run attack needs forged_counts")
            if self.forged_seq is not None and self.forged_seq < 1:
                raise ValueError("forged_seq must be >= 1: sequence numbers start at 1")
            if self.forged_seq is None and self.seq_offset < 1:
                raise ValueError("seq_offset must be >= 1 when forged_seq is not fixed")

    @property
    def mode(self) -> str:
        return "omniscient" if self.omniscient else "blind"

    def describe(self) -> str:
        if self.kind is AttackKind.TAMPER:
            assert self.mutation is not None
            return self.mutation.describe()
        if self.kind is AttackKind.DELAY:
            return f"hold:{self.hold_ticks}"
        return f"forged_seq_offset:{self.seq_offset}" if self.forged_seq is None else f"forged_seq:{self.forged_seq}"


def check_attack_permitted(kind: AttackKind, channel: ChannelSpec) -> None:
    """Reject an attack a signed channel rules out.

    Raised when a ``Simulation`` is constructed, never mid-run: an
    impossible attack is a configuration error, not an event.
    """
    if channel.signed and kind is not AttackKind.DELAY:
        rules_out = "preserves integrity" if kind is AttackKind.TAMPER else "authenticates senders"
        raise CapabilityError(f"channel {channel.name!r} {rules_out}; {kind.value} is impossible")


@dataclass(frozen=True)
class CoverageGap:
    """A preliminary publication missing some root children entirely."""

    time: int
    missing: tuple[JurisdictionId, ...]


class DetectEvent(NamedTuple):
    """A receiver's refusal of a child's report: one refused delivery."""

    time: int
    node: JurisdictionId
    reason: str
    child: JurisdictionId
    seq: int


@dataclass(frozen=True)
class DetectionSummary:
    """What an audit found; each count divergence is two integers.

    ``divergent`` holds each root delivery whose counts differ from its
    child's truth once, as (child, reported, final), in the order the
    publications first list them. ``divergences`` is a read-only signed
    64-bit column of (tick, index into ``divergent``) pairs, one each time
    a preliminary publication lists a divergent delivery, in publication
    order. Publications list a delivery until its child reports again, so
    the ticks of one index are one child's stretch of one wrong value.
    """

    divergent: tuple[tuple[JurisdictionId, VoteCount, VoteCount], ...]
    divergences: memoryview
    coverage_gaps: tuple[CoverageGap, ...]
    # One per refused delivery, in trace order.
    detects: tuple[DetectEvent, ...]
    final_matches_ground_truth: bool
    # Ticks from the first count-divergent publication to the final one:
    # how long a wrong running total stood uncorrected.
    integrity_gap_ticks: int

    def clean(self) -> bool:
        return not self.divergences and not self.detects

    def to_text(self, max_items: int = 10) -> str:
        """The summary; each section lists at most ``max_items`` items, all when 0."""
        lines = [
            "detection summary",
            f"final matches ground truth: {str(self.final_matches_ground_truth).lower()}",
            f"count divergences: {len(self.divergences) // 2}",
            *self._divergence_lines(max_items),
            f"coverage gaps: {len(self.coverage_gaps)}",
            *_capped(self.coverage_gaps, _gap_lines, max_items),
            f"detect events: {len(self.detects)}",
            *_capped(self.detects, _detect_lines, max_items),
            # The last line carries the final newline, so the text is joined once.
            f"integrity gap ticks: {self.integrity_gap_ticks}\n",
        ]
        return "\n".join(lines)

    def _divergence_lines(self, max_items: int) -> list[str]:
        """The lines of at most ``max_items`` divergences (all when 0), each
        delivery's tail formatted once. Deliveries are numbered as first
        listed, so the lines shown use exactly those up to their highest index."""
        column = self.divergences
        shown = column if max_items <= 0 else column[:2 * max_items]
        ticks, indices = shown[::2].tolist(), shown[1::2].tolist()
        tails = [
            f" child={child._text} reported={r.yes}:{r.no}:{r.blank}:{r.invalid}"
            f" final={f.yes}:{f.no}:{f.blank}:{f.invalid}"
            for child, r, f in self.divergent[:max(indices, default=-1) + 1]
        ]
        lines = [f"  t={tick}{tails[index]}" for tick, index in zip(ticks, indices)]
        if len(shown) < len(column):
            lines.append(f"  ... {(len(column) - len(shown)) // 2} more")
        return lines


def _gap_lines(gaps: Sequence[CoverageGap]) -> list[str]:
    return [f"  t={g.time} missing={','.join(m._text for m in g.missing)}" for g in gaps]


def _detect_lines(detects: Sequence[DetectEvent]) -> list[str]:
    return [
        f"  t={time} node={node._text} reason={reason} child={child._text} seq={seq}"
        for time, node, reason, child, seq in detects
    ]


_Item = TypeVar("_Item")


def _capped(
    items: Sequence[_Item], lines: Callable[[Sequence[_Item]], list[str]], max_items: int
) -> list[str]:
    """The lines of at most ``max_items`` items (all when 0), formatting only those."""
    if max_items <= 0 or len(items) <= max_items:
        return lines(items)
    return [*lines(items[:max_items]), f"  ... {len(items) - max_items} more"]


@nogc
def detection_report(trace: EventTrace) -> DetectionSummary:
    """Audit a finished run using only its trace.

    Preliminary publications are compared child by child against the final
    ground truth for that child's subtree. A child covered with wrong
    counts is a count divergence; a child not covered at all is a coverage
    gap. Each refused delivery is collected as its receiver's detect event.
    The comparison baseline is the ground truth, so honest miscount noise
    shows up exactly like tampering: this reports what differed, not who is
    to blame.

    Only the root children's truths are summed, from the leaves: a run's
    ground truth is keyed by leaves, each naming its root child second.
    The scan reads the tag column alone, and decodes only publications
    and refusals. A publication's entries are delivery rows, shared with
    the publications before it, so each is compared with its truth once.
    A row that diverges becomes one ``divergent`` item; each listing of it
    adds only its (tick, index) pair to the ``divergences`` column.
    """
    tree = trace.tree
    order, parents, rows, entries = tree.order(), trace.parents, trace.rows, trace.entries
    reasons = trace.reasons
    root_children = tree.children(tree.root)
    leaf_counts: dict[str, list[VoteCount]] = {child.path[1]: [] for child in root_children}
    for leaf, counts in trace.ground_truth.items():
        leaf_counts[leaf.path[1]].append(counts)
    truths = {child: accumulate(leaf_counts[child.path[1]]) for child in root_children}
    new = tuple.__new__  # builds a named tuple from all its fields, in C

    divergent: list[tuple[JurisdictionId, VoteCount, VoteCount]] = []
    # (tick, index) pairs, flat: moved into an array once the scan is done.
    divergences: list[int] = []
    append = divergences.append
    gaps: list[CoverageGap] = []
    detects: list[DetectEvent] = []
    # Per row, once a publication lists it: its index into divergent when
    # its counts differ from its child's truth, else -1.
    judged: list[int | None] = [None] * (len(rows) // STRIDE)
    final = None
    # The tag column as bytes, each tag being its row's low byte: each search
    # for the next refusal or publication skips the rows between in C.
    low = 0 if sys.byteorder == "little" else rows.itemsize - 1
    tags = rows.cast("B")[low::STRIDE * rows.itemsize].tobytes()
    row = tags.find(REFUSE)
    while row >= 0:
        at = row * STRIDE
        time, child, seq, reason = rows[at + 1], rows[at + 2], rows[at + 4], rows[at + 9]
        event = (time, order[parents[child]], reasons[reason], order[child], seq)
        detects.append(new(DetectEvent, event))
        row = tags.find(REFUSE, row + 1)
    row = tags.find(PUBLISH)
    while row >= 0:
        at = row * STRIDE
        row = tags.find(PUBLISH, row + 1)
        time, count, start = rows[at + 1], rows[at + 4], rows[at + 9]
        if rows[at + 3] == FINAL:
            final = time, rows[at + 5:at + 9].tolist()
            continue
        listed = entries[start:start + count].tolist()
        for entry in listed:
            index = judged[entry]
            if index is None:
                at = entry * STRIDE
                child = order[rows[at + 2]]
                counts, expected = new(VoteCount, rows[at + 5:at + 9]), truths[child]
                index = -1
                if counts != expected:
                    index = len(divergent)
                    divergent.append((child, counts, expected))
                judged[entry] = index
            if index >= 0:
                append(time)
                append(index)
        # A publication lists each root child at most once, so only a short
        # one can miss some.
        if count != len(root_children):
            covered = {order[rows[entry * STRIDE + 2]] for entry in listed}
            missing = tuple(c for c in root_children if c not in covered)
            gaps.append(CoverageGap(time, missing))
    if final is None:
        raise ValueError("trace holds no final publication")
    final_time, final_counts = final

    # Publications run in time order, so the first divergence is the earliest.
    gap_ticks = max(0, final_time - divergences[0]) if divergences else 0

    return DetectionSummary(
        divergent=tuple(divergent),
        divergences=memoryview(array("q", divergences)).toreadonly(),
        coverage_gaps=tuple(gaps),
        detects=tuple(detects),
        final_matches_ground_truth=final_counts == list(accumulate(truths.values())),
        integrity_gap_ticks=gap_ticks,
    )
