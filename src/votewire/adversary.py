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
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence, TypeVar

from .channels import ChannelSpec
from .counts import VoteCount
from .errors import CapabilityError
from .reports import ReportKind
from .traces import DetectRecord, EventTrace, PublishRecord, nogc
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


@dataclass(frozen=True, slots=True)
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
        return replace(counts, yes=counts.no, no=counts.yes)
    if mutation.kind is MutationKind.SET_COUNTS:
        assert mutation.counts is not None
        return mutation.counts
    source = counts.yes if mutation.direction == "yes_to_no" else counts.no
    if mutation.shift > source:
        raise ValueError(
            f"cannot shift {mutation.shift} ballots, only {source} on the source side"
        )
    delta = mutation.shift
    if mutation.direction == "yes_to_no":
        return replace(counts, yes=counts.yes - delta, no=counts.no + delta)
    return replace(counts, yes=counts.yes + delta, no=counts.no - delta)


@dataclass(frozen=True, slots=True)
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
    if kind is AttackKind.TAMPER and channel.signed:
        raise CapabilityError(
            f"channel {channel.name!r} preserves integrity; tamper is impossible"
        )
    if kind is AttackKind.FRONT_RUN and channel.signed:
        raise CapabilityError(
            f"channel {channel.name!r} authenticates senders; front_run is impossible"
        )


class CountDivergence(NamedTuple):
    """A covered child whose published preliminary disagrees with truth."""

    time: int
    child: JurisdictionId
    reported: VoteCount
    final: VoteCount


@dataclass(frozen=True, slots=True)
class CoverageGap:
    """A preliminary publication missing some root children entirely."""

    time: int
    missing: tuple[JurisdictionId, ...]


@dataclass(frozen=True, slots=True)
class DetectionSummary:
    count_divergences: tuple[CountDivergence, ...]
    coverage_gaps: tuple[CoverageGap, ...]
    detects: tuple[DetectRecord, ...]
    final_matches_ground_truth: bool
    # Ticks from the first count-divergent publication to the final one:
    # how long a wrong running total stood uncorrected.
    integrity_gap_ticks: int

    def clean(self) -> bool:
        return not self.count_divergences and not self.detects

    def to_text(self, max_items: int = 10) -> str:
        """The summary; each section lists at most ``max_items`` items, all when 0."""
        lines = [
            "detection summary",
            f"final matches ground truth: {str(self.final_matches_ground_truth).lower()}",
            f"count divergences: {len(self.count_divergences)}",
            *_capped(self.count_divergences, _divergence_lines, max_items),
            f"coverage gaps: {len(self.coverage_gaps)}",
            *_capped(self.coverage_gaps, _gap_lines, max_items),
            f"detect events: {len(self.detects)}",
            *_capped(self.detects, _detect_lines, max_items),
            # The last line carries the final newline, so the text is joined once.
            f"integrity gap ticks: {self.integrity_gap_ticks}\n",
        ]
        return "\n".join(lines)


def _divergence_lines(divergences: Sequence[CountDivergence]) -> list[str]:
    """One line per divergence, each distinct tail formatted once.

    A child's entry stays in the root's table until the child reports
    again, so consecutive publications repeat the same (child, reported,
    final) objects. Tails are kept by identity in a table that lives for
    this call; the divergences keep every object alive meanwhile.
    """
    tails: dict[tuple[int, int, int], str] = {}
    lines: list[str] = []
    append = lines.append
    for time, child, reported, final in divergences:
        key = (id(child), id(reported), id(final))
        tail = tails.get(key)
        if tail is None:
            r, f = reported, final
            tail = tails[key] = (
                f" child={child._text} reported={r.yes}:{r.no}:{r.blank}:{r.invalid}"
                f" final={f.yes}:{f.no}:{f.blank}:{f.invalid}"
            )
        append(f"  t={time}{tail}")
    return lines


def _gap_lines(gaps: Sequence[CoverageGap]) -> list[str]:
    return [f"  t={g.time} missing={','.join(m._text for m in g.missing)}" for g in gaps]


def _detect_lines(detects: Sequence[DetectRecord]) -> list[str]:
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
    gap. Detect events are collected verbatim. The comparison baseline is
    the ground truth, so honest miscount noise shows up exactly like
    tampering: this reports what differed, not who is to blame.
    """
    final_pub = trace.final_publish()
    root_children = trace.tree.children(trace.tree.root)
    truths = trace.subtree_truths()
    prelim = ReportKind.PRELIMINARY

    divergences: list[CountDivergence] = []
    gaps: list[CoverageGap] = []
    detects: list[DetectRecord] = []
    first_divergent_time: int | None = None
    # One pass over the records collects both detects and publications.
    for record in trace.records:
        cls = type(record)
        if cls is DetectRecord:
            detects.append(record)
            continue
        if cls is not PublishRecord or record.kind is not prelim:
            continue
        time, children = record.time, record.children
        for child, _seq, counts in children:
            expected = truths[child]
            if counts != expected:
                divergences.append(CountDivergence(time, child, counts, expected))
                if first_divergent_time is None:
                    first_divergent_time = time
        # A publication lists each root child at most once, so only a short
        # one can miss some.
        if len(children) != len(root_children):
            covered = {child for child, _seq, _counts in children}
            missing = tuple(c for c in root_children if c not in covered)
            gaps.append(CoverageGap(time, missing))

    gap_ticks = 0
    if first_divergent_time is not None:
        gap_ticks = max(0, final_pub.time - first_divergent_time)

    return DetectionSummary(
        count_divergences=tuple(divergences),
        coverage_gaps=tuple(gaps),
        detects=tuple(detects),
        final_matches_ground_truth=(
            final_pub.counts == truths[trace.tree.root]
        ),
        integrity_gap_ticks=gap_ticks,
    )
