"""Attacks on reporting edges, gated by whether the channel is signed.

An attack sits on one upward edge (identified by its child node) and fires
on matching reports. What an attacker can do is decided entirely by the
channel, and the check happens when a ``Simulation`` is constructed (a
scenario file's, when it is loaded): tampering and front-running need an
unsigned channel, and delay is possible on any channel, since signatures
cannot make a courier hurry. Attack specifications are fixed before the
run starts; the ``omniscient`` flag records whether their parameters were
chosen with knowledge of the true counts (versus blind), which affects
interpretation but not mechanics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .channels import ChannelSpec
from .counts import VoteCount
from .errors import CapabilityError, ConfigError
from .reports import Report, ReportKind
from .traces import DetectRecord, EventTrace
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
            if self.forged_seq is None and self.seq_offset < 1:
                raise ValueError("seq_offset must be >= 1 when forged_seq is not fixed")

    @property
    def mode(self) -> str:
        return "omniscient" if self.omniscient else "blind"

    @property
    def key(self) -> tuple[JurisdictionId, ReportKind]:
        """The (sender, report kind) of the reports this attack hits."""
        return (self.edge_child, self.report_kind)

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


def apply_tamper(report: Report, mutation: Mutation, channel: ChannelSpec) -> Report:
    """The report with its counts mutated; a mutation they cannot bear is a ConfigError."""
    check_attack_permitted(AttackKind.TAMPER, channel)
    try:
        counts = apply_mutation(report.counts, mutation)
    except ValueError as exc:
        raise ConfigError(f"tamper on edge {report.sender}: {exc}") from None
    return replace(report, counts=counts)


def forge_report(genuine: Report, attack: AttackSpec, channel: ChannelSpec) -> Report:
    """Build the forged report injected ahead of a genuine one.

    The forgery claims the same sender as the edge it rides on; an attacker
    on one edge cannot speak for unrelated jurisdictions. The genuine
    report still arrives afterwards.
    """
    check_attack_permitted(AttackKind.FRONT_RUN, channel)
    assert attack.forged_counts is not None
    seq = attack.forged_seq if attack.forged_seq is not None else genuine.sequence_no + attack.seq_offset
    return replace(genuine, counts=attack.forged_counts, sequence_no=seq)


@dataclass(frozen=True, slots=True)
class CountDivergence:
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
        lines = [
            "detection summary",
            f"final matches ground truth: {str(self.final_matches_ground_truth).lower()}",
            f"count divergences: {len(self.count_divergences)}",
        ]
        lines.extend(
            _capped(
                [
                    f"  t={d.time} child={d.child} reported={d.reported.yes}:{d.reported.no}"
                    f":{d.reported.blank}:{d.reported.invalid} final={d.final.yes}:{d.final.no}"
                    f":{d.final.blank}:{d.final.invalid}"
                    for d in self.count_divergences
                ],
                max_items,
            )
        )
        lines.append(f"coverage gaps: {len(self.coverage_gaps)}")
        lines.extend(
            _capped(
                [
                    f"  t={g.time} missing={','.join(str(m) for m in g.missing)}"
                    for g in self.coverage_gaps
                ],
                max_items,
            )
        )
        lines.append(f"detect events: {len(self.detects)}")
        lines.extend(
            _capped(
                [
                    f"  t={rec.time} node={rec.node} reason={rec.reason} "
                    f"child={rec.child} seq={rec.seq}"
                    for rec in self.detects
                ],
                max_items,
            )
        )
        lines.append(f"integrity gap ticks: {self.integrity_gap_ticks}")
        return "\n".join(lines) + "\n"


def _capped(lines: list[str], max_items: int) -> list[str]:
    if max_items <= 0 or len(lines) <= max_items:
        return lines
    return lines[:max_items] + [f"  ... {len(lines) - max_items} more"]


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
    truth = {child: truths[child] for child in root_children}

    divergences: list[CountDivergence] = []
    gaps: list[CoverageGap] = []
    first_divergent_time: int | None = None
    for pub in trace.publishes(ReportKind.PRELIMINARY):
        covered = set()
        for child, _seq, counts in pub.children:
            covered.add(child)
            if counts != truth.get(child, counts):
                divergences.append(CountDivergence(pub.time, child, counts, truth[child]))
                if first_divergent_time is None:
                    first_divergent_time = pub.time
        missing = tuple(c for c in root_children if c not in covered)
        if missing:
            gaps.append(CoverageGap(pub.time, missing))

    gap_ticks = 0
    if first_divergent_time is not None:
        gap_ticks = max(0, final_pub.time - first_divergent_time)

    return DetectionSummary(
        count_divergences=tuple(divergences),
        coverage_gaps=tuple(gaps),
        detects=trace.detects(),
        final_matches_ground_truth=(
            final_pub.counts == truths[trace.tree.root]
        ),
        integrity_gap_ticks=gap_ticks,
    )
