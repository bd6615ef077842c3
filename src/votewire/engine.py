"""Deterministic discrete-event simulation of upward result reporting.

Time is integer ticks. Events are processed from a heap ordered by
(time, insertion counter), so ties break by scheduling order and a run is
a pure function of its configuration and seed; the only randomness is an
explicitly seeded generator used for optional latency jitter and miscount
noise.

Each leaf emits one preliminary report over its configured channel and,
later, one final report over the signed postal channel, of which only
the latency can be set. A node that accepts a
preliminary immediately (same tick) emits fresh replacement totals for its
own subtree upward; the root publishes instead. Finals are slower: a node
forwards its final only once every child's final has arrived. Preliminary
counts can be corrupted in flight by configured attacks; final counts ride
the signed postal channel, so the final publication always equals the sum
of the leaf ground truths.

Every event costs the same whatever the fanout. Each node keeps, per
report kind, one child table: each child's latest accepted (child, seq,
counts) entry at that child's ``JurisdictionTree.position``. Beside it the
node keeps a running total of its preliminary table, so an accept
subtracts the superseded entry and adds the new one instead of re-summing
every child, and a count of the child finals it still awaits: when that
reaches zero it sums its final table. The root is the node that publishes
instead of emitting; a publication copies its table of that kind, which
is already in child order. Attacks are looked up by (edge, report kind),
in configuration order.

Trace records and reports are tuples (see ``traces`` and ``reports``), so
the ~100k values a large run builds cost a C constructor call each.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .adversary import (
    AttackKind,
    AttackSpec,
    apply_tamper,
    check_attack_permitted,
    forge_report,
)
from .channels import POSTAL_FINAL, ChannelSpec
from .counts import VoteCount, accumulate
from .errors import ConfigError
from .reports import Report, ReportKind, SequenceState
from .traces import (
    AttackRecord,
    DeliverRecord,
    DetectRecord,
    EmitRecord,
    EventTrace,
    PublishRecord,
    TraceRecord,
)
from .tree import JurisdictionId, JurisdictionTree

REASON_UNKNOWN_SENDER = "unknown_sender"
REASON_OVER_ELIGIBLE = "over_eligible"
REASON_STALE_SEQUENCE = "stale_sequence"

DEFAULT_FINAL_EMIT_AT = 100


def feasibility_check(
    report: Report,
    receiver: JurisdictionId,
    tree: JurisdictionTree,
    seq_state: SequenceState,
) -> str | None:
    """First reason to refuse a preliminary report, or None to accept.

    Checks, in order: the sender must be a direct child of the receiver;
    the claimed total may not exceed the sender's eligible voters (when
    known); the sequence number must be strictly newer than the last one
    accepted from that sender. As in ``verify_report``, only an accept
    records the sequence number in ``seq_state``.
    """
    if report.sender not in tree or tree.parent(report.sender) != receiver:
        return REASON_UNKNOWN_SENDER
    eligible = tree.eligible_voters.get(report.sender)
    if eligible is not None and report.counts.total() > eligible:
        return REASON_OVER_ELIGIBLE
    if not seq_state.accept_if_fresh(report.sender, report.sequence_no):
        return REASON_STALE_SEQUENCE
    return None


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Honest miscounts: each leaf's preliminary may shift some ballots.

    With probability ``probability`` a leaf's preliminary moves 1 to
    ``max_shift`` ballots from one answer to the other (direction drawn at
    random, magnitude clamped to the source side). Totals are preserved
    and finals are never touched.
    """

    probability: float
    max_shift: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_shift < 1:
            raise ValueError("max_shift must be >= 1")

    def perturb(self, counts: VoteCount, rng: random.Random) -> VoteCount:
        if rng.random() >= self.probability:
            return counts
        magnitude = rng.randint(1, self.max_shift)
        if rng.random() < 0.5:
            moved = min(magnitude, counts.yes)
            return VoteCount(counts.yes - moved, counts.no + moved, counts.blank, counts.invalid)
        moved = min(magnitude, counts.no)
        return VoteCount(counts.yes + moved, counts.no - moved, counts.blank, counts.invalid)


class _NodeState:
    __slots__ = ("next_seq", "latest", "prelim_total", "finals_pending")

    def __init__(self, fanout: int) -> None:
        self.next_seq = 1
        # Per report kind, the child table: each child's latest accepted
        # (child, seq, counts) entry at the child's position, None before one.
        self.latest: dict[ReportKind, list[tuple[JurisdictionId, int, VoteCount] | None]] = {
            kind: [None] * fanout for kind in ReportKind
        }
        # [yes, no, blank, invalid] summed over the preliminary table.
        self.prelim_total = [0, 0, 0, 0]
        # Children whose final has not arrived yet.
        self.finals_pending = fanout


@dataclass(frozen=True)
class Simulation:
    """A fully specified run: tree, channels, truth, timing, attacks.

    Construction checks the whole run before anything happens: a malformed
    field raises ValueError, ground truth above a leaf's eligible voters
    ConfigError naming the field, an attack its channel rules out
    CapabilityError.
    """

    election_id: str
    tree: JurisdictionTree
    channels: Mapping[JurisdictionId, ChannelSpec]
    ground_truth: Mapping[JurisdictionId, VoteCount]
    seed: int = 0
    prelim_emit: Mapping[JurisdictionId, int] = field(default_factory=dict)
    final_emit: Mapping[JurisdictionId, int] = field(default_factory=dict)
    final_emit_default: int = DEFAULT_FINAL_EMIT_AT
    jitter_max: int = 0
    noise: NoiseModel | None = None
    attacks: Sequence[AttackSpec] = ()
    postal_latency: int = POSTAL_FINAL.base_latency

    def __post_init__(self) -> None:
        for leaf, counts in self.ground_truth.items():
            eligible = self.tree.eligible_voters.get(leaf)
            if eligible is not None and counts.total() > eligible:
                raise ConfigError(
                    f"field 'ground_truth.{leaf}': total {counts.total()} exceeds "
                    f"{eligible} eligible voters"
                )
        leaves = set(self.tree.leaves())
        if leaves == {self.tree.root}:
            raise ValueError("simulation needs at least one reporting edge")
        if set(self.ground_truth) != leaves:
            missing = sorted(str(a) for a in leaves - set(self.ground_truth))
            extra = sorted(str(a) for a in set(self.ground_truth) - leaves)
            raise ValueError(
                f"ground truth must cover exactly the leaves; missing={missing} extra={extra}"
            )
        for node in self.tree.order()[1:]:
            if node not in self.channels:
                raise ValueError(f"no channel configured for edge {node} -> parent")
        for name in ("jitter_max", "final_emit_default", "postal_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name, emits in (("prelim_emit", self.prelim_emit), ("final_emit", self.final_emit)):
            for node, when in emits.items():
                if node not in leaves:
                    raise ValueError(f"{name} names {node}, which is not a leaf; only leaves emit")
                if when < 0:
                    raise ValueError("emit times must be >= 0")
        # Capability gating happens here, before anything runs: an attack a
        # channel rules out is a configuration error, not a runtime event.
        for attack in self.attacks:
            if attack.edge_child not in self.tree or attack.edge_child == self.tree.root:
                raise ValueError(f"attack targets unknown edge {attack.edge_child}")
            check_attack_permitted(attack.kind, self.channel_for(attack))

    @property
    def postal(self) -> ChannelSpec:
        """The signed channel every final rides."""
        return POSTAL_FINAL.with_latency(self.postal_latency)

    def channel_for(self, attack: AttackSpec) -> ChannelSpec:
        if attack.report_kind is ReportKind.FINAL:
            return self.postal
        return self.channels[attack.edge_child]

    def run(self) -> EventTrace:
        rng = random.Random(self.seed)
        records: list[TraceRecord] = []
        counter = itertools.count()
        heap: list[tuple[int, int, tuple]] = []
        tree = self.tree
        states = {n: _NodeState(len(tree.children(n))) for n in tree.nodes()}
        # One state serves every receiver: a sender that passes the
        # unknown-sender check has exactly one, its parent.
        seq_state = SequenceState(self.election_id)
        fires_left: list[int | None] = [a.first_n for a in self.attacks]
        attacks_on: dict[tuple[JurisdictionId, ReportKind], list[int]] = {}
        for idx, attack in enumerate(self.attacks):
            attacks_on.setdefault(attack.key, []).append(idx)

        root_state = states[tree.root]
        position = tree.position

        postal = self.postal
        channels = self.channels
        prelim, final = ReportKind.PRELIMINARY, ReportKind.FINAL

        # Noise draws come first and in leaf order, so the perturbed counts
        # do not depend on event interleaving.
        leaves = tree.leaves()
        for leaf in leaves:
            counts = self.ground_truth[leaf]
            if self.noise:
                counts = self.noise.perturb(counts, rng)
            at = self.prelim_emit.get(leaf, 0)
            heapq.heappush(heap, (at, next(counter), ("leaf", prelim, leaf, counts)))
        for leaf in leaves:
            at = self.final_emit.get(leaf, self.final_emit_default)
            event = ("leaf", final, leaf, self.ground_truth[leaf])
            heapq.heappush(heap, (at, next(counter), event))

        def send(time: int, report: Report, channel: ChannelSpec) -> None:
            receiver = tree.parent(report.sender)
            assert receiver is not None
            delivery = time + channel.base_latency
            if self.jitter_max:
                delivery += rng.randint(0, self.jitter_max)
            for idx in attacks_on.get((report.sender, report.kind), ()):
                attack = self.attacks[idx]
                left = fires_left[idx]
                if left == 0:
                    continue
                if left is not None:
                    fires_left[idx] = left - 1
                if attack.kind is AttackKind.TAMPER:
                    assert attack.mutation is not None
                    report = apply_tamper(report, attack.mutation, channel)
                elif attack.kind is AttackKind.DELAY:
                    delivery += attack.hold_ticks
                else:
                    forged = forge_report(report, attack, channel)
                    # Pushed first at the same delivery tick, so the forgery
                    # is processed before the genuine report it shadows.
                    heapq.heappush(
                        heap, (delivery, next(counter), ("deliver", forged, receiver, channel))
                    )
                records.append(
                    AttackRecord(
                        time, attack.kind.value, report.sender, receiver,
                        attack.mode, attack.describe(),
                    )
                )
            heapq.heappush(heap, (delivery, next(counter), ("deliver", report, receiver, channel)))

        def report_up(time: int, node: JurisdictionId, kind: ReportKind, counts: VoteCount) -> None:
            """Publish ``counts`` at the root; anywhere else, emit them upward."""
            state = states[node]
            if state is root_state:
                # A publication lists the child entries of its kind it sums.
                covered = tuple(filter(None, state.latest[kind]))
                records.append(PublishRecord(time, node, kind, counts, covered))
                return
            report = Report(self.election_id, node, state.next_seq, counts, kind, time)
            state.next_seq += 1
            records.append(EmitRecord(time, node, kind, report.sequence_no, counts))
            send(time, report, postal if kind is final else channels[node])

        def on_prelim(time: int, report: Report, receiver: JurisdictionId, channel: ChannelSpec) -> None:
            reason = feasibility_check(report, receiver, tree, seq_state)
            records.append(
                DeliverRecord(
                    time, report.sender, receiver, channel.name, report.kind,
                    report.sequence_no, report.counts, reason is None, reason,
                )
            )
            if reason is not None:
                records.append(
                    DetectRecord(time, receiver, reason, report.sender, report.sequence_no)
                )
                return
            state = states[receiver]
            table = state.latest[prelim]
            slot = position(report.sender)
            old = table[slot]
            new = report.counts
            table[slot] = (report.sender, report.sequence_no, new)
            total = state.prelim_total
            if old is not None:
                prev = old[2]
                total[0] -= prev.yes
                total[1] -= prev.no
                total[2] -= prev.blank
                total[3] -= prev.invalid
            total[0] += new.yes
            total[1] += new.no
            total[2] += new.blank
            total[3] += new.invalid
            # VoteCount raises ArithmeticOverflow past the 64-bit count range.
            report_up(time, receiver, prelim, VoteCount(*total))

        def on_final(time: int, report: Report, receiver: JurisdictionId, channel: ChannelSpec) -> None:
            state = states[receiver]
            # Each child sends one final, over the signed postal channel, where
            # no attack can forge another: Simulation refuses front-run there.
            # So each child's final arrives exactly once, and the count reaches
            # zero exactly once: at the last child's final.
            table = state.latest[final]
            table[position(report.sender)] = (report.sender, report.sequence_no, report.counts)
            records.append(
                DeliverRecord(
                    time, report.sender, receiver, channel.name, report.kind,
                    report.sequence_no, report.counts, True, None,
                )
            )
            state.finals_pending -= 1
            if state.finals_pending:
                return
            report_up(time, receiver, final, accumulate(c for _, _, c in table))

        while heap:
            time, _, event = heapq.heappop(heap)
            match event:
                case ("leaf", kind, leaf, counts):
                    report_up(time, leaf, kind, counts)
                case ("deliver", report, receiver, channel):
                    if report.kind is final:
                        on_final(time, report, receiver, channel)
                    else:
                        on_prelim(time, report, receiver, channel)

        return EventTrace(
            election_id=self.election_id,
            seed=self.seed,
            tree=self.tree,
            ground_truth=dict(self.ground_truth),
            records=tuple(records),
        )
