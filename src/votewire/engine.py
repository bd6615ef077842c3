"""Deterministic discrete-event simulation of upward result reporting.

Time is integer ticks. Each pending tick holds one list of events, in the
order they were scheduled; a small heap holds the distinct pending ticks.
The run takes the earliest tick and processes its list front to back, so
events run in time order and, within a tick, in scheduling order, and a
run is a pure function of its configuration and seed. An event scheduled
for the tick being processed (a 0-latency channel, a forgery) joins the
end of its list, after every event already queued for that tick. Nothing
is ever scheduled for an earlier tick: latency and jitter are never
negative. The only randomness is an explicitly seeded generator used for
optional latency jitter and miscount noise.

Each leaf emits one preliminary report over its configured channel and,
later, one final report over the signed postal channel, of which only
the latency can be set. A node that accepts a
preliminary immediately (same tick) emits fresh replacement totals for its
own subtree upward; the root publishes instead. Finals are slower: a node
forwards its final only once every child's final has arrived. Preliminary
counts can be corrupted in flight by configured attacks; final counts ride
the signed postal channel, so the final publication always equals the sum
of the leaf ground truths.

The run is one loop with no handler per event kind. An event is (kind,
state, what, counts): a leaf's own emit of report kind ``what`` when
``kind`` is None, else a delivery of ``kind`` from ``state`` to its
parent with sequence number ``what``. Each runs in the loop's own frame,
and each that yields new totals falls through into one report-up tail:
the root publishes; any other node emits, draws its jitter, applies its
edge's attacks (the one call: attacks are rare) and schedules delivery.
Before the loop, ``run`` resolves one state per node (parent's state,
position among siblings, channel, eligible-voter ceiling, attacks per
report kind), so no event looks a node up by its id. Only freshness is
keyed by the sender's id, in the ``SequenceState`` check ``verify_report``
shares; the run owns its state, so it takes no lock.

Each node keeps, per report kind, one child table: each child's latest
accepted (child, seq, counts) entry at the child's position. Beside it
the node keeps a running total of its preliminary table, so an accept
subtracts the superseded entry and adds the new one instead of re-summing
every child, and a count of the child finals it still awaits: when that
reaches zero it sums its final table. The root is the node that publishes
instead of emitting; a publication copies its table of that kind, which
is already in child order.

Records, counts and ids are tuples; ``run`` builds each of a large run's
~100k records, and each new preliminary total, with one call of tuple's
C constructor. The cyclic garbage collector is paused meanwhile
(``traces.nogc``): left on, it rescans the young tuples hundreds of times
per large run, although reference counting frees them all: however a run
ends, it leaves no reference cycle behind. The pause defers one scan of
whatever the run leaves alive to the first allocation after it.
``simulate`` pays none: its own pause spans parse, run, audit, rendering
and writes, and it drops the trace before the pause ends. A library
caller that keeps the trace pays that one pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Sequence

from .adversary import AttackKind, AttackSpec, apply_mutation, check_attack_permitted
from .channels import POSTAL_FINAL, ChannelSpec
from .counts import MAX_COUNT, VoteCount, accumulate
from .errors import ConfigError
from .reports import ReportKind, SequenceState
from .traces import (
    AttackRecord,
    DeliverRecord,
    DetectRecord,
    EmitRecord,
    EventTrace,
    PublishRecord,
    TraceRecord,
    nogc,
)
from .tree import JurisdictionId, JurisdictionTree

REASON_OVER_ELIGIBLE = "over_eligible"
REASON_STALE_SEQUENCE = "stale_sequence"

DEFAULT_FINAL_EMIT_AT = 100


def _check_nonnegative(value: int, where: str) -> None:
    if value < 0:
        raise ConfigError(f"field '{where}' must be >= 0")


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
    """What an event needs about one node, resolved once before a run."""

    __slots__ = (
        "node", "parent", "position", "channel", "eligible", "prelim_attacks",
        "final_attacks", "next_seq", "prelim_table", "final_table", "prelim_total",
        "finals_pending",
    )

    def __init__(
        self,
        node: JurisdictionId,
        parent: "_NodeState | None",
        position: int,
        channel: ChannelSpec | None,
        eligible: int | None,
        fanout: int,
    ) -> None:
        self.node = node
        # None at the root, which publishes instead of emitting.
        self.parent = parent
        # Index among the parent's children: this node's slot in its tables.
        self.position = position
        # The preliminary channel up to the parent; finals ride the postal one.
        self.channel = channel
        self.eligible = eligible
        # Indices into Simulation.attacks, in configuration order.
        self.prelim_attacks: tuple[int, ...] = ()
        self.final_attacks: tuple[int, ...] = ()
        self.next_seq = 1
        # Per report kind, the child table: each child's latest accepted
        # (child, seq, counts) entry at the child's position, None before one.
        self.prelim_table: list[tuple[JurisdictionId, int, VoteCount] | None] = [None] * fanout
        self.final_table: list[tuple[JurisdictionId, int, VoteCount] | None] = [None] * fanout
        # [yes, no, blank, invalid] summed over the preliminary table.
        self.prelim_total = [0, 0, 0, 0]
        # Children whose final has not arrived yet.
        self.finals_pending = fanout


@dataclass(frozen=True)
class Simulation:
    """A fully specified run: tree, channels, truth, timing, attacks.

    Construction is the one check of the run's rules, made in the order a
    scenario file lists its fields, so a file and a run built in Python fail
    alike: a broken rule raises ConfigError naming the scenario field, an
    attack its channel rules out CapabilityError.
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
        if not self.election_id:
            raise ConfigError("field 'election_id' must be a non-empty string")
        _check_nonnegative(self.seed, "seed")
        tree = self.tree
        leaves = tree.leaves()
        if leaves == (tree.root,):
            raise ConfigError("field 'tree': simulation needs at least one reporting edge")
        truth = self.ground_truth
        missing = [leaf for leaf in leaves if leaf not in truth]
        if missing:
            raise ConfigError(f"field 'ground_truth': missing leaves {sorted(map(str, missing))}")
        if len(truth) != len(leaves):
            leaf_set = set(leaves)
            extra = sorted(str(node) for node in truth if node not in leaf_set)
            raise ConfigError(f"field 'ground_truth': non-leaf entries {extra}")
        # From here on the keys of ``truth`` are exactly the leaves.
        for leaf, counts in truth.items():
            eligible = tree.eligible_voters.get(leaf)
            if eligible is not None and counts.total() > eligible:
                raise ConfigError(
                    f"field 'ground_truth.{leaf}': total {counts.total()} exceeds "
                    f"{eligible} eligible voters"
                )
        channels = self.channels
        if tree.root in channels:
            raise ConfigError(f"field 'channels.{tree.root}': the root has no upward edge")
        for node in tree.order()[1:]:
            if node not in channels:
                raise ConfigError(
                    f"field 'channels': no channel for edge {node} and no default_channel"
                )
        # Every edge has a channel and the root none, so any further key
        # names a node outside the tree.
        if len(channels) >= len(tree.order()):
            stray = next(node for node in channels if node not in tree)
            raise ConfigError(f"field 'channels.{stray}': unknown jurisdiction {str(stray)!r}")
        _check_nonnegative(self.postal_latency, "postal_latency")
        for name, emits in (("prelim_emit", self.prelim_emit), ("final_emit", self.final_emit)):
            for node, when in emits.items():
                if node not in truth:
                    raise ConfigError(
                        f"field 'timing.{name}.{node}': not a leaf; only leaves emit reports"
                    )
                if when < 0:
                    raise ConfigError(f"field 'timing.{name}.{node}' must be >= 0")
        _check_nonnegative(self.final_emit_default, "timing.final_emit_default")
        _check_nonnegative(self.jitter_max, "jitter_max")
        # Capability gating happens here, and only here: an attack a channel
        # rules out is a configuration error, so the run applies each unchecked.
        for i, attack in enumerate(self.attacks):
            edge = attack.edge_child
            if edge not in tree:
                raise ConfigError(f"field 'attacks[{i}].edge': unknown jurisdiction {str(edge)!r}")
            if edge == tree.root:
                raise ConfigError(f"field 'attacks[{i}].edge': the root has no upward edge")
            final = attack.report_kind is ReportKind.FINAL
            check_attack_permitted(attack.kind, self.postal if final else self.channels[edge])

    @property
    def postal(self) -> ChannelSpec:
        """The signed channel every final rides."""
        return POSTAL_FINAL.with_latency(self.postal_latency)

    @nogc
    def run(self) -> EventTrace:
        rng = random.Random(self.seed)
        records: list[TraceRecord] = []
        append = records.append
        new = tuple.__new__  # builds a record from all its fields, in C
        # ``buckets`` holds each pending tick's events in scheduling order,
        # ``ticks`` those ticks as a heap.
        buckets: dict[int, list[tuple]] = {}
        ticks: list[int] = []

        def schedule(at: int, event: tuple) -> None:
            bucket = buckets.get(at)
            if bucket is None:
                buckets[at] = [event]
                heappush(ticks, at)
            else:
                bucket.append(event)

        tree = self.tree
        jitter_max = self.jitter_max
        # randrange(jitter_max + 1)'s draw: the span's bit count, redrawn until below it.
        jitter_bits = (jitter_max + 1).bit_length()
        getrandbits = rng.getrandbits
        attacks = self.attacks
        postal_latency, postal_name = self.postal_latency, POSTAL_FINAL.name
        prelim, final = ReportKind.PRELIMINARY, ReportKind.FINAL
        # One state serves every receiver: a sender has exactly one, its parent.
        accept = SequenceState(self.election_id).accept_if_fresh
        fires_left: list[int | None] = [a.first_n for a in attacks]

        # order() lists each parent before its children. The root never
        # sends, so it needs no channel or ceiling.
        root = tree.root
        states = {root: _NodeState(root, None, 0, None, None, len(tree.children(root)))}
        for node in tree.order():
            state = states[node]
            for position, child in enumerate(tree.children(node)):
                states[child] = _NodeState(
                    child, state, position, self.channels[child],
                    tree.eligible_voters.get(child), len(tree.children(child)),
                )
        for idx, attack in enumerate(attacks):
            state = states[attack.edge_child]
            if attack.report_kind is final:
                state.final_attacks += (idx,)
            else:
                state.prelim_attacks += (idx,)

        def fire(
            time: int, state: _NodeState, seq: int, counts: VoteCount,
            delivery: int, kind: ReportKind, indices: tuple[int, ...],
        ) -> tuple[VoteCount, int]:
            """Apply the attacks ``indices`` to what ``state`` sends, in configuration order."""
            node, receiver = state.node, state.parent.node
            for idx in indices:
                attack = attacks[idx]
                left = fires_left[idx]
                if left == 0:
                    continue
                if left is not None:
                    fires_left[idx] = left - 1
                if attack.kind is AttackKind.TAMPER:
                    assert attack.mutation is not None
                    try:
                        counts = apply_mutation(counts, attack.mutation)
                    except ValueError as exc:
                        raise ConfigError(f"tamper on edge {node}: {exc}") from None
                elif attack.kind is AttackKind.DELAY:
                    delivery += attack.hold_ticks
                else:
                    # A forgery in the edge sender's name, scheduled first at the
                    # same tick, so it is processed before the genuine report it
                    # shadows.
                    forged = attack.forged_seq or seq + attack.seq_offset  # forged_seq >= 1
                    schedule(delivery, (kind, state, forged, attack.forged_counts))
                fields = (time, attack.kind.value, node, receiver, attack.mode, attack.describe())
                append(new(AttackRecord, fields))
            return counts, delivery

        # Noise draws come first and in leaf order, so the perturbed counts
        # do not depend on event interleaving.
        leaves = [states[leaf] for leaf in tree.leaves()]
        for state in leaves:
            counts = self.ground_truth[state.node]
            if self.noise:
                counts = self.noise.perturb(counts, rng)
            schedule(self.prelim_emit.get(state.node, 0), (None, state, prelim, counts))
        for state in leaves:
            at = self.final_emit.get(state.node, self.final_emit_default)
            schedule(at, (None, state, final, self.ground_truth[state.node]))

        while ticks:
            time = heappop(ticks)
            # The list grows while it is read: what an event schedules for
            # this tick is appended, and runs after everything queued before.
            for kind, state, what, counts in buckets[time]:
                if kind is prelim:
                    sender, state = state, state.parent  # the receiver is ``state`` now
                    sender_id = sender.node
                    eligible = sender.eligible
                    if eligible is not None and sum(counts) > eligible:
                        reason = REASON_OVER_ELIGIBLE
                    else:
                        reason = None if accept(sender_id, what) else REASON_STALE_SEQUENCE
                    append(new(DeliverRecord, (
                        time, sender_id, state.node, sender.channel.name, prelim, what, counts,
                        reason is None, reason,
                    )))
                    if reason is not None:
                        append(new(DetectRecord, (time, state.node, reason, sender_id, what)))
                        continue
                    table, slot = state.prelim_table, sender.position
                    old = table[slot]
                    table[slot] = (sender_id, what, counts)
                    total = state.prelim_total
                    if old is not None:
                        prev = old[2]
                        total[0] -= prev[0]
                        total[1] -= prev[1]
                        total[2] -= prev[2]
                        total[3] -= prev[3]
                    total[0] += counts[0]
                    total[1] += counts[1]
                    total[2] += counts[2]
                    total[3] += counts[3]
                    # Only the sum can be out of range: the checked constructor names the field.
                    counts = new(VoteCount, total) if max(total) <= MAX_COUNT else VoteCount(*total)
                elif kind is final:
                    # Each child sends one final, over the signed postal channel,
                    # where no attack can forge another: Simulation refuses
                    # front-run there. So each child's final arrives exactly once,
                    # and the count reaches zero exactly once: at the last one.
                    sender, state = state, state.parent
                    table = state.final_table
                    table[sender.position] = (sender.node, what, counts)
                    append(new(DeliverRecord, (
                        time, sender.node, state.node, postal_name, final, what, counts, True, None,
                    )))
                    state.finals_pending -= 1
                    if state.finals_pending:
                        continue
                    counts = accumulate(c for _, _, c in table)
                else:
                    kind = what
                # Report up: the root publishes ``counts``, any other node emits them.
                if state.parent is None:
                    # A publication lists the child entries of its kind it sums.
                    table = state.final_table if kind is final else state.prelim_table
                    entries = tuple(filter(None, table))
                    append(new(PublishRecord, (time, state.node, kind, counts, entries)))
                    continue
                seq = state.next_seq
                state.next_seq = seq + 1
                append(new(EmitRecord, (time, state.node, kind, seq, counts)))
                if kind is final:
                    delivery, indices = time + postal_latency, state.final_attacks
                else:
                    delivery, indices = time + state.channel.base_latency, state.prelim_attacks
                if jitter_max:
                    drawn = getrandbits(jitter_bits)
                    while drawn > jitter_max:
                        drawn = getrandbits(jitter_bits)
                    delivery += drawn
                if indices:
                    counts, delivery = fire(time, state, seq, counts, delivery, kind, indices)
                bucket = buckets.get(delivery)  # schedule(), inlined
                if bucket is None:
                    buckets[delivery] = [(kind, state, seq, counts)]
                    heappush(ticks, delivery)
                else:
                    bucket.append((kind, state, seq, counts))
            del buckets[time]

        return EventTrace(
            election_id=self.election_id,
            seed=self.seed,
            tree=self.tree,
            ground_truth=dict(self.ground_truth),
            records=tuple(records),
        )
