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
node, what, yes, no, blank, invalid): a leaf's own emit of report kind
``what`` when ``kind`` is OWN, else a delivery of report kind ``kind``
from ``node`` to its parent with sequence number ``what``. Each runs in
the loop's own frame, and each that yields new totals falls through into
one report-up tail: the root publishes; any other node emits, draws its
jitter, applies its edge's attacks (the one call: attacks are rare) and
schedules delivery. Only freshness is keyed by the sender's id, in the
``SequenceState`` check ``verify_report`` shares; the run owns its state,
so it takes no lock.

A node is its index in ``tree.order()``, 0 being the root, and each
per-node field is a list indexed by it: parent and slot among siblings
(both from one pass over ``order()`` and each node's children), channel
latency, eligible-voter ceiling, next sequence number, attacks per report
kind. Only internal nodes get, per report kind, a child table holding at
each child's slot the event of its latest accepted delivery; a running
total of the preliminary table, so an accept subtracts the superseded
event's counts and adds the new ones instead of re-summing every child;
and a count of the child finals still awaited: at zero the node sums its
final table. The root also keeps the row numbers of those deliveries: a
publication lists them, already in child order.

Each record is one row of ``traces.COLUMNS``, appended to a list of ints
with one ``extend`` call and moved into the trace's array in chunks, so
the ~90k records of a large run leave no object behind. The cyclic
garbage collector is paused meanwhile (``traces.nogc``): left on, it
would rescan the young event tuples hundreds of times per large run,
although reference counting frees them all: however a run ends, it leaves
no reference cycle behind.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Sequence

from .adversary import AttackKind, AttackSpec, apply_mutation, check_attack_permitted
from .channels import POSTAL_FINAL, ChannelSpec
from .counts import MAX_COUNT, VoteCount
from .errors import ArithmeticOverflow, ConfigError
from .reports import ReportKind, SequenceState
from .traces import (
    ATTACK, COLUMNS, DELIVER, EMIT, FINAL, PRELIM, PUBLISH, REFUSE, STRIDE, EventTrace, nogc,
)
from .tree import JurisdictionId, JurisdictionTree

REASON_OVER_ELIGIBLE = "over_eligible"
REASON_STALE_SEQUENCE = "stale_sequence"
# A refused delivery's code is its reason's index here.
REASONS = (REASON_OVER_ELIGIBLE, REASON_STALE_SEQUENCE)
OVER_ELIGIBLE, STALE_SEQUENCE = range(len(REASONS))
# The kind of a leaf's own emit event; a delivery's is PRELIM or FINAL.
OWN = 2

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
                _check_nonnegative(when, f"timing.{name}.{node}")
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
            # Finals ride the signed postal channel; its latency gates nothing.
            check_attack_permitted(attack.kind, POSTAL_FINAL if final else self.channels[edge])

    @nogc
    def run(self) -> EventTrace:
        rng = random.Random(self.seed)
        # Rows gather as ints in ``out``, since appending to a list is cheaper
        # than to an array, and move into ``rows`` once a tick ends with 2**16.
        rows, out, stored = array("q"), [], 0  # ``stored``: the rows moved so far
        extend = out.extend
        listed_rows: list[int] = []
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
        postal_latency = self.postal_latency
        # One state serves every receiver: a sender has exactly one, its parent.
        accept = SequenceState(self.election_id).accept_if_fresh
        fires_left: list[int | None] = [a.first_n for a in attacks]

        # order() lists each parent before its children. The root never
        # sends, so its parent, slot, channel and ceiling are never read.
        order = tree.order()
        index = {node: i for i, node in enumerate(order)}
        size = len(order)
        parent, slot = [0] * size, [0] * size
        # An internal node's child tables (an entry is None before the first
        # accept, else the accepted delivery's event), its [yes, no, blank,
        # invalid] preliminary total and the child finals it still awaits; a
        # leaf's are None, None, None and 0.
        prelim_tables: list = [None] * size
        final_tables: list = [None] * size
        prelim_totals: list = [None] * size
        finals_pending = [0] * size
        for i, node in enumerate(order):
            kids = tree.children(node)
            for position, child in enumerate(kids):
                parent[index[child]], slot[index[child]] = i, position
            if kids:
                prelim_tables[i], final_tables[i] = [None] * len(kids), [None] * len(kids)
                prelim_totals[i] = [0, 0, 0, 0]
                finals_pending[i] = len(kids)
        # The row numbers of the root's latest accepted deliveries, per report kind.
        root_rows = [[None] * len(prelim_tables[0]), [None] * len(prelim_tables[0])]
        # The preliminary channel up to the parent; finals ride the postal one.
        channel = list(map(self.channels.get, order))
        latency = [0 if spec is None else spec.base_latency for spec in channel]
        eligible = list(map(tree.eligible_voters.get, order))
        next_seq = [1] * size
        # Indices into Simulation.attacks, in configuration order.
        prelim_attacks: list[tuple[int, ...]] = [()] * size
        final_attacks: list[tuple[int, ...]] = [()] * size
        for idx, attack in enumerate(attacks):
            edge = index[attack.edge_child]
            if attack.report_kind is ReportKind.FINAL:
                final_attacks[edge] += (idx,)
            else:
                prelim_attacks[edge] += (idx,)

        def fire(
            time: int, sender: int, seq: int, counts: tuple[int, int, int, int],
            delivery: int, kind: int, indices: tuple[int, ...],
        ) -> tuple[int, ...]:
            """What ``sender`` sends, counts then tick, after the attacks ``indices``."""
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
                        counts = apply_mutation(VoteCount(*counts), attack.mutation)
                    except ValueError as exc:
                        raise ConfigError(f"tamper on edge {order[sender]}: {exc}") from None
                elif attack.kind is AttackKind.DELAY:
                    delivery += attack.hold_ticks
                else:
                    # A forgery in the edge sender's name, scheduled first at the
                    # same tick, so it is processed before the genuine report it
                    # shadows.
                    forged = attack.forged_seq or seq + attack.seq_offset  # forged_seq >= 1
                    schedule(delivery, (kind, sender, forged, *attack.forged_counts))
                extend((ATTACK, time, sender, kind, seq, 0, 0, 0, 0, idx))
            return (*counts, delivery)

        # Noise draws come first and in leaf order, so the perturbed counts
        # do not depend on event interleaving. Each is NoiseModel's rule,
        # randint(1, max_shift) drawn as randrange draws it: the shift's bit
        # count, redrawn until below the shift, plus one.
        noise = self.noise
        if noise:
            probability, max_shift = noise.probability, noise.max_shift
            shift_bits, draw = max_shift.bit_length(), rng.random
        for leaf in tree.leaves():
            yes, no, blank, invalid = self.ground_truth[leaf]
            if noise and draw() < probability:
                drawn = getrandbits(shift_bits)
                while drawn >= max_shift:
                    drawn = getrandbits(shift_bits)
                if draw() < 0.5:
                    moved = min(drawn + 1, yes)
                    yes, no = yes - moved, no + moved
                else:
                    moved = min(drawn + 1, no)
                    yes, no = yes + moved, no - moved
            at = self.prelim_emit.get(leaf, 0)
            schedule(at, (OWN, index[leaf], PRELIM, yes, no, blank, invalid))
        for leaf in tree.leaves():
            at = self.final_emit.get(leaf, self.final_emit_default)
            schedule(at, (OWN, index[leaf], FINAL, *self.ground_truth[leaf]))

        while ticks:
            time = heappop(ticks)
            # The list grows while it is read: what an event schedules for
            # this tick is appended, and runs after everything queued before.
            # An event is a delivery of report kind ``kind`` from ``i`` with
            # sequence number ``what``, or, when ``kind`` is OWN, a leaf's own
            # emit of report kind ``what``; its four counts follow.
            for event in buckets[time]:
                kind, i, what, yes, no, blank, invalid = event
                if kind == PRELIM:
                    sender, i = i, parent[i]  # the receiver is ``i`` now
                    ceiling = eligible[sender]
                    if ceiling is not None and yes + no + blank + invalid > ceiling:
                        refusal = OVER_ELIGIBLE
                    elif accept(order[sender], what):
                        refusal = None
                    else:
                        refusal = STALE_SEQUENCE
                    if refusal is not None:  # the refused delivery is the detect event
                        extend((REFUSE, time, sender, PRELIM, what, yes, no, blank, invalid, refusal))
                        continue
                    table, position = prelim_tables[i], slot[sender]
                    old = table[position]
                    table[position] = event
                    if not i:
                        root_rows[PRELIM][position] = stored + len(out) // STRIDE
                    extend((DELIVER, time, sender, PRELIM, what, yes, no, blank, invalid, 0))
                    total = prelim_totals[i]
                    if old is not None:
                        total[0] -= old[3]
                        total[1] -= old[4]
                        total[2] -= old[5]
                        total[3] -= old[6]
                    total[0] += yes
                    total[1] += no
                    total[2] += blank
                    total[3] += invalid
                    yes, no, blank, invalid = total
                elif kind == FINAL:
                    # Each child sends one final, over the signed postal channel,
                    # where no attack can forge another: Simulation refuses
                    # front-run there. So each child's final arrives exactly once,
                    # and the count reaches zero exactly once: at the last one.
                    sender, i = i, parent[i]
                    table, position = final_tables[i], slot[sender]
                    table[position] = event
                    if not i:
                        root_rows[FINAL][position] = stored + len(out) // STRIDE
                    extend((DELIVER, time, sender, FINAL, what, yes, no, blank, invalid, 0))
                    finals_pending[i] -= 1
                    if finals_pending[i]:
                        continue
                    yes, no, blank, invalid = map(sum, zip(*(e[3:] for e in table)))
                else:
                    kind = what
                # Report up: the root publishes the counts, any other node emits them.
                if not i:
                    # A publication lists the deliveries it sums, as no leaf is the root.
                    listed = [row for row in root_rows[kind] if row is not None]
                    start = len(listed_rows)
                    extend((PUBLISH, time, 0, kind, len(listed), yes, no, blank, invalid, start))
                    listed_rows += listed
                    continue
                seq = next_seq[i]
                next_seq[i] = seq + 1
                extend((EMIT, time, i, kind, seq, yes, no, blank, invalid, 0))
                if kind == FINAL:
                    delivery, indices = time + postal_latency, final_attacks[i]
                else:
                    delivery, indices = time + latency[i], prelim_attacks[i]
                if jitter_max:
                    drawn = getrandbits(jitter_bits)
                    while drawn > jitter_max:
                        drawn = getrandbits(jitter_bits)
                    delivery += drawn
                if indices:
                    yes, no, blank, invalid, delivery = fire(
                        time, i, seq, (yes, no, blank, invalid), delivery, kind, indices
                    )
                event = (kind, i, seq, yes, no, blank, invalid)
                bucket = buckets.get(delivery)  # schedule(), inlined
                if bucket is None:
                    buckets[delivery] = [event]
                    heappush(ticks, delivery)
                else:
                    bucket.append(event)
            del buckets[time]
            if len(out) >= 1 << 16:
                stored += _store(rows, out)

        _store(rows, out)
        return EventTrace(
            election_id=self.election_id,
            seed=self.seed,
            tree=self.tree,
            ground_truth=dict(self.ground_truth),
            rows=memoryview(rows).toreadonly(),
            entries=memoryview(array("q", listed_rows)).toreadonly(),
            parents=tuple(parent),
            channels=tuple("" if spec is None else spec.name for spec in channel),
            reasons=REASONS,
            attacks=tuple((a.kind.value, a.mode, a.describe()) for a in attacks),
        )


def _store(rows: array, values: list[int]) -> int:
    """Move ``values`` to the end of ``rows``; the number of rows moved.

    Only a sum of counts, a tick or a sequence number can leave the signed
    64-bit range of ``rows``; the error names the first by its column.
    """
    try:
        rows.fromlist(values)
    except OverflowError:
        at = next(at for at, value in enumerate(values) if value > MAX_COUNT)
        raise ArithmeticOverflow(
            f"{COLUMNS[at % STRIDE]}={values[at]} exceeds the 64-bit range of a trace"
        ) from None
    moved = len(values) // STRIDE
    values.clear()
    return moved
