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
jitter, applies its edge's attacks, if any, and schedules delivery. The
``SequenceState`` check ``verify_report`` shares keys freshness here by
the sender's index, not its id; the run owns its state, so takes no lock.

A node is its index in ``tree.order()``, 0 being the root. A Simulation
resolves each per-node table once, into a column in tree order, so
``run()`` looks up no id: each per-node field is indexed by the node:
parent and eligible-voter ceiling (the tree's), next sequence number;
latency, attacks and the event of its latest accepted delivery per report
kind. A sender has exactly one receiver, its parent, so what an edge
carries is kept at the sender's index. One pass over the parents counts
each node's children; only internal nodes get, per report kind, one
running total of their children's latest accepted deliveries: an accept
subtracts the superseded event's counts and adds the new ones.
Both kinds of delivery take one path: only a preliminary can be refused,
and a final also waits for ``finals_pending``, the count of child finals
still awaited, to reach zero before its total goes up. A delivery's row
is written before the report-up tail runs, so the row before a
preliminary publication is the delivery that triggered it, and the row
before the final one the last child final: what a publication sums is
the root's latest accepted delivery from each child before it.

Each record is one row of ``traces.COLUMNS``, appended to a list of ints
with one ``extend`` call and packed into the trace's array in chunks, so
the ~90k records of a large run leave no object behind. However a run
ends, it leaves no reference cycle behind either: reference counting frees
every event tuple, so whether to pause the cyclic garbage collector over a
run is its caller's decision (``votewire simulate`` pauses it).
"""

from __future__ import annotations

import random
import struct
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Mapping, Sequence

from .adversary import AttackKind, AttackSpec, apply_mutation, check_attack_permitted
from .channels import POSTAL_FINAL, ChannelSpec
from .counts import MAX_COUNT, VoteCount
from .errors import ArithmeticOverflow, ConfigError
from .reports import ReportKind, SequenceState
from .traces import (
    ATTACK, COLUMNS, DELIVER, EMIT, FINAL, PRELIM, PUBLISH, REASONS, REFUSE, STRIDE, EventTrace,
)
from .tree import JurisdictionId, JurisdictionTree

OVER_ELIGIBLE, STALE_SEQUENCE = range(len(REASONS))
# The kind of a leaf's own emit event; a delivery's is PRELIM or FINAL.
OWN = 2

DEFAULT_FINAL_EMIT_AT = 100
# The per-node tables a Simulation copies, and the tree-order columns it reads them into.
_TABLES = ("channels", "ground_truth", "prelim_emit", "final_emit")
_COLUMNS = ("_specs", "_truths", "_prelim_at", "_final_at", "_attacks_on")


def _check_nonnegative(value: int, where: str) -> None:
    if value < 0:
        raise ConfigError(f"field '{where}' must be >= 0")


@dataclass(frozen=True)
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
        # The run and its trace read copies taken here, so a caller's later
        # edit to what it passed can neither skip these checks nor change a
        # trace; each table is read once, from its copy, into a column.
        tables = {name: dict(getattr(self, name)) for name in _TABLES}
        for name, table in tables.items():
            object.__setattr__(self, name, MappingProxyType(table))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        if not self.election_id:
            raise ConfigError("field 'election_id' must be a non-empty string")
        _check_nonnegative(self.seed, "seed")
        tree, channels, truth = self.tree, tables["channels"], tables["ground_truth"]
        order, leaves = tree.order(), tree.leaves()
        if leaves == (tree.root,):
            raise ConfigError("field 'tree': simulation needs at least one reporting edge")
        truths = tuple(map(truth.get, leaves))
        if None in truths:
            missing = [leaf for leaf, counts in zip(leaves, truths) if counts is None]
            raise ConfigError(f"field 'ground_truth': missing leaves {sorted(map(str, missing))}")
        if len(truth) != len(leaves):
            extra = sorted(map(str, truth.keys() - set(leaves)))
            raise ConfigError(f"field 'ground_truth': non-leaf entries {extra}")
        # From here on the keys of ``truth`` are exactly the leaves.
        totals = zip(leaves, map(tree._eligible.__getitem__, tree._leaf_at), map(sum, truths))
        over = {leaf: c for leaf, c, total in totals if c is not None and total > c}
        if over:  # name the first in the caller's order
            leaf = next(filter(over.__contains__, truth))
            raise ConfigError(
                f"field 'ground_truth.{leaf}': total {truth[leaf].total()} exceeds "
                f"{over[leaf]} eligible voters"
            )
        if tree.root in channels:
            raise ConfigError(f"field 'channels.{tree.root}': the root has no upward edge")
        specs = tuple(map(channels.get, order))
        if not all(specs[1:]):
            raise ConfigError(
                f"field 'channels': no channel for edge {order[specs.index(None, 1)]} "
                "and no default_channel"
            )
        # Every edge has a channel and the root none, so any further key
        # names a node outside the tree.
        if len(channels) >= len(order):
            stray = next(node for node in channels if node not in tree)
            raise ConfigError(f"field 'channels.{stray}': unknown jurisdiction {str(stray)!r}")
        _check_nonnegative(self.postal_latency, "postal_latency")
        at = dict(zip(leaves, range(len(leaves))))
        emits = ([0] * len(leaves), [self.final_emit_default] * len(leaves))
        for name, ticks in zip(("prelim_emit", "final_emit"), emits):
            for node, when in tables[name].items():
                if (j := at.get(node)) is None:
                    raise ConfigError(
                        f"field 'timing.{name}.{node}': not a leaf; only leaves emit reports"
                    )
                if when < 0:  # the field's name is formatted for the error alone
                    _check_nonnegative(when, f"timing.{name}.{node}")
                ticks[j] = when
        _check_nonnegative(self.final_emit_default, "timing.final_emit_default")
        _check_nonnegative(self.jitter_max, "jitter_max")
        # Capability gating happens here, and only here: an attack a channel
        # rules out is a configuration error, so the run applies each unchecked.
        attacks_on = ([()] * len(order), [()] * len(order))
        for i, attack in enumerate(self.attacks):
            edge = attack.edge_child
            if edge not in tree:
                raise ConfigError(f"field 'attacks[{i}].edge': unknown jurisdiction {str(edge)!r}")
            if edge == tree.root:
                raise ConfigError(f"field 'attacks[{i}].edge': the root has no upward edge")
            final = attack.report_kind is ReportKind.FINAL
            # Finals ride the signed postal channel; its latency gates nothing.
            check_attack_permitted(attack.kind, POSTAL_FINAL if final else channels[edge])
            attacks_on[FINAL if final else PRELIM][tree._index[edge]] += (i,)
        for name, column in zip(_COLUMNS, (specs, truths, *emits, tuple(map(tuple, attacks_on)))):
            object.__setattr__(self, name, tuple(column))

    def run(self) -> EventTrace:
        rng = random.Random(self.seed)
        # Rows gather as ints in ``out``, since appending to a list is cheaper
        # than to an array, and move into ``rows`` once a tick ends with 2**16.
        rows, out = array("q"), []
        extend = out.extend
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
        attacks, attacks_on = self.attacks, self._attacks_on
        # One state serves every receiver: a sender has exactly one, its parent.
        # It is keyed by the sender's index, which hashes faster than its id.
        accept = SequenceState(self.election_id).accept_if_fresh
        fires_left: list[int | None] = [a.first_n for a in attacks]

        # order() lists each parent before its children. The root never
        # sends, so its parent, channel and ceiling are never read.
        order, parent, eligible = tree.order(), tree.parents(), tree._eligible
        size = len(order)
        # Each node's child count, which is also the count of child finals it
        # still awaits: a leaf's is 0.
        finals_pending = [0] * size
        for up in parent[1:]:
            finals_pending[up] += 1
        # Per report kind, each sender's latest accepted delivery (None before
        # the first), and an internal node's [yes, no, blank, invalid] running
        # total of its children's; a leaf's is None.
        accepted: tuple[list, list] = ([None] * size, [None] * size)
        totals = tuple(
            [[0, 0, 0, 0] if kids else None for kids in finals_pending] for _ in (PRELIM, FINAL)
        )
        # Latency up to the parent over the preliminary channel; finals ride
        # the postal one.
        latency = (
            [0 if spec is None else spec.base_latency for spec in self._specs],
            [self.postal_latency] * size,
        )
        next_seq = [1] * size

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
        for i, at, (yes, no, blank, invalid) in zip(tree._leaf_at, self._prelim_at, self._truths):
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
            schedule(at, (OWN, i, PRELIM, yes, no, blank, invalid))
        for i, at, counts in zip(tree._leaf_at, self._final_at, self._truths):
            schedule(at, (OWN, i, FINAL, *counts))

        while ticks:
            time = heappop(ticks)
            # The list grows while it is read: what an event schedules for
            # this tick is appended, and runs after everything queued before.
            # An event is a delivery of report kind ``kind`` from ``i`` with
            # sequence number ``what``, or, when ``kind`` is OWN, a leaf's own
            # emit of report kind ``what``; its four counts follow.
            for event in buckets[time]:
                kind, i, what, yes, no, blank, invalid = event
                if kind == OWN:
                    kind = what
                else:
                    sender, i = i, parent[i]  # the receiver is ``i`` now
                    if kind == PRELIM:
                        ceiling = eligible[sender]
                        if ceiling is not None and yes + no + blank + invalid > ceiling:
                            refusal = OVER_ELIGIBLE
                        elif accept(sender, what):
                            refusal = None
                        else:
                            refusal = STALE_SEQUENCE
                        if refusal is not None:  # the refused delivery is the detect event
                            extend((
                                REFUSE, time, sender, kind, what, yes, no, blank, invalid, refusal
                            ))
                            continue
                    table = accepted[kind]
                    old = table[sender]
                    table[sender] = event
                    extend((DELIVER, time, sender, kind, what, yes, no, blank, invalid, 0))
                    total = totals[kind][i]
                    if old is not None:
                        total[0] -= old[3]
                        total[1] -= old[4]
                        total[2] -= old[5]
                        total[3] -= old[6]
                    total[0] += yes
                    total[1] += no
                    total[2] += blank
                    total[3] += invalid
                    if kind == FINAL:
                        # No attack forges a final (Simulation refuses front-run
                        # on the postal channel), so each child's arrives exactly
                        # once and the count reaches zero once: at the last one.
                        finals_pending[i] -= 1
                        if finals_pending[i]:
                            continue
                    yes, no, blank, invalid = total
                # Report up: the root publishes the counts, any other node emits them.
                if not i:
                    extend((PUBLISH, time, 0, kind, 0, yes, no, blank, invalid, 0))
                    continue
                seq = next_seq[i]
                next_seq[i] = seq + 1
                extend((EMIT, time, i, kind, seq, yes, no, blank, invalid, 0))
                delivery, indices = time + latency[kind][i], attacks_on[kind][i]
                if jitter_max:
                    drawn = getrandbits(jitter_bits)
                    while drawn > jitter_max:
                        drawn = getrandbits(jitter_bits)
                    delivery += drawn
                if indices:
                    yes, no, blank, invalid, delivery = fire(
                        time, i, seq, (yes, no, blank, invalid), delivery, kind, indices
                    )
                schedule(delivery, (kind, i, seq, yes, no, blank, invalid))
            del buckets[time]
            if len(out) >= 1 << 16:
                _store(rows, out)

        _store(rows, out)
        return EventTrace(self, memoryview(rows).toreadonly())


def _store(rows: array, values: list[int]) -> None:
    """Move ``values`` to the end of ``rows``.

    One ``struct.pack`` packs them as ``rows`` lays them out, native signed
    64-bit ints, cheaper than ``fromlist``'s ``PyArg_Parse`` per int. Only
    a sum of counts, a tick or a sequence number can leave that range; the
    error names the first by its column.
    """
    try:
        rows.frombytes(struct.pack(f"{len(values)}q", *values))
    except struct.error:
        at = next(at for at, value in enumerate(values) if value > MAX_COUNT)
        raise ArithmeticOverflow(
            f"{COLUMNS[at % STRIDE]}={values[at]} exceeds the 64-bit range of a trace"
        ) from None
    values.clear()
