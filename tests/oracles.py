"""Independent brute-force references that pin the solver results.

These deliberately avoid the solver code paths: selection is exhaustive
enumeration, costs come from a linear scan, and every candidate is decided
by applying its flips and asking the tally itself (``popular_outcome``,
``cantonal_outcome``, ``referendum_outcome``). No oracle restates a
majority or tie rule, so none can share a solver's mistake about one.

A trace stores each record as one row of integer columns. ``records``
reads those rows back as the NamedTuple records below, one column at a
time, a receiver as its sender's ``JurisdictionId.parent``. ``reference_run``
derives the same records from the rules, and the tests that check a run
record by record read these. ``perturb`` is the noise rule drawn with
``randint``, as the engine draws it inline.

The trace and summary formatters render every record and summary item
field by field, with no table shared between lines: they pin the text that
``EventTrace.to_text`` and ``DetectionSummary.to_text`` produce from their
per-call tables. ``count_divergences`` expands a summary's divergence
column into one ``CountDivergence`` per line. ``trace_text`` renders the
records it is given, one line each; the reference run's own
``DetectRecord``s give it the detect lines that ``EventTrace.to_text``
derives from refused deliveries.
``reference_detection_report`` audits a trace against subtree truths
summed leaf by leaf; ``covered_truth_report`` against the truth of only
the leaves each published value covers, found by replaying the trace.

``feasibility_check`` applies the engine's acceptance checks to one
preliminary report over a ``SequenceState``; the feasibility tests
exercise it. ``reference_run`` at the end replays a ``Simulation``
from the rules in the engine's module docstring alone, the slow and literal
way: events on a (time, insertion counter) heap, a ``Report`` per emit,
dicts keyed by id, every child re-summed on every accept, and each
acceptance check spelled out. It shares no code with the engine's event
loop, nor with the sequence tracking the engine uses for replay protection,
and it records each refusal twice, as the delivery and as a ``DetectRecord``
of its own, which the engine's rows do not hold.
"""

from __future__ import annotations

import heapq
import itertools
import random
from array import array
from typing import Mapping, NamedTuple

from votewire.adversary import (
    AttackKind,
    CoverageGap,
    DetectEvent,
    DetectionSummary,
    apply_mutation,
)
from votewire.channels import POSTAL_FINAL
from votewire.counts import VoteCount, accumulate
from votewire.engine import NoiseModel, Simulation
from votewire.errors import ConfigError
from votewire.reports import Report, ReportKind, SequenceState
from votewire.tally import (
    Decision,
    MajorityRule,
    ReferendumSpec,
    cantonal_outcome,
    popular_outcome,
    referendum_outcome,
)
from votewire.traces import ATTACK, DELIVER, EMIT, PUBLISH, REFUSE, STRIDE, EventTrace
from votewire.tree import JurisdictionId, JurisdictionTree

DOUBLE = ReferendumSpec("oracle", MajorityRule.DOUBLE_MAJORITY)


class EmitRecord(NamedTuple):
    time: int
    node: JurisdictionId
    kind: ReportKind
    seq: int
    counts: VoteCount


class DeliverRecord(NamedTuple):
    """A report's arrival; ``reason`` is None when it was accepted."""

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
    """A running total released by the root, with the (child, seq, counts)
    entry of every child covered so far, in tree child order."""

    time: int
    node: JurisdictionId
    kind: ReportKind
    counts: VoteCount
    children: tuple[tuple[JurisdictionId, int, VoteCount], ...]


class DetectRecord(NamedTuple):
    """A receiver's refusal of a preliminary, as ``reference_run`` records it."""

    time: int
    node: JurisdictionId
    reason: str
    child: JurisdictionId
    seq: int


TraceRecord = EmitRecord | DeliverRecord | AttackRecord | PublishRecord


class CountDivergence(NamedTuple):
    """A covered child whose published preliminary disagrees with truth:
    one line of a summary's count divergences."""

    time: int
    child: JurisdictionId
    reported: VoteCount
    final: VoteCount


def count_divergences(summary: DetectionSummary) -> tuple[CountDivergence, ...]:
    """The summary's divergences, one per (publication, divergent child),
    each pair of its column resolved through ``divergent``."""
    column = summary.divergences.tolist()
    return tuple(
        CountDivergence(time, *summary.divergent[index])
        for time, index in zip(column[::2], column[1::2])
    )


def records(trace: EventTrace) -> tuple[TraceRecord, ...]:
    """The trace's rows as records, one per row, each column looked up on
    its own: ids from ``tree.order()``, a receiver as its sender's parent id."""
    order = trace.tree.order()
    rows = trace.rows.tolist()
    out: list[TraceRecord] = []
    for at in range(0, len(rows), STRIDE):
        tag, time, node, kind_code, seq, *counts, code = rows[at:at + STRIDE]
        kind = (ReportKind.PRELIMINARY, ReportKind.FINAL)[kind_code]
        sender = order[node]
        if tag == EMIT:
            out.append(EmitRecord(time, sender, kind, seq, VoteCount(*counts)))
        elif tag in (DELIVER, REFUSE):
            channel = POSTAL_FINAL.name if kind is ReportKind.FINAL else trace.channels[node]
            reason = trace.reasons[code] if tag == REFUSE else None
            out.append(
                DeliverRecord(
                    time, sender, sender.parent, channel, kind, seq, VoteCount(*counts), reason
                )
            )
        elif tag == PUBLISH:
            entries = tuple(
                (order[rows[e + 2]], rows[e + 4], VoteCount(*rows[e + 5:e + 9]))
                for e in (row * STRIDE for row in trace.entries[code:code + seq])
            )
            out.append(PublishRecord(time, sender, kind, VoteCount(*counts), entries))
        else:
            assert tag == ATTACK
            attack, mode, detail = trace.attacks[code]
            out.append(AttackRecord(time, attack, sender, sender.parent, mode, detail))
    return tuple(out)


def publishes(trace: EventTrace, kind: ReportKind | None = None) -> tuple[PublishRecord, ...]:
    """The trace's publications in trace order, or only those of ``kind``."""
    return tuple(
        r for r in records(trace)
        if isinstance(r, PublishRecord) and (kind is None or r.kind is kind)
    )


def final_publish(trace: EventTrace) -> PublishRecord:
    """The last final publication."""
    return publishes(trace, ReportKind.FINAL)[-1]


def perturb(noise: NoiseModel, counts: VoteCount, rng: random.Random) -> VoteCount:
    """``counts`` after ``noise``'s honest miscount, drawn with ``randint``."""
    if rng.random() >= noise.probability:
        return counts
    magnitude = rng.randint(1, noise.max_shift)
    if rng.random() < 0.5:
        moved = min(magnitude, counts.yes)
        return VoteCount(counts.yes - moved, counts.no + moved, counts.blank, counts.invalid)
    moved = min(magnitude, counts.no)
    return VoteCount(counts.yes + moved, counts.no - moved, counts.blank, counts.invalid)


def flip(counts: VoteCount, n: int, target: Decision) -> VoteCount:
    if target is Decision.ACCEPTED:
        return VoteCount(counts.yes + n, counts.no - n, counts.blank, counts.invalid)
    return VoteCount(counts.yes - n, counts.no + n, counts.blank, counts.invalid)


def opposing(counts: VoteCount, target: Decision) -> int:
    """Ballots a flip toward ``target`` can take from."""
    return counts.no if target is Decision.ACCEPTED else counts.yes


def scan_flips(counts: VoteCount, target: Decision) -> int | None:
    """Smallest k >= 1 of flips after which the tally reads ``target``."""
    for k in range(1, opposing(counts, target) + 1):
        if popular_outcome(flip(counts, k, target)) is target:
            return k
    return None


def popular_flips_scan(counts: VoteCount, target: Decision) -> int | None:
    """Linear-scan reference for the popular solver (0 when already at target)."""
    if popular_outcome(counts) is target:
        return 0
    return scan_flips(counts, target)


def _both_read(
    flipped: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> bool:
    return (
        popular_outcome(accumulate(flipped.values())) is target
        and cantonal_outcome(flipped, tree)[0] is target
    )


def cantonal_flips_subsets(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Subset-exhaustive reference for the cantonal solver."""
    if cantonal_outcome(per_canton, tree)[0] is target:
        return 0
    cantons = list(tree.cantons())
    best: int | None = None
    for r in range(1, len(cantons) + 1):
        for subset in itertools.combinations(cantons, r):
            total = 0
            flipped = dict(per_canton)
            ok = True
            for canton in subset:
                k = scan_flips(per_canton[canton], target)
                if k is None:
                    ok = False
                    break
                total += k
                flipped[canton] = flip(per_canton[canton], k, target)
            if not ok or (best is not None and total >= best):
                continue
            if cantonal_outcome(flipped, tree)[0] is target:
                best = total
    return best


def double_flips_vectors(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Fully exhaustive per-canton flip-vector search; tiny instances only.

    The popular and the cantonal tally must both read ``target``.
    """
    cantons = list(tree.cantons())
    pools = [opposing(per_canton[c], target) for c in cantons]
    best: int | None = None
    for vector in itertools.product(*(range(p + 1) for p in pools)):
        total = sum(vector)
        if best is not None and total >= best:
            continue
        flipped = {c: flip(per_canton[c], k, target) for c, k in zip(cantons, vector)}
        if _both_read(flipped, tree, target):
            best = total
    return best


def double_flips_subsets(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Subset-exhaustive reference for the double solver.

    For each candidate set of cantons to flip outright, tops the allocation
    up to the national requirement wherever ballots remain, then asks the
    tally whether both majorities read ``target``.
    """
    cantons = list(tree.cantons())
    best: int | None = None
    for r in range(len(cantons) + 1):
        for subset in itertools.combinations(cantons, r):
            base_total = 0
            flipped = dict(per_canton)
            ok = True
            for canton in subset:
                k = scan_flips(per_canton[canton], target)
                if k is None:
                    ok = False
                    break
                base_total += k
                flipped[canton] = flip(per_canton[canton], k, target)
            if not ok:
                continue
            extra = popular_flips_scan(accumulate(flipped.values()), target)
            if extra is None:
                continue
            total = base_total + extra
            if best is not None and total >= best:
                continue
            remaining = extra
            for canton in cantons:
                if remaining == 0:
                    break
                take = min(opposing(flipped[canton], target), remaining)
                if take:
                    flipped[canton] = flip(flipped[canton], take, target)
                    remaining -= take
            if remaining:
                continue
            if _both_read(flipped, tree, target):
                best = total
    return best


def outcome_flips_vectors(
    per_canton: Mapping[JurisdictionId, VoteCount],
    tree: JurisdictionTree,
    target: Decision,
) -> int | None:
    """Exhaustive reference for the double-majority outcome solver; tiny instances only.

    The cheapest per-canton flip vector after which the referendum's
    overall outcome reads ``target``.
    """
    cantons = list(tree.cantons())
    pools = [opposing(per_canton[c], target) for c in cantons]
    best: int | None = None
    for vector in itertools.product(*(range(p + 1) for p in pools)):
        total = sum(vector)
        if best is not None and total >= best:
            continue
        flipped = {c: flip(per_canton[c], k, target) for c, k in zip(cantons, vector)}
        if referendum_outcome(DOUBLE, flipped, tree).overall is target:
            best = total
    return best


def _counts_fields(counts: VoteCount) -> str:
    return (
        f"yes={counts.yes} no={counts.no} "
        f"blank={counts.blank} invalid={counts.invalid}"
    )


def trace_line(record: TraceRecord | DetectRecord) -> str:
    """One record's trace line, each field formatted on its own."""
    if isinstance(record, EmitRecord):
        time, node, kind, seq, counts = record
        return f"emit t={time} node={node} kind={kind.value} seq={seq} {_counts_fields(counts)}"
    if isinstance(record, DeliverRecord):
        time, sender, receiver, channel, kind, seq, counts, reason = record
        line = (
            f"deliver t={time} from={sender} to={receiver} "
            f"channel={channel} kind={kind.value} seq={seq} "
            f"{_counts_fields(counts)} accepted={str(record.accepted).lower()}"
        )
        if reason is not None:
            line += f" reason={reason}"
        return line
    if isinstance(record, AttackRecord):
        time, kind, sender, receiver, mode, detail = record
        return (
            f"attack t={time} kind={kind} from={sender} "
            f"to={receiver} mode={mode} detail={detail}"
        )
    if isinstance(record, DetectRecord):
        time, node, reason, child, seq = record
        return f"detect t={time} node={node} reason={reason} child={child} seq={seq}"
    assert isinstance(record, PublishRecord)
    time, node, kind, counts, children = record
    parts = ",".join(
        f"{child}:{seq}:{c.yes}:{c.no}:{c.blank}:{c.invalid}" for child, seq, c in children
    )
    return (
        f"publish t={time} node={node} kind={kind.value} "
        f"{_counts_fields(counts)} children={parts}"
    )


def trace_text(trace: EventTrace, lines_of: tuple[TraceRecord | DetectRecord, ...]) -> str:
    """``trace``'s header, one ``trace_line`` per record of ``lines_of``,
    and the footer.

    A trace holds no ``DetectRecord``: to render a run in full, give it the
    records of ``reference_run``."""
    lines = [f"trace election={trace.election_id} seed={trace.seed}"]
    lines.extend(trace_line(record) for record in lines_of)
    lines.append(f"end records={len(lines_of)}")
    return "\n".join(lines) + "\n"


def divergence_line(d: CountDivergence) -> str:
    return (
        f"  t={d.time} child={d.child} reported={d.reported.yes}:{d.reported.no}"
        f":{d.reported.blank}:{d.reported.invalid} final={d.final.yes}:{d.final.no}"
        f":{d.final.blank}:{d.final.invalid}"
    )


def _gap_line(g: CoverageGap) -> str:
    return f"  t={g.time} missing={','.join(str(m) for m in g.missing)}"


def _detect_line(event: DetectEvent) -> str:
    return (
        f"  t={event.time} node={event.node} reason={event.reason} child={event.child}"
        f" seq={event.seq}"
    )


def _capped(items, line, max_items: int) -> list[str]:
    lines = [line(item) for item in items]
    if max_items <= 0 or len(lines) <= max_items:
        return lines
    return [*lines[:max_items], f"  ... {len(lines) - max_items} more"]


def summary_text(summary: DetectionSummary, max_items: int = 10) -> str:
    divergences = count_divergences(summary)
    lines = [
        "detection summary",
        f"final matches ground truth: {str(summary.final_matches_ground_truth).lower()}",
        f"count divergences: {len(divergences)}",
        *_capped(divergences, divergence_line, max_items),
        f"coverage gaps: {len(summary.coverage_gaps)}",
        *_capped(summary.coverage_gaps, _gap_line, max_items),
        f"detect events: {len(summary.detects)}",
        *_capped(summary.detects, _detect_line, max_items),
        f"integrity gap ticks: {summary.integrity_gap_ticks}",
    ]
    return "\n".join(lines) + "\n"


def subtree_truth(trace: EventTrace, node: JurisdictionId) -> VoteCount:
    """Ground truth of ``node``'s subtree: every leaf under it, summed directly."""
    depth = len(node.path)
    return accumulate(
        trace.ground_truth[leaf] for leaf in trace.tree.leaves() if leaf.path[:depth] == node.path
    )


def _audit(trace: EventTrace, truth_of) -> DetectionSummary:
    """The summary of ``trace`` when ``truth_of(at, child)`` is the truth that
    the entry for ``child`` of the publication at ``records(trace)[at]`` must read.

    Each (child, seq) names one accepted delivery to the root, since the
    root accepts only a fresher seq from a child: it is numbered in
    ``divergent`` when a publication first lists it with counts that differ
    from its truth."""
    tree = trace.tree
    root_children = tree.children(tree.root)
    index_of: dict[tuple[JurisdictionId, int], int] = {}
    divergent, divergences, gaps = [], [], []
    listed = records(trace)
    for at, pub in enumerate(listed):
        if not isinstance(pub, PublishRecord) or pub.kind is not ReportKind.PRELIMINARY:
            continue
        covered = [child for child, _, _ in pub.children]
        for child, seq, counts in pub.children:
            truth = truth_of(at, child)
            if counts != truth:
                index = index_of.setdefault((child, seq), len(divergent))
                if index == len(divergent):
                    divergent.append((child, counts, truth))
                assert divergent[index] == (child, counts, truth)
                divergences += [pub.time, index]
        missing = tuple(child for child in root_children if child not in covered)
        if missing:
            gaps.append(CoverageGap(pub.time, missing))
    final = final_publish(trace)
    return DetectionSummary(
        divergent=tuple(divergent),
        divergences=memoryview(array("q", divergences)).toreadonly(),
        coverage_gaps=tuple(gaps),
        detects=tuple(
            DetectRecord(r.time, r.receiver, r.reason, r.sender, r.seq)
            for r in listed if isinstance(r, DeliverRecord) and r.reason is not None
        ),
        final_matches_ground_truth=final.counts == subtree_truth(trace, tree.root),
        integrity_gap_ticks=max(0, final.time - divergences[0]) if divergences else 0,
    )


def reference_detection_report(trace: EventTrace) -> DetectionSummary:
    """The summary ``detection_report`` must return, with each truth it
    compares summed by ``subtree_truth`` from the leaves."""
    return _audit(trace, lambda at, child: subtree_truth(trace, child))


def covered_leaves(trace: EventTrace) -> dict[tuple[int, JurisdictionId], frozenset]:
    """The leaves behind each entry of each preliminary publication, keyed by
    (record index, child), from a replay of the trace in record order.

    A leaf's emit covers the leaf. An internal node's emit covers the union
    of what its latest accepted report from each child covers, kept per
    report kind. An accepted delivery resolves its (sender, seq) to the emit
    behind it; a seq that no emit carries, a forgery, is charged with the
    sender's latest emit. A publication reads the root's accepted entries.
    """
    tree = trace.tree
    emitted: dict[tuple[JurisdictionId, int], frozenset] = {}
    latest: dict[JurisdictionId, frozenset] = {}
    accepted: dict[tuple[JurisdictionId, ReportKind], dict[JurisdictionId, frozenset]] = {}
    out: dict[tuple[int, JurisdictionId], frozenset] = {}
    for at, rec in enumerate(records(trace)):
        if isinstance(rec, EmitRecord):
            if tree.children(rec.node):
                leaves = frozenset().union(*accepted[rec.node, rec.kind].values())
            else:
                leaves = frozenset([rec.node])
            emitted[rec.node, rec.seq] = latest[rec.node] = leaves
        elif isinstance(rec, DeliverRecord) and rec.accepted:
            leaves = emitted.get((rec.sender, rec.seq), latest[rec.sender])
            accepted.setdefault((rec.receiver, rec.kind), {})[rec.sender] = leaves
        elif isinstance(rec, PublishRecord) and rec.kind is ReportKind.PRELIMINARY:
            for child, _, _ in rec.children:
                out[at, child] = accepted[rec.node, rec.kind][child]
    return out


def covered_truth_report(trace: EventTrace) -> DetectionSummary:
    """The summary with each published value compared with the summed truth
    of the leaves ``covered_leaves`` finds behind it, not of its whole subtree."""
    covered = covered_leaves(trace)
    return _audit(
        trace,
        lambda at, child: accumulate(trace.ground_truth[leaf] for leaf in covered[at, child]),
    )


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
    sender = report.sender
    if sender not in tree or sender.parent != receiver:
        return "unknown_sender"
    eligible = tree.eligible_voters.get(sender)
    if eligible is not None and report.counts.total() > eligible:
        return "over_eligible"
    if not seq_state.accept_if_fresh(sender, report.sequence_no):
        return "stale_sequence"
    return None


def reference_run(sim: Simulation) -> tuple[TraceRecord | DetectRecord, ...]:
    """The records ``sim.run()`` must produce, derived from the rules alone,
    with a ``DetectRecord`` after each refused delivery.

    Noise is drawn first, once per leaf in leaf order. Every leaf then
    schedules its preliminary, and after that every leaf its final. Ties on
    time run in scheduling order. An emit takes the sender's next sequence
    number, then its jitter draw, then the attacks on its edge and kind in
    configuration order; a forgery is scheduled before the genuine report.
    """
    tree = sim.tree
    rng = random.Random(sim.seed)
    records: list[TraceRecord | DetectRecord] = []
    counter = itertools.count()
    heap: list[tuple] = []
    next_seq: dict[JurisdictionId, int] = {}
    last_accepted: dict[JurisdictionId, int] = {}
    latest: dict[JurisdictionId, dict[JurisdictionId, tuple[int, VoteCount]]] = {}
    finals: dict[JurisdictionId, dict[JurisdictionId, tuple[int, VoteCount]]] = {}
    fires_left = [attack.first_n for attack in sim.attacks]

    def schedule(time: int, *event) -> None:
        heapq.heappush(heap, (time, next(counter), event))

    def entries(table: dict[JurisdictionId, tuple[int, VoteCount]], node: JurisdictionId):
        return tuple(
            (child, *table[child]) for child in tree.children(node) if child in table
        )

    def report_up(time: int, node: JurisdictionId, kind: ReportKind, counts: VoteCount) -> None:
        if node == tree.root:
            table = (finals if kind is ReportKind.FINAL else latest).get(node, {})
            records.append(PublishRecord(time, node, kind, counts, entries(table, node)))
            return
        seq = next_seq.get(node, 1)
        next_seq[node] = seq + 1
        records.append(EmitRecord(time, node, kind, seq, counts))
        report = Report(sim.election_id, node, seq, counts, kind, time)
        if kind is ReportKind.FINAL:
            delivery = time + sim.postal_latency
        else:
            delivery = time + sim.channels[node].base_latency
        if sim.jitter_max:
            delivery += rng.randint(0, sim.jitter_max)
        parent = node.parent
        for i, attack in enumerate(sim.attacks):
            if attack.edge_child != node or attack.report_kind is not kind or fires_left[i] == 0:
                continue
            if fires_left[i] is not None:
                fires_left[i] -= 1
            if attack.kind is AttackKind.TAMPER:
                try:
                    mutated = apply_mutation(report.counts, attack.mutation)
                except ValueError as exc:
                    raise ConfigError(f"tamper on edge {node}: {exc}") from None
                report = Report(sim.election_id, node, seq, mutated, kind, time)
            elif attack.kind is AttackKind.DELAY:
                delivery += attack.hold_ticks
            else:
                forged_seq = attack.forged_seq or seq + attack.seq_offset
                forged = Report(sim.election_id, node, forged_seq, attack.forged_counts, kind, time)
                schedule(delivery, receive, parent, forged)
            records.append(
                AttackRecord(time, attack.kind.value, node, parent, attack.mode, attack.describe())
            )
        schedule(delivery, receive, parent, report)

    def refusal(receiver: JurisdictionId, report: Report) -> str | None:
        sender = report.sender
        if sender not in tree or sender.parent != receiver:
            return "unknown_sender"
        eligible = tree.eligible_voters.get(sender)
        if eligible is not None and report.counts.total() > eligible:
            return "over_eligible"
        if report.sequence_no <= last_accepted.get(sender, 0):
            return "stale_sequence"
        return None

    def receive(time: int, receiver: JurisdictionId, report: Report) -> None:
        sender, seq, counts, kind = report.sender, report.sequence_no, report.counts, report.kind
        if kind is ReportKind.FINAL:
            records.append(
                DeliverRecord(time, sender, receiver, POSTAL_FINAL.name, kind, seq, counts)
            )
            table = finals.setdefault(receiver, {})
            table[sender] = (seq, counts)
            if len(table) == len(tree.children(receiver)):
                report_up(time, receiver, kind, accumulate(c for _, c in table.values()))
            return
        reason = refusal(receiver, report)
        channel = sim.channels[sender].name
        records.append(DeliverRecord(time, sender, receiver, channel, kind, seq, counts, reason))
        if reason is not None:
            records.append(DetectRecord(time, receiver, reason, sender, seq))
            return
        last_accepted[sender] = seq
        table = latest.setdefault(receiver, {})
        table[sender] = (seq, counts)
        report_up(time, receiver, kind, accumulate(c for _, _, c in entries(table, receiver)))

    leaves = tree.leaves()
    prelims = {}
    for leaf in leaves:
        counts = sim.ground_truth[leaf]
        prelims[leaf] = perturb(sim.noise, counts, rng) if sim.noise else counts
    for leaf in leaves:
        at = sim.prelim_emit.get(leaf, 0)
        schedule(at, report_up, leaf, ReportKind.PRELIMINARY, prelims[leaf])
    for leaf in leaves:
        at = sim.final_emit.get(leaf, sim.final_emit_default)
        schedule(at, report_up, leaf, ReportKind.FINAL, sim.ground_truth[leaf])
    while heap:
        time, _, (handle, *args) = heapq.heappop(heap)
        handle(time, *args)
    return tuple(records)
