"""Independent brute-force references that pin the solver results.

These deliberately avoid the solver code paths: selection is exhaustive
enumeration, costs come from a linear scan, and every candidate is decided
by applying its flips and asking the tally itself (``popular_outcome``,
``cantonal_outcome``, ``referendum_outcome``). No oracle restates a
majority or tie rule, so none can share a solver's mistake about one.

The trace and summary formatters render every record and summary item
field by field, with no table shared between lines: they pin the text that
``EventTrace.to_text`` and ``DetectionSummary.to_text`` produce from their
per-call tables.

``reference_run`` at the end replays a ``Simulation`` from the rules in the
engine's module docstring alone, the slow and literal way: events on a
(time, insertion counter) heap, a ``Report`` per emit, dicts keyed by id,
every child re-summed on every accept, and each acceptance check spelled
out. It shares no code with the engine's event loop.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Mapping

from votewire.adversary import (
    AttackKind,
    CountDivergence,
    CoverageGap,
    DetectionSummary,
    apply_mutation,
)
from votewire.counts import VoteCount, accumulate
from votewire.engine import Simulation
from votewire.errors import ConfigError
from votewire.reports import Report, ReportKind
from votewire.tally import (
    Decision,
    MajorityRule,
    ReferendumSpec,
    cantonal_outcome,
    popular_outcome,
    referendum_outcome,
)
from votewire.traces import (
    AttackRecord,
    DeliverRecord,
    DetectRecord,
    EmitRecord,
    EventTrace,
    PublishRecord,
    TraceRecord,
)
from votewire.tree import JurisdictionId, JurisdictionTree

DOUBLE = ReferendumSpec("oracle", MajorityRule.DOUBLE_MAJORITY)


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


def trace_line(record: TraceRecord) -> str:
    """One record's trace line, each field formatted on its own."""
    if isinstance(record, EmitRecord):
        time, node, kind, seq, counts = record
        return f"emit t={time} node={node} kind={kind.value} seq={seq} {_counts_fields(counts)}"
    if isinstance(record, DeliverRecord):
        time, sender, receiver, channel, kind, seq, counts, accepted, reason = record
        line = (
            f"deliver t={time} from={sender} to={receiver} "
            f"channel={channel} kind={kind.value} seq={seq} "
            f"{_counts_fields(counts)} accepted={str(accepted).lower()}"
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


def trace_text(trace: EventTrace) -> str:
    """The header, one ``trace_line`` per record, and the footer."""
    lines = [f"trace election={trace.election_id} seed={trace.seed}"]
    lines.extend(trace_line(record) for record in trace.records)
    lines.append(f"end records={len(trace.records)}")
    return "\n".join(lines) + "\n"


def divergence_line(d: CountDivergence) -> str:
    return (
        f"  t={d.time} child={d.child} reported={d.reported.yes}:{d.reported.no}"
        f":{d.reported.blank}:{d.reported.invalid} final={d.final.yes}:{d.final.no}"
        f":{d.final.blank}:{d.final.invalid}"
    )


def _gap_line(g: CoverageGap) -> str:
    return f"  t={g.time} missing={','.join(str(m) for m in g.missing)}"


def _detect_line(rec: DetectRecord) -> str:
    return f"  t={rec.time} node={rec.node} reason={rec.reason} child={rec.child} seq={rec.seq}"


def _capped(items, line, max_items: int) -> list[str]:
    lines = [line(item) for item in items]
    if max_items <= 0 or len(lines) <= max_items:
        return lines
    return [*lines[:max_items], f"  ... {len(lines) - max_items} more"]


def summary_text(summary: DetectionSummary, max_items: int = 10) -> str:
    lines = [
        "detection summary",
        f"final matches ground truth: {str(summary.final_matches_ground_truth).lower()}",
        f"count divergences: {len(summary.count_divergences)}",
        *_capped(summary.count_divergences, divergence_line, max_items),
        f"coverage gaps: {len(summary.coverage_gaps)}",
        *_capped(summary.coverage_gaps, _gap_line, max_items),
        f"detect events: {len(summary.detects)}",
        *_capped(summary.detects, _detect_line, max_items),
        f"integrity gap ticks: {summary.integrity_gap_ticks}",
    ]
    return "\n".join(lines) + "\n"


def reference_run(sim: Simulation) -> tuple[TraceRecord, ...]:
    """The records ``sim.run()`` must produce, derived from the rules alone.

    Noise is drawn first, once per leaf in leaf order. Every leaf then
    schedules its preliminary, and after that every leaf its final. Ties on
    time run in scheduling order. An emit takes the sender's next sequence
    number, then its jitter draw, then the attacks on its edge and kind in
    configuration order; a forgery is scheduled before the genuine report.
    """
    tree = sim.tree
    rng = random.Random(sim.seed)
    records: list[TraceRecord] = []
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
        channel = sim.postal if kind is ReportKind.FINAL else sim.channels[node]
        delivery = time + channel.base_latency
        if sim.jitter_max:
            delivery += rng.randint(0, sim.jitter_max)
        parent = tree.parent(node)
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
        if sender not in tree or tree.parent(sender) != receiver:
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
                DeliverRecord(time, sender, receiver, sim.postal.name, kind, seq, counts, True)
            )
            table = finals.setdefault(receiver, {})
            table[sender] = (seq, counts)
            if len(table) == len(tree.children(receiver)):
                report_up(time, receiver, kind, accumulate(c for _, c in table.values()))
            return
        reason = refusal(receiver, report)
        channel = sim.channels[sender].name
        accepted = reason is None
        records.append(
            DeliverRecord(time, sender, receiver, channel, kind, seq, counts, accepted, reason)
        )
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
        prelims[leaf] = sim.noise.perturb(counts, rng) if sim.noise else counts
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
