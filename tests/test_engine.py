"""Event-loop behavior: feasibility, forwarding, publication, determinism."""

import dataclasses
import gc
import hashlib
import importlib
import pkgutil
import random
import re
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import votewire
from helpers import fresh_interpreter, shuffled_tree_paths
from oracles import (
    AttackRecord,
    DeliverRecord,
    EmitRecord,
    PublishRecord,
    feasibility_check,
    final_publish,
    publishes,
    records,
)
from votewire import cli
from votewire.adversary import (
    AttackKind,
    AttackSpec,
    DetectEvent,
    DetectionSummary,
    Mutation,
    MutationKind,
    detection_report,
)
from votewire.channels import POSTAL_FINAL, preset, wrapped
from votewire.counts import MAX_COUNT, VoteCount, accumulate
from votewire.engine import DEFAULT_FINAL_EMIT_AT, NoiseModel, Simulation
from votewire.errors import ArithmeticOverflow, CapabilityError, ConfigError
from votewire.reports import Report, ReportKind, SequenceState
from votewire.scenario import bundled_scenario_path, load_scenario
from votewire.traces import (
    ATTACK, DELIVER, EMIT, FINAL, PUBLISH, REASONS, REFUSE, STRIDE, EventTrace,
)
from votewire.tree import JurisdictionId, JurisdictionTree, tree_from_paths

CH = JurisdictionId.of("CH")
A = JurisdictionId.of("CH", "A")
B = JurisdictionId.of("CH", "B")
REASON_OVER_ELIGIBLE, REASON_STALE_SEQUENCE = REASONS


def frozen_dataclasses() -> list[type]:
    """Every frozen dataclass that a module of the package defines."""
    found = []
    for module in pkgutil.walk_packages(votewire.__path__, "votewire."):
        for value in vars(importlib.import_module(module.name)).values():
            if (
                dataclasses.is_dataclass(value) and isinstance(value, type)
                and value.__module__ == module.name and value.__dataclass_params__.frozen
            ):
                found.append(value)
    return found


FROZEN = frozen_dataclasses()


def two_leaf_tree(eligible_a: int = 100, eligible_b: int = 100):
    return tree_from_paths(
        [("CH", "A"), ("CH", "B")], {A: 2, B: 2}, {A: eligible_a, B: eligible_b}
    )


def two_leaf_sim(**overrides) -> Simulation:
    base = dict(
        election_id="toy",
        tree=two_leaf_tree(),
        channels={A: preset("email"), B: preset("telephone")},
        ground_truth={A: VoteCount(30, 20), B: VoteCount(10, 40)},
        seed=7,
    )
    base.update(overrides)
    return Simulation(**base)


def refused(text: str):
    """Expect a ConfigError whose whole message is ``text``."""
    return pytest.raises(ConfigError, match=f"^{re.escape(text)}$")


def prelim_report(sender, seq, counts):
    return Report("toy", sender, seq, counts, ReportKind.PRELIMINARY, 0)


def seen(**last) -> SequenceState:
    """A sequence state that has already accepted ``last[name]`` from CH/<name>."""
    state = SequenceState("toy")
    for name, seq in last.items():
        assert state.accept_if_fresh(JurisdictionId.of("CH", name), seq)
    return state


class TestFeasibility:
    def test_accepts_a_plain_report(self):
        tree = two_leaf_tree()
        assert feasibility_check(prelim_report(A, 1, VoteCount(50, 50)), CH, tree, seen()) is None

    def test_unknown_sender(self):
        tree = two_leaf_tree()
        stranger = JurisdictionId.of("CH", "Z")
        assert feasibility_check(prelim_report(stranger, 1, VoteCount()), CH, tree, seen()) == "unknown_sender"

    def test_sibling_is_not_a_child(self):
        tree = two_leaf_tree()
        assert feasibility_check(prelim_report(A, 1, VoteCount()), B, tree, seen()) == "unknown_sender"

    def test_grandchild_is_not_a_child(self):
        deep = tree_from_paths([("CH", "A", "X")], eligible_voters={})
        x = JurisdictionId.of("CH", "A", "X")
        assert feasibility_check(prelim_report(x, 1, VoteCount()), CH, deep, seen()) == "unknown_sender"

    def test_total_above_eligible_fails(self):
        tree = two_leaf_tree(eligible_a=100)
        exactly = prelim_report(A, 1, VoteCount(60, 40))
        over = prelim_report(A, 1, VoteCount(60, 40, blank=1))
        assert feasibility_check(exactly, CH, tree, seen()) is None
        assert feasibility_check(over, CH, tree, seen()) == REASON_OVER_ELIGIBLE

    def test_unknown_eligible_means_no_ceiling(self):
        tree = tree_from_paths([("CH", "A"), ("CH", "B")])
        huge = prelim_report(A, 1, VoteCount(10**9, 0))
        assert feasibility_check(huge, CH, tree, seen()) is None

    def test_sequence_must_strictly_grow(self):
        tree = two_leaf_tree()
        state = seen(A=3)
        assert feasibility_check(prelim_report(A, 3, VoteCount()), CH, tree, state) == REASON_STALE_SEQUENCE
        assert feasibility_check(prelim_report(A, 2, VoteCount()), CH, tree, state) == REASON_STALE_SEQUENCE
        # A stale refusal leaves the last accepted number where it was.
        assert feasibility_check(prelim_report(A, 3, VoteCount()), CH, tree, state) == REASON_STALE_SEQUENCE
        assert feasibility_check(prelim_report(A, 4, VoteCount()), CH, tree, state) is None

    def test_accept_uses_up_the_sequence_number(self):
        tree = two_leaf_tree()
        state = seen()
        assert feasibility_check(prelim_report(A, 5, VoteCount()), CH, tree, state) is None
        assert feasibility_check(prelim_report(A, 5, VoteCount()), CH, tree, state) == REASON_STALE_SEQUENCE

    def test_refused_report_does_not_use_up_its_sequence_number(self):
        # Only an accept records a sequence number, as in verify_report.
        tree = two_leaf_tree(eligible_a=100)
        state = seen()
        over = prelim_report(A, 5, VoteCount(100, 1))
        assert feasibility_check(over, CH, tree, state) == REASON_OVER_ELIGIBLE
        misrouted = prelim_report(A, 5, VoteCount(1, 1))
        assert feasibility_check(misrouted, B, tree, state) == "unknown_sender"
        assert feasibility_check(prelim_report(A, 5, VoteCount(1, 1)), CH, tree, state) is None

    def test_unknown_sender_wins_over_other_reasons(self):
        tree = two_leaf_tree(eligible_a=1)
        stranger = JurisdictionId.of("CH", "Z")
        report = prelim_report(stranger, 0 + 1, VoteCount(5, 5))
        assert feasibility_check(report, CH, tree, seen(Z=9)) == "unknown_sender"


class TestHonestRun:
    def test_final_publication_equals_ground_truth_sum(self):
        sim = two_leaf_sim()
        trace = sim.run()
        final = final_publish(trace)
        assert final.counts == accumulate(sim.ground_truth.values())
        assert final.counts == VoteCount(40, 60)

    def test_coverage_grows_monotonically(self):
        trace = two_leaf_sim().run()
        seen: set[JurisdictionId] = set()
        for pub in publishes(trace, ReportKind.PRELIMINARY):
            covered = {child for child, _, _ in pub.children}
            assert covered >= seen
            seen = covered
        assert seen == {A, B}

    def test_publish_totals_match_listed_children(self):
        for pub in publishes(two_leaf_sim().run()):
            assert pub.counts == accumulate(c for _, _, c in pub.children)

    def test_clean_run_has_no_divergences_or_detects(self):
        summary = detection_report(two_leaf_sim().run())
        assert summary.clean()
        assert summary.final_matches_ground_truth
        assert summary.integrity_gap_ticks == 0

    def test_emit_times_respect_configuration(self):
        trace = two_leaf_sim(prelim_emit={A: 4}, final_emit={B: 60}).run()
        emits = {(r.node, r.kind): r.time for r in records(trace) if isinstance(r, EmitRecord)}
        assert emits[(A, ReportKind.PRELIMINARY)] == 4
        assert emits[(B, ReportKind.PRELIMINARY)] == 0
        assert emits[(B, ReportKind.FINAL)] == 60
        assert emits[(A, ReportKind.FINAL)] == 100


class TestEventOrder:
    def test_same_tick_events_run_in_scheduling_order(self):
        # Both preliminaries leave at t=0 over a 0-latency channel, so each
        # delivery joins tick 0 behind everything already queued there: both
        # emits first, then A's delivery and publication, then B's.
        instant = preset("email", 0)
        trace = two_leaf_sim(channels={A: instant, B: instant}).run()
        assert [oracles.trace_line(r) for r in records(trace) if r.time == 0] == [
            "emit t=0 node=CH/A kind=preliminary seq=1 yes=30 no=20 blank=0 invalid=0",
            "emit t=0 node=CH/B kind=preliminary seq=1 yes=10 no=40 blank=0 invalid=0",
            "deliver t=0 from=CH/A to=CH channel=email kind=preliminary seq=1"
            " yes=30 no=20 blank=0 invalid=0 accepted=true",
            "publish t=0 node=CH kind=preliminary yes=30 no=20 blank=0 invalid=0"
            " children=CH/A:1:30:20:0:0",
            "deliver t=0 from=CH/B to=CH channel=email kind=preliminary seq=1"
            " yes=10 no=40 blank=0 invalid=0 accepted=true",
            "publish t=0 node=CH kind=preliminary yes=40 no=60 blank=0 invalid=0"
            " children=CH/A:1:30:20:0:0,CH/B:1:10:40:0:0",
        ]


class TestDeepHierarchy:
    def build(self):
        BE = JurisdictionId.of("CH", "BE")
        X = JurisdictionId.of("CH", "BE", "X")
        Y = JurisdictionId.of("CH", "BE", "Y")
        VD = JurisdictionId.of("CH", "VD")
        tree = tree_from_paths(
            [("CH", "BE", "X"), ("CH", "BE", "Y"), ("CH", "VD")],
            {BE: 2, VD: 2},
            {X: 50, Y: 50, VD: 80},
        )
        sim = Simulation(
            election_id="deep",
            tree=tree,
            channels={
                X: preset("email"),
                Y: preset("fax"),
                BE: preset("dedicated"),
                VD: preset("dedicated"),
            },
            ground_truth={X: VoteCount(20, 5), Y: VoteCount(10, 15), VD: VoteCount(30, 40)},
            seed=1,
        )
        return sim, BE, X, Y, VD

    def test_intermediate_forwards_in_the_same_tick(self):
        sim, BE, X, Y, VD = self.build()
        trace = sim.run()
        accepted_at_be = [
            r for r in records(trace)
            if isinstance(r, DeliverRecord)
            and r.receiver == BE and r.accepted and r.kind is ReportKind.PRELIMINARY
        ]
        be_emits = [
            r for r in records(trace)
            if isinstance(r, EmitRecord) and r.node == BE and r.kind is ReportKind.PRELIMINARY
        ]
        # One upward emission per accepted report, at the acceptance tick.
        assert [r.time for r in accepted_at_be] == [r.time for r in be_emits]
        assert [r.seq for r in be_emits] == [1, 2]

    def test_replacement_totals_supersede_older_reports(self):
        sim, BE, X, Y, VD = self.build()
        trace = sim.run()
        last = publishes(trace, ReportKind.PRELIMINARY)[-1]
        by_child = {child: (seq, counts) for child, seq, counts in last.children}
        # BE's second report (X+Y) replaced its first (X only).
        assert by_child[BE] == (2, VoteCount(30, 20))
        assert last.counts == VoteCount(60, 60)

    def test_final_cascades_once_children_complete(self):
        sim, BE, X, Y, VD = self.build()
        trace = sim.run()
        be_final_emits = [
            r for r in records(trace)
            if isinstance(r, EmitRecord) and r.node == BE and r.kind is ReportKind.FINAL
        ]
        assert len(be_final_emits) == 1
        assert final_publish(trace).counts == VoteCount(60, 60)

    def test_subtree_ground_truth_helper(self):
        sim, BE, X, Y, VD = self.build()
        trace = sim.run()
        assert oracles.subtree_truth(trace, BE) == VoteCount(30, 20)
        assert oracles.subtree_truth(trace, VD) == VoteCount(30, 40)
        assert oracles.subtree_truth(trace, sim.tree.root) == VoteCount(60, 60)


class TestRootPublication:
    def test_publishes_in_child_order_whatever_the_arrival_order(self):
        # C reports first, then A's subtree twice (X, then Y), then B; the
        # root lists its children in tree order, A's entry replaced in place.
        x, y = JurisdictionId.of("CH", "A", "X"), JurisdictionId.of("CH", "A", "Y")
        c = JurisdictionId.of("CH", "C")
        tree = tree_from_paths([x.path, y.path, B.path, c.path])
        sim = Simulation(
            election_id="toy",
            tree=tree,
            channels={n: preset("email") for n in tree.order() if n != CH},
            ground_truth={x: VoteCount(1, 0), y: VoteCount(2, 0), B: VoteCount(0, 3), c: VoteCount(4, 0)},
            prelim_emit={c: 0, x: 10, y: 20, B: 30},
            final_emit={c: 100, B: 110, y: 120, x: 130},
        )
        trace = sim.run()
        prelims = [
            [(child, seq) for child, seq, _ in pub.children]
            for pub in publishes(trace, ReportKind.PRELIMINARY)
        ]
        assert prelims == [[(c, 1)], [(A, 1), (c, 1)], [(A, 2), (c, 1)], [(A, 2), (B, 1), (c, 1)]]
        (final,) = publishes(trace, ReportKind.FINAL)
        assert [child for child, _, _ in final.children] == [A, B, c]
        assert final.counts == VoteCount(7, 3)


class TestImmutableRecords:
    """A trace's and a summary's columns are read-only, and no frozen
    dataclass takes a new field."""

    TAGS = {
        "EmitRecord": EMIT,
        "DeliverRecord": DELIVER,
        "AttackRecord": ATTACK,
        "PublishRecord": PUBLISH,
    }

    @pytest.mark.parametrize("record", TAGS)
    def test_fields_cannot_be_reassigned_or_added(self, record):
        trace = attack_heavy_sim().run()
        at = trace.rows[::STRIDE].tolist().index(self.TAGS[record]) * STRIDE
        for column in range(at, at + STRIDE):
            with pytest.raises(TypeError):
                trace.rows[column] = 0
        for name in ("rows", "note"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, name, None)

    def test_a_summarys_divergence_column_is_read_only(self):
        summary = detection_report(attack_heavy_sim().run())
        assert summary.divergences.format == "q" and len(summary.divergences) % 2 == 0
        with pytest.raises(TypeError):
            summary.divergences[0] = 0

    @pytest.mark.parametrize("frozen", FROZEN, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
    def test_no_frozen_dataclass_takes_a_new_attribute(self, frozen):
        # A frozen dataclass refuses in __setattr__, before it reads any
        # field, so an instance made without __init__ serves.
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'note'$"):
            setattr(object.__new__(frozen), "note", 1)


class TestAttacksInTheLoop:
    def test_tamper_changes_prelim_but_never_final(self):
        attack = AttackSpec(
            AttackKind.TAMPER, A, mutation=Mutation(MutationKind.SWAP_YES_NO)
        )
        sim = two_leaf_sim(attacks=(attack,))
        trace = sim.run()
        last_prelim = publishes(trace, ReportKind.PRELIMINARY)[-1]
        assert last_prelim.counts == VoteCount(30, 70)
        assert final_publish(trace).counts == VoteCount(40, 60)
        summary = detection_report(trace)
        assert [d.child for d in oracles.count_divergences(summary)] == [A, A]
        assert summary.final_matches_ground_truth
        assert summary.integrity_gap_ticks > 0

    def test_front_run_wins_and_genuine_is_stale(self):
        attack = AttackSpec(AttackKind.FRONT_RUN, B, forged_counts=VoteCount(90, 1))
        trace = two_leaf_sim(attacks=(attack,)).run()
        deliveries = [
            r for r in records(trace)
            if isinstance(r, DeliverRecord) and r.sender == B and r.kind is ReportKind.PRELIMINARY
        ]
        assert [d.accepted for d in deliveries] == [True, False]
        assert deliveries[0].seq == 1001 and deliveries[1].seq == 1
        assert deliveries[1].reason == "stale_sequence"
        # The refused delivery is the detect event.
        assert detection_report(trace).detects == (DetectEvent(3, CH, "stale_sequence", B, 1),)
        assert deliveries[1].time == 3

    def test_delay_leaves_counts_alone(self):
        attack = AttackSpec(AttackKind.DELAY, B, hold_ticks=50)
        trace = two_leaf_sim(attacks=(attack,)).run()
        summary = detection_report(trace)
        assert not summary.divergences
        assert any(B in gap.missing for gap in summary.coverage_gaps)
        covered_times = [
            pub.time
            for pub in publishes(trace, ReportKind.PRELIMINARY)
            if any(child == B for child, _, _ in pub.children)
        ]
        assert covered_times and covered_times[0] == 53

    def test_final_publish_skips_a_later_preliminary_publication(self):
        # A's preliminary is held until after both finals reach the root, so
        # the root publishes it last; the final publication is still found.
        attack = AttackSpec(AttackKind.DELAY, A, hold_ticks=1000)
        trace = two_leaf_sim(attacks=(attack,)).run()
        last = records(trace)[-1]
        assert isinstance(last, PublishRecord) and last.kind is ReportKind.PRELIMINARY
        final = final_publish(trace)
        assert final.kind is ReportKind.FINAL and final.time < last.time
        assert final == publishes(trace, ReportKind.FINAL)[-1]
        assert final.counts == VoteCount(40, 60)

    def test_delayed_final_postpones_publication(self):
        attack = AttackSpec(
            AttackKind.DELAY, A, report_kind=ReportKind.FINAL, hold_ticks=500
        )
        trace = two_leaf_sim(attacks=(attack,)).run()
        assert final_publish(trace).time == 648
        assert final_publish(trace).counts == VoteCount(40, 60)

    def test_absurd_tamper_is_caught_by_feasibility(self):
        # The eligibility ceiling stops tampered totals that claim more
        # ballots than the canton has voters.
        attack = AttackSpec(
            AttackKind.TAMPER, A,
            mutation=Mutation(MutationKind.SET_COUNTS, counts=VoteCount(10**6, 0)),
        )
        trace = two_leaf_sim(attacks=(attack,)).run()
        rejected = [
            r for r in records(trace)
            if isinstance(r, DeliverRecord) and not r.accepted
        ]
        assert [r.reason for r in rejected] == ["over_eligible"]
        assert all(
            child != A
            for pub in publishes(trace, ReportKind.PRELIMINARY)
            for child, _, _ in pub.children
        )

    def test_first_n_limits_how_often_an_attack_fires(self):
        BE = JurisdictionId.of("CH", "BE")
        X = JurisdictionId.of("CH", "BE", "X")
        Y = JurisdictionId.of("CH", "BE", "Y")
        tree = tree_from_paths([("CH", "BE", "X"), ("CH", "BE", "Y")], {BE: 2})
        baseline = dict(
            election_id="toy",
            tree=tree,
            channels={X: preset("email"), Y: preset("email"), BE: preset("email")},
            ground_truth={X: VoteCount(5, 0), Y: VoteCount(5, 0)},
            seed=0,
            prelim_emit={Y: 10},
        )
        swap = Mutation(MutationKind.SWAP_YES_NO)
        once = Simulation(
            attacks=(AttackSpec(AttackKind.TAMPER, BE, mutation=swap, first_n=1),), **baseline
        ).run()
        always = Simulation(
            attacks=(AttackSpec(AttackKind.TAMPER, BE, mutation=swap, first_n=None),), **baseline
        ).run()
        assert publishes(once, ReportKind.PRELIMINARY)[-1].counts == VoteCount(10, 0)
        assert publishes(always, ReportKind.PRELIMINARY)[-1].counts == VoteCount(0, 10)

    def test_several_attacks_on_one_edge_fire_in_configuration_order(self):
        tamper = AttackSpec(AttackKind.TAMPER, A, mutation=Mutation(MutationKind.SWAP_YES_NO))
        front_run = AttackSpec(AttackKind.FRONT_RUN, A, forged_counts=VoteCount(90, 1))
        hold_final = AttackSpec(AttackKind.DELAY, A, report_kind=ReportKind.FINAL, hold_ticks=30)
        trace = two_leaf_sim(attacks=(tamper, front_run, hold_final)).run()
        attacks = [r for r in records(trace) if isinstance(r, AttackRecord)]
        assert attacks == [
            AttackRecord(0, "tamper", A, CH, "blind", "swap_yes_no"),
            AttackRecord(0, "front_run", A, CH, "blind", "forged_seq_offset:1000"),
            AttackRecord(100, "delay", A, CH, "blind", "hold:30"),
        ]
        from_a = [r for r in records(trace) if isinstance(r, DeliverRecord) and r.sender == A]
        assert [(r.time, r.kind, r.seq, r.counts, r.accepted) for r in from_a] == [
            # The forgery arrives first; the genuine report behind it carries
            # the tampered counts and is refused as stale.
            (1, ReportKind.PRELIMINARY, 1001, VoteCount(90, 1), True),
            (1, ReportKind.PRELIMINARY, 1, VoteCount(20, 30), False),
            # Only the final is held: 100 + 48 postal ticks + 30.
            (178, ReportKind.FINAL, 2, VoteCount(30, 20), True),
        ]
        assert final_publish(trace).time == 178

        swapped = two_leaf_sim(attacks=(front_run, tamper, hold_final)).run()
        assert [r.kind for r in records(swapped) if isinstance(r, AttackRecord)] == [
            "front_run", "tamper", "delay",
        ]
        assert [r for r in records(swapped) if isinstance(r, DeliverRecord)] == [
            r for r in records(trace) if isinstance(r, DeliverRecord)
        ]

    def test_pinned_forged_seq_reaches_the_receiver(self):
        pinned = AttackSpec(AttackKind.FRONT_RUN, A, forged_counts=VoteCount(90, 1), forged_seq=5)
        trace = two_leaf_sim(attacks=(pinned,)).run()
        assert [r for r in records(trace) if isinstance(r, AttackRecord)] == [
            AttackRecord(0, "front_run", A, CH, "blind", "forged_seq:5"),
        ]
        from_a = [r for r in records(trace) if isinstance(r, DeliverRecord) and r.sender == A]
        assert [(r.time, r.kind, r.seq, r.counts, r.accepted, r.reason) for r in from_a] == [
            (1, ReportKind.PRELIMINARY, 5, VoteCount(90, 1), True, None),
            (1, ReportKind.PRELIMINARY, 1, VoteCount(30, 20), False, REASON_STALE_SEQUENCE),
            (148, ReportKind.FINAL, 2, VoteCount(30, 20), True, None),
        ]
        first = publishes(trace, ReportKind.PRELIMINARY)[0]
        assert first.children == ((A, 5, VoteCount(90, 1)),)

    def test_attack_on_unknown_edge_rejected_at_build(self):
        ghost = JurisdictionId.of("CH", "GHOST")
        with refused("field 'attacks[0].edge': unknown jurisdiction 'CH/GHOST'"):
            two_leaf_sim(attacks=(AttackSpec(AttackKind.DELAY, ghost, hold_ticks=5),))

    def test_wrapped_channel_rejects_tamper_at_build(self):
        attack = AttackSpec(AttackKind.TAMPER, A, mutation=Mutation(MutationKind.SWAP_YES_NO))
        with pytest.raises(CapabilityError):
            two_leaf_sim(
                channels={A: wrapped(preset("email")), B: preset("telephone")},
                attacks=(attack,),
            )


class TestNoise:
    def test_noise_preserves_totals_and_spares_finals(self):
        sim = two_leaf_sim(noise=NoiseModel(probability=1.0, max_shift=5), seed=3)
        trace = sim.run()
        first_emits = {
            r.node: r.counts
            for r in records(trace)
            if isinstance(r, EmitRecord) and r.kind is ReportKind.PRELIMINARY
        }
        for leaf, counts in first_emits.items():
            assert counts.total() == sim.ground_truth[leaf].total()
        assert final_publish(trace).counts == VoteCount(40, 60)

    def test_zero_probability_is_a_no_op(self):
        quiet = NoiseModel(probability=0.0, max_shift=5)
        sim = two_leaf_sim(noise=quiet)
        assert prelim_emits(sim) == prelim_emits(two_leaf_sim())
        assert prelim_emits(sim) == dict(sim.ground_truth)

    def test_shift_clamps_to_the_source_side(self):
        loud = NoiseModel(probability=1.0, max_shift=50)
        truth = {A: VoteCount(3, 2), B: VoteCount(0, 1, 2, 3)}
        moved = set()
        for seed in range(20):
            sim = two_leaf_sim(noise=loud, seed=seed, ground_truth=truth)
            for leaf, counts in prelim_emits(sim).items():
                assert counts.total() == truth[leaf].total()
                assert counts[2:] == truth[leaf][2:]
                moved.add(counts)
        # Each side is emptied onto the other: the shift is clamped, never wrapped.
        assert {VoteCount(0, 5), VoteCount(5, 0), VoteCount(1, 0, 2, 3)} <= moved

    @pytest.mark.parametrize("max_shift", [1, 2, 3, 7, 8, 63, 64, 1000, 2**40])
    def test_the_inlined_draws_equal_randints(self, max_shift):
        # The run draws each shift by randrange's own rule; the oracle calls
        # randint. Counts wide enough that no shift is clamped.
        noise = NoiseModel(probability=0.5, max_shift=max_shift)
        wide = {A: VoteCount(2**41, 2**41), B: VoteCount(2**41 + 1, 2**41 + 2)}
        tree = tree_from_paths([A.path, B.path])
        for seed in range(200):
            sim = two_leaf_sim(noise=noise, seed=seed, tree=tree, ground_truth=wide)
            rng = random.Random(seed)
            expected = {leaf: oracles.perturb(noise, wide[leaf], rng) for leaf in (A, B)}
            assert prelim_emits(sim) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(probability=1.5, max_shift=1)
        with pytest.raises(ValueError):
            NoiseModel(probability=0.5, max_shift=0)


def prelim_emits(sim: Simulation) -> dict[JurisdictionId, VoteCount]:
    """Each leaf's preliminary counts, as the run emits them."""
    leaves = set(sim.tree.leaves())
    return {
        r.node: r.counts
        for r in records(sim.run())
        if isinstance(r, EmitRecord) and r.kind is ReportKind.PRELIMINARY and r.node in leaves
    }


class TestSimulationValidation:
    def test_ground_truth_must_cover_leaves_exactly(self):
        with refused("field 'ground_truth': missing leaves ['CH/B']"):
            two_leaf_sim(ground_truth={A: VoteCount(1, 0)})
        with refused("field 'ground_truth': non-leaf entries ['CH']"):
            two_leaf_sim(
                ground_truth={
                    A: VoteCount(1, 0),
                    B: VoteCount(1, 0),
                    JurisdictionId.of("CH"): VoteCount(1, 0),
                }
            )

    def test_ground_truth_above_eligible_voters_rejected(self):
        # Used to run: every preliminary from A was refused as over_eligible
        # and the final published the impossible 31:21 as matching the truth.
        tree = tree_from_paths([("CH", "A"), ("CH", "B")], eligible_voters={A: 10})
        with refused("field 'ground_truth.CH/A': total 50 exceeds 10 eligible voters"):
            two_leaf_sim(tree=tree, ground_truth={A: VoteCount(30, 20), B: VoteCount(1, 1)})

    def test_a_non_leaf_entry_is_refused_before_its_ceiling(self):
        # A scenario file said "non-leaf entries" for this run, while the
        # same run built in Python said its total exceeded CH/A's voters.
        x = JurisdictionId.of("CH", "A", "X")
        tree = tree_from_paths([x.path, B.path], eligible_voters={A: 5})
        with refused("field 'ground_truth': non-leaf entries ['CH/A']"):
            Simulation(
                election_id="toy",
                tree=tree,
                channels={n: preset("email") for n in tree.order()[1:]},
                ground_truth={x: VoteCount(1, 0), A: VoteCount(9, 0), B: VoteCount(0, 1)},
            )

    def test_of_two_leaves_over_their_voters_the_first_in_the_truth_is_named(self):
        # The check reads the tree's voter column, but names a fault in the
        # caller's order: CH/B is listed first here, CH/A first in the tree.
        tree = tree_from_paths([A.path, B.path], eligible_voters={A: 1, B: 2})
        with refused("field 'ground_truth.CH/B': total 7 exceeds 2 eligible voters"):
            two_leaf_sim(tree=tree, ground_truth={B: VoteCount(7, 0), A: VoteCount(5, 0)})
        with refused("field 'ground_truth.CH/A': total 5 exceeds 1 eligible voters"):
            two_leaf_sim(tree=tree, ground_truth={A: VoteCount(5, 0), B: VoteCount(7, 0)})

    def test_of_two_edges_without_a_channel_the_first_in_order_is_named(self):
        # The tree lists CH/C before CH/A, and so does the refusal.
        c = JurisdictionId.of("CH", "C")
        tree = JurisdictionTree([c.path, A.path, B.path])
        with refused("field 'channels': no channel for edge CH/C and no default_channel"):
            Simulation(
                election_id="toy",
                tree=tree,
                channels={B: preset("email")},
                ground_truth={A: VoteCount(1, 0), B: VoteCount(0, 1), c: VoteCount(1, 1)},
            )

    def test_empty_election_id_rejected(self):
        # Used to build, then fail mid-run when the first report was emitted.
        with refused("field 'election_id' must be a non-empty string"):
            two_leaf_sim(election_id="")

    def test_every_edge_needs_a_channel(self):
        with refused("field 'channels': no channel for edge CH/B and no default_channel"):
            two_leaf_sim(channels={A: preset("email")})

    def test_single_node_tree_rejected(self):
        lonely = tree_from_paths([("CH",)])
        with refused("field 'tree': simulation needs at least one reporting edge"):
            Simulation(
                election_id="toy", tree=lonely, channels={}, ground_truth={}
            )

    def test_negative_emit_time_rejected(self):
        with refused("field 'timing.prelim_emit.CH/A' must be >= 0"):
            two_leaf_sim(prelim_emit={A: -1})

    def test_negative_final_emit_default_rejected(self):
        # Used to build, then fail mid-run when the first final was emitted.
        with refused("field 'timing.final_emit_default' must be >= 0"):
            two_leaf_sim(final_emit_default=-5)

    def test_negative_seed_rejected(self):
        # random.Random(-3) seeds like random.Random(3), so the run would
        # be seed 3's while its trace header said seed=-3.
        with refused("field 'seed' must be >= 0"):
            two_leaf_sim(seed=-3)

    def test_negative_postal_latency_rejected(self):
        with refused("field 'postal_latency' must be >= 0"):
            two_leaf_sim(postal_latency=-1)

    def test_inputs_edited_after_construction_do_not_reach_the_run(self):
        # Used to run what the caller edited after the checks: a preliminary
        # at t=-5, a truth over A's 100 voters, an attack never checked.
        truth, prelim_emit, attacks = {A: VoteCount(30, 20), B: VoteCount(10, 40)}, {}, []
        sim = two_leaf_sim(ground_truth=truth, prelim_emit=prelim_emit, attacks=attacks)
        first = sim.run()
        text, summary = first.to_text(), detection_report(first).to_text()
        truth[A] = VoteCount(10**6, 0)
        prelim_emit[B] = -5
        attacks.append(AttackSpec(AttackKind.DELAY, A, hold_ticks=3))
        assert first.to_text() == sim.run().to_text() == text
        assert detection_report(first).to_text() == summary
        with pytest.raises(TypeError):
            sim.ground_truth[A] = VoteCount(10**6, 0)

    def test_finals_ride_the_signed_postal_channel(self):
        sim = two_leaf_sim(postal_latency=10)
        assert sim.postal_latency == 10
        finals = [
            r for r in records(sim.run())
            if isinstance(r, DeliverRecord) and r.kind is ReportKind.FINAL
        ]
        assert {(r.sender, r.channel) for r in finals} == {(A, "postal_final"), (B, "postal_final")}
        assert [r.time for r in finals] == [DEFAULT_FINAL_EMIT_AT + 10] * 2

    def test_emit_time_on_a_non_leaf_rejected(self):
        # Only leaves emit; an inner node's entry would be silently ignored.
        x, y, z = (JurisdictionId.of("CH", *rest) for rest in (("A", "X"), ("A", "Y"), ("B", "Z")))
        tree = tree_from_paths([x.path, y.path, z.path])
        base = dict(
            election_id="toy",
            tree=tree,
            channels={n: preset("email") for n in tree.order() if n != CH},
            ground_truth={x: VoteCount(1, 0), y: VoteCount(2, 0), z: VoteCount(0, 3)},
        )
        with refused("field 'timing.prelim_emit.CH/A': not a leaf; only leaves emit reports"):
            Simulation(**base, prelim_emit={A: 50})
        with refused("field 'timing.final_emit.CH': not a leaf; only leaves emit reports"):
            Simulation(**base, final_emit={CH: 7})
        Simulation(**base, prelim_emit={x: 50}, final_emit={z: 7}).run()


class TestDeterminism:
    def test_same_seed_same_trace_bytes(self):
        kwargs = dict(
            noise=NoiseModel(probability=0.5, max_shift=9),
            jitter_max=4,
            seed=123,
            attacks=(AttackSpec(AttackKind.DELAY, B, hold_ticks=7),),
        )
        first = two_leaf_sim(**kwargs).run().to_text()
        second = two_leaf_sim(**kwargs).run().to_text()
        assert first == second

    def test_different_seeds_change_jittered_runs(self):
        texts = {
            two_leaf_sim(jitter_max=10, seed=seed).run().to_text() for seed in range(8)
        }
        assert len(texts) > 1

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_seed_reproducibility_holds_for_any_seed(self, seed):
        sim = lambda: two_leaf_sim(
            seed=seed, jitter_max=6, noise=NoiseModel(probability=0.3, max_shift=4)
        )
        assert sim().run().to_text() == sim().run().to_text()

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_conservation_survives_noise_and_jitter(self, seed):
        sim = two_leaf_sim(
            seed=seed, jitter_max=6, noise=NoiseModel(probability=0.7, max_shift=25)
        )
        assert final_publish(sim.run()).counts == VoteCount(40, 60)


@st.composite
def random_simulations(draw, max_depth: int | None = None) -> Simulation:
    """A small run on an uneven tree of 2 to 4 levels, with attacks and noise.

    Children are listed in a drawn order, as in ``test_tree.shuffled_trees``:
    a run that took a child's slot from sorted ids or from its rank in
    ``order()`` would then differ from the reference.
    """
    paths = draw(shuffled_tree_paths(max_depth))
    leaves = [JurisdictionId(p) for p in paths]
    edges = sorted({JurisdictionId(p[:i]) for p in paths for i in range(2, len(p) + 1)}, key=str)
    small_counts = st.builds(
        VoteCount, st.integers(0, 40), st.integers(0, 40), st.integers(0, 3), st.integers(0, 2)
    )
    truth = {leaf: draw(small_counts) for leaf in leaves}
    eligible = {leaf: truth[leaf].total() + draw(st.integers(0, 20)) for leaf in leaves}
    presets = [
        preset(name, latency)
        for name in ("telephone", "fax", "email", "dedicated")
        for latency in (None, 0)
    ]
    channels = {edge: draw(st.sampled_from(presets)) for edge in edges}
    emit_times = st.dictionaries(st.sampled_from(leaves), st.integers(0, 30))
    attacks = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(AttackKind))
        common = dict(
            edge_child=draw(st.sampled_from(edges)), first_n=draw(st.sampled_from([None, 1, 2]))
        )
        if kind is AttackKind.TAMPER:
            mutation = draw(
                st.sampled_from([Mutation(MutationKind.SWAP_YES_NO)])
                | small_counts.map(lambda c: Mutation(MutationKind.SET_COUNTS, counts=c))
            )
            attacks.append(AttackSpec(kind, mutation=mutation, **common))
        elif kind is AttackKind.DELAY:
            report_kind = draw(st.sampled_from(ReportKind))
            hold = draw(st.integers(1, 60))
            attacks.append(AttackSpec(kind, report_kind=report_kind, hold_ticks=hold, **common))
        else:
            forged_seq = draw(st.none() | st.integers(1, 3))
            attacks.append(
                AttackSpec(kind, forged_counts=draw(small_counts), forged_seq=forged_seq, **common)
            )
    noise = draw(st.none() | st.builds(NoiseModel, st.floats(0.0, 1.0), st.integers(1, 5)))
    return Simulation(
        election_id="prop",
        tree=JurisdictionTree(paths, eligible_voters=eligible),
        channels=channels,
        ground_truth=truth,
        seed=draw(st.integers(0, 2**16)),
        prelim_emit=draw(emit_times),
        final_emit=draw(emit_times.map(lambda d: {k: v + 40 for k, v in d.items()})),
        jitter_max=draw(st.integers(0, 5)),
        noise=noise,
        attacks=tuple(attacks),
        postal_latency=draw(st.sampled_from([0, POSTAL_FINAL.base_latency])),
    )


class TestTableKeyOrder:
    @settings(max_examples=100)
    @given(sim=random_simulations(), data=st.data())
    def test_no_table_s_key_order_reaches_the_trace(self, sim, data):
        # A Simulation reads each table into a column in tree order, so the
        # order a caller lists its keys in changes no byte; nor does the
        # order of the tree's own tables.
        def shuffled(table):
            return {key: table[key] for key in data.draw(st.permutations(list(table)))}

        tree = sim.tree
        names = ("channels", "ground_truth", "prelim_emit", "final_emit")
        twin = dataclasses.replace(
            sim,
            tree=JurisdictionTree(
                [leaf.path for leaf in tree.leaves()],
                shuffled(tree.canton_half_votes),
                shuffled(tree.eligible_voters),
            ),
            **{name: shuffled(getattr(sim, name)) for name in names},
        )
        assert twin.tree.order() == tree.order()
        assert twin.run().to_text() == sim.run().to_text()


class TestTraceInvariants:
    """Properties read back from the trace alone, on arbitrary tree shapes."""

    @settings(max_examples=150)
    @given(sim=random_simulations())
    def test_aggregation_invariants(self, sim):
        trace = sim.run()
        tree = sim.tree
        latest_prelim: dict[JurisdictionId, dict[JurisdictionId, VoteCount]] = {}
        child_finals: dict[JurisdictionId, list[DeliverRecord]] = {}
        final_outputs: dict[JurisdictionId, list] = {}
        for rec in records(trace):
            if isinstance(rec, DeliverRecord) and rec.accepted and rec.reason is None:
                if rec.kind is ReportKind.PRELIMINARY:
                    latest_prelim.setdefault(rec.receiver, {})[rec.sender] = rec.counts
                else:
                    child_finals.setdefault(rec.receiver, []).append(rec)
            elif isinstance(rec, EmitRecord) and tree.children(rec.node):
                if rec.kind is ReportKind.PRELIMINARY:
                    assert rec.counts == accumulate(latest_prelim[rec.node].values())
                else:
                    final_outputs.setdefault(rec.node, []).append(rec)
            elif isinstance(rec, PublishRecord):
                assert rec.counts == accumulate(c for _, _, c in rec.children)
                if rec.kind is ReportKind.FINAL:
                    final_outputs.setdefault(rec.node, []).append(rec)
                else:
                    latest = latest_prelim[rec.node]
                    assert [(child, c) for child, _, c in rec.children] == [
                        (child, latest[child]) for child in tree.children(rec.node) if child in latest
                    ]

        internal = [n for n in tree.order() if tree.children(n)]
        assert sorted(final_outputs, key=str) == sorted(internal, key=str)
        for node in internal:
            (out,) = final_outputs[node]
            delivered = child_finals[node]
            assert sorted(str(d.sender) for d in delivered) == sorted(
                str(c) for c in tree.children(node)
            )
            assert out.time == delivered[-1].time
            assert out.counts == accumulate(d.counts for d in delivered)

    @settings(max_examples=150)
    @given(sim=random_simulations())
    def test_each_publication_follows_a_delivery_of_its_kind_to_the_root(self, sim):
        # The audit judges a preliminary publication's children by this
        # row: the delivery that triggered it.
        recs = records(sim.run())
        assert not isinstance(recs[0], PublishRecord)
        for before, rec in zip(recs, recs[1:]):
            if isinstance(rec, PublishRecord):
                assert isinstance(before, DeliverRecord) and before.accepted
                assert (before.kind, before.receiver) == (rec.kind, sim.tree.root)

    @settings(max_examples=150)
    @given(sim=random_simulations())
    def test_feasibility_check_replays_every_preliminary_verdict(self, sim):
        # feasibility_check spells out the engine's acceptance rules; one
        # fresh state serves every receiver, as in the engine.
        state = SequenceState(sim.election_id)
        for rec in records(sim.run()):
            if isinstance(rec, DeliverRecord) and rec.kind is ReportKind.PRELIMINARY:
                report = Report(sim.election_id, rec.sender, rec.seq, rec.counts, rec.kind, 0)
                reason = feasibility_check(report, rec.receiver, sim.tree, state)
                assert (reason is None, reason) == (rec.accepted, rec.reason)

    def test_overflowing_sibling_totals_raise_from_run(self):
        sim = two_leaf_sim(
            tree=tree_from_paths([("CH", "A"), ("CH", "B")]),
            channels={A: preset("email"), B: preset("email")},
            ground_truth={A: VoteCount(yes=MAX_COUNT), B: VoteCount(yes=MAX_COUNT)},
        )
        with pytest.raises(ArithmeticOverflow, match=f"^yes={2 * MAX_COUNT} exceeds"):
            sim.run()

    def test_an_overflowing_final_sum_raises_from_run(self):
        # Tampered preliminaries sum to 2, so only the finals' sum overflows.
        tamper = Mutation(MutationKind.SET_COUNTS, counts=VoteCount(1))
        sim = two_leaf_sim(
            tree=tree_from_paths([("CH", "A"), ("CH", "B")]),
            channels={A: preset("email"), B: preset("email")},
            ground_truth={A: VoteCount(yes=MAX_COUNT), B: VoteCount(yes=MAX_COUNT)},
            attacks=tuple(
                AttackSpec(AttackKind.TAMPER, leaf, first_n=None, mutation=tamper)
                for leaf in (A, B)
            ),
        )
        with pytest.raises(ArithmeticOverflow, match=f"^yes={2 * MAX_COUNT} exceeds"):
            sim.run()

    def test_a_tick_or_seq_past_the_trace_range_is_refused_by_name(self):
        late = two_leaf_sim(prelim_emit={A: MAX_COUNT + 1})
        with pytest.raises(ArithmeticOverflow, match=f"^time={MAX_COUNT + 1} exceeds"):
            late.run()
        forged = AttackSpec(AttackKind.FRONT_RUN, A, forged_counts=VoteCount(1), forged_seq=2**64)
        with pytest.raises(ArithmeticOverflow, match=f"^seq={2**64} exceeds"):
            two_leaf_sim(attacks=(forged,)).run()


def deep_uneven_simulation() -> Simulation:
    """A five-level tree of uneven depth, with every attack kind, noise and jitter."""
    paths = [
        ("CH", "A", "A1", "A11", "A111"), ("CH", "A", "A1", "A12"), ("CH", "A", "A2"),
        ("CH", "B"),
        ("CH", "C", "C1", "C11"), ("CH", "C", "C1", "C12", "C121"),
        ("CH", "C", "C1", "C12", "C122"), ("CH", "C", "C2"),
    ]
    tree = tree_from_paths(paths)
    node = {str(n): n for n in tree.order()}
    return Simulation(
        election_id="deep",
        tree=tree,
        channels={
            n: preset(("email", "fax", "telephone")[i % 3], 0 if i % 4 == 0 else None)
            for i, n in enumerate(tree.order()[1:])
        },
        ground_truth={
            leaf: VoteCount(10 + 3 * i, 20 - i, i % 3, 1) for i, leaf in enumerate(tree.leaves())
        },
        seed=11,
        prelim_emit={node["CH/A/A2"]: 3, node["CH/C/C1/C12/C122"]: 0},
        final_emit={node["CH/B"]: 60},
        jitter_max=3,
        noise=NoiseModel(probability=0.6, max_shift=4),
        attacks=(
            AttackSpec(AttackKind.TAMPER, node["CH/A/A1"], first_n=None,
                       mutation=Mutation(MutationKind.SWAP_YES_NO)),
            AttackSpec(AttackKind.FRONT_RUN, node["CH/C/C1/C12"], forged_counts=VoteCount(40, 1)),
            AttackSpec(AttackKind.DELAY, node["CH/C/C1/C12"], first_n=2, hold_ticks=4),
            AttackSpec(AttackKind.FRONT_RUN, node["CH/B"], forged_seq=1,
                       forged_counts=VoteCount(1, 40)),
            AttackSpec(AttackKind.DELAY, node["CH/A"], report_kind=ReportKind.FINAL,
                       hold_ticks=30),
        ),
        postal_latency=0,
    )


def refusal_simulation() -> Simulation:
    """``deep_uneven_simulation`` with both refusal reasons: its four stale
    genuine reports, and a front-run on CH/A/A2 whose forged 30:20 exceeds
    the edge's 40 eligible voters."""
    sim = deep_uneven_simulation()
    a2 = JurisdictionId.from_text("CH/A/A2")
    tree = tree_from_paths([leaf.path for leaf in sim.tree.leaves()], eligible_voters={a2: 40})
    forgery = AttackSpec(AttackKind.FRONT_RUN, a2, forged_counts=VoteCount(30, 20))
    return dataclasses.replace(
        sim,
        tree=tree,
        ground_truth={leaf: sim.ground_truth[leaf] for leaf in tree.leaves()},
        attacks=(*sim.attacks, forgery),
    )


class TestRefusals:
    """A refused preliminary is one ``DeliverRecord``. Its trace's detect
    line and its summary's detect event are both derived from it."""

    @pytest.mark.parametrize("name", ["swiss_honest", "swiss_tamper", "swiss_delay_noise"])
    def test_no_bundled_trace_holds_a_detect_line(self, name):
        text = load_scenario(bundled_scenario_path(name)).run().to_text()
        assert "\ndetect " not in text

    def test_a_refusal_appends_one_record_and_renders_two_lines(self):
        sim = refusal_simulation()
        trace = sim.run()
        refused = [r for r in records(trace) if type(r) is DeliverRecord and not r.accepted]
        reasons = sorted(r.reason for r in refused)
        assert reasons == [REASON_OVER_ELIGIBLE, *[REASON_STALE_SEQUENCE] * 4]
        assert len(oracles.reference_run(sim)) == len(records(trace)) + len(refused)
        lines = trace.to_text().splitlines()
        assert len(lines) == 1 + len(records(trace)) + len(refused) + 1
        assert lines[-1] == f"end records={len(lines) - 2}"
        for r in refused:
            at = lines.index(oracles.trace_line(r))
            assert lines[at + 1] == (
                f"detect t={r.time} node={r.receiver} reason={r.reason} child={r.sender} seq={r.seq}"
            )

    def test_the_refusal_run_keeps_its_pinned_text(self):
        # The trace and the full summary. No bundled scenario refuses a
        # report, so only these digests cover the detect lines.
        trace = refusal_simulation().run()
        summary = detection_report(trace)
        assert len(summary.detects) == 5
        digests = [
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in (trace.to_text(), summary.to_text(0))
        ]
        assert digests == [
            "33dfec940c95691da28976a781790324547e8dbb0afbdaca059e277105665dd6",
            "8feb95c0607588c16add6176f72948eb409f50d3baeaa46058743f483a0a3cfc",
        ]


def assert_matches_the_reference(sim: Simulation) -> EventTrace:
    """``sim.run()``'s records equal ``oracles.reference_run``'s but its
    detect events, and its text the oracle's rendering of all of them."""
    trace = sim.run()
    reference = oracles.reference_run(sim)
    assert records(trace) == tuple(r for r in reference if type(r) is not oracles.DetectRecord)
    assert trace.to_text() == oracles.trace_text(trace, reference)
    return trace


class TestAgainstTheReference:
    """Every record of a run equals what ``oracles.reference_run`` derives
    from the engine's rules alone: times, order, sequence numbers, attacks,
    jitter and noise draws. The reference also records each refusal as a
    detect event of its own, and the run's text must render them all."""

    @settings(max_examples=300)
    @given(sim=random_simulations())
    def test_random_runs_match_the_reference(self, sim):
        assert_matches_the_reference(sim)

    @pytest.mark.parametrize("name", ["swiss_honest", "swiss_tamper", "swiss_delay_noise"])
    def test_bundled_scenarios_match_the_reference(self, name):
        assert_matches_the_reference(load_scenario(bundled_scenario_path(name)))

    def test_a_deep_uneven_tree_matches_the_reference(self):
        sim = deep_uneven_simulation()
        matched = records(assert_matches_the_reference(sim))
        assert {type(r).__name__ for r in matched} == {
            "EmitRecord", "DeliverRecord", "AttackRecord", "PublishRecord"
        }
        assert any(type(r) is oracles.DetectRecord for r in oracles.reference_run(sim))

    @pytest.mark.parametrize("jitter_max", [1, 7, 8, 63, 64, 1000])
    def test_wide_jitter_draws_match_the_reference(self, jitter_max):
        # The run draws jitter by randrange's own rule; the reference calls randint.
        assert_matches_the_reference(
            dataclasses.replace(deep_uneven_simulation(), jitter_max=jitter_max)
        )


class TestAuditAgainstTheReference:
    """``detection_report`` equals ``oracles.reference_detection_report``,
    whose truths are each root child's leaves, summed directly."""

    @settings(max_examples=150)
    @given(
        sim=random_simulations()
        | st.builds(deep_uneven_simulation)
        # CH/VD is a leaf directly under the root.
        | st.builds(lambda: TestDeepHierarchy().build()[0])
    )
    def test_audit_matches_the_reference(self, sim):
        trace = sim.run()
        assert detection_report(trace) == oracles.reference_detection_report(trace)


class TestCoveredTruthOracle:
    """``oracles.covered_truth_report`` compares each published value with
    the truth of the leaves its emit covers."""

    @settings(max_examples=150)
    @given(sim=random_simulations(max_depth=1))
    def test_equals_the_subtree_reference_when_each_root_child_is_a_leaf(self, sim):
        trace = sim.run()
        assert oracles.covered_truth_report(trace) == oracles.reference_detection_report(trace)

    def test_an_honest_partial_preliminary_does_not_diverge(self):
        trace = partial_preliminary_simulation().run()
        assert oracles.count_divergences(oracles.covered_truth_report(trace)) == ()
        # The subtree reference charges CH/K's partial 10:5 with M2's 7:9 too.
        assert len(oracles.count_divergences(oracles.reference_detection_report(trace))) == 2

    def test_a_forged_seq_is_charged_with_the_senders_latest_emit(self):
        # CH/K's forgery carries seq 1001, which no emit carries; CH/K's
        # latest emit then covers M1 alone, and M2 reports only at t=50.
        k = JurisdictionId.from_text("CH/K")
        forgery = AttackSpec(AttackKind.FRONT_RUN, k, forged_counts=VoteCount(1, 1))
        sim = dataclasses.replace(
            partial_preliminary_simulation(),
            prelim_emit={JurisdictionId.from_text("CH/K/M2"): 50},
            attacks=(forgery,),
        )
        trace = sim.run()
        leaves = oracles.covered_leaves(trace)
        forged = [key for key, pub in published_entries(trace) if pub == (k, 1001)]
        assert forged
        assert {leaves[key] for key in forged} == {frozenset([JurisdictionId.from_text("CH/K/M1")])}
        assert oracles.count_divergences(oracles.covered_truth_report(trace))[0].final == VoteCount(10, 5)


def published_entries(trace):
    """((record index, child), (child, seq)) of each preliminary publication entry."""
    for at, rec in enumerate(records(trace)):
        if isinstance(rec, PublishRecord) and rec.kind is ReportKind.PRELIMINARY:
            for child, seq, _ in rec.children:
                yield (at, child), (child, seq)


def partial_preliminary_simulation() -> Simulation:
    """CH/K/{M1,M2} and CH/L/M3, honest, where M2 reports at t=5: CH/K
    first forwards M1's 10:5 alone."""
    m1, m2, m3 = (JurisdictionId.from_text(t) for t in ("CH/K/M1", "CH/K/M2", "CH/L/M3"))
    tree = tree_from_paths([m1.path, m2.path, m3.path])
    return Simulation(
        election_id="depth3",
        tree=tree,
        channels={node: preset("fax") for node in tree.order()[1:]},
        ground_truth={m1: VoteCount(10, 5), m2: VoteCount(7, 9), m3: VoteCount(4, 4)},
        seed=1,
        prelim_emit={m2: 5},
    )


class TestAuditOnDeepTrees:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1 part A: the audit compares a root child's partial "
        "aggregate with the truth of its whole subtree",
    )
    def test_an_honest_partial_preliminary_does_not_diverge(self):
        summary = detection_report(partial_preliminary_simulation().run())
        assert len(oracles.count_divergences(summary)) == 0
        assert summary.integrity_gap_ticks == 0
        assert summary.clean()


class TestAuditInput:
    """The audit judges a preliminary publication's children by the row
    before it, and refuses a trace whose row there is not a preliminary
    delivery from a root child."""

    @pytest.mark.parametrize("edit", ["dropped", "refused", "final", "grandchild", "first"])
    def test_a_publication_not_after_its_trigger_is_refused(self, edit):
        trace = partial_preliminary_simulation().run()
        table = [list(row) for row in zip(*[iter(trace.rows.tolist())] * STRIDE)]
        row = next(at for at, values in enumerate(table) if values[0] == PUBLISH)
        trigger = table[row - 1]
        if edit == "dropped":
            del table[row - 1]
            row -= 1
        elif edit == "refused":
            trigger[0] = REFUSE
        elif edit == "final":
            trigger[3] = FINAL
        elif edit == "grandchild":
            trigger[2] = trace.simulation.tree.order().index(JurisdictionId.from_text("CH/K/M1"))
        else:
            table.insert(0, table.pop(row))
            row = 0
        broken = dataclasses.replace(
            trace, rows=memoryview(array("q", [value for values in table for value in values]))
        )
        message = "a preliminary publication not right after a root child's preliminary delivery"
        with pytest.raises(ValueError, match=f"^row {row}: {message}$"):
            detection_report(broken)
        assert detection_report(trace).final_matches_ground_truth


class TestRendering:
    """Trace and summary text match the field-by-field reference formatters."""

    @settings(max_examples=150)
    @given(sim=random_simulations(), max_items=st.sampled_from([0, 1, 3, 10]))
    def test_text_matches_the_reference(self, sim, max_items):
        trace = sim.run()
        assert trace.to_text() == oracles.trace_text(trace, oracles.reference_run(sim))
        summary = detection_report(trace)
        assert summary.to_text(max_items) == oracles.summary_text(summary, max_items)

    def test_shared_and_equal_entry_tuples_render_alike(self):
        # A publication lists the latest delivery from each root child
        # before it: one delivery listed by several publications, and
        # distinct deliveries with equal values, each final equal to a
        # preliminary of its child.
        prelim, final = 0, 1
        rows = [
            DELIVER, 1, 1, prelim, 1, 1, 2, 3, 4, 0,
            PUBLISH, 1, 0, prelim, 0, 1, 2, 3, 4, 0,
            DELIVER, 2, 2, prelim, 2, 5, 0, 0, 1, 0,
            PUBLISH, 2, 0, prelim, 0, 6, 2, 3, 5, 0,
            DELIVER, 3, 1, prelim, 2, 9, 8, 7, 6, 0,
            PUBLISH, 3, 0, prelim, 0, 14, 8, 7, 7, 0,
            DELIVER, 4, 1, final, 1, 1, 2, 3, 4, 0,
            DELIVER, 4, 2, final, 2, 5, 0, 0, 1, 0,
            PUBLISH, 4, 0, final, 0, 6, 2, 3, 5, 0,
            REFUSE, 4, 2, prelim, 3, 0, 1, 0, 0, REASONS.index("stale_sequence"),
        ]
        sim = two_leaf_sim(channels={A: preset("email"), B: preset("email")}, seed=5)
        trace = EventTrace(sim, memoryview(array("q", rows)).toreadonly())
        text = trace.to_text()
        detect = oracles.DetectRecord(4, CH, "stale_sequence", B, 3)
        assert text == oracles.trace_text(trace, (*records(trace), detect))
        assert text.splitlines()[-2:] == [
            "detect t=4 node=CH reason=stale_sequence child=CH/B seq=3",
            "end records=11",
        ]
        assert [line for line in text.splitlines() if line.startswith("publish")][1:] == [
            "publish t=2 node=CH kind=preliminary yes=6 no=2 blank=3 invalid=5 "
            "children=CH/A:1:1:2:3:4,CH/B:2:5:0:0:1",
            "publish t=3 node=CH kind=preliminary yes=14 no=8 blank=7 invalid=7 "
            "children=CH/A:2:9:8:7:6,CH/B:2:5:0:0:1",
            "publish t=4 node=CH kind=final yes=6 no=2 blank=3 invalid=5 "
            "children=CH/A:1:1:2:3:4,CH/B:2:5:0:0:1",
        ]

    def test_one_reported_count_under_two_children_and_two_finals(self):
        # Deliveries that share one reported count under another child or
        # against another final, and a delivery equal to the first: each
        # line takes its own delivery's tail.
        reported, final, other_final = VoteCount(10, 20), VoteCount(11, 19), VoteCount(12, 18)
        divergent = (
            (A, reported, final),
            (B, reported, final),
            (B, reported, other_final),
            (A, VoteCount(10, 20), VoteCount(11, 19)),
        )
        summary = hand_built_summary(divergent, [1, 0, 2, 1, 3, 2, 4, 0, 5, 3, 6, 1, 7, 3, 8, 0], 7)
        text = summary.to_text(0)
        assert text == oracles.summary_text(summary, 0)
        assert text.splitlines()[2:11] == [
            "count divergences: 8",
            "  t=1 child=CH/A reported=10:20:0:0 final=11:19:0:0",
            "  t=2 child=CH/B reported=10:20:0:0 final=11:19:0:0",
            "  t=3 child=CH/B reported=10:20:0:0 final=12:18:0:0",
            "  t=4 child=CH/A reported=10:20:0:0 final=11:19:0:0",
            "  t=5 child=CH/A reported=10:20:0:0 final=11:19:0:0",
            "  t=6 child=CH/B reported=10:20:0:0 final=11:19:0:0",
            "  t=7 child=CH/A reported=10:20:0:0 final=11:19:0:0",
            "  t=8 child=CH/A reported=10:20:0:0 final=11:19:0:0",
        ]
        assert summary.to_text(3).splitlines()[2:7] == [*text.splitlines()[2:6], "  ... 5 more"]

    def test_divergences_that_share_child_and_counts_keep_their_own_final(self):
        reported = VoteCount(10, 20)
        divergent = (
            (A, reported, VoteCount(11, 19)),
            (A, reported, VoteCount(12, 18)),
            (B, reported, VoteCount(11, 19)),
        )
        summary = hand_built_summary(divergent, [1, 0, 2, 1, 3, 0, 4, 2], 3)
        text = summary.to_text(max_items=0)
        assert text == oracles.summary_text(summary, max_items=0)
        assert text.splitlines()[3:7] == [
            "  t=1 child=CH/A reported=10:20:0:0 final=11:19:0:0",
            "  t=2 child=CH/A reported=10:20:0:0 final=12:18:0:0",
            "  t=3 child=CH/A reported=10:20:0:0 final=11:19:0:0",
            "  t=4 child=CH/B reported=10:20:0:0 final=11:19:0:0",
        ]


def hand_built_summary(divergent, column, gap_ticks) -> DetectionSummary:
    """A summary of count divergences alone: ``column`` holds a (tick,
    index into ``divergent``) pair per line."""
    divergences = memoryview(array("q", column)).toreadonly()
    return DetectionSummary(divergent, divergences, (), (), False, gap_ticks)


def test_simulating_does_not_load_the_crypto_library():
    # Freshness checks live in votewire.reports, so a run never pays for
    # importing the signed transport.
    probe = (
        "import sys, votewire.engine, votewire.adversary, votewire.scenario\n"
        "print(sorted(m for m in ('cryptography', 'votewire.secauth') if m in sys.modules))"
    )
    assert fresh_interpreter(probe).strip() == "[]"


def attack_heavy_sim() -> Simulation:
    """The two-leaf run with tamper, front-run, delay, jitter and noise."""
    attacks = (
        AttackSpec(AttackKind.TAMPER, A, mutation=Mutation(MutationKind.SWAP_YES_NO)),
        AttackSpec(AttackKind.FRONT_RUN, B, forged_counts=VoteCount(9, 1)),
        AttackSpec(AttackKind.DELAY, A, report_kind=ReportKind.FINAL, hold_ticks=3),
    )
    return two_leaf_sim(
        attacks=attacks, jitter_max=2, noise=NoiseModel(probability=1.0, max_shift=3)
    )


def collections_during(function, call) -> int:
    """How many collections the cyclic GC starts while a frame of
    ``function`` runs, over ``call()``, with the collector's first
    threshold at 1, so that almost any tracked allocation starts one."""
    starts = []

    def probe(phase, _info):
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not function.__code__:
                frame = frame.f_back
            starts.append(frame is not None)

    thresholds = gc.get_threshold()
    gc.callbacks.append(probe)
    gc.set_threshold(1, *thresholds[1:])
    try:
        call()
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(probe)
    return sum(starts)


def federation_sim(cantons: int, leaves: int) -> Simulation:
    """A three-level run of ``cantons`` times ``leaves`` stations, with
    every attack kind, jitter and noise."""
    paths = [("CH", f"K{k}", f"M{m}") for k in range(cantons) for m in range(leaves)]
    tree = tree_from_paths(paths)
    k0, k1 = JurisdictionId.of("CH", "K0"), JurisdictionId.of("CH", "K1", "M0")
    return Simulation(
        election_id="fed",
        tree=tree,
        channels={node: preset("fax") for node in tree.order()[1:]},
        ground_truth={JurisdictionId(p): VoteCount(10 + len(p[2]), 20, 1) for p in paths},
        seed=3,
        prelim_emit={JurisdictionId(p): int(p[2][1:]) % 7 for p in paths},
        jitter_max=2,
        noise=NoiseModel(probability=0.5, max_shift=3),
        attacks=(
            AttackSpec(
                AttackKind.TAMPER, k0, first_n=None, mutation=Mutation(MutationKind.SWAP_YES_NO)
            ),
            AttackSpec(AttackKind.FRONT_RUN, k1, forged_counts=VoteCount(5, 5)),
            AttackSpec(AttackKind.DELAY, k1, report_kind=ReportKind.FINAL, hold_ticks=9),
        ),
    )


def tracked_objects_held(trace: EventTrace) -> int:
    """The objects the cyclic collector tracks that ``trace`` reaches, but
    its simulation, the run's input, and types, once a collection has
    untracked every tuple that holds no tracked object."""
    gc.collect()
    skip = {id(trace.simulation)}
    seen: set[int] = set()
    stack: list = [trace]
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skip or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
            stack.extend(gc.get_referents(obj))
    return count


class TestTraceColumns:
    def test_the_trace_holds_no_tracked_object_per_record(self):
        # Whatever a run's size, its trace leaves the collector the same
        # few objects to scan: its columns and tables, not one per record.
        small, large = federation_sim(3, 4).run(), federation_sim(8, 40).run()
        assert len(records(large)) > 10 * len(records(small))
        assert {type(r) for r in records(small)} == {
            EmitRecord, DeliverRecord, AttackRecord, PublishRecord
        }
        assert any(not r.accepted for r in records(small) if type(r) is DeliverRecord)
        assert tracked_objects_held(small) == tracked_objects_held(large) < 20


class TestNoReferenceCycles:
    """A run, an audit and the renders leave no reference cycle, however
    they end: ``cmd_simulate`` pauses the collector over all of them and
    relies on reference counting alone to free what they build."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_library_calls_leave_the_collector_to_their_caller(self):
        # Only simulate pauses the collector: a library run and audit are
        # collected like any other code and leave its state as they found it.
        gc.enable()
        traces = []
        sim = attack_heavy_sim()
        assert collections_during(Simulation.run, lambda: traces.append(sim.run())) > 0
        assert gc.isenabled()
        assert collections_during(detection_report, lambda: detection_report(traces[0])) > 0
        assert gc.isenabled()

    def test_a_run_leaves_no_reference_cycle(self):
        sim = attack_heavy_sim()
        gc.collect()
        trace = sim.run()
        assert gc.collect() == 0
        assert {type(r) for r in records(trace)} >= {AttackRecord, PublishRecord}
        assert any(type(r) is DeliverRecord and not r.accepted for r in records(trace))

    def test_audit_and_renders_leave_no_reference_cycle(self):
        trace = attack_heavy_sim().run()
        gc.collect()
        summary = detection_report(trace)
        assert gc.collect() == 0
        assert summary.divergences and summary.detects
        trace.to_text()
        assert gc.collect() == 0
        summary.to_text(0)
        assert gc.collect() == 0

    def test_simulate_command_leaves_no_reference_cycle(self, tmp_path, capsys):
        args = cli.build_parser().parse_args(
            ["simulate", "--scenario", str(bundled_scenario_path("swiss_tamper")),
             "--trace-out", str(tmp_path / "run.trace"),
             "--summary-out", str(tmp_path / "run.summary")]
        )
        gc.collect()
        assert cli.cmd_simulate(args) == 0
        assert gc.collect() == 0
        assert capsys.readouterr().out.startswith("detection summary\n")

    def test_a_run_that_raises_leaves_no_reference_cycle(self):
        # simulate exits 2 on such a run and frees what it built by reference
        # counting alone.
        shift = Mutation(MutationKind.SHIFT, shift=1000)
        sim = two_leaf_sim(attacks=(AttackSpec(AttackKind.TAMPER, A, mutation=shift),))
        gc.collect()
        try:
            sim.run()
        except ConfigError:
            pass
        else:
            pytest.fail("the oversized shift was applied")
        assert gc.collect() == 0

    def test_an_audit_that_raises_leaves_no_reference_cycle(self):
        trace = two_leaf_sim().run()
        rows = trace.rows.tolist()
        kept = [
            value
            for at in range(0, len(rows), STRIDE) if rows[at] != PUBLISH
            for value in rows[at:at + STRIDE]
        ]
        unfinished = dataclasses.replace(trace, rows=memoryview(array("q", kept)))
        gc.collect()
        try:
            detection_report(unfinished)
        except ValueError as error:
            assert str(error) == "trace holds no final publication"
        else:
            pytest.fail("a trace with no final publication was audited")
        assert gc.collect() == 0
