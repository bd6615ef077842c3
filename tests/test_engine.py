"""Event-loop behavior: feasibility, forwarding, publication, determinism."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votewire
from votewire.adversary import (
    AttackKind,
    AttackSpec,
    Mutation,
    MutationKind,
    detection_report,
)
from votewire.channels import POSTAL_FINAL, preset, wrapped
from votewire.counts import MAX_COUNT, VoteCount, accumulate
from votewire.engine import (
    DEFAULT_FINAL_EMIT_AT,
    REASON_OVER_ELIGIBLE,
    REASON_STALE_SEQUENCE,
    REASON_UNKNOWN_SENDER,
    NoiseModel,
    Simulation,
    feasibility_check,
)
from votewire.errors import ArithmeticOverflow, CapabilityError
from votewire.reports import Report, ReportKind, SequenceState
from votewire.traces import DeliverRecord, EmitRecord, PublishRecord
from votewire.tree import JurisdictionId, tree_from_paths

CH = JurisdictionId.of("CH")
A = JurisdictionId.of("CH", "A")
B = JurisdictionId.of("CH", "B")


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
        assert feasibility_check(prelim_report(stranger, 1, VoteCount()), CH, tree, seen()) == REASON_UNKNOWN_SENDER

    def test_sibling_is_not_a_child(self):
        tree = two_leaf_tree()
        assert feasibility_check(prelim_report(A, 1, VoteCount()), B, tree, seen()) == REASON_UNKNOWN_SENDER

    def test_grandchild_is_not_a_child(self):
        deep = tree_from_paths([("CH", "A", "X")], eligible_voters={})
        x = JurisdictionId.of("CH", "A", "X")
        assert feasibility_check(prelim_report(x, 1, VoteCount()), CH, deep, seen()) == REASON_UNKNOWN_SENDER

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
        assert feasibility_check(misrouted, B, tree, state) == REASON_UNKNOWN_SENDER
        assert feasibility_check(prelim_report(A, 5, VoteCount(1, 1)), CH, tree, state) is None

    def test_unknown_sender_wins_over_other_reasons(self):
        tree = two_leaf_tree(eligible_a=1)
        stranger = JurisdictionId.of("CH", "Z")
        report = prelim_report(stranger, 0 + 1, VoteCount(5, 5))
        assert feasibility_check(report, CH, tree, seen(Z=9)) == REASON_UNKNOWN_SENDER


class TestHonestRun:
    def test_final_publication_equals_ground_truth_sum(self):
        sim = two_leaf_sim()
        trace = sim.run()
        final = trace.final_publish()
        assert final.counts == accumulate(sim.ground_truth.values())
        assert final.counts == VoteCount(40, 60)

    def test_coverage_grows_monotonically(self):
        trace = two_leaf_sim().run()
        seen: set[JurisdictionId] = set()
        for pub in trace.publishes(ReportKind.PRELIMINARY):
            covered = {child for child, _, _ in pub.children}
            assert covered >= seen
            seen = covered
        assert seen == {A, B}

    def test_publish_totals_match_listed_children(self):
        for pub in two_leaf_sim().run().publishes():
            assert pub.counts == accumulate(c for _, _, c in pub.children)

    def test_clean_run_has_no_divergences_or_detects(self):
        summary = detection_report(two_leaf_sim().run())
        assert summary.clean()
        assert summary.final_matches_ground_truth
        assert summary.integrity_gap_ticks == 0

    def test_emit_times_respect_configuration(self):
        trace = two_leaf_sim(prelim_emit={A: 4}, final_emit={B: 60}).run()
        emits = {(r.node, r.kind): r.time for r in trace.records if isinstance(r, EmitRecord)}
        assert emits[(A, ReportKind.PRELIMINARY)] == 4
        assert emits[(B, ReportKind.PRELIMINARY)] == 0
        assert emits[(B, ReportKind.FINAL)] == 60
        assert emits[(A, ReportKind.FINAL)] == 100


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
            r for r in trace.records
            if isinstance(r, DeliverRecord)
            and r.receiver == BE and r.accepted and r.kind is ReportKind.PRELIMINARY
        ]
        be_emits = [
            r for r in trace.records
            if isinstance(r, EmitRecord) and r.node == BE and r.kind is ReportKind.PRELIMINARY
        ]
        # One upward emission per accepted report, at the acceptance tick.
        assert [r.time for r in accepted_at_be] == [r.time for r in be_emits]
        assert [r.seq for r in be_emits] == [1, 2]

    def test_replacement_totals_supersede_older_reports(self):
        sim, BE, X, Y, VD = self.build()
        trace = sim.run()
        last = trace.publishes(ReportKind.PRELIMINARY)[-1]
        by_child = {child: (seq, counts) for child, seq, counts in last.children}
        # BE's second report (X+Y) replaced its first (X only).
        assert by_child[BE] == (2, VoteCount(30, 20))
        assert last.counts == VoteCount(60, 60)

    def test_final_cascades_once_children_complete(self):
        sim, BE, X, Y, VD = self.build()
        trace = sim.run()
        be_final_emits = [
            r for r in trace.records
            if isinstance(r, EmitRecord) and r.node == BE and r.kind is ReportKind.FINAL
        ]
        assert len(be_final_emits) == 1
        assert trace.final_publish().counts == VoteCount(60, 60)

    def test_subtree_ground_truth_helper(self):
        sim, BE, X, Y, VD = self.build()
        trace = sim.run()
        truths = trace.subtree_truths()
        assert truths[BE] == VoteCount(30, 20)
        assert truths[sim.tree.root] == VoteCount(60, 60)


class TestAttacksInTheLoop:
    def test_tamper_changes_prelim_but_never_final(self):
        attack = AttackSpec(
            AttackKind.TAMPER, A, mutation=Mutation(MutationKind.SWAP_YES_NO)
        )
        sim = two_leaf_sim(attacks=(attack,))
        trace = sim.run()
        last_prelim = trace.publishes(ReportKind.PRELIMINARY)[-1]
        assert last_prelim.counts == VoteCount(30, 70)
        assert trace.final_publish().counts == VoteCount(40, 60)
        summary = detection_report(trace)
        assert [d.child for d in summary.count_divergences] == [A, A]
        assert summary.final_matches_ground_truth
        assert summary.integrity_gap_ticks > 0

    def test_front_run_wins_and_genuine_is_stale(self):
        attack = AttackSpec(AttackKind.FRONT_RUN, B, forged_counts=VoteCount(90, 1))
        trace = two_leaf_sim(attacks=(attack,)).run()
        deliveries = [
            r for r in trace.records
            if isinstance(r, DeliverRecord) and r.sender == B and r.kind is ReportKind.PRELIMINARY
        ]
        assert [d.accepted for d in deliveries] == [True, False]
        assert deliveries[0].seq == 1001 and deliveries[1].seq == 1
        assert deliveries[1].reason == "stale_sequence"
        detects = detection_report(trace).detects
        assert [(d.reason, d.child) for d in detects] == [("stale_sequence", B)]

    def test_delay_leaves_counts_alone(self):
        attack = AttackSpec(AttackKind.DELAY, B, hold_ticks=50)
        trace = two_leaf_sim(attacks=(attack,)).run()
        summary = detection_report(trace)
        assert not summary.count_divergences
        assert any(B in gap.missing for gap in summary.coverage_gaps)
        covered_times = [
            pub.time
            for pub in trace.publishes(ReportKind.PRELIMINARY)
            if any(child == B for child, _, _ in pub.children)
        ]
        assert covered_times and covered_times[0] == 53

    def test_delayed_final_postpones_publication(self):
        attack = AttackSpec(
            AttackKind.DELAY, A, report_kind=ReportKind.FINAL, hold_ticks=500
        )
        trace = two_leaf_sim(attacks=(attack,)).run()
        assert trace.final_publish().time == 648
        assert trace.final_publish().counts == VoteCount(40, 60)

    def test_absurd_tamper_is_caught_by_feasibility(self):
        # The eligibility ceiling stops tampered totals that claim more
        # ballots than the canton has voters.
        attack = AttackSpec(
            AttackKind.TAMPER, A,
            mutation=Mutation(MutationKind.SET_COUNTS, counts=VoteCount(10**6, 0)),
        )
        trace = two_leaf_sim(attacks=(attack,)).run()
        rejected = [
            r for r in trace.records
            if isinstance(r, DeliverRecord) and not r.accepted
        ]
        assert [r.reason for r in rejected] == ["over_eligible"]
        assert all(
            child != A
            for pub in trace.publishes(ReportKind.PRELIMINARY)
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
        assert once.publishes(ReportKind.PRELIMINARY)[-1].counts == VoteCount(10, 0)
        assert always.publishes(ReportKind.PRELIMINARY)[-1].counts == VoteCount(0, 10)

    def test_attack_on_unknown_edge_rejected_at_build(self):
        ghost = JurisdictionId.of("CH", "GHOST")
        with pytest.raises(ValueError, match="unknown edge"):
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
            for r in trace.records
            if isinstance(r, EmitRecord) and r.kind is ReportKind.PRELIMINARY
        }
        for leaf, counts in first_emits.items():
            assert counts.total() == sim.ground_truth[leaf].total()
        assert trace.final_publish().counts == VoteCount(40, 60)

    def test_zero_probability_is_a_no_op(self):
        quiet = NoiseModel(probability=0.0, max_shift=5)
        rng = random.Random(0)
        assert quiet.perturb(VoteCount(10, 10), rng) == VoteCount(10, 10)

    def test_shift_clamps_to_the_source_side(self):
        loud = NoiseModel(probability=1.0, max_shift=50)
        for seed in range(20):
            out = loud.perturb(VoteCount(3, 2), random.Random(seed))
            assert out.total() == 5
            assert out.yes >= 0 and out.no >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(probability=1.5, max_shift=1)
        with pytest.raises(ValueError):
            NoiseModel(probability=0.5, max_shift=0)


class TestSimulationValidation:
    def test_ground_truth_must_cover_leaves_exactly(self):
        with pytest.raises(ValueError, match="missing"):
            two_leaf_sim(ground_truth={A: VoteCount(1, 0)})
        with pytest.raises(ValueError, match="extra"):
            two_leaf_sim(
                ground_truth={
                    A: VoteCount(1, 0),
                    B: VoteCount(1, 0),
                    JurisdictionId.of("CH"): VoteCount(1, 0),
                }
            )

    def test_every_edge_needs_a_channel(self):
        with pytest.raises(ValueError, match="no channel"):
            two_leaf_sim(channels={A: preset("email")})

    def test_single_node_tree_rejected(self):
        lonely = tree_from_paths([("CH",)])
        with pytest.raises(ValueError, match="reporting edge"):
            Simulation(
                election_id="toy", tree=lonely, channels={}, ground_truth={}
            )

    def test_negative_emit_time_rejected(self):
        with pytest.raises(ValueError, match="emit times"):
            two_leaf_sim(prelim_emit={A: -1})

    def test_negative_final_emit_default_rejected(self):
        # Used to build, then fail mid-run when the first final was emitted.
        with pytest.raises(ValueError, match="final_emit_default must be >= 0"):
            two_leaf_sim(final_emit_default=-5)

    def test_negative_postal_latency_rejected(self):
        with pytest.raises(ValueError, match="postal_latency must be >= 0"):
            two_leaf_sim(postal_latency=-1)

    def test_finals_ride_the_signed_postal_channel(self):
        sim = two_leaf_sim(postal_latency=10)
        assert sim.postal == POSTAL_FINAL.with_latency(10)
        assert two_leaf_sim().postal == POSTAL_FINAL
        finals = [
            r for r in sim.run().records
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
            channels={n: preset("email") for n in tree.nodes() if n != CH},
            ground_truth={x: VoteCount(1, 0), y: VoteCount(2, 0), z: VoteCount(0, 3)},
        )
        with pytest.raises(ValueError, match="prelim_emit names CH/A, which is not a leaf"):
            Simulation(**base, prelim_emit={A: 50})
        with pytest.raises(ValueError, match="final_emit names CH, which is not a leaf"):
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
        assert sim.run().final_publish().counts == VoteCount(40, 60)


@st.composite
def random_simulations(draw) -> Simulation:
    """A small run on an uneven tree of 2 to 4 levels, with attacks and noise."""
    max_depth = draw(st.integers(1, 3))
    paths: list[tuple[str, ...]] = []

    def grow(path: tuple[str, ...]) -> None:
        depth = len(path) - 1
        if depth == max_depth or (depth > 0 and draw(st.booleans())):
            paths.append(path)
            return
        for i in range(draw(st.integers(1, 3))):
            grow((*path, f"N{i}"))

    grow(("CH",))
    leaves = [JurisdictionId(p) for p in paths]
    edges = sorted({JurisdictionId(p[:i]) for p in paths for i in range(2, len(p) + 1)}, key=str)
    small_counts = st.builds(
        VoteCount, st.integers(0, 40), st.integers(0, 40), st.integers(0, 3), st.integers(0, 2)
    )
    truth = {leaf: draw(small_counts) for leaf in leaves}
    eligible = {leaf: truth[leaf].total() + draw(st.integers(0, 20)) for leaf in leaves}
    presets = [preset(name) for name in ("telephone", "fax", "email", "dedicated")]
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
        tree=tree_from_paths(paths, eligible_voters=eligible),
        channels=channels,
        ground_truth=truth,
        seed=draw(st.integers(0, 2**16)),
        prelim_emit=draw(emit_times),
        final_emit=draw(emit_times.map(lambda d: {k: v + 40 for k, v in d.items()})),
        jitter_max=draw(st.integers(0, 5)),
        noise=noise,
        attacks=tuple(attacks),
    )


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
        for rec in trace.records:
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

        internal = [n for n in tree.nodes() if tree.children(n)]
        assert sorted(final_outputs, key=str) == sorted(internal, key=str)
        for node in internal:
            (out,) = final_outputs[node]
            delivered = child_finals[node]
            assert sorted(str(d.sender) for d in delivered) == sorted(
                str(c) for c in tree.children(node)
            )
            assert out.time == delivered[-1].time
            assert out.counts == accumulate(d.counts for d in delivered)

    def test_overflowing_sibling_totals_raise_from_run(self):
        sim = two_leaf_sim(
            tree=tree_from_paths([("CH", "A"), ("CH", "B")]),
            channels={A: preset("email"), B: preset("email")},
            ground_truth={A: VoteCount(yes=MAX_COUNT), B: VoteCount(yes=MAX_COUNT)},
        )
        with pytest.raises(ArithmeticOverflow):
            sim.run()


def test_simulating_does_not_load_the_crypto_library():
    # Freshness checks live in votewire.reports, so a run never pays for
    # importing the signed transport.
    env = dict(os.environ)
    src = str(Path(votewire.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, votewire.engine, votewire.adversary, votewire.scenario\n"
        "print(sorted(m for m in ('cryptography', 'votewire.secauth') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "[]"
