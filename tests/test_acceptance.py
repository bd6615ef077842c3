"""Acceptance gate: the eight headline guarantees, one printed line each.

Each criterion prints a PASS or FAIL line so a full run reads as a
checklist. Timing budgets are asserted from measured wall time.
"""

import contextlib
import io
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from votewire.adversary import AttackKind, AttackSpec, Mutation, MutationKind
from votewire.analysis import (
    bundled_results_path,
    canton_final_counts,
    discrepancy_stats,
    load_results,
)
from votewire.channels import preset, wrapped
from votewire.cli import main
from votewire.counts import VoteCount, accumulate
from votewire.engine import Simulation
from votewire.errors import CapabilityError, Infeasible
from votewire.flips import min_flips_cantonal, min_flips_double, min_flips_popular
from votewire.reports import Report, ReportKind
from votewire.scenario import bundled_scenario_path
from votewire.secauth import (
    EMPTY_CRL,
    SequenceState,
    provision_tree,
    sign_report,
    signed_report_from_text,
    signed_report_to_text,
    verify_report,
)
from votewire.swiss import canton_id, swiss_tree
from votewire.tally import Decision, MajorityRule, ReferendumSpec, referendum_outcome
from votewire.traces import DeliverRecord
from votewire.tree import JurisdictionId, tree_from_paths

import oracles
from helpers import canton_id as toy_canton_id, make_canton_tree


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {label}")
        raise
    print(f"[criterion {number}] PASS  {label}")


def _timed(thunk):
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def family_final_counts():
    records = load_results(bundled_results_path("family_2013"))
    return canton_final_counts(records, swiss_tree())


def test_criterion_1_popular_flip_count():
    with criterion(1, "popular flip on the 2015 broadcast-fee referendum is exactly 1825"):
        national = VoteCount(yes=1_128_522, no=1_124_873)
        best = min(
            _timed(lambda: min_flips_popular(national, Decision.REJECTED))[1]
            for _ in range(10)
        )
        plan = min_flips_popular(national, Decision.REJECTED)
        assert plan.total_flips == 1825
        assert plan.flips_per_canton == {None: 1825}
        assert best < 0.001, f"took {best * 1000:.3f} ms"


def test_criterion_2_cantonal_selection():
    with criterion(2, "cantonal flip on the 2013 family referendum selects GR (896) and ZG (934)"):
        tree = swiss_tree()
        per_canton = family_final_counts()
        plan = min_flips_cantonal(per_canton, tree, Decision.ACCEPTED)
        gr, zg = canton_id("GR"), canton_id("ZG")
        assert set(plan.cantons()) == {gr, zg}
        assert plan.flips_per_canton[gr] == 896
        assert plan.flips_per_canton[zg] == 934
        # Independent linear-scan oracle for each selected canton's cost.
        assert oracles.scan_flips(per_canton[gr], Decision.ACCEPTED) == 896
        assert oracles.scan_flips(per_canton[zg], Decision.ACCEPTED) == 934


def test_criterion_3_discrepancy_reproduction():
    with criterion(3, "bundled maxima reproduce VD 2.24%, JU 2.72%, AG 0.83%, federal 0.19%"):
        start = time.perf_counter()
        summary = discrepancy_stats(load_results(bundled_results_path("discrepancy_maxima")))
        elapsed = time.perf_counter() - start
        for code, expected in (("VD", 2.24), ("JU", 2.72), ("AG", 0.83), ("CH", 0.19)):
            got = summary.stat(code).max_relative_percent()
            assert abs(got - expected) <= 0.01, f"{code}: {got} vs {expected}"
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_4_double_majority_gate():
    with criterion(4, "family referendum: popular accepted at 54.3%, overall rejected 10 of 23"):
        per_canton = family_final_counts()
        spec = ReferendumSpec("family-2013", MajorityRule.DOUBLE_MAJORITY)
        outcome = referendum_outcome(spec, per_canton, swiss_tree())
        assert outcome.popular is Decision.ACCEPTED
        assert outcome.overall is Decision.REJECTED
        national = accumulate(per_canton.values())
        share = 100 * national.yes / (national.yes + national.no)
        assert round(share, 1) == 54.3
        assert outcome.yes_weight == Fraction(10)
        assert outcome.no_weight == Fraction(13)


def test_criterion_5_attack_capability_matrix():
    with criterion(5, "capability matrix holds over 1000 randomized runs"):
        rng = random.Random(20260815)
        tree = swiss_tree()
        cantons = tree.cantons()
        insecure_names = ("email", "telephone", "fax")
        runs = 0
        start = time.perf_counter()
        for i in range(500):
            ground_truth = {
                c: VoteCount(rng.randrange(500), rng.randrange(500), rng.randrange(9))
                for c in cantons
            }
            truth_sum = accumulate(ground_truth.values())
            target = rng.choice(cantons)
            attacked_channel = preset(rng.choice(insecure_names))
            channels = {c: preset(rng.choice(insecure_names)) for c in cantons}
            # Unrelated edges may be wrapped; the attacked edge's wrap state
            # is what each leg below pins down.
            for c in cantons:
                if c != target and rng.random() < 0.5:
                    channels[c] = wrapped(channels[c])
            kind = rng.choice(list(AttackKind))
            hold = rng.randint(1, 40)
            forged = VoteCount(yes=7 + i % 13, no=3)
            if kind is AttackKind.TAMPER:
                attack = AttackSpec(
                    kind=kind, edge_child=target,
                    mutation=Mutation(MutationKind.SET_COUNTS, counts=forged),
                )
            elif kind is AttackKind.FRONT_RUN:
                attack = AttackSpec(kind=kind, edge_child=target, forged_counts=forged)
            else:
                attack = AttackSpec(kind=kind, edge_child=target, hold_ticks=hold)

            def build(target_channel):
                return Simulation(
                    election_id=f"matrix-{i}", tree=tree,
                    channels={**channels, target: target_channel},
                    ground_truth=ground_truth, seed=i, attacks=(attack,),
                )

            # Leg A: the attacked edge is wrapped (signed transport).
            if kind is AttackKind.DELAY:
                trace = build(wrapped(attacked_channel)).run()
                delivered = [
                    r.time for r in trace.records
                    if isinstance(r, DeliverRecord)
                    and r.sender == target and r.kind is ReportKind.PRELIMINARY
                ]
                assert delivered == [attacked_channel.base_latency + hold]
                assert trace.final_publish().counts == truth_sum
            else:
                try:
                    build(wrapped(attacked_channel))
                except CapabilityError:
                    pass
                else:
                    raise AssertionError(f"{kind} built on a wrapped channel")
            runs += 1

            # Leg B: the attacked edge uses the insecure preset as declared.
            trace = build(attacked_channel).run()
            covered = {
                counts
                for pub in trace.publishes(ReportKind.PRELIMINARY)
                for child, _seq, counts in pub.children
                if child == target
            }
            if kind is AttackKind.TAMPER:
                assert forged in covered
            elif kind is AttackKind.FRONT_RUN:
                assert forged in covered
                stale = [d for d in trace.detects() if d.reason == "stale_sequence"]
                assert any(d.child == target for d in stale)
            else:
                delivered = [
                    r.time for r in trace.records
                    if isinstance(r, DeliverRecord)
                    and r.sender == target and r.kind is ReportKind.PRELIMINARY
                ]
                assert delivered == [attacked_channel.base_latency + hold]
            assert trace.final_publish().counts == truth_sum
            runs += 1
        elapsed = time.perf_counter() - start
        assert runs >= 1000
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_criterion_6_replay_and_mauling():
    with criterion(6, "replay yields one accept per sequence; 10000 mauled reports all rejected"):
        start = time.perf_counter()
        tree = swiss_tree()
        prov = provision_tree(tree, seed=b"acceptance")
        rng = random.Random(99)
        captured = []
        for code in ("ZH", "BE", "GE", "AI"):
            node = canton_id(code)
            for seq in (1, 2, 3):
                report = Report(
                    election_id="replay-check", sender=node, sequence_no=seq,
                    counts=VoteCount(seq * 10, seq, 1), kind=ReportKind.PRELIMINARY,
                    emitted_at=0,
                )
                captured.append(sign_report(prov.keys[node], prov.chain(node), report))

        for _ in range(25):
            batch = captured * 2
            rng.shuffle(batch)
            state = SequenceState("replay-check")
            accepted = set()
            for sr in batch:
                verdict = verify_report(sr, prov.root_certificate, EMPTY_CRL, state)
                if verdict.accepted:
                    key = (sr.report.sender, sr.report.sequence_no)
                    assert key not in accepted, f"double accept for {key}"
                    accepted.add(key)

        deep = provision_tree(
            tree_from_paths([("CH", "ZH", "Uster"), ("CH", "BE", "Bern")]), seed=b"acceptance",
        )
        deep_report = Report(
            election_id="replay-check", sender=JurisdictionId.of("CH", "ZH", "Uster"),
            sequence_no=4, counts=VoteCount(41, 12, 2), kind=ReportKind.FINAL,
            emitted_at=0,
        )
        goldens = [
            signed_report_to_text(captured[0]).encode("utf-8"),
            signed_report_to_text(
                sign_report(
                    deep.keys[deep_report.sender], deep.chain(deep_report.sender), deep_report
                )
            ).encode("utf-8"),
        ]
        roots = [prov.root_certificate, deep.root_certificate]
        survived = 0
        for _ in range(10_000):
            pick = rng.randrange(len(goldens))
            wire = goldens[pick]
            pos = rng.randrange(len(wire))
            replacement = rng.randrange(256)
            while replacement == wire[pos]:
                replacement = rng.randrange(256)
            mauled = wire[:pos] + bytes([replacement]) + wire[pos + 1:]
            try:
                candidate = signed_report_from_text(mauled.decode("utf-8"))
            except Exception:
                continue
            verdict = verify_report(
                candidate, roots[pick], EMPTY_CRL, SequenceState("replay-check")
            )
            survived += verdict.accepted
        elapsed = time.perf_counter() - start
        assert survived == 0
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_criterion_7_solver_optimality():
    with criterion(7, "solvers match brute-force oracles on 500 random small instances"):
        rng = random.Random(4242)
        start = time.perf_counter()
        checked = 0
        for _ in range(500):
            n = rng.randint(1, 5)
            weights = {f"K{i:02d}": rng.choice([1, 2]) for i in range(n)}
            tree = make_canton_tree(weights)
            per_canton = {
                toy_canton_id(code): VoteCount(
                    rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 5)
                )
                for code in weights
            }
            target = rng.choice(list(Decision))

            expected = oracles.cantonal_flips_subsets(per_canton, tree, target)
            try:
                got = min_flips_cantonal(per_canton, tree, target).total_flips
            except Infeasible:
                got = None
            assert got == expected, f"cantonal: {got} vs {expected} on {per_canton}"

            expected = oracles.double_flips_subsets(per_canton, tree, target)
            spec = ReferendumSpec("optimality", MajorityRule.DOUBLE_MAJORITY)
            try:
                got = min_flips_double(per_canton, tree, spec, target).total_flips
            except Infeasible:
                got = None
            assert got == expected, f"double: {got} vs {expected} on {per_canton}"
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 500
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_8_byte_identical_traces(tmp_path):
    with criterion(8, "all three bundled scenarios re-simulate byte-identically"):
        for name in ("swiss_honest", "swiss_tamper", "swiss_delay_noise"):
            scenario = str(bundled_scenario_path(name))
            first = tmp_path / f"{name}.1.trace"
            second = tmp_path / f"{name}.2.trace"
            for out in (first, second):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["simulate", "--scenario", scenario, "--trace-out", str(out)])
                assert code == 0
            assert first.read_bytes() == second.read_bytes(), name
            assert first.stat().st_size > 0
