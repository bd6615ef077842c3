"""Mutations, attack specifications, and capability gating."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votewire.adversary import (
    AttackKind,
    AttackSpec,
    Mutation,
    MutationKind,
    apply_mutation,
    check_attack_permitted,
)
from votewire.channels import (
    DEDICATED_SOFTWARE,
    EMAIL,
    FAX,
    POSTAL_FINAL,
    TELEPHONE,
    wrapped,
)
from votewire.counts import VoteCount
from votewire.engine import Simulation
from votewire.errors import CapabilityError
from votewire.reports import Report, ReportKind
from votewire.traces import DeliverRecord

from helpers import canton_id, make_canton_tree

INSECURE = (TELEPHONE, FAX, EMAIL, DEDICATED_SOFTWARE)
SEALED = (POSTAL_FINAL,) + tuple(wrapped(c) for c in INSECURE)


def sample_report() -> Report:
    return Report(
        election_id="toy",
        sender=canton_id("ZH"),
        sequence_no=1,
        counts=VoteCount(30, 20, 2, 1),
        kind=ReportKind.PRELIMINARY,
        emitted_at=5,
    )


class TestMutations:
    def test_swap_exchanges_yes_and_no(self):
        out = apply_mutation(VoteCount(30, 20, 2, 1), Mutation(MutationKind.SWAP_YES_NO))
        assert out == VoteCount(20, 30, 2, 1)

    def test_set_replaces_everything(self):
        target = VoteCount(1, 2, 3, 4)
        out = apply_mutation(VoteCount(9, 9), Mutation(MutationKind.SET_COUNTS, counts=target))
        assert out == target

    @pytest.mark.parametrize(
        "direction,expected",
        [("yes_to_no", VoteCount(25, 25, 2, 1)), ("no_to_yes", VoteCount(35, 15, 2, 1))],
    )
    def test_shift_moves_ballots_across(self, direction, expected):
        mutation = Mutation(MutationKind.SHIFT, shift=5, direction=direction)
        assert apply_mutation(VoteCount(30, 20, 2, 1), mutation) == expected

    def test_shift_cannot_overdraw_the_source_side(self):
        mutation = Mutation(MutationKind.SHIFT, shift=21, direction="no_to_yes")
        with pytest.raises(ValueError, match="only 20"):
            apply_mutation(VoteCount(30, 20), mutation)

    @given(
        counts=st.builds(
            VoteCount,
            st.integers(0, 500), st.integers(0, 500), st.integers(0, 50), st.integers(0, 50),
        ),
        shift=st.integers(1, 500),
        direction=st.sampled_from(["yes_to_no", "no_to_yes"]),
    )
    def test_shift_preserves_the_total(self, counts, shift, direction):
        source = counts.yes if direction == "yes_to_no" else counts.no
        mutation = Mutation(MutationKind.SHIFT, shift=shift, direction=direction)
        if shift > source:
            with pytest.raises(ValueError):
                apply_mutation(counts, mutation)
        else:
            out = apply_mutation(counts, mutation)
            assert out.total() == counts.total()
            assert (out.yes, out.no) != (counts.yes, counts.no)

    def test_mutation_validation(self):
        with pytest.raises(ValueError, match="replacement counts"):
            Mutation(MutationKind.SET_COUNTS)
        with pytest.raises(ValueError, match="positive ballot count"):
            Mutation(MutationKind.SHIFT, shift=0)
        with pytest.raises(ValueError, match="direction"):
            Mutation(MutationKind.SHIFT, shift=1, direction="sideways")

    def test_describe_is_compact(self):
        assert Mutation(MutationKind.SWAP_YES_NO).describe() == "swap_yes_no"
        assert Mutation(MutationKind.SHIFT, shift=7).describe() == "shift:yes_to_no:7"
        described = Mutation(MutationKind.SET_COUNTS, counts=VoteCount(1, 2, 3, 4)).describe()
        assert described == "set:1:2:3:4"


class TestAttackSpecValidation:
    def test_tamper_needs_a_mutation(self):
        with pytest.raises(ValueError, match="mutation"):
            AttackSpec(AttackKind.TAMPER, canton_id("ZH"))

    def test_delay_needs_positive_hold(self):
        with pytest.raises(ValueError, match="hold_ticks"):
            AttackSpec(AttackKind.DELAY, canton_id("ZH"))

    def test_front_run_needs_forged_counts(self):
        with pytest.raises(ValueError, match="forged_counts"):
            AttackSpec(AttackKind.FRONT_RUN, canton_id("ZH"))

    def test_first_n_must_be_positive_or_none(self):
        with pytest.raises(ValueError, match="first_n"):
            AttackSpec(
                AttackKind.DELAY, canton_id("ZH"), hold_ticks=5, first_n=0
            )
        every = AttackSpec(AttackKind.DELAY, canton_id("ZH"), hold_ticks=5, first_n=None)
        assert every.first_n is None

    def test_forged_seq_must_start_at_one(self):
        # Used to build, then fail mid-run when the forgery was made.
        with pytest.raises(ValueError, match="forged_seq must be >= 1"):
            AttackSpec(
                AttackKind.FRONT_RUN, canton_id("ZH"), forged_counts=VoteCount(1, 0), forged_seq=0
            )

    def test_seq_offset_must_be_positive_unless_forged_seq_is_fixed(self):
        with pytest.raises(ValueError) as exc:
            AttackSpec(
                AttackKind.FRONT_RUN, canton_id("ZH"), forged_counts=VoteCount(1, 0), seq_offset=0
            )
        assert str(exc.value) == "seq_offset must be >= 1 when forged_seq is not fixed"

    def test_mode_labels(self):
        blind = AttackSpec(AttackKind.DELAY, canton_id("ZH"), hold_ticks=5)
        tuned = AttackSpec(AttackKind.DELAY, canton_id("ZH"), hold_ticks=5, omniscient=True)
        assert blind.mode == "blind"
        assert tuned.mode == "omniscient"


class TestCapabilityGating:
    @pytest.mark.parametrize("channel", INSECURE)
    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_everything_goes_on_insecure_channels(self, channel, kind):
        check_attack_permitted(kind, channel)

    @pytest.mark.parametrize("channel", SEALED)
    def test_tamper_blocked_by_integrity(self, channel):
        with pytest.raises(CapabilityError, match="integrity"):
            check_attack_permitted(AttackKind.TAMPER, channel)

    @pytest.mark.parametrize("channel", SEALED)
    def test_front_run_blocked_by_authenticity(self, channel):
        with pytest.raises(CapabilityError, match="authenticates"):
            check_attack_permitted(AttackKind.FRONT_RUN, channel)

    @pytest.mark.parametrize("channel", SEALED)
    def test_delay_survives_signing(self, channel):
        check_attack_permitted(AttackKind.DELAY, channel)


def one_edge_sim(attack: AttackSpec, channel=EMAIL) -> Simulation:
    """CH with one canton, ZH, reporting over ``channel`` with ``attack`` on its edge."""
    zh = canton_id("ZH")
    return Simulation(
        election_id="toy",
        tree=make_canton_tree({"ZH": 2}, {"ZH": 100}),
        channels={zh: channel},
        ground_truth={zh: VoteCount(30, 20, 2, 1)},
        attacks=(attack,),
    )


def preliminaries(attack: AttackSpec) -> list[DeliverRecord]:
    """The preliminary reports the root receives from ZH, in delivery order."""
    return [
        r for r in one_edge_sim(attack).run().records
        if isinstance(r, DeliverRecord) and r.kind is ReportKind.PRELIMINARY
    ]


class TestAttackApplication:
    # The engine applies attacks to what it sends; these check the report
    # that reaches the receiver, and the channel check at construction.
    def test_tamper_rewrites_counts_only(self):
        attack = AttackSpec(
            AttackKind.TAMPER, canton_id("ZH"), mutation=Mutation(MutationKind.SWAP_YES_NO)
        )
        [out] = preliminaries(attack)
        assert out.counts == VoteCount(20, 30, 2, 1)
        assert (out.sender, out.seq, out.kind, out.accepted) == (
            canton_id("ZH"), 1, ReportKind.PRELIMINARY, True,
        )

    def test_tamper_checks_the_channel(self):
        attack = AttackSpec(
            AttackKind.TAMPER, canton_id("ZH"), mutation=Mutation(MutationKind.SWAP_YES_NO)
        )
        with pytest.raises(CapabilityError):
            one_edge_sim(attack, POSTAL_FINAL)

    def test_forged_report_shadows_the_genuine_sender(self):
        attack = AttackSpec(
            AttackKind.FRONT_RUN, canton_id("ZH"), forged_counts=VoteCount(999, 1)
        )
        forged, genuine = preliminaries(attack)
        assert forged.sender == genuine.sender == canton_id("ZH")
        assert forged.counts == VoteCount(999, 1)
        assert forged.seq == genuine.seq + 1000 == 1001

    def test_forged_seq_can_be_pinned(self):
        attack = AttackSpec(
            AttackKind.FRONT_RUN, canton_id("ZH"),
            forged_counts=VoteCount(1, 0), forged_seq=77,
        )
        assert preliminaries(attack)[0].seq == 77

    def test_forgery_checks_the_channel(self):
        attack = AttackSpec(
            AttackKind.FRONT_RUN, canton_id("ZH"), forged_counts=VoteCount(1, 0)
        )
        with pytest.raises(CapabilityError):
            one_edge_sim(attack, wrapped(EMAIL))


# Each field set breaks one rule that Report(...) enforces.
BROKEN_REPORTS = {
    "election_id must be non-empty": dict(election_id=""),
    "sequence_no starts at 1": dict(sequence_no=0),
    "emitted_at must be >= 0 ticks": dict(emitted_at=-1),
}


class TestReportChecks:
    @pytest.mark.parametrize("message, broken", BROKEN_REPORTS.items())
    def test_constructor_checks_every_field(self, message, broken):
        with pytest.raises(ValueError, match=message):
            Report(**{**sample_report()._asdict(), **broken})

    @pytest.mark.parametrize("message, broken", BROKEN_REPORTS.items())
    def test_replace_and_make_are_checked(self, message, broken):
        with pytest.raises(ValueError, match=message):
            sample_report()._replace(**broken)
        with pytest.raises(ValueError, match=message):
            Report._make({**sample_report()._asdict(), **broken}.values())

    def test_replace_keeps_a_valid_report(self):
        report = sample_report()._replace(sequence_no=2)
        assert type(report) is Report
        assert report == Report(*sample_report()[:2], 2, *sample_report()[3:])

    def test_fields_cannot_be_reassigned_or_added(self):
        report = sample_report()
        for name in Report._fields:
            with pytest.raises(AttributeError):
                setattr(report, name, None)
        with pytest.raises(AttributeError):
            report.note = "extra"
