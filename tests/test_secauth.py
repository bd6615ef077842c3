"""Certificate chains, signing, verification, replay and revocation."""

import random
import threading

import pytest

from votewire.channels import EMAIL, preset
from votewire.counts import VoteCount
from votewire.errors import (
    EncodingError,
    HierarchyError,
    ParseError,
    ProvisioningError,
    SubjectMismatch,
)
from votewire.reports import Report, ReportKind
from votewire.secauth import (
    ACCEPT,
    EMPTY_CRL,
    Certificate,
    ForwardingMode,
    RejectReason,
    RevocationList,
    SequenceState,
    SignedReport,
    TrustStore,
    bundle_report,
    canonical_encode,
    issue_certificate,
    make_key,
    provision_tree,
    scheme,
    sign_report,
    signed_report_from_text,
    signed_report_to_text,
    verify_bundle,
    verify_report,
    wrap_channel,
)
from votewire.secauth.pki import certificate_from_text
from votewire.secauth.schemes import SchnorrScheme
from votewire.swiss import swiss_tree
from votewire.tree import JurisdictionId, tree_from_paths

CH = JurisdictionId.of("CH")
ZH = JurisdictionId.of("CH", "ZH")
BE = JurisdictionId.of("CH", "BE")
USTER = JurisdictionId.of("CH", "ZH", "Uster")
WIL = JurisdictionId.of("CH", "ZH", "Wil")
BERN_CITY = JurisdictionId.of("CH", "BE", "Bern")


@pytest.fixture(scope="module")
def deep():
    tree = tree_from_paths(
        [("CH", "ZH", "Uster"), ("CH", "ZH", "Wil"), ("CH", "BE", "Bern")]
    )
    return provision_tree(tree, scheme("ed25519"), seed=b"fixture")


def report_for(sender, seq=1, counts=None, election="ref-1", kind=ReportKind.PRELIMINARY):
    return Report(
        election_id=election,
        sender=sender,
        sequence_no=seq,
        counts=counts if counts is not None else VoteCount(120, 80, 3, 1),
        kind=kind,
        emitted_at=0,
    )


def signed(prov, sender, **kwargs) -> SignedReport:
    return sign_report(prov.keys[sender], prov.chain(sender), report_for(sender, **kwargs))


def fresh_state(election="ref-1") -> SequenceState:
    return SequenceState(election)


class TestCanonicalEncoding:
    def test_exact_byte_layout(self):
        encoded = canonical_encode(report_for(USTER))
        assert encoded == (
            b"election=ref-1\n"
            b"sender=CH/ZH/Uster\n"
            b"seq=1\n"
            b"kind=Preliminary\n"
            b"yes=120\n"
            b"no=80\n"
            b"blank=3\n"
            b"invalid=1\n"
        )

    def test_final_kind_label(self):
        encoded = canonical_encode(report_for(USTER, kind=ReportKind.FINAL))
        assert b"kind=Final\n" in encoded

    def test_differing_seq_differing_bytes(self):
        assert canonical_encode(report_for(USTER, seq=1)) != canonical_encode(
            report_for(USTER, seq=2)
        )

    def test_encoding_is_stable(self):
        assert canonical_encode(report_for(USTER)) == canonical_encode(report_for(USTER))

    def test_forbidden_characters_in_election_id(self):
        with pytest.raises(EncodingError, match="line feed"):
            canonical_encode(report_for(USTER, election="a\nb"))
        with pytest.raises(EncodingError, match="'='"):
            canonical_encode(report_for(USTER, election="a=b"))

    def test_forbidden_characters_in_sender(self):
        odd = JurisdictionId.of("CH", "Z=H")
        with pytest.raises(EncodingError, match="'='"):
            canonical_encode(report_for(odd))

    def test_emitted_at_is_not_signed(self):
        late = Report("ref-1", USTER, 1, VoteCount(120, 80, 3, 1), ReportKind.PRELIMINARY, 999)
        assert canonical_encode(late) == canonical_encode(report_for(USTER))


class TestSchemes:
    @pytest.mark.parametrize("name", ["ed25519", "schnorr"])
    def test_sign_verify_roundtrip(self, name):
        s = scheme(name)
        private, public = s.keypair(seed=b"k1")
        sig = s.sign(private, b"hello")
        assert s.verify(public, b"hello", sig)
        assert not s.verify(public, b"hello!", sig)
        assert not s.verify(public, b"hello", sig[:-1])
        assert not s.verify(public, b"hello", bytes(len(sig)))

    @pytest.mark.parametrize("name", ["ed25519", "schnorr"])
    def test_seeded_keypairs_are_deterministic(self, name):
        s = scheme(name)
        assert s.keypair(seed=b"a") == s.keypair(seed=b"a")
        assert s.keypair(seed=b"a") != s.keypair(seed=b"b")

    @pytest.mark.parametrize("name", ["ed25519", "schnorr"])
    def test_wrong_key_rejects(self, name):
        s = scheme(name)
        private, _ = s.keypair(seed=b"a")
        _, other_public = s.keypair(seed=b"b")
        assert not s.verify(other_public, b"m", s.sign(private, b"m"))

    def test_schnorr_group_is_coherent(self):
        s = SchnorrScheme()
        assert (s.group_p - 1) % s.group_q == 0
        assert s.group_g != 1
        assert pow(s.group_g, s.group_q, s.group_p) == 1

    def test_schnorr_signatures_are_deterministic(self):
        s = scheme("schnorr")
        private, _ = s.keypair(seed=b"a")
        assert s.sign(private, b"m") == s.sign(private, b"m")

    def test_unknown_scheme(self):
        with pytest.raises(KeyError, match="unknown signature scheme"):
            scheme("rot13")


class TestKeyHandle:
    def test_sign_only_surface(self):
        handle, public = make_key(ZH, scheme("ed25519"), seed=b"k")
        sig = handle.sign(b"m")
        assert scheme("ed25519").verify(public, b"m", sig)
        assert handle.subject == ZH
        assert handle.scheme == "ed25519"

    def test_repr_leaks_no_key_material(self):
        s = scheme("ed25519")
        private, public = s.keypair(seed=b"k")
        handle, _ = make_key(ZH, s, seed=b"k")
        text = repr(handle)
        assert private.hex() not in text
        assert public.hex() not in text

    def test_no_key_attribute_exists(self):
        handle, _ = make_key(ZH, scheme("ed25519"), seed=b"k")
        exposed = [a for a in dir(handle) if "key" in a.lower() and a != "scheme"]
        assert not any(isinstance(getattr(handle, a, None), bytes) for a in exposed)


class TestCertificates:
    def test_root_is_self_signed(self, deep):
        root = deep.root_certificate
        assert root.subject == root.issuer == CH
        assert scheme(root.scheme).verify(root.public_key, root.payload(), root.issuer_signature)

    def test_issue_requires_direct_child(self, deep):
        strangers_key, strangers_public = make_key(BERN_CITY, scheme("ed25519"), seed=b"x")
        with pytest.raises(HierarchyError, match="direct children"):
            issue_certificate(
                deep.keys[ZH], deep.certificates[ZH], BERN_CITY, strangers_public, serial=99
            )

    def test_issue_requires_matching_key_and_cert(self, deep):
        _, public = make_key(WIL, scheme("ed25519"), seed=b"x")
        with pytest.raises(SubjectMismatch):
            issue_certificate(
                deep.keys[BE], deep.certificates[ZH], WIL, public, serial=99
            )

    def test_chain_length_equals_depth_everywhere(self, deep):
        tree = tree_from_paths(
            [("CH", "ZH", "Uster"), ("CH", "ZH", "Wil"), ("CH", "BE", "Bern")]
        )
        for node in tree.nodes():
            assert len(deep.chain(node)) == node.depth

    def test_serials_are_unique(self, deep):
        serials = [cert.serial for cert in deep.certificates.values()]
        assert len(serials) == len(set(serials))

    def test_provisioning_is_deterministic_under_a_seed(self):
        tree = tree_from_paths([("CH", "ZH"), ("CH", "BE")])
        a = provision_tree(tree, scheme("schnorr"), seed=b"s")
        b = provision_tree(tree, scheme("schnorr"), seed=b"s")
        assert {n: c.to_text() for n, c in a.certificates.items()} == {
            n: c.to_text() for n, c in b.certificates.items()
        }

    def test_unseeded_provisioning_differs(self):
        tree = tree_from_paths([("CH", "ZH")])
        a = provision_tree(tree)
        b = provision_tree(tree)
        assert a.certificates[ZH].public_key != b.certificates[ZH].public_key

    def test_text_round_trip(self, deep):
        cert = deep.certificates[USTER]
        assert certificate_from_text(cert.to_text()) == cert

    def test_parse_rejects_uppercase_hex(self, deep):
        text = deep.certificates[ZH].to_text()
        mangled = text.replace("public_key=", "public_key=A", 1)
        with pytest.raises(ParseError, match="lowercase"):
            certificate_from_text(mangled)

    def test_parse_rejects_reordered_fields(self, deep):
        lines = deep.certificates[ZH].to_text().splitlines(keepends=True)
        swapped = "".join([lines[1], lines[0], *lines[2:]])
        with pytest.raises(ParseError, match="expected 'subject="):
            certificate_from_text(swapped)

    def test_parse_rejects_padded_serial(self, deep):
        text = deep.certificates[ZH].to_text().replace("serial=", "serial=0", 1)
        with pytest.raises(ParseError, match="serial"):
            certificate_from_text(text)


class TestTrustStore:
    def test_save_load_round_trip(self, deep, tmp_path):
        store = TrustStore.from_provisioned(deep)
        store.save(tmp_path / "store")
        loaded = TrustStore.load(tmp_path / "store")
        assert loaded.root_certificate == deep.root_certificate
        assert loaded.get(USTER) == deep.certificates[USTER]
        assert set(loaded.certificates) == set(deep.certificates)

    def test_root_is_pinned_by_filename(self, deep, tmp_path):
        TrustStore.from_provisioned(deep).save(tmp_path)
        assert (tmp_path / "root.cert").is_file()
        assert (tmp_path / "CH__ZH__Uster.cert").is_file()

    def test_missing_root_file(self, tmp_path):
        with pytest.raises(ParseError, match="no root.cert"):
            TrustStore.load(tmp_path)

    def test_misfiled_certificate(self, deep, tmp_path):
        TrustStore.from_provisioned(deep).save(tmp_path)
        zh = tmp_path / "CH__ZH.cert"
        (tmp_path / "CH__IMPOSTOR.cert").write_text(zh.read_text())
        with pytest.raises(ParseError, match="belongs in"):
            TrustStore.load(tmp_path)


class TestSignReport:
    def test_happy_path_verifies(self, deep):
        sr = signed(deep, USTER)
        assert verify_report(sr, deep.root_certificate, EMPTY_CRL, fresh_state()) == ACCEPT

    def test_key_must_match_sender(self, deep):
        with pytest.raises(SubjectMismatch, match="claims sender"):
            sign_report(deep.keys[WIL], deep.chain(WIL), report_for(USTER))

    def test_chain_must_start_at_signer(self, deep):
        with pytest.raises(SubjectMismatch, match="chain starts"):
            sign_report(deep.keys[USTER], deep.chain(ZH), report_for(USTER))

    def test_empty_chain_refused(self, deep):
        with pytest.raises(SubjectMismatch, match="empty"):
            sign_report(deep.keys[USTER], (), report_for(USTER))


class TestVerifyReasons:
    def test_bad_signature_after_count_flip(self, deep):
        sr = signed(deep, USTER)
        tampered = SignedReport(
            report=report_for(USTER, counts=VoteCount(121, 79, 3, 1)),
            signature=sr.signature,
            chain=sr.chain,
        )
        verdict = verify_report(tampered, deep.root_certificate, EMPTY_CRL, fresh_state())
        assert verdict.reason is RejectReason.BAD_SIGNATURE

    def test_bad_signature_after_signature_flip(self, deep):
        sr = signed(deep, USTER)
        flipped = bytes([sr.signature[0] ^ 1]) + sr.signature[1:]
        verdict = verify_report(
            SignedReport(sr.report, flipped, sr.chain),
            deep.root_certificate, EMPTY_CRL, fresh_state(),
        )
        assert verdict.reason is RejectReason.BAD_SIGNATURE

    def test_replay_is_rejected(self, deep):
        sr = signed(deep, USTER)
        state = fresh_state()
        assert verify_report(sr, deep.root_certificate, EMPTY_CRL, state).accepted
        verdict = verify_report(sr, deep.root_certificate, EMPTY_CRL, state)
        assert verdict.reason is RejectReason.REPLAY

    def test_older_sequence_is_replay(self, deep):
        state = fresh_state()
        newer = signed(deep, USTER, seq=5)
        older = signed(deep, USTER, seq=4)
        assert verify_report(newer, deep.root_certificate, EMPTY_CRL, state).accepted
        assert verify_report(older, deep.root_certificate, EMPTY_CRL, state).reason is RejectReason.REPLAY

    def test_wrong_election(self, deep):
        sr = signed(deep, USTER, election="ref-1")
        verdict = verify_report(sr, deep.root_certificate, EMPTY_CRL, fresh_state("ref-2"))
        assert verdict.reason is RejectReason.WRONG_ELECTION

    def test_sender_mismatch(self, deep):
        # A valid chain for Uster presented with a report claiming Wil.
        honest = signed(deep, USTER)
        lying = SignedReport(
            report=report_for(WIL),
            signature=deep.keys[USTER].sign(canonical_encode(report_for(WIL))),
            chain=honest.chain,
        )
        verdict = verify_report(lying, deep.root_certificate, EMPTY_CRL, fresh_state())
        assert verdict.reason is RejectReason.SENDER_MISMATCH

    def test_empty_chain_is_broken(self, deep):
        sr = signed(deep, USTER)
        verdict = verify_report(
            SignedReport(sr.report, sr.signature, ()),
            deep.root_certificate, EMPTY_CRL, fresh_state(),
        )
        assert verdict.reason is RejectReason.BROKEN_CHAIN

    def test_missing_middle_link_is_broken(self, deep):
        sr = signed(deep, USTER)
        gap = (sr.chain[0],)
        verdict = verify_report(
            SignedReport(sr.report, sr.signature, gap),
            deep.root_certificate, EMPTY_CRL, fresh_state(),
        )
        # Uster's certificate alone claims ZH as issuer, but ZH is not the root.
        assert verdict.reason is RejectReason.UNTRUSTED_ROOT

    def test_reordered_chain_is_broken(self, deep):
        sr = signed(deep, USTER)
        verdict = verify_report(
            SignedReport(sr.report, sr.signature, tuple(reversed(sr.chain))),
            deep.root_certificate, EMPTY_CRL, fresh_state(),
        )
        assert not verdict.accepted

    def test_tampered_chain_public_key_is_broken(self, deep):
        sr = signed(deep, USTER)
        head = sr.chain[0]
        forged_key = bytes(len(head.public_key))
        forged = Certificate(
            head.subject, head.issuer, head.serial, head.scheme,
            forged_key, head.issuer_signature,
        )
        verdict = verify_report(
            SignedReport(sr.report, sr.signature, (forged, *sr.chain[1:])),
            deep.root_certificate, EMPTY_CRL, fresh_state(),
        )
        assert verdict.reason is RejectReason.BROKEN_CHAIN

    def test_foreign_root_is_untrusted(self, deep):
        shadow = provision_tree(
            tree_from_paths([("CH", "ZH", "Uster")]), scheme("ed25519"), seed=b"shadow"
        )
        sr = signed(shadow, USTER)
        verdict = verify_report(sr, deep.root_certificate, EMPTY_CRL, fresh_state())
        assert verdict.reason is RejectReason.UNTRUSTED_ROOT

    def test_swiss_preset_bootstrap_verifies_everywhere(self):
        tree = swiss_tree()
        prov = provision_tree(tree, scheme("ed25519"), seed=b"swiss")
        state = fresh_state()
        for canton in tree.cantons():
            sr = signed(prov, canton)
            assert verify_report(sr, prov.root_certificate, EMPTY_CRL, state) == ACCEPT


class TestRevocation:
    def test_revoked_leaf_serial_rejects(self, deep):
        sr = signed(deep, USTER)
        crl = EMPTY_CRL.with_revoked(deep.certificates[USTER].serial)
        verdict = verify_report(sr, deep.root_certificate, crl, fresh_state())
        assert verdict.reason is RejectReason.REVOKED

    def test_revoking_a_canton_rejects_its_municipalities(self, deep):
        crl = EMPTY_CRL.with_revoked(deep.certificates[ZH].serial)
        for leaf in (USTER, WIL):
            verdict = verify_report(signed(deep, leaf), deep.root_certificate, crl, fresh_state())
            assert verdict.reason is RejectReason.REVOKED
        untouched = verify_report(
            signed(deep, BERN_CITY), deep.root_certificate, crl, fresh_state()
        )
        assert untouched.accepted

    def test_revocation_survives_any_merge_order(self, deep):
        serial = deep.certificates[USTER].serial
        revoked = EMPTY_CRL.with_revoked(serial)
        late_empty = RevocationList(version=0)
        for merged in (revoked.merge(late_empty), late_empty.merge(revoked)):
            assert merged.is_revoked(serial)
            verdict = verify_report(
                signed(deep, USTER), deep.root_certificate, merged, fresh_state()
            )
            assert verdict.reason is RejectReason.REVOKED

    def test_versions_only_grow(self):
        crl = EMPTY_CRL.with_revoked(3).with_revoked(9)
        assert crl.version == 2
        assert crl.revoked == {3, 9}


class TestSequenceState:
    def test_at_most_one_accept_under_concurrency(self, deep):
        sr = signed(deep, USTER, seq=7)
        state = fresh_state()
        verdicts = []
        barrier = threading.Barrier(8)

        def attempt():
            barrier.wait()
            verdicts.append(verify_report(sr, deep.root_certificate, EMPTY_CRL, state))

        threads = [threading.Thread(target=attempt) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        accepted = [v for v in verdicts if v.accepted]
        assert len(accepted) == 1
        assert all(v.reason is RejectReason.REPLAY for v in verdicts if not v.accepted)

    def test_batch_records_all_numbers_or_none(self):
        state = fresh_state()
        assert state.accept_if_fresh(WIL, 4)
        assert not state.accept_all_if_fresh([(USTER, 1), (WIL, 4)])
        assert (state.last(USTER), state.last(WIL)) == (0, 4)
        assert state.accept_all_if_fresh([(USTER, 3), (WIL, 5)])
        assert (state.last(USTER), state.last(WIL)) == (3, 5)

    def test_redelivery_in_any_order_accepts_each_seq_once(self, deep):
        reports = [signed(deep, USTER, seq=s) for s in (1, 2, 3)]
        rng = random.Random(5)
        for _ in range(30):
            batch = reports * 3
            rng.shuffle(batch)
            state = fresh_state()
            accepted = [
                sr.report.sequence_no
                for sr in batch
                if verify_report(sr, deep.root_certificate, EMPTY_CRL, state).accepted
            ]
            assert len(accepted) == len(set(accepted))
            assert accepted == sorted(accepted)

    def test_state_is_per_sender(self, deep):
        state = fresh_state()
        assert verify_report(signed(deep, USTER, seq=1), deep.root_certificate, EMPTY_CRL, state).accepted
        assert verify_report(signed(deep, WIL, seq=1), deep.root_certificate, EMPTY_CRL, state).accepted
        assert state.last(USTER) == 1
        assert state.last(WIL) == 1


class TestWrapChannel:
    def test_wrap_flips_flags_only(self, deep):
        wrapped_spec = wrap_channel(EMAIL, USTER, ZH, deep.certificates)
        assert wrapped_spec.integrity and wrapped_spec.authenticity
        assert wrapped_spec.delayable == EMAIL.delayable
        assert wrapped_spec.base_latency == EMAIL.base_latency

    def test_wrap_needs_both_endpoints_provisioned(self, deep):
        certs = {k: v for k, v in deep.certificates.items() if k != USTER}
        with pytest.raises(ProvisioningError, match="CH/ZH/Uster"):
            wrap_channel(EMAIL, USTER, ZH, certs)
        certs = {k: v for k, v in deep.certificates.items() if k != ZH}
        with pytest.raises(ProvisioningError, match="CH/ZH"):
            wrap_channel(EMAIL, USTER, ZH, certs)

    def test_wrap_works_on_any_preset(self, deep):
        for name in ("telephone", "fax", "email", "dedicated"):
            spec = wrap_channel(preset(name), USTER, ZH, deep.certificates)
            assert spec.integrity and spec.authenticity and spec.delayable


class TestBundles:
    def make_children(self, deep, seq=1):
        uster = signed(deep, USTER, seq=seq, counts=VoteCount(10, 5))
        wil = signed(deep, WIL, seq=seq, counts=VoteCount(7, 8))
        return uster, wil

    def aggregate_report(self, seq=1, counts=VoteCount(17, 13)):
        return report_for(ZH, seq=seq, counts=counts)

    def test_relay_bundle_verifies(self, deep):
        children = self.make_children(deep)
        bundle = bundle_report(
            ForwardingMode.RELAY_AND_COUNTERSIGN,
            deep.keys[ZH], deep.chain(ZH), self.aggregate_report(), children,
        )
        assert verify_bundle(bundle, deep.root_certificate, EMPTY_CRL, fresh_state()) == ACCEPT

    def test_relay_is_the_default_forwarding_mode(self):
        assert ForwardingMode.RELAY_AND_COUNTERSIGN.value == "relay_and_countersign"

    def test_re_sign_bundle_has_no_attachments(self, deep):
        bundle = bundle_report(
            ForwardingMode.RE_SIGN, deep.keys[ZH], deep.chain(ZH), self.aggregate_report()
        )
        assert bundle.attachments == ()
        assert verify_bundle(bundle, deep.root_certificate, EMPTY_CRL, fresh_state()) == ACCEPT

    def test_builder_rejects_mismatched_sum(self, deep):
        children = self.make_children(deep)
        with pytest.raises(ValueError, match="differ from attachment sum"):
            bundle_report(
                ForwardingMode.RELAY_AND_COUNTERSIGN,
                deep.keys[ZH], deep.chain(ZH),
                self.aggregate_report(counts=VoteCount(18, 13)), children,
            )

    def test_builder_rejects_foreign_children(self, deep):
        bern = signed(deep, BERN_CITY, counts=VoteCount(1, 1))
        with pytest.raises(ValueError, match="not a direct child"):
            bundle_report(
                ForwardingMode.RELAY_AND_COUNTERSIGN,
                deep.keys[ZH], deep.chain(ZH),
                self.aggregate_report(counts=VoteCount(1, 1)), [bern],
            )

    def test_verifier_rejects_doctored_sum_without_burning_seq(self, deep):
        children = self.make_children(deep)
        good = bundle_report(
            ForwardingMode.RELAY_AND_COUNTERSIGN,
            deep.keys[ZH], deep.chain(ZH), self.aggregate_report(), children,
        )
        doctored = type(good)(
            mode=good.mode,
            aggregate=signed(deep, ZH, counts=VoteCount(99, 13)),
            attachments=good.attachments,
        )
        state = fresh_state()
        verdict = verify_bundle(doctored, deep.root_certificate, EMPTY_CRL, state)
        assert verdict.reason is RejectReason.AGGREGATE_MISMATCH
        assert state.last(ZH) == 0
        assert state.last(USTER) == 0

    def test_verifier_rejects_attachments_on_re_sign(self, deep):
        children = self.make_children(deep)
        bundle = bundle_report(
            ForwardingMode.RE_SIGN, deep.keys[ZH], deep.chain(ZH), self.aggregate_report()
        )
        with_extras = type(bundle)(
            mode=bundle.mode, aggregate=bundle.aggregate, attachments=children
        )
        verdict = verify_bundle(with_extras, deep.root_certificate, EMPTY_CRL, fresh_state())
        assert verdict.reason is RejectReason.AGGREGATE_MISMATCH

    def test_bad_attachment_fails_the_bundle(self, deep):
        uster, wil = self.make_children(deep)
        broken = SignedReport(uster.report, bytes(len(uster.signature)), uster.chain)
        good = bundle_report(
            ForwardingMode.RELAY_AND_COUNTERSIGN,
            deep.keys[ZH], deep.chain(ZH), self.aggregate_report(), (uster, wil),
        )
        doctored = type(good)(mode=good.mode, aggregate=good.aggregate, attachments=(broken, wil))
        verdict = verify_bundle(doctored, deep.root_certificate, EMPTY_CRL, fresh_state())
        assert verdict.reason is RejectReason.BAD_SIGNATURE

    def test_rejected_bundle_leaves_every_sequence_number_unused(self, deep):
        uster, wil = self.make_children(deep)
        honest = bundle_report(
            ForwardingMode.RELAY_AND_COUNTERSIGN,
            deep.keys[ZH], deep.chain(ZH), self.aggregate_report(), (uster, wil),
        )
        forged_wil = SignedReport(wil.report, bytes(len(wil.signature)), wil.chain)
        forged_aggregate = SignedReport(
            honest.aggregate.report, bytes(len(honest.aggregate.signature)), honest.aggregate.chain
        )
        state = fresh_state()
        for attachments, aggregate in (
            ((uster, forged_wil), honest.aggregate),
            ((uster, wil), forged_aggregate),
        ):
            doctored = type(honest)(mode=honest.mode, aggregate=aggregate, attachments=attachments)
            verdict = verify_bundle(doctored, deep.root_certificate, EMPTY_CRL, state)
            assert verdict.reason is RejectReason.BAD_SIGNATURE
            assert (state.last(USTER), state.last(WIL), state.last(ZH)) == (0, 0, 0)
        assert verify_bundle(honest, deep.root_certificate, EMPTY_CRL, state) == ACCEPT
        assert (state.last(USTER), state.last(WIL), state.last(ZH)) == (1, 1, 1)

    def test_bundle_with_one_stale_report_commits_nothing(self, deep):
        uster, wil = self.make_children(deep, seq=2)
        bundle = bundle_report(
            ForwardingMode.RELAY_AND_COUNTERSIGN,
            deep.keys[ZH], deep.chain(ZH), self.aggregate_report(seq=2), (uster, wil),
        )
        state = fresh_state()
        assert state.accept_if_fresh(WIL, 2)
        verdict = verify_bundle(bundle, deep.root_certificate, EMPTY_CRL, state)
        assert verdict.reason is RejectReason.REPLAY
        assert (state.last(USTER), state.last(WIL), state.last(ZH)) == (0, 2, 0)


class TestWireFormat:
    def test_round_trip(self, deep):
        sr = signed(deep, USTER)
        text = signed_report_to_text(sr)
        back = signed_report_from_text(text)
        assert back == SignedReport(
            report=report_for(USTER), signature=sr.signature, chain=sr.chain
        )
        assert signed_report_to_text(back) == text

    def test_round_trip_via_schnorr(self):
        tree = tree_from_paths([("CH", "ZH", "Uster")])
        prov = provision_tree(tree, scheme("schnorr"), seed=b"s")
        sr = signed(prov, USTER)
        back = signed_report_from_text(signed_report_to_text(sr))
        assert verify_report(back, prov.root_certificate, EMPTY_CRL, fresh_state()) == ACCEPT

    def test_trailing_garbage_rejected(self, deep):
        text = signed_report_to_text(signed(deep, USTER))
        with pytest.raises(ParseError, match="expected exactly"):
            signed_report_from_text(text + "extra=1\n")

    def test_chain_count_must_match(self, deep):
        text = signed_report_to_text(signed(deep, USTER))
        with pytest.raises(ParseError):
            signed_report_from_text(text.replace("chain=2", "chain=1", 1))

    def test_non_canonical_decimals_rejected(self, deep):
        text = signed_report_to_text(signed(deep, USTER))
        with pytest.raises(ParseError, match="canonical decimal"):
            signed_report_from_text(text.replace("yes=120", "yes=0120", 1))

    def test_single_byte_mauls_never_verify(self, deep):
        # Soundness, sampled: flip one byte anywhere in the wire form and
        # the result must fail to parse or fail to verify.
        sr = signed(deep, USTER)
        wire = signed_report_to_text(sr).encode("utf-8")
        rng = random.Random(1234)
        survivors = 0
        for _ in range(2_000):
            pos = rng.randrange(len(wire))
            replacement = rng.randrange(256)
            while replacement == wire[pos]:
                replacement = rng.randrange(256)
            mauled = wire[:pos] + bytes([replacement]) + wire[pos + 1:]
            try:
                candidate = signed_report_from_text(mauled.decode("utf-8"))
            except (ParseError, UnicodeDecodeError):
                continue
            verdict = verify_report(
                candidate, deep.root_certificate, EMPTY_CRL, fresh_state()
            )
            survivors += verdict.accepted
        assert survivors == 0

    def test_truncation_never_verifies(self, deep):
        sr = signed(deep, USTER)
        wire = signed_report_to_text(sr)
        for cut in range(1, len(wire), 97):
            try:
                candidate = signed_report_from_text(wire[:cut])
            except ParseError:
                continue
            verdict = verify_report(
                candidate, deep.root_certificate, EMPTY_CRL, fresh_state()
            )
            assert not verdict.accepted
