"""Certificate chains, signing, verification, replay and revocation."""

import functools
import hashlib
import random
import sys
import threading
import time
import unicodedata

import pytest

from votewire.counts import VoteCount
from votewire.errors import (
    EncodingError,
    HierarchyError,
    ParseError,
    StoreConflict,
    SubjectMismatch,
)
from votewire import reports
from votewire.reports import Report, ReportKind
from votewire.secauth import (
    ACCEPT,
    EMPTY_CRL,
    Certificate,
    RejectReason,
    SequenceState,
    SignedReport,
    TrustStore,
    canonical_encode,
    certificate_payload,
    issue_certificate,
    make_key,
    provision_tree,
    sign_report,
    signed_report_from_text,
    signed_report_to_text,
    verify_report,
)
from votewire.secauth import schemes
from votewire.secauth.pki import certificate_from_text
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
    return provision_tree(tree, seed=b"fixture")


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


@functools.cache
def non_ascii_zeros() -> tuple[str, ...]:
    """The zero of every non-ASCII run of Unicode decimal digits 0-9."""
    return tuple(
        ch for ch in map(chr, range(0x80, sys.maxunicode + 1))
        if unicodedata.decimal(ch, None) == 0
    )


# Every line boundary str.splitlines knows besides the line feed.
OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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
    def test_sign_verify_roundtrip(self):
        sign, public = schemes.signing_key(seed=b"k1")
        sig = sign(b"hello")
        assert schemes.verify(public, b"hello", sig)
        assert not schemes.verify(public, b"hello!", sig)
        assert not schemes.verify(public, b"hello", sig[:-1])
        assert not schemes.verify(public, b"hello", bytes(len(sig)))

    def test_seeded_keypairs_are_deterministic(self):
        sign, public = schemes.signing_key(seed=b"a")
        sign_again, public_again = schemes.signing_key(seed=b"a")
        assert public_again == public
        assert sign_again(b"m") == sign(b"m")
        assert schemes.signing_key(seed=b"b")[1] != public

    def test_wrong_key_rejects(self):
        sign, _ = schemes.signing_key(seed=b"a")
        _, other_public = schemes.signing_key(seed=b"b")
        assert not schemes.verify(other_public, b"m", sign(b"m"))

    def test_signatures_are_deterministic(self):
        sign, _ = schemes.signing_key(seed=b"a")
        assert sign(b"m") == sign(b"m")

    def test_seeded_key_derivation_is_unchanged(self):
        # Trust stores written with a seed depend on this rule staying put:
        # the private key is sha256(b"ed25519-key:" + seed).
        _, public = schemes.signing_key(seed=b"a")
        assert public.hex() == "11ff041f9391252e0769c251001bc3b151bbad7e9460630ec963ad2a371d09dc"
        from cryptography.hazmat.primitives.asymmetric import ed25519

        private = ed25519.Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"ed25519-key:a").digest())
        assert public == private.public_key().public_bytes_raw()

    def test_unseeded_keypairs_differ(self):
        assert schemes.signing_key()[1] != schemes.signing_key()[1]

    def test_key_and_signature_sizes(self):
        sign, public = schemes.signing_key(seed=b"a")
        assert len(public) == 32
        assert len(sign(b"m")) == 64

    def test_malformed_public_key_rejects_without_raising(self):
        sign, public = schemes.signing_key(seed=b"a")
        sig = sign(b"m")
        assert not schemes.verify(public[:-1], b"m", sig)
        assert not schemes.verify(b"", b"m", sig)


class TestKeyHandle:
    def test_sign_only_surface(self):
        handle, public = make_key(ZH, seed=b"k")
        sig = handle.sign(b"m")
        assert schemes.verify(public, b"m", sig)
        assert handle.subject == ZH

    def test_repr_leaks_no_key_material(self):
        private = hashlib.sha256(b"ed25519-key:k").digest()
        handle, public = make_key(ZH, seed=b"k")
        text = repr(handle)
        assert private.hex() not in text
        assert public.hex() not in text

    def test_no_key_attribute_exists(self):
        handle, _ = make_key(ZH, seed=b"k")
        exposed = [a for a in dir(handle) if "key" in a.lower()]
        assert not any(isinstance(getattr(handle, a, None), bytes) for a in exposed)


class TestCertificates:
    def test_root_is_self_signed(self, deep):
        root = deep.root_certificate
        assert root.subject == root.issuer == CH
        assert root.scheme == "ed25519"
        assert schemes.verify(root.public_key, root.payload(), root.issuer_signature)

    def test_issue_requires_direct_child(self, deep):
        strangers_key, strangers_public = make_key(BERN_CITY, seed=b"x")
        with pytest.raises(HierarchyError, match="direct children"):
            issue_certificate(
                deep.keys[ZH], deep.certificates[ZH], BERN_CITY, strangers_public, serial=99
            )

    def test_issue_requires_matching_key_and_cert(self, deep):
        _, public = make_key(WIL, seed=b"x")
        with pytest.raises(SubjectMismatch):
            issue_certificate(
                deep.keys[BE], deep.certificates[ZH], WIL, public, serial=99
            )

    def test_chain_length_equals_depth_everywhere(self, deep):
        tree = tree_from_paths(
            [("CH", "ZH", "Uster"), ("CH", "ZH", "Wil"), ("CH", "BE", "Bern")]
        )
        for node in tree.order():
            assert len(deep.chain(node)) == len(node.path) - 1

    def test_serials_are_unique(self, deep):
        serials = [cert.serial for cert in deep.certificates.values()]
        assert len(serials) == len(set(serials))

    def test_provisioning_is_deterministic_under_a_seed(self):
        tree = tree_from_paths([("CH", "ZH"), ("CH", "BE")])
        a = provision_tree(tree, seed=b"s")
        b = provision_tree(tree, seed=b"s")
        assert {n: c.to_text() for n, c in a.certificates.items()} == {
            n: c.to_text() for n, c in b.certificates.items()
        }

    def test_every_certificate_names_ed25519(self):
        prov = provision_tree(swiss_tree(), seed=b"s")
        assert {c.scheme for c in prov.certificates.values()} == {schemes.NAME}
        assert all("scheme=ed25519\n" in c.to_text() for c in prov.certificates.values())

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
        deep.save(tmp_path / "store")
        loaded = TrustStore.load(tmp_path / "store")
        assert loaded.root_certificate == deep.root_certificate
        assert loaded.certificates[USTER] == deep.certificates[USTER]
        assert set(loaded.certificates) == set(deep.certificates)
        assert loaded.chain(USTER) == deep.chain(USTER)

    def test_root_is_pinned_by_filename(self, deep, tmp_path):
        deep.save(tmp_path)
        assert (tmp_path / "root.cert").is_file()
        assert (tmp_path / "CH__ZH__Uster.cert").is_file()

    def test_missing_root_file(self, tmp_path):
        with pytest.raises(ParseError, match="no root.cert"):
            TrustStore.load(tmp_path)

    def test_misfiled_certificate(self, deep, tmp_path):
        deep.save(tmp_path)
        zh = tmp_path / "CH__ZH.cert"
        (tmp_path / "CH__IMPOSTOR.cert").write_text(zh.read_text())
        with pytest.raises(ParseError, match="belongs in"):
            TrustStore.load(tmp_path)

    def test_a_certificate_file_that_is_not_utf8_is_a_parse_error(self, deep, tmp_path):
        deep.save(tmp_path)
        zh = tmp_path / "CH__ZH.cert"
        zh.write_bytes(zh.read_bytes().replace(b"CH/ZH", b"CH/Z\xfcH", 1))
        with pytest.raises(ParseError, match=r"CH__ZH\.cert is not UTF-8 text"):
            TrustStore.load(tmp_path)

    def test_a_malformed_certificate_file_is_named(self, deep, tmp_path):
        deep.save(tmp_path)
        (tmp_path / "CH__ZH.cert").write_text("garbage\n")
        with pytest.raises(ParseError, match=r"CH__ZH\.cert: expected 6 lines after line 0, found 1$"):
            TrustStore.load(tmp_path)

    def test_two_nodes_sharing_a_file_name_are_refused_before_writing(self, tmp_path):
        # CH/a__b and CH/a/b both map to CH__a__b.cert.
        store = provision_tree(tree_from_paths([("CH", "a__b"), ("CH", "a", "b")]), seed=b"x")
        assert len(store.certificates) == 4
        with pytest.raises(StoreConflict, match=r"CH__a__b\.cert: CH/a__b and CH/a/b share it"):
            store.save(tmp_path / "store")
        assert not (tmp_path / "store").exists()

    def test_a_directory_holding_another_store_is_refused_before_writing(self, deep, tmp_path):
        deep.save(tmp_path)
        other = provision_tree(tree_from_paths([("CH", "ZH", "Uster")]), seed=b"other")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(StoreConflict, match=r"CH__BE\.cert: not a certificate of this store"):
            other.save(tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        # The same store, saved again, rewrites its own files.
        deep.save(tmp_path)
        assert TrustStore.load(tmp_path).certificates == deep.certificates


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
            tree_from_paths([("CH", "ZH", "Uster")]), seed=b"shadow"
        )
        sr = signed(shadow, USTER)
        verdict = verify_report(sr, deep.root_certificate, EMPTY_CRL, fresh_state())
        assert verdict.reason is RejectReason.UNTRUSTED_ROOT

    def test_swiss_preset_bootstrap_verifies_everywhere(self):
        tree = swiss_tree()
        prov = provision_tree(tree, seed=b"swiss")
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

    def test_versions_only_grow(self):
        crl = EMPTY_CRL.with_revoked(3).with_revoked(9)
        assert crl.revoked == {3, 9}


class _StallingTable(dict):
    """A last-accepted table whose reads return only after a 10 ms stall."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0.01)
        return value


class TestSequenceState:
    def test_is_the_state_the_engine_uses(self):
        assert SequenceState is reports.SequenceState

    def test_at_most_one_accept_under_concurrency(self, deep):
        sr = signed(deep, USTER, seq=7)
        state = fresh_state()
        # Every read of the last accepted number stalls, so without the lock
        # all threads would read it before any writes it, and all accept.
        state._last = _StallingTable()
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
        replay = verify_report(signed(deep, USTER, seq=1), deep.root_certificate, EMPTY_CRL, state)
        assert replay.reason is RejectReason.REPLAY
        assert verify_report(signed(deep, WIL, seq=2), deep.root_certificate, EMPTY_CRL, state).accepted


class TestWireFormat:
    def test_round_trip(self, deep):
        sr = signed(deep, USTER)
        text = signed_report_to_text(sr)
        back = signed_report_from_text(text)
        assert back == SignedReport(
            report=report_for(USTER), signature=sr.signature, chain=sr.chain
        )
        assert signed_report_to_text(back) == text

    def test_decoded_report_verifies(self, deep):
        back = signed_report_from_text(signed_report_to_text(signed(deep, USTER)))
        assert verify_report(back, deep.root_certificate, EMPTY_CRL, fresh_state()) == ACCEPT

    def test_chain_blocks_are_certificate_text(self, deep):
        sr = signed(deep, USTER)
        blocks = "".join(cert.to_text(prefix=f"cert{i}.") for i, cert in enumerate(sr.chain))
        assert signed_report_to_text(sr).endswith(f"chain={len(sr.chain)}\n" + blocks)

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
        # Soundness, sampled: flip one byte anywhere in the wire form, or
        # put a non-ASCII decimal digit of the same value in place of an
        # ASCII one, and the result must fail to parse or fail to verify.
        # Whatever does parse re-encodes to itself: a signed report has
        # exactly one wire text.
        sr = signed(deep, USTER)
        text = signed_report_to_text(sr)
        wire = text.encode("utf-8")
        rng = random.Random(1234)
        mauls = []
        for _ in range(2_000):
            pos = rng.randrange(len(wire))
            replacement = rng.randrange(256)
            while replacement == wire[pos]:
                replacement = rng.randrange(256)
            mauls.append(wire[:pos] + bytes([replacement]) + wire[pos + 1:])
        zeros = non_ascii_zeros()
        digits = [pos for pos, ch in enumerate(text) if ch in "0123456789"]
        for n, pos in enumerate(digits):
            lookalike = chr(ord(zeros[n % len(zeros)]) + int(text[pos]))
            assert unicodedata.decimal(lookalike) == int(text[pos])
            mauls.append((text[:pos] + lookalike + text[pos + 1:]).encode("utf-8"))
        assert len(digits) > len(zeros)
        survivors = 0
        for mauled in mauls:
            try:
                candidate = signed_report_from_text(mauled.decode("utf-8"))
            except (ParseError, UnicodeDecodeError):
                continue
            assert signed_report_to_text(candidate).encode("utf-8") == mauled
            verdict = verify_report(
                candidate, deep.root_certificate, EMPTY_CRL, fresh_state()
            )
            survivors += verdict.accepted
        assert survivors == 0

    @pytest.mark.parametrize("field, ascii_value, lookalike", [
        ("seq", "12", "\u0661\u0662"),
        ("yes", "120", "\u0661\u0662\u0660"),
        ("seq", "12", "\uff11\uff12"),
        ("seq", "2", "\u00b2"),
        ("chain", "2", "\u00b2"),
    ], ids=["seq-arabic-indic", "yes-arabic-indic", "seq-fullwidth", "seq-superscript", "chain-superscript"])
    def test_only_ascii_digits_are_decimals(self, deep, field, ascii_value, lookalike):
        seq = int(ascii_value) if field == "seq" else 12
        text = signed_report_to_text(signed(deep, USTER, seq=seq))
        line = f"\n{field}={ascii_value}\n"
        assert line in text
        mauled = text.replace(line, f"\n{field}={lookalike}\n", 1)
        with pytest.raises(ParseError, match=f"{field}: expected a canonical decimal"):
            signed_report_from_text(mauled)

    @pytest.mark.parametrize("field", ["seq", "yes", "chain", "cert0.serial"])
    def test_overlong_decimals_are_parse_errors(self, deep, field):
        # Past int()'s digit limit a decimal must still fail as a ParseError,
        # not a bare ValueError; under no limit it parses and cannot verify.
        text = signed_report_to_text(signed(deep, USTER))
        head = f"\n{field}="
        start = text.index(head) + len(head)
        end = text.index("\n", start)
        mauled = text[:start] + "9" * 5_000 + text[end:]
        try:
            candidate = signed_report_from_text(mauled)
        except ParseError:
            return
        verdict = verify_report(candidate, deep.root_certificate, EMPTY_CRL, fresh_state())
        assert not verdict.accepted

    @pytest.mark.parametrize("line, forged", [
        ("election=ref-1\n", "election=ref=1\n"),
        ("sender=CH/ZH/Uster\n", "sender=CH/ZH/Us=ter\n"),
    ], ids=["election", "sender"])
    def test_ids_the_writer_refuses_do_not_parse(self, deep, line, forged):
        text = signed_report_to_text(signed(deep, USTER))
        with pytest.raises(ParseError, match="may not contain '='"):
            signed_report_from_text(text.replace(line, forged, 1))

    @pytest.mark.parametrize("ch", OTHER_LINE_BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_other_line_breaks_round_trip(self, ch, tmp_path):
        # Only the line feed ends a line, so ids may carry every other
        # character str.splitlines breaks at, on the wire and on disk.
        segment, election = f"Z{ch}H", f"ref{ch}1"
        node = JurisdictionId.of("CH", segment, "Uster")
        prov = provision_tree(tree_from_paths([node.path]), seed=b"breaks")
        sr = sign_report(prov.keys[node], prov.chain(node), report_for(node, election=election))
        text = signed_report_to_text(sr)
        back = signed_report_from_text(text)
        assert back == sr
        assert signed_report_to_text(back) == text
        verdict = verify_report(back, prov.root_certificate, EMPTY_CRL, fresh_state(election))
        assert verdict == ACCEPT
        for cert in prov.certificates.values():
            assert certificate_from_text(cert.to_text()) == cert
        prov.save(tmp_path)
        loaded = TrustStore.load(tmp_path)
        assert loaded.root_certificate == prov.root_certificate
        assert loaded.certificates == prov.certificates

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


KIRCHUSTER = JurisdictionId.of("CH", "ZH", "Uster", "Kirchuster")

# Recorded before the signature-scheme registry was removed; seeded keys
# and deterministic signatures make these bytes a function of the code.
DEPTH3_WIRE = (
    "election=ref-1\n"
    "sender=CH/ZH/Uster/Kirchuster\n"
    "seq=3\n"
    "kind=Preliminary\n"
    "yes=120\n"
    "no=80\n"
    "blank=3\n"
    "invalid=1\n"
    "signature=02d79122fcf6a43b666665e231e58f370930d2f20ab533da3a3c739f32f37425"
    "9a6ee46a56abf4f85a46af1957c802523e93a8b186da5ab53e85158a2d9aeb05\n"
    "chain=3\n"
    "cert0.subject=CH/ZH/Uster/Kirchuster\n"
    "cert0.issuer=CH/ZH/Uster\n"
    "cert0.serial=6\n"
    "cert0.scheme=ed25519\n"
    "cert0.public_key=85e616231eb9e51c902a62e1a965048dded3f2ffe2957f5f6261e88b4de8e36e\n"
    "cert0.issuer_signature=fb8c60a00cefb6ad6c964914040ebce91c2238aa26899926c8120d0672e8cd8f"
    "a8503f4340e6c2c8a8ccdc92197c9ca0703761a8a2c73a43c2e2cc1cc2e62a03\n"
    "cert1.subject=CH/ZH/Uster\n"
    "cert1.issuer=CH/ZH\n"
    "cert1.serial=5\n"
    "cert1.scheme=ed25519\n"
    "cert1.public_key=995e855ca88136c6ab9b55d9dd6ae4ad6587ffc3eee83da97224655c3465c08a\n"
    "cert1.issuer_signature=251b9494099f87b080469dadadd7beaf68134e02263a1d8cc6d08f69c9177899"
    "b4b92f7649a9db266f6d7ff42247804ba218a48b1ef0a991f2c47e64f2a0fd01\n"
    "cert2.subject=CH/ZH\n"
    "cert2.issuer=CH\n"
    "cert2.serial=3\n"
    "cert2.scheme=ed25519\n"
    "cert2.public_key=58d16040ffd4c59177713f91cdea5d213c1f9c0800cc941525a13b83a15e15f6\n"
    "cert2.issuer_signature=3f4530f1848b6a7f670fef55bb0145103214f0c58178a51f024bbb55042cea39"
    "c2437ab30b9cb20f4a7739c0803f58c51d31329f446caea0fd2d81b678704d09\n"
)


@pytest.fixture(scope="module")
def depth3():
    tree = tree_from_paths([("CH", "ZH", "Uster", "Kirchuster"), ("CH", "BE", "Bern")])
    return provision_tree(tree, seed=b"golden")


def reissued(prov, node, scheme_name) -> Certificate:
    """``node``'s certificate naming ``scheme_name``, validly signed by its issuer."""
    cert = prov.certificates[node]
    payload = certificate_payload(
        cert.subject, cert.issuer, cert.serial, scheme_name, cert.public_key
    )
    return Certificate(
        cert.subject, cert.issuer, cert.serial, scheme_name, cert.public_key,
        prov.keys[cert.issuer].sign(payload),
    )


class TestGoldens:
    def test_depth3_wire_text_is_pinned(self, depth3):
        sr = sign_report(depth3.keys[KIRCHUSTER], depth3.chain(KIRCHUSTER), report_for(KIRCHUSTER, seq=3))
        assert signed_report_to_text(sr) == DEPTH3_WIRE
        assert verify_report(
            signed_report_from_text(DEPTH3_WIRE), depth3.root_certificate, EMPTY_CRL, fresh_state()
        ) == ACCEPT

    @pytest.mark.parametrize(
        "node, reason",
        [
            (CH, RejectReason.UNTRUSTED_ROOT),
            (USTER, RejectReason.BROKEN_CHAIN),
            (KIRCHUSTER, RejectReason.BAD_SIGNATURE),
        ],
        ids=["root", "inner-link", "chain-head"],
    )
    def test_unknown_scheme_rejects_by_position(self, depth3, node, reason):
        sr = signed(depth3, KIRCHUSTER)
        for scheme_name, expected in (("ed25519", None), ("rot13", reason)):
            forged = reissued(depth3, node, scheme_name)
            root = forged if node == CH else depth3.root_certificate
            chain = tuple(forged if cert.subject == node else cert for cert in sr.chain)
            verdict = verify_report(
                SignedReport(sr.report, sr.signature, chain), root, EMPTY_CRL, fresh_state()
            )
            assert verdict.reason is expected, scheme_name

    def test_store_with_unknown_scheme_still_loads(self, depth3, tmp_path):
        certs = dict(depth3.certificates)
        certs[USTER] = reissued(depth3, USTER, "rot13")
        TrustStore(depth3.root_certificate, certs).save(tmp_path)
        loaded = TrustStore.load(tmp_path)
        assert loaded.certificates[USTER] == certs[USTER]
        assert loaded.certificates[USTER].scheme == "rot13"
