"""Verification: chain, revocation, signature, election, freshness.

Verification never raises on bad input; every failure is a Verdict with
one distinct reason, checked in a fixed order: the chain must anchor at
the pinned root (UNTRUSTED_ROOT), every link must be a properly signed
parent-child step (BROKEN_CHAIN), no serial may be revoked (REVOKED), the
chain head must be the claimed sender (SENDER_MISMATCH), the signature
must cover the canonical report bytes (BAD_SIGNATURE), the report must
belong to the election at hand (WRONG_ELECTION), and the sequence number
must be fresh (REPLAY). Ed25519 is the only scheme: a certificate naming
another fails where its key is needed, as the root (UNTRUSTED_ROOT), as a
link's issuer (BROKEN_CHAIN) or as the chain head (BAD_SIGNATURE).
Freshness is the same ``reports.SequenceState`` check the simulation
engine applies to the preliminaries it receives, taken under the state's
lock, as threads may share one state; it changes only on Accept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..reports import SequenceState
from .encoding import canonical_encode
from .pki import Certificate, _signed_by
from .signing import SignedReport


class RejectReason(enum.Enum):
    UNTRUSTED_ROOT = "untrusted_root"
    BROKEN_CHAIN = "broken_chain"
    REVOKED = "revoked"
    SENDER_MISMATCH = "sender_mismatch"
    BAD_SIGNATURE = "bad_signature"
    WRONG_ELECTION = "wrong_election"
    REPLAY = "replay"


@dataclass(frozen=True)
class Verdict:
    """A verification result: ``reason`` is None on Accept, and ``accepted`` is derived from it."""

    reason: RejectReason | None = None

    @property
    def accepted(self) -> bool:
        return self.reason is None


ACCEPT = Verdict()


@dataclass(frozen=True)
class RevocationList:
    """Serials withdrawn from circulation; a list only ever grows.

    ``with_revoked`` returns a superset of this list: a compromised key
    stays revoked in every list derived from it.
    """

    revoked: frozenset[int] = frozenset()

    def is_revoked(self, serial: int) -> bool:
        return serial in self.revoked

    def with_revoked(self, *serials: int) -> "RevocationList":
        return RevocationList(self.revoked | set(serials))


EMPTY_CRL = RevocationList()


def verify_report(
    sr: SignedReport,
    trusted_root: Certificate,
    crl: RevocationList,
    seq_state: SequenceState,
) -> Verdict:
    chain = sr.chain
    if not chain:
        return Verdict(RejectReason.BROKEN_CHAIN)

    # One walk from the pinned root down: the root issues the outermost
    # link, each link the next. A link that is not a verifiably signed
    # parent-child step fails; past the anchor that breaks the chain.
    issuer, reason = trusted_root, RejectReason.UNTRUSTED_ROOT
    for cert in reversed(chain):
        if (
            cert.issuer != issuer.subject
            or cert.subject.parent != issuer.subject
            or not _signed_by(issuer, cert.payload, cert.issuer_signature)
        ):
            return Verdict(reason)
        issuer, reason = cert, RejectReason.BROKEN_CHAIN

    if any(crl.is_revoked(cert.serial) for cert in chain):
        return Verdict(RejectReason.REVOKED)

    head = chain[0]
    if head.subject != sr.report.sender:
        return Verdict(RejectReason.SENDER_MISMATCH)

    if not _signed_by(head, lambda: canonical_encode(sr.report), sr.signature):
        return Verdict(RejectReason.BAD_SIGNATURE)

    if sr.report.election_id != seq_state.election_id:
        return Verdict(RejectReason.WRONG_ELECTION)
    with seq_state.lock:
        fresh = seq_state.accept_if_fresh(sr.report.sender, sr.report.sequence_no)
    return ACCEPT if fresh else Verdict(RejectReason.REPLAY)
