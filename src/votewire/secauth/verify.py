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
engine applies to the preliminaries it receives; its state changes only
on Accept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import EncodingError
from ..reports import SequenceState
from . import schemes
from .encoding import canonical_encode
from .pki import Certificate
from .signing import SignedReport


class RejectReason(enum.Enum):
    UNTRUSTED_ROOT = "untrusted_root"
    BROKEN_CHAIN = "broken_chain"
    REVOKED = "revoked"
    SENDER_MISMATCH = "sender_mismatch"
    BAD_SIGNATURE = "bad_signature"
    WRONG_ELECTION = "wrong_election"
    REPLAY = "replay"


@dataclass(frozen=True, slots=True)
class Verdict:
    accepted: bool
    reason: RejectReason | None = None

    def __post_init__(self) -> None:
        if self.accepted and self.reason is not None:
            raise ValueError("an accepting verdict carries no reason")
        if not self.accepted and self.reason is None:
            raise ValueError("a rejecting verdict needs a reason")


ACCEPT = Verdict(True)


def _reject(reason: RejectReason) -> Verdict:
    return Verdict(False, reason)


@dataclass(frozen=True)
class RevocationList:
    """Serials withdrawn from circulation; versions only ever add to it.

    ``with_revoked`` returns the successor version, a superset of this
    one: a compromised key stays revoked in every later version.
    """

    version: int = 0
    revoked: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.version < 0:
            raise ValueError("version must be >= 0")

    def is_revoked(self, serial: int) -> bool:
        return serial in self.revoked

    def with_revoked(self, *serials: int) -> "RevocationList":
        return RevocationList(self.version + 1, self.revoked | set(serials))


EMPTY_CRL = RevocationList()


def _verify_link(cert: Certificate, issuer_cert: Certificate) -> bool:
    if issuer_cert.scheme != schemes.NAME:
        return False
    try:
        payload = cert.payload()
    except EncodingError:
        return False
    return schemes.verify(issuer_cert.public_key, payload, cert.issuer_signature)


def verify_report(
    sr: SignedReport,
    trusted_root: Certificate,
    crl: RevocationList,
    seq_state: SequenceState,
) -> Verdict:
    chain = sr.chain
    if not chain:
        return _reject(RejectReason.BROKEN_CHAIN)

    # Anchor: the outermost certificate must be issued, verifiably, by the
    # pinned root. A chain ending anywhere else is a foreign root.
    top = chain[-1]
    if top.issuer != trusted_root.subject or top.subject.parent != trusted_root.subject:
        return _reject(RejectReason.UNTRUSTED_ROOT)
    if not _verify_link(top, trusted_root):
        return _reject(RejectReason.UNTRUSTED_ROOT)

    # Each remaining link must be a parent-child step signed by the parent.
    for i in range(len(chain) - 2, -1, -1):
        cert, parent = chain[i], chain[i + 1]
        if cert.issuer != parent.subject or cert.subject.parent != parent.subject:
            return _reject(RejectReason.BROKEN_CHAIN)
        if not _verify_link(cert, parent):
            return _reject(RejectReason.BROKEN_CHAIN)

    if any(crl.is_revoked(cert.serial) for cert in chain):
        return _reject(RejectReason.REVOKED)

    head = chain[0]
    if head.subject != sr.report.sender:
        return _reject(RejectReason.SENDER_MISMATCH)

    if head.scheme != schemes.NAME:
        return _reject(RejectReason.BAD_SIGNATURE)
    try:
        message = canonical_encode(sr.report)
    except EncodingError:
        return _reject(RejectReason.BAD_SIGNATURE)
    if not schemes.verify(head.public_key, message, sr.signature):
        return _reject(RejectReason.BAD_SIGNATURE)

    if sr.report.election_id != seq_state.election_id:
        return _reject(RejectReason.WRONG_ELECTION)
    if not seq_state.accept_if_fresh(sr.report.sender, sr.report.sequence_no):
        return _reject(RejectReason.REPLAY)
    return ACCEPT
