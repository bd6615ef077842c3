"""Verification: chain, revocation, signature, election, freshness.

Verification never raises on bad input; every failure is a Verdict with
one distinct reason, checked in a fixed order: the chain must anchor at
the pinned root (UNTRUSTED_ROOT), every link must be a properly signed
parent-child step (BROKEN_CHAIN), no serial may be revoked (REVOKED), the
chain head must be the claimed sender (SENDER_MISMATCH), the signature
must cover the canonical report bytes (BAD_SIGNATURE), the report must
belong to the election at hand (WRONG_ELECTION), and the sequence number
must be fresh (REPLAY). Sequence state changes only on Accept, and a
bundle commits the sequence numbers of all its reports together or none.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Sequence

from ..counts import accumulate
from ..errors import EncodingError
from ..tree import JurisdictionId
from .encoding import canonical_encode
from .pki import Certificate
from .schemes import SCHEMES
from .signing import ForwardingMode, ReportBundle, SignedReport


class RejectReason(enum.Enum):
    UNTRUSTED_ROOT = "untrusted_root"
    BROKEN_CHAIN = "broken_chain"
    REVOKED = "revoked"
    SENDER_MISMATCH = "sender_mismatch"
    BAD_SIGNATURE = "bad_signature"
    WRONG_ELECTION = "wrong_election"
    REPLAY = "replay"
    AGGREGATE_MISMATCH = "aggregate_mismatch"


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

    ``with_revoked`` returns the successor version, which must be a
    superset: a compromised key stays revoked no matter how list updates
    are ordered or replayed.
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

    def merge(self, other: "RevocationList") -> "RevocationList":
        """The delivery rule: always union, whatever order lists arrive in.

        An out-of-date list can therefore never resurrect a revoked
        serial; versions exist so holders can tell which list is newer.
        """
        return RevocationList(max(self.version, other.version), self.revoked | other.revoked)


EMPTY_CRL = RevocationList()


class SequenceState:
    """Last accepted sequence number per sender, for one election.

    The check-and-update is atomic, so concurrent verifications of the
    same (sender, sequence_no) yield at most one Accept; a batch of numbers
    is checked and recorded under one lock acquisition.
    """

    def __init__(self, election_id: str) -> None:
        self.election_id = election_id
        self._lock = threading.Lock()
        self._last: dict[JurisdictionId, int] = {}

    def last(self, sender: JurisdictionId) -> int:
        with self._lock:
            return self._last.get(sender, 0)

    def accept_if_fresh(self, sender: JurisdictionId, sequence_no: int) -> bool:
        with self._lock:
            if sequence_no <= self._last.get(sender, 0):
                return False
            self._last[sender] = sequence_no
            return True

    def accept_all_if_fresh(self, claims: Sequence[tuple[JurisdictionId, int]]) -> bool:
        """Record every (sender, sequence_no) if each is fresh, else none.

        The senders must be distinct, as they are in a verified bundle.
        """
        with self._lock:
            if any(seq <= self._last.get(sender, 0) for sender, seq in claims):
                return False
            self._last.update(claims)
            return True


def _verify_link(cert: Certificate, issuer_cert: Certificate) -> bool:
    scheme = SCHEMES.get(issuer_cert.scheme)
    if scheme is None:
        return False
    try:
        payload = cert.payload()
    except EncodingError:
        return False
    return scheme.verify(issuer_cert.public_key, payload, cert.issuer_signature)


def _check_signed(
    sr: SignedReport,
    trusted_root: Certificate,
    crl: RevocationList,
    election_id: str,
) -> RejectReason | None:
    """The first failing check before freshness, or None; reads no state."""
    chain = sr.chain
    if not chain:
        return RejectReason.BROKEN_CHAIN

    # Anchor: the outermost certificate must be issued, verifiably, by the
    # pinned root. A chain ending anywhere else is a foreign root.
    top = chain[-1]
    if top.issuer != trusted_root.subject or top.subject.parent != trusted_root.subject:
        return RejectReason.UNTRUSTED_ROOT
    if not _verify_link(top, trusted_root):
        return RejectReason.UNTRUSTED_ROOT

    # Each remaining link must be a parent-child step signed by the parent.
    for i in range(len(chain) - 2, -1, -1):
        cert, parent = chain[i], chain[i + 1]
        if cert.issuer != parent.subject or cert.subject.parent != parent.subject:
            return RejectReason.BROKEN_CHAIN
        if not _verify_link(cert, parent):
            return RejectReason.BROKEN_CHAIN

    if any(crl.is_revoked(cert.serial) for cert in chain):
        return RejectReason.REVOKED

    head = chain[0]
    if head.subject != sr.report.sender:
        return RejectReason.SENDER_MISMATCH

    scheme = SCHEMES.get(head.scheme)
    if scheme is None:
        return RejectReason.BAD_SIGNATURE
    try:
        message = canonical_encode(sr.report)
    except EncodingError:
        return RejectReason.BAD_SIGNATURE
    if not scheme.verify(head.public_key, message, sr.signature):
        return RejectReason.BAD_SIGNATURE

    if sr.report.election_id != election_id:
        return RejectReason.WRONG_ELECTION
    return None


def verify_report(
    sr: SignedReport,
    trusted_root: Certificate,
    crl: RevocationList,
    seq_state: SequenceState,
) -> Verdict:
    reason = _check_signed(sr, trusted_root, crl, seq_state.election_id)
    if reason is not None:
        return _reject(reason)
    if not seq_state.accept_if_fresh(sr.report.sender, sr.report.sequence_no):
        return _reject(RejectReason.REPLAY)
    return ACCEPT


def verify_bundle(
    bundle: ReportBundle,
    trusted_root: Certificate,
    crl: RevocationList,
    seq_state: SequenceState,
) -> Verdict:
    """Verify a forwarded aggregate and, in relay mode, its evidence.

    Structural consistency is checked first, then every report's chain and
    signature, attachments before the countersigned aggregate. Freshness
    comes last, for all reports at once: either every sequence number is
    committed or, on any rejection, none is, so a bundle with bad evidence
    cannot use up a sequence number that a later honest bundle needs.
    """
    if bundle.mode is ForwardingMode.RELAY_AND_COUNTERSIGN:
        senders = [sr.report.sender for sr in bundle.attachments]
        if not senders or len(set(senders)) != len(senders):
            return _reject(RejectReason.AGGREGATE_MISMATCH)
        if any(s.parent != bundle.aggregate.report.sender for s in senders):
            return _reject(RejectReason.AGGREGATE_MISMATCH)
        summed = accumulate(sr.report.counts for sr in bundle.attachments)
        if summed != bundle.aggregate.report.counts:
            return _reject(RejectReason.AGGREGATE_MISMATCH)
    elif bundle.attachments:
        return _reject(RejectReason.AGGREGATE_MISMATCH)
    signed = (*bundle.attachments, bundle.aggregate)
    for sr in signed:
        reason = _check_signed(sr, trusted_root, crl, seq_state.election_id)
        if reason is not None:
            return _reject(reason)
    claims = [(sr.report.sender, sr.report.sequence_no) for sr in signed]
    if not seq_state.accept_all_if_fresh(claims):
        return _reject(RejectReason.REPLAY)
    return ACCEPT
