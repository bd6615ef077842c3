"""Signing layer: certificate chains over the jurisdiction tree.

Reports become verifiable by signing their canonical byte encoding with a
per-jurisdiction Ed25519 key whose certificate is issued by the parent
jurisdiction, up to a self-signed root pinned out of band. Verification
checks the chain, revocation, the report signature, the election binding,
and sequence freshness; each failure maps to one distinct reason.
"""

from ..reports import SequenceState
from .encoding import canonical_encode, certificate_payload
from .pki import (
    Certificate,
    KeyHandle,
    Provisioned,
    TrustStore,
    issue_certificate,
    make_key,
    provision_tree,
    self_signed_root,
)
from .signing import (
    SignedReport,
    sign_report,
    signed_report_from_text,
    signed_report_to_text,
)
from .verify import (
    ACCEPT,
    EMPTY_CRL,
    RejectReason,
    RevocationList,
    Verdict,
    verify_report,
)

__all__ = [
    "ACCEPT",
    "Certificate",
    "EMPTY_CRL",
    "KeyHandle",
    "Provisioned",
    "RejectReason",
    "RevocationList",
    "SequenceState",
    "SignedReport",
    "TrustStore",
    "Verdict",
    "canonical_encode",
    "certificate_payload",
    "issue_certificate",
    "make_key",
    "provision_tree",
    "self_signed_root",
    "sign_report",
    "signed_report_from_text",
    "signed_report_to_text",
    "verify_report",
]
