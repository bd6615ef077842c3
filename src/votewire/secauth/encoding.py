"""Canonical byte encodings: what signatures are computed over.

A signature is only meaningful if both sides serialize the signed object
identically, so the encoding is pinned down to the byte: UTF-8
``field=value`` lines in a fixed order, each terminated by a single
line feed, no other whitespace. Identifiers may not contain a line feed
or '=' since either would let one encoded object parse as another.
"""

from __future__ import annotations

from ..errors import EncodingError
from ..reports import Report, ReportKind
from ..tree import JurisdictionId

KIND_LABELS = {ReportKind.PRELIMINARY: "Preliminary", ReportKind.FINAL: "Final"}
LABEL_KINDS = {label: kind for kind, label in KIND_LABELS.items()}
# Wire field order of a report: the signed lines, and the first lines of a
# signed report's text form.
REPORT_FIELDS = ("election", "sender", "seq", "kind", "yes", "no", "blank", "invalid")


def _check_id(text: str, what: str) -> None:
    if "\n" in text:
        raise EncodingError(f"{what} may not contain a line feed")
    if "=" in text:
        raise EncodingError(f"{what} may not contain '='")


def canonical_encode(report: Report) -> bytes:
    """The exact bytes a report signature covers.

    Injective over (election_id, sender, sequence_no, kind, counts); the
    emission tick is local bookkeeping and deliberately not part of the
    signed content.
    """
    _check_id(report.election_id, "election id")
    for segment in report.sender.path:
        _check_id(segment, f"sender segment {segment!r}")
    c = report.counts
    values = (
        report.election_id, report.sender, report.sequence_no, KIND_LABELS[report.kind],
        c.yes, c.no, c.blank, c.invalid,
    )
    return "".join(f"{f}={v}\n" for f, v in zip(REPORT_FIELDS, values)).encode("utf-8")


def certificate_payload(
    subject: JurisdictionId,
    issuer: JurisdictionId,
    serial: int,
    scheme: str,
    public_key: bytes,
) -> bytes:
    """The bytes an issuer signs when certifying a subject's key.

    The ``cert-`` prefix separates this namespace from report encodings,
    so a certificate signature can never double as a report signature.
    """
    for node in (subject, issuer):
        for segment in node.path:
            _check_id(segment, f"jurisdiction segment {segment!r}")
    _check_id(scheme, "scheme name")
    if serial < 1:
        raise EncodingError("certificate serial must be >= 1")
    lines = (
        f"cert-subject={subject}",
        f"cert-issuer={issuer}",
        f"cert-serial={serial}",
        f"cert-scheme={scheme}",
        f"cert-public-key={public_key.hex()}",
    )
    return "".join(line + "\n" for line in lines).encode("utf-8")
