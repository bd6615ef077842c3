"""Signing reports and serializing them for the wire.

A SignedReport carries the report, a signature over its canonical bytes,
and the signer's certificate chain up to (excluding) the pinned root.
The wire text contains exactly the signed content plus the signatures and
chain; nothing unauthenticated rides along, so any single-byte change to
a serialized SignedReport is detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..counts import VoteCount
from ..errors import EncodingError, ParseError, SubjectMismatch
from ..reports import Report
from .encoding import (
    CERT_FIELDS,
    LABEL_KINDS,
    REPORT_FIELDS,
    canonical_encode,
    check_id,
    format_fields,
    parse_decimal,
    parse_fields,
    parse_hex,
    parse_node,
    split_lines,
)
from .pki import Certificate, KeyHandle, build_certificate

MAX_CHAIN_LENGTH = 32


@dataclass(frozen=True)
class SignedReport:
    report: Report
    signature: bytes
    # Signer's certificate first, then its parent, ending at the child of
    # the root; the root itself is pinned by the verifier, never carried.
    chain: tuple[Certificate, ...]


def sign_report(
    key: KeyHandle, chain: Sequence[Certificate], report: Report
) -> SignedReport:
    if not chain:
        raise SubjectMismatch("a signer needs its own certificate; the chain is empty")
    if key.subject != report.sender:
        raise SubjectMismatch(
            f"key belongs to {key.subject} but the report claims sender {report.sender}"
        )
    if chain[0].subject != key.subject:
        raise SubjectMismatch(
            f"chain starts at {chain[0].subject}, expected the signer {key.subject}"
        )
    return SignedReport(
        report=report,
        signature=key.sign(canonical_encode(report)),
        chain=tuple(chain),
    )


# The lines between a signed report's REPORT_FIELDS and its chain blocks.
_TAIL_FIELDS = ("signature", "chain")


def signed_report_to_text(sr: SignedReport) -> str:
    tail = format_fields(_TAIL_FIELDS, (sr.signature, len(sr.chain)))
    blocks = [cert.to_text(prefix=f"cert{i}.") for i, cert in enumerate(sr.chain)]
    return canonical_encode(sr.report).decode("utf-8") + tail + "".join(blocks)


def signed_report_from_text(text: str) -> SignedReport:
    """Strict inverse of signed_report_to_text.

    Field order, line endings, canonical decimals, and lowercase hex are
    all enforced, and ids are held to canonical_encode's rules; trailing
    content is an error. Any text this parser accepts re-encodes to itself,
    and its every byte is covered by a signature checked later.
    """
    lines = split_lines(text)
    header_len = len(REPORT_FIELDS) + len(_TAIL_FIELDS)
    if len(lines) < header_len:
        raise ParseError(f"expected at least {header_len} lines, found {len(lines)}")
    values = parse_fields(lines[:header_len], REPORT_FIELDS + _TAIL_FIELDS, offset=0)

    kind = LABEL_KINDS.get(values["kind"])
    if kind is None:
        raise ParseError(f"unknown report kind {values['kind']!r}")
    try:
        check_id(values["election"], "election id")
        check_id(values["sender"], "sender")
        report = Report(
            election_id=values["election"],
            sender=parse_node(values["sender"], "sender"),
            sequence_no=parse_decimal(values["seq"], "seq", minimum=1),
            counts=VoteCount(
                *(parse_decimal(values[f], f) for f in ("yes", "no", "blank", "invalid"))
            ),
            kind=kind,
            # Emission time is local bookkeeping; it is not signed and
            # therefore never serialized.
            emitted_at=0,
        )
    except (EncodingError, ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from None

    chain_count = parse_decimal(values["chain"], "chain")
    if not 1 <= chain_count <= MAX_CHAIN_LENGTH:
        raise ParseError(f"chain length must be in 1..{MAX_CHAIN_LENGTH}")
    expected_total = header_len + chain_count * len(CERT_FIELDS)
    if len(lines) != expected_total:
        raise ParseError(
            f"expected exactly {expected_total} lines for a {chain_count}-link chain, "
            f"found {len(lines)}"
        )

    chain: list[Certificate] = []
    for i in range(chain_count):
        start = header_len + i * len(CERT_FIELDS)
        block = lines[start: start + len(CERT_FIELDS)]
        fields = parse_fields(block, CERT_FIELDS, offset=start, prefix=f"cert{i}.")
        chain.append(build_certificate(fields, where=f"cert{i}"))

    return SignedReport(
        report=report,
        signature=parse_hex(values["signature"], "signature"),
        chain=tuple(chain),
    )
