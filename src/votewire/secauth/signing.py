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
from ..errors import ParseError, SubjectMismatch
from ..reports import Report
from .encoding import LABEL_KINDS, REPORT_FIELDS, canonical_encode
from .pki import (
    CERT_FIELDS,
    Certificate,
    KeyHandle,
    build_certificate,
    parse_fields,
    parse_hex,
    parse_node,
)

MAX_CHAIN_LENGTH = 32


@dataclass(frozen=True, slots=True)
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


def signed_report_to_text(sr: SignedReport) -> str:
    lines = canonical_encode(sr.report).decode("utf-8")
    out = [
        lines,
        f"signature={sr.signature.hex()}\n",
        f"chain={len(sr.chain)}\n",
    ]
    out.extend(cert.to_text(prefix=f"cert{i}.") for i, cert in enumerate(sr.chain))
    return "".join(out)


def _parse_count(value: str, where: str) -> int:
    if value != "0" and (not value.isdigit() or value[0] == "0"):
        raise ParseError(f"{where}: expected a canonical decimal, found {value!r}")
    return int(value)


def signed_report_from_text(text: str) -> SignedReport:
    """Strict inverse of signed_report_to_text.

    Field order, line endings, canonical decimals, and lowercase hex are
    all enforced; trailing content is an error. Any byte this parser
    tolerates is covered by a signature checked later.
    """
    lines = text.splitlines(keepends=True)
    header_len = len(REPORT_FIELDS) + 2
    if len(lines) < header_len:
        raise ParseError(f"expected at least {header_len} lines, found {len(lines)}")
    values = parse_fields(lines[: len(REPORT_FIELDS)], REPORT_FIELDS, offset=0)
    tail = parse_fields(
        lines[len(REPORT_FIELDS): header_len],
        ("signature", "chain"),
        offset=len(REPORT_FIELDS),
    )

    kind = LABEL_KINDS.get(values["kind"])
    if kind is None:
        raise ParseError(f"unknown report kind {values['kind']!r}")
    seq = _parse_count(values["seq"], "seq")
    if seq < 1:
        raise ParseError("seq must be >= 1")
    try:
        report = Report(
            election_id=values["election"],
            sender=parse_node(values["sender"], "sender"),
            sequence_no=seq,
            counts=VoteCount(
                yes=_parse_count(values["yes"], "yes"),
                no=_parse_count(values["no"], "no"),
                blank=_parse_count(values["blank"], "blank"),
                invalid=_parse_count(values["invalid"], "invalid"),
            ),
            kind=kind,
            # Emission time is local bookkeeping; it is not signed and
            # therefore never serialized.
            emitted_at=0,
        )
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from None

    chain_count = _parse_count(tail["chain"], "chain")
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
        signature=parse_hex(tail["signature"], "signature"),
        chain=tuple(chain),
    )
