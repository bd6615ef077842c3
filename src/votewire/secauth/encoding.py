"""The one wire grammar of secauth, and the bytes signatures cover.

A signature is only meaningful if both sides serialize the signed object
identically, so the encoding is pinned down to the byte: UTF-8
``field=value`` lines in a fixed order, each terminated by a single
line feed, no other whitespace. Identifiers may not contain a line feed
or '=' since either would let one encoded object parse as another.
Every secauth text is written by ``format_fields``, and the reader
accepts only what it writes: lines end at a line feed and nowhere else,
decimals are ASCII without a leading zero, hex is lowercase.
"""

from __future__ import annotations

import re
from typing import Iterable

from ..counts import parse_decimal
from ..errors import EncodingError, ParseError
from ..reports import Report, ReportKind
from ..tree import JurisdictionId

KIND_LABELS = {ReportKind.PRELIMINARY: "Preliminary", ReportKind.FINAL: "Final"}
LABEL_KINDS = {label: kind for kind, label in KIND_LABELS.items()}
# Wire field order of a report: the signed lines, and the first lines of a
# signed report's text form.
REPORT_FIELDS = ("election", "sender", "seq", "kind", "yes", "no", "blank", "invalid")
# Wire field order of a certificate, shared by its own text form and the
# chain blocks of a signed report.
CERT_FIELDS = ("subject", "issuer", "serial", "scheme", "public_key", "issuer_signature")
# The signed part of a certificate, written after a ``cert-`` prefix.
_PAYLOAD_FIELDS = ("subject", "issuer", "serial", "scheme", "public-key")

# Each line with its line feed, then an unterminated rest, if any.
_LINE_RE = re.compile(r"[^\n]*\n|[^\n]+\Z")
_HEX_RE = re.compile(r"\A(?:[0-9a-f]{2})+\Z")


def check_id(text: str, what: str) -> None:
    if "\n" in text:
        raise EncodingError(f"{what} may not contain a line feed")
    if "=" in text:
        raise EncodingError(f"{what} may not contain '='")


def format_fields(fields: Iterable[str], values: Iterable[object], prefix: str = "") -> str:
    """One ``prefix + field=value`` line per field; bytes as lowercase hex."""
    return "".join(
        f"{prefix}{field}={value.hex() if isinstance(value, bytes) else value}\n"
        for field, value in zip(fields, values)
    )


def canonical_encode(report: Report) -> bytes:
    """The exact bytes a report signature covers.

    Injective over (election_id, sender, sequence_no, kind, counts); the
    emission tick is local bookkeeping and deliberately not part of the
    signed content.
    """
    check_id(report.election_id, "election id")
    for segment in report.sender.path:
        check_id(segment, f"sender segment {segment!r}")
    c = report.counts
    values = (
        report.election_id, report.sender, report.sequence_no, KIND_LABELS[report.kind],
        c.yes, c.no, c.blank, c.invalid,
    )
    return format_fields(REPORT_FIELDS, values).encode("utf-8")


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
            check_id(segment, f"jurisdiction segment {segment!r}")
    check_id(scheme, "scheme name")
    if serial < 1:
        raise EncodingError("certificate serial must be >= 1")
    values = (subject, issuer, serial, scheme, public_key)
    return format_fields(_PAYLOAD_FIELDS, values, prefix="cert-").encode("utf-8")


def split_lines(text: str) -> list[str]:
    """Unlike ``str.splitlines``, cuts only after a line feed."""
    return _LINE_RE.findall(text)


def parse_fields(
    lines: list[str], expected: tuple[str, ...], offset: int, prefix: str = ""
) -> dict[str, str]:
    """Strict ``prefix + field=value`` lines in exactly the expected order.

    ``offset`` is the number of lines consumed before these, used only to
    report accurate line numbers. The result is keyed by field, without
    the prefix.
    """
    if len(lines) != len(expected):
        raise ParseError(
            f"expected {len(expected)} lines after line {offset}, found {len(lines)}"
        )
    values: dict[str, str] = {}
    for i, (line, field) in enumerate(zip(lines, expected), start=offset + 1):
        if not line.endswith("\n"):
            raise ParseError(f"line {i}: every line must end with a single line feed")
        body = line[:-1]
        head = f"{prefix}{field}="
        if not body.startswith(head):
            raise ParseError(f"line {i}: expected '{head}...', found {body[:40]!r}")
        values[field] = body[len(head):]
    return values


def parse_hex(value: str, where: str) -> bytes:
    # Lowercase only: bytes.fromhex would silently accept the uppercase
    # variant, making two distinct byte strings decode identically.
    if not _HEX_RE.match(value):
        raise ParseError(f"{where}: not lowercase even-length hex")
    return bytes.fromhex(value)


def parse_node(value: str, where: str) -> JurisdictionId:
    try:
        return JurisdictionId.from_text(value)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None
