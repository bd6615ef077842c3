"""Keys and certificates mirroring the jurisdiction hierarchy.

Every jurisdiction holds a signing key. The federal root certifies the
cantons, cantons certify their municipalities, and so on: a certificate's
issuer is always the subject's parent, except the self-signed root, which
is distributed out of band and pinned by the verifier. A chain from any
node therefore climbs exactly depth(node) links before reaching the root.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from ..errors import HierarchyError, ParseError, SubjectMismatch
from ..tree import JurisdictionId, JurisdictionTree
from . import schemes
from .encoding import certificate_payload

_HEX_RE = re.compile(r"\A(?:[0-9a-f]{2})+\Z")
_SERIAL_RE = re.compile(r"\A[1-9][0-9]*\Z")


class KeyHandle:
    """A signing capability that never hands out the key itself.

    Software stand-in for a smartcard: the private key lives in a closure
    and the only operation is sign(message). Nothing on the instance, its
    repr included, exposes key material.
    """

    __slots__ = ("subject", "_signer")

    def __init__(self, subject: JurisdictionId, signer: Callable[[bytes], bytes]) -> None:
        self.subject = subject
        self._signer = signer

    def sign(self, message: bytes) -> bytes:
        return self._signer(message)

    def __repr__(self) -> str:
        return f"KeyHandle(subject={self.subject})"


def make_key(subject: JurisdictionId, seed: bytes | None = None) -> tuple[KeyHandle, bytes]:
    """A fresh key pair: the handle for the subject, public bytes for certs."""
    private, public = schemes.keypair(seed)
    return KeyHandle(subject, lambda m: schemes.sign(private, m)), public


# Wire field order of a certificate, shared by its own text form and the
# chain blocks of a signed report.
CERT_FIELDS = ("subject", "issuer", "serial", "scheme", "public_key", "issuer_signature")


@dataclass(frozen=True, slots=True)
class Certificate:
    subject: JurisdictionId
    issuer: JurisdictionId
    serial: int
    scheme: str
    public_key: bytes
    issuer_signature: bytes

    def payload(self) -> bytes:
        return certificate_payload(
            self.subject, self.issuer, self.serial, self.scheme, self.public_key
        )

    def to_text(self, prefix: str = "") -> str:
        """``field=value`` lines in CERT_FIELDS order, each name after ``prefix``."""
        out = []
        for field in CERT_FIELDS:
            value = getattr(self, field)
            out.append(f"{prefix}{field}={value.hex() if isinstance(value, bytes) else value}\n")
        return "".join(out)


def certificate_from_text(text: str) -> Certificate:
    values = parse_fields(text.splitlines(keepends=True), CERT_FIELDS, offset=0)
    return build_certificate(values, where="certificate")


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
        if not line.endswith("\n") or line.count("\n") != 1:
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
    if not _HEX_RE.fullmatch(value):
        raise ParseError(f"{where}: not lowercase even-length hex")
    return bytes.fromhex(value)


def parse_serial(value: str, where: str) -> int:
    if not _SERIAL_RE.fullmatch(value):
        raise ParseError(f"{where}: serial must be a positive decimal with no leading zeros")
    return int(value)


def parse_node(value: str, where: str) -> JurisdictionId:
    try:
        return JurisdictionId.from_text(value)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def build_certificate(values: Mapping[str, str], where: str) -> Certificate:
    return Certificate(
        subject=parse_node(values["subject"], f"{where} subject"),
        issuer=parse_node(values["issuer"], f"{where} issuer"),
        serial=parse_serial(values["serial"], where),
        scheme=values["scheme"],
        public_key=parse_hex(values["public_key"], f"{where} public_key"),
        issuer_signature=parse_hex(values["issuer_signature"], f"{where} issuer_signature"),
    )


def _certify(
    signer: KeyHandle,
    subject: JurisdictionId,
    issuer: JurisdictionId,
    serial: int,
    public_key: bytes,
) -> Certificate:
    payload = certificate_payload(subject, issuer, serial, schemes.NAME, public_key)
    return Certificate(subject, issuer, serial, schemes.NAME, public_key, signer.sign(payload))


def self_signed_root(
    root_key: KeyHandle, root_public: bytes, serial: int = 1
) -> Certificate:
    return _certify(root_key, root_key.subject, root_key.subject, serial, root_public)


def issue_certificate(
    issuer_key: KeyHandle,
    issuer_cert: Certificate,
    subject: JurisdictionId,
    subject_public_key: bytes,
    serial: int,
) -> Certificate:
    if issuer_key.subject != issuer_cert.subject:
        raise SubjectMismatch(
            f"issuing key belongs to {issuer_key.subject}, certificate to {issuer_cert.subject}"
        )
    if subject.parent != issuer_cert.subject:
        raise HierarchyError(
            f"{issuer_cert.subject} may only certify its direct children, not {subject}"
        )
    return _certify(issuer_key, subject, issuer_cert.subject, serial, subject_public_key)


@dataclass(frozen=True)
class Provisioned:
    """Key handles and certificates for every node of a tree."""

    keys: Mapping[JurisdictionId, KeyHandle]
    certificates: Mapping[JurisdictionId, Certificate]
    root: JurisdictionId

    @property
    def root_certificate(self) -> Certificate:
        return self.certificates[self.root]

    def chain(self, node: JurisdictionId) -> tuple[Certificate, ...]:
        """Certificates from node upward, excluding the root anchor."""
        out: list[Certificate] = []
        cursor: JurisdictionId | None = node
        while cursor is not None and cursor != self.root:
            out.append(self.certificates[cursor])
            cursor = cursor.parent
        return tuple(out)


def provision_tree(tree: JurisdictionTree, seed: bytes | None = None) -> Provisioned:
    """Keys and certificates for the whole tree, root first.

    Serials start at 1 for the root and follow a breadth-first walk, so
    provisioning is deterministic for a given tree and seed.
    """
    keys: dict[JurisdictionId, KeyHandle] = {}
    certs: dict[JurisdictionId, Certificate] = {}

    def node_seed(node: JurisdictionId) -> bytes | None:
        if seed is None:
            return None
        return b"%s|%s" % (seed, str(node).encode("utf-8"))

    root = tree.root
    root_key, root_public = make_key(root, node_seed(root))
    keys[root] = root_key
    certs[root] = self_signed_root(root_key, root_public, serial=1)

    serial = 2
    queue: list[JurisdictionId] = [root]
    while queue:
        parent = queue.pop(0)
        for child in tree.children(parent):
            child_key, child_public = make_key(child, node_seed(child))
            keys[child] = child_key
            certs[child] = issue_certificate(
                keys[parent], certs[parent], child, child_public, serial
            )
            serial += 1
            queue.append(child)
    return Provisioned(keys=keys, certificates=certs, root=root)


ROOT_FILENAME = "root.cert"


def _cert_filename(node: JurisdictionId) -> str:
    return str(node).replace("/", "__") + ".cert"


@dataclass(frozen=True)
class TrustStore:
    """Directory-of-files certificate layout.

    One certificate per file; the trust anchor is whichever certificate
    sits in ``root.cert``, so trust is pinned by filename, not content.
    """

    root_certificate: Certificate
    certificates: Mapping[JurisdictionId, Certificate]

    def save(self, directory: str | Path) -> None:
        where = Path(directory)
        where.mkdir(parents=True, exist_ok=True)
        (where / ROOT_FILENAME).write_text(self.root_certificate.to_text(), encoding="utf-8")
        for node, cert in self.certificates.items():
            if node == self.root_certificate.subject:
                continue
            (where / _cert_filename(node)).write_text(cert.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, directory: str | Path) -> "TrustStore":
        where = Path(directory)
        root_path = where / ROOT_FILENAME
        if not root_path.is_file():
            raise ParseError(f"trust store {where} has no {ROOT_FILENAME}")
        root_cert = certificate_from_text(root_path.read_text(encoding="utf-8"))
        certs: dict[JurisdictionId, Certificate] = {root_cert.subject: root_cert}
        for path in sorted(where.glob("*.cert")):
            if path.name == ROOT_FILENAME:
                continue
            cert = certificate_from_text(path.read_text(encoding="utf-8"))
            expected = _cert_filename(cert.subject)
            if path.name != expected:
                raise ParseError(
                    f"{path.name}: certificate for {cert.subject} belongs in {expected}"
                )
            certs[cert.subject] = cert
        return cls(root_certificate=root_cert, certificates=certs)

    @classmethod
    def from_provisioned(cls, provisioned: Provisioned) -> "TrustStore":
        return cls(
            root_certificate=provisioned.root_certificate,
            certificates=dict(provisioned.certificates),
        )
