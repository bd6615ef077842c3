"""Keys and certificates mirroring the jurisdiction hierarchy.

Every jurisdiction holds a signing key. The federal root certifies the
cantons, cantons certify their municipalities, and so on: a certificate's
issuer is always the subject's parent, except the self-signed root, which
is distributed out of band and pinned by the verifier. A chain from any
node therefore climbs exactly depth(node) links before reaching the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from ..errors import EncodingError, HierarchyError, ParseError, StoreConflict, SubjectMismatch
from ..tree import JurisdictionId, JurisdictionTree
from . import schemes
from .encoding import (
    CERT_FIELDS,
    certificate_payload,
    format_fields,
    parse_decimal,
    parse_fields,
    parse_hex,
    parse_node,
    split_lines,
)


class KeyHandle:
    """A signing capability that never hands out the key itself.

    Software stand-in for a smartcard: the parsed private key lives behind
    the ``sign`` it was handed and the only operation is sign(message).
    Nothing on the instance, its repr included, exposes key material.
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
    sign, public = schemes.signing_key(seed)
    return KeyHandle(subject, sign), public


@dataclass(frozen=True)
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
        return format_fields(CERT_FIELDS, (getattr(self, f) for f in CERT_FIELDS), prefix)


def _signed_by(signer: Certificate, payload: Callable[[], bytes], signature: bytes) -> bool:
    """Whether ``signer`` is Ed25519 and ``signature`` covers ``payload()``, which must encode."""
    if signer.scheme != schemes.NAME:
        return False
    try:
        message = payload()
    except EncodingError:
        return False
    return schemes.verify(signer.public_key, message, signature)


def certificate_from_text(text: str) -> Certificate:
    values = parse_fields(split_lines(text), CERT_FIELDS, offset=0)
    return build_certificate(values, where="certificate")


def build_certificate(values: Mapping[str, str], where: str) -> Certificate:
    return Certificate(
        subject=parse_node(values["subject"], f"{where} subject"),
        issuer=parse_node(values["issuer"], f"{where} issuer"),
        serial=parse_decimal(values["serial"], f"{where} serial", minimum=1),
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


ROOT_FILENAME = "root.cert"


def _cert_filename(node: JurisdictionId) -> str:
    return str(node).replace("/", "__") + ".cert"


@dataclass(frozen=True)
class TrustStore:
    """Certificates by subject, and their directory-of-files layout.

    One certificate per file; the trust anchor is whichever certificate
    sits in ``root.cert``, so trust is pinned by filename, not content.
    """

    root_certificate: Certificate
    certificates: Mapping[JurisdictionId, Certificate]

    def chain(self, node: JurisdictionId) -> tuple[Certificate, ...]:
        """Certificates from node upward, excluding the root anchor."""
        out: list[Certificate] = []
        cursor: JurisdictionId | None = node
        while cursor is not None and cursor != self.root_certificate.subject:
            out.append(self.certificates[cursor])
            cursor = cursor.parent
        return tuple(out)

    def save(self, directory: str | Path) -> None:
        """One file per certificate in ``directory``; refused with StoreConflict,
        before anything is written, when two certificates map to one file or
        ``load`` would return another ``.cert`` file from the directory."""
        where = Path(directory)
        root = self.root_certificate
        files = {ROOT_FILENAME: root}
        for node, cert in self.certificates.items():
            if node == root.subject:
                continue
            name = _cert_filename(node)
            if name in files:
                raise StoreConflict(f"{where / name}: {files[name].subject} and {node} share it")
            files[name] = cert
        for path in sorted(where.glob("*.cert")):
            if path.name not in files:
                raise StoreConflict(f"{path}: not a certificate of this store")
        where.mkdir(parents=True, exist_ok=True)
        for name, cert in files.items():
            (where / name).write_bytes(cert.to_text().encode("utf-8"))

    @classmethod
    def load(cls, directory: str | Path) -> "TrustStore":
        where = Path(directory)
        root_path = where / ROOT_FILENAME
        if not root_path.is_file():
            raise ParseError(f"trust store {where} has no {ROOT_FILENAME}")
        root_cert = _certificate_file(root_path)
        if not _signed_by(root_cert, root_cert.payload, root_cert.issuer_signature):
            raise ParseError(f"{root_path}: root certificate is not validly self-signed")
        certs: dict[JurisdictionId, Certificate] = {root_cert.subject: root_cert}
        for path in sorted(where.glob("*.cert")):
            if path.name == ROOT_FILENAME:
                continue
            cert = _certificate_file(path)
            expected = _cert_filename(cert.subject)
            if path.name != expected:
                raise ParseError(
                    f"{path.name}: certificate for {cert.subject} belongs in {expected}"
                )
            certs[cert.subject] = cert
        return TrustStore(root_certificate=root_cert, certificates=certs)


def _certificate_file(path: Path) -> Certificate:
    try:
        return certificate_from_text(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Provisioned(TrustStore):
    """A trust store that also holds every node's signing key."""

    keys: Mapping[JurisdictionId, KeyHandle]


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
    # Appending while iterating walks breadth first without popping the front.
    queue: list[JurisdictionId] = [root]
    for parent in queue:
        for child in tree.children(parent):
            child_key, child_public = make_key(child, node_seed(child))
            keys[child] = child_key
            certs[child] = issue_certificate(
                keys[parent], certs[parent], child, child_public, serial
            )
            serial += 1
            queue.append(child)
    return Provisioned(root_certificate=certs[root], certificates=certs, keys=keys)


