"""Ed25519 signatures over opaque byte strings.

Ed25519 (RFC 8032, via the cryptography package) is the one signature
scheme; certificates still name it in their ``scheme=`` field, and a
certificate naming any other scheme fails verification. Key pairs derive
deterministically from an optional seed, which keeps fixtures and
generated key material reproducible, and signing uses no randomness, so
signatures are deterministic too.
"""

from __future__ import annotations

import hashlib
import os

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

NAME = "ed25519"


def keypair(seed: bytes | None = None) -> tuple[bytes, bytes]:
    """(private, public) bytes; the same seed yields the same pair."""
    if seed is None:
        private = os.urandom(32)
    else:
        private = hashlib.sha256(b"ed25519-key:" + seed).digest()
    public = (
        Ed25519PrivateKey.from_private_bytes(private)
        .public_key()
        .public_bytes(Encoding.Raw, PublicFormat.Raw)
    )
    return private, public


def sign(private: bytes, message: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(private).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True
