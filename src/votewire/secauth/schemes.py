"""Ed25519 signatures over opaque byte strings.

Ed25519 (RFC 8032, via the cryptography package) is the one signature
scheme; certificates still name it in their ``scheme=`` field, and a
certificate naming any other scheme fails verification. Key pairs derive
deterministically from an optional seed, which keeps fixtures and
generated key material reproducible, and signing uses no randomness, so
signatures are deterministic too. A private key is parsed once, which
costs about as much as a signature, and only its ``sign`` is handed out.

The cryptography package and hashlib load on the first ``signing_key`` or
``verify`` call, once per process: only ``keys`` and the signing API use
them, and importing them was about a fifth of the CLI's import time, paid
by ``simulate``, ``flip`` and ``analyze`` too.
"""

from __future__ import annotations

import functools
import os
from typing import Callable

NAME = "ed25519"


@functools.cache
def _library():
    """(hashlib, private key class, public key class, InvalidSignature)."""
    import hashlib

    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ed25519

    return hashlib, ed25519.Ed25519PrivateKey, ed25519.Ed25519PublicKey, InvalidSignature


def signing_key(seed: bytes | None = None) -> tuple[Callable[[bytes], bytes], bytes]:
    """(sign, public bytes) of a parsed key; the same seed yields the same key."""
    hashlib, private_key, _, _ = _library()
    if seed is None:
        private = os.urandom(32)
    else:
        private = hashlib.sha256(b"ed25519-key:" + seed).digest()
    key = private_key.from_private_bytes(private)
    return key.sign, key.public_key().public_bytes_raw()


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    _, _, public_key, invalid_signature = _library()
    try:
        public_key.from_public_bytes(public).verify(signature, message)
    except (invalid_signature, ValueError):
        return False
    return True
