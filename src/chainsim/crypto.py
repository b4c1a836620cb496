"""Hashing, Ed25519 keys and signatures, and 160-bit node identifiers.

Everything here is a pure function of its inputs: same seed gives the same
keypair, same bytes give the same digest. SHA-256 is used for all content
addressing; node ids are the first 20 bytes (160 bits) of SHA-256 of the
public key.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

NODE_ID_SIZE = 20
NODE_ID_BITS = NODE_ID_SIZE * 8
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64
SEED_SIZE = 32


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (32 bytes)."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    private_key: bytes  # 32-byte Ed25519 seed
    public_key: bytes  # 32-byte verification key

    def __post_init__(self):
        if len(self.private_key) != SEED_SIZE:
            raise ValueError("private key must be 32 bytes")
        if len(self.public_key) != PUBLIC_KEY_SIZE:
            raise ValueError("public key must be 32 bytes")


@functools.lru_cache(maxsize=1024)  # a run signs with a few dozen seeds
def _signing_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive an Ed25519 keypair deterministically from a 32-byte seed."""
    if len(seed) != SEED_SIZE:
        raise ValueError("seed must be exactly 32 bytes, got %d" % len(seed))
    pk = _signing_key(seed).public_key().public_bytes_raw()
    return KeyPair(private_key=seed, public_key=pk)


def sign(private_key: bytes, message: bytes) -> bytes:
    """Sign ``message`` with the 32-byte private seed; returns 64 bytes
    (RFC 8032 signing is deterministic: a cached key signs as a fresh one)."""
    if len(private_key) != SEED_SIZE:
        raise ValueError("private key must be 32 bytes")
    return _signing_key(private_key).sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is valid for (public_key, message).

    Malformed key or signature material yields False, never an exception.
    """
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    try:
        pk = Ed25519PublicKey.from_public_bytes(public_key)
        pk.verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def node_id_from_public_key(public_key: bytes) -> bytes:
    """160-bit node id: first 20 bytes of SHA-256 of the public key."""
    if len(public_key) != PUBLIC_KEY_SIZE:
        raise ValueError("public key must be 32 bytes")
    return hash_bytes(public_key)[:NODE_ID_SIZE]


def address_from_public_key(public_key: bytes) -> bytes:
    """20-byte account address, same derivation rule as node ids."""
    return node_id_from_public_key(public_key)
