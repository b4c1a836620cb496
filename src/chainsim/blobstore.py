"""Content-addressed off-chain blob store.

Blobs live one-per-file under a two-level hex fan-out (first two hex
chars of the digest, then the full digest). The chain carries only the
36-byte payload convention 0x01 || digest(32) || reserved(3); blob size
never touches the ledger.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .crypto import hash_bytes

MAX_BLOB_BYTES = 16 * 1024 * 1024
BLOB_LINK_TAG = 0x01


class BlobStoreError(Exception):
    pass


class BlobNotFound(BlobStoreError):
    pass


class BlobIntegrityError(BlobStoreError):
    """Stored bytes no longer hash to their key."""


@dataclass(frozen=True)
class BlobRef:
    digest: bytes
    size_bytes: int


class BlobStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: bytes) -> Path:
        hexd = digest.hex()
        return self.root / hexd[:2] / hexd

    def put(self, blob: bytes) -> BlobRef:
        """Persist ``blob`` under its digest; idempotent."""
        if not blob:
            raise BlobStoreError("empty blob")
        if len(blob) > MAX_BLOB_BYTES:
            raise BlobStoreError(f"blob exceeds {MAX_BLOB_BYTES} bytes")
        digest = hash_bytes(blob)
        path = self._path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            # temp-then-rename so concurrent duplicate puts stay whole
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".put-")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(blob)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return BlobRef(digest=digest, size_bytes=len(blob))

    def get(self, digest: bytes) -> bytes:
        path = self._path(digest)
        if not path.exists():
            raise BlobNotFound(digest.hex())
        blob = path.read_bytes()
        if hash_bytes(blob) != digest:
            raise BlobIntegrityError(digest.hex())
        return blob


def blob_link_payload(digest: bytes) -> bytes:
    """36-byte transaction payload marking an off-chain blob link."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    return bytes([BLOB_LINK_TAG]) + digest + bytes(3)
