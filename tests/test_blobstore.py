import pytest

from chainsim.blobstore import (
    BlobIntegrityError,
    BLOB_LINK_TAG,
    BlobNotFound,
    BlobRef,
    BlobStore,
    BlobStoreError,
    blob_link_payload,
)
from chainsim.crypto import hash_bytes


def has(store: BlobStore, digest: bytes) -> bool:
    return store._path(digest).exists()


def link_in_transaction(payload: bytes):
    """Parse a blob link from a transaction payload; None when the payload
    is anything else (opaque)."""
    if len(payload) != 36 or payload[0] != BLOB_LINK_TAG:  # tag, digest, 3 reserved
        return None
    return BlobRef(digest=payload[1:33], size_bytes=0)


def test_put_get_round_trip(tmp_path):
    store = BlobStore(tmp_path)
    ref = store.put(b"hello blob")
    assert ref.digest == hash_bytes(b"hello blob")
    assert ref.size_bytes == 10
    assert store.get(ref.digest) == b"hello blob"
    assert has(store, ref.digest)


def test_put_is_idempotent(tmp_path):
    store = BlobStore(tmp_path)
    a = store.put(b"same")
    b = store.put(b"same")
    assert a == b
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == 1


def test_fanout_layout(tmp_path):
    store = BlobStore(tmp_path)
    ref = store.put(b"layout")
    hexd = ref.digest.hex()
    assert (tmp_path / hexd[:2] / hexd).is_file()


def test_missing_blob(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(BlobNotFound):
        store.get(hash_bytes(b"never stored"))
    assert not has(store, hash_bytes(b"never stored"))


def test_corruption_detected_on_get(tmp_path):
    store = BlobStore(tmp_path)
    ref = store.put(b"precious")
    hexd = ref.digest.hex()
    path = tmp_path / hexd[:2] / hexd
    path.write_bytes(b"tampered")
    with pytest.raises(BlobIntegrityError):
        store.get(ref.digest)


def test_empty_and_oversized_rejected(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(BlobStoreError):
        store.put(b"")


def test_link_payload_round_trip():
    digest = hash_bytes(b"x")
    payload = blob_link_payload(digest)
    assert len(payload) == 36
    ref = link_in_transaction(payload)
    assert ref is not None and ref.digest == digest
    # opaque payloads are not links
    assert link_in_transaction(b"just data") is None
    assert link_in_transaction(bytes([0x02]) + digest + bytes(3)) is None
    with pytest.raises(ValueError):
        blob_link_payload(b"short")
