import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings, strategies as st

from chainsim.crypto import (
    generate_keypair,
    hash_bytes,
    node_id_from_public_key,
    sign,
    verify,
)

# published SHA-256 empty-string vector
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


def test_hash_empty_matches_published_vector():
    assert hash_bytes(b"") == SHA256_EMPTY


def test_hash_deterministic_and_fixed_width():
    assert hash_bytes(b"abc") == hash_bytes(b"abc")
    assert len(hash_bytes(b"abc")) == 32
    assert hash_bytes(b"abc").hex() == hashlib.sha256(b"abc").hexdigest()
    assert len(hash_bytes(b"abc").hex()) == 64


@given(st.binary(min_size=1, max_size=1024), st.data())
def test_single_bit_flip_changes_digest(buf, data):
    bit = data.draw(st.integers(0, len(buf) * 8 - 1))
    flipped = bytearray(buf)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert hash_bytes(buf) != hash_bytes(bytes(flipped))


def test_keypair_deterministic():
    s = b"\x07" * 32
    assert generate_keypair(s).public_key == generate_keypair(s).public_key
    assert len(generate_keypair(s).public_key) == 32


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        generate_keypair(b"\x00" * 31)


def test_distinct_seeds_distinct_public_keys():
    import random

    rng = random.Random(1)
    seen = set()
    for _ in range(10_000):
        seed = rng.getrandbits(256).to_bytes(32, "big")
        seen.add(generate_keypair(seed).public_key)
    assert len(seen) == 10_000


@given(st.binary(max_size=200))
def test_sign_verify_round_trip(message):
    kp = generate_keypair(b"\x11" * 32)
    sig = sign(kp.private_key, message)
    assert len(sig) == 64
    assert verify(kp.public_key, message, sig)


def test_rfc8032_test_vector_1():
    kp = generate_keypair(bytes.fromhex(
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"))
    assert kp.public_key.hex() == (
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
    assert sign(kp.private_key, b"").hex() == (
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555"
        "fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.lists(st.binary(max_size=64), min_size=1,
                                                     max_size=3))
def test_cached_signing_key_signs_as_a_fresh_key(seed, messages):
    fresh = Ed25519PrivateKey.from_private_bytes(seed)
    assert generate_keypair(seed).public_key == fresh.public_key().public_bytes_raw()
    for message in messages + messages:  # one cached key object signs every time
        assert sign(seed, message) == fresh.sign(message)


def test_altered_message_does_not_verify():
    kp = generate_keypair(b"\x12" * 32)
    sig = sign(kp.private_key, b"hello world")
    assert not verify(kp.public_key, b"hello worlD", sig)


def test_foreign_key_does_not_verify():
    kp1 = generate_keypair(b"\x13" * 32)
    kp2 = generate_keypair(b"\x14" * 32)
    sig = sign(kp1.private_key, b"msg")
    assert not verify(kp2.public_key, b"msg", sig)


def test_malformed_signature_returns_false_not_raise():
    kp = generate_keypair(b"\x15" * 32)
    assert not verify(kp.public_key, b"msg", b"\x00" * 64)
    assert not verify(kp.public_key, b"msg", b"short")
    assert not verify(b"\x00" * 31, b"msg", b"\x00" * 64)  # truncated key


def test_signature_soundness_at_scale():
    import random

    rng = random.Random(2)
    for _ in range(1000):
        seed = rng.getrandbits(256).to_bytes(32, "big")
        kp = generate_keypair(seed)
        msg = rng.getrandbits(256).to_bytes(32, "big")
        sig = sign(kp.private_key, msg)
        altered = bytearray(msg)
        altered[rng.randrange(32)] ^= 1 + rng.randrange(255)
        assert verify(kp.public_key, msg, sig)
        assert not verify(kp.public_key, bytes(altered), sig)


def test_node_id_is_160_bits_and_deterministic():
    kp = generate_keypair(b"\x16" * 32)
    nid = node_id_from_public_key(kp.public_key)
    assert len(nid) == 20
    assert nid == node_id_from_public_key(kp.public_key)
    assert nid == hash_bytes(kp.public_key)[:20]


def test_node_id_injective_over_population():
    ids = set()
    for i in range(2000):
        kp = generate_keypair(i.to_bytes(32, "big"))
        ids.add(node_id_from_public_key(kp.public_key))
    assert len(ids) == 2000
