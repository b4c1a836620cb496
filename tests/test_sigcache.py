"""The process-wide signature cache behind ``ledger.check_signature``."""

import pytest
from hypothesis import given, strategies as st

from chainsim import crypto, ledger
from chainsim.ledger import SIGNATURE_CACHE_SIZE, Transaction, TxError, check_signature
from chainsim.mempool import DEFAULT_CAPACITY, Mempool

import conftest
from conftest import addr, mine_child, replayed_state, signed_tx
from test_node import make_net


@pytest.fixture
def verify_calls(monkeypatch):
    """Every ``crypto.verify`` call that ``check_signature`` makes."""
    calls = []

    def counting(public_key, message, signature):
        calls.append((public_key, message, signature))
        return crypto.verify(public_key, message, signature)

    monkeypatch.setattr(ledger, "verify", counting)
    return calls


def passes(tx) -> bool:
    try:
        check_signature(tx)
        return True
    except TxError as e:
        assert e.code == "bad_signature"
        return False


@given(
    tx=st.builds(
        signed_tx,
        sender_i=st.integers(1, 5),
        recipient_i=st.integers(1, 5),
        amount=st.integers(0, 2**40),
        fee=st.integers(0, 2**20),
        nonce=st.integers(0, 2**20),
        payload=st.binary(max_size=16),
    ),
    position=st.integers(0, 10**6),
    xor=st.integers(1, 255),
    original_first=st.booleans(),
)
def test_cached_check_agrees_with_verify_under_any_byte_mutation(
    tx, position, xor, original_first
):
    ledger._verified_signatures.clear()
    if original_first:
        assert passes(tx)
    data = bytearray(tx.encode())
    data[position % len(data)] ^= xor
    try:
        mutated = ledger.decode_transaction(bytes(data))
    except TxError:
        return  # e.g. the payload length byte: the bytes no longer decode
    expected = crypto.verify(
        mutated.sender_public_key, mutated.signing_bytes(), mutated.signature
    )
    assert passes(mutated) == expected
    assert passes(mutated) == expected  # and again, now through the cache


def test_invalid_signature_is_never_cached(signature_cache, verify_calls):
    tx = signed_tx(1, 2, 10, 1, 0)
    bad = Transaction(
        tx.sender_public_key, tx.recipient, tx.amount + 1, tx.fee, tx.nonce,
        tx.payload, tx.signature,
    )
    for _ in range(2):
        with pytest.raises(TxError) as e:
            check_signature(bad)
        assert e.value.code == "bad_signature"
    assert len(verify_calls) == 2
    assert len(signature_cache) == 0


def test_oversized_payload_fails_before_any_verify(signature_cache, verify_calls):
    with pytest.raises(TxError) as e:  # refused when built, so never checked
        Transaction(bytes(32), addr(2), 1, 1, 0, bytes(ledger.MAX_PAYLOAD_BYTES + 1))
    assert e.value.code == "payload_too_large"
    assert verify_calls == []


def test_same_bytes_with_a_short_key_is_not_a_hit(signature_cache, verify_calls):
    """Moving the last key byte into the recipient keeps the encoding, and
    so the tx hash, of a cached tx; such a tx is refused when built, so the
    cache is never asked for it."""
    tx = signed_tx(1, 2, 10, 1, 0)
    check_signature(tx)
    with pytest.raises(ValueError):
        Transaction(
            tx.sender_public_key[:31], tx.sender_public_key[31:] + tx.recipient,
            tx.amount, tx.fee, tx.nonce, tx.payload, tx.signature,
        )
    assert len(verify_calls) == 1 and list(signature_cache) == [tx.tx_hash]


def test_cache_is_bounded_and_evicts_oldest_first(signature_cache, monkeypatch):
    verified = []
    monkeypatch.setattr(ledger, "verify", lambda pk, msg, sig: verified.append(msg) or True)
    txs = [
        Transaction(bytes(32), addr(2), 1, 1, nonce)
        for nonce in range(SIGNATURE_CACHE_SIZE + 3)
    ]
    for tx in txs:
        check_signature(tx)
        assert len(signature_cache) <= SIGNATURE_CACHE_SIZE
    assert len(signature_cache) == SIGNATURE_CACHE_SIZE
    assert next(iter(signature_cache)) == txs[3].tx_hash
    verified.clear()
    check_signature(txs[-1])  # still held
    assert verified == []
    check_signature(txs[0])  # evicted: verified again, now the newest entry
    assert len(verified) == 1
    assert next(reversed(signature_cache)) == txs[0].tx_hash
    assert len(signature_cache) == SIGNATURE_CACHE_SIZE


def test_cache_holds_a_full_pool_plus_one_block():
    assert SIGNATURE_CACHE_SIZE >= DEFAULT_CAPACITY + ledger.MAX_BLOCK_TXS


def test_block_of_a_full_pools_oldest_txs_is_not_verified_again(signature_cache, monkeypatch):
    """Every tx of a full pool passed ``check_signature`` on admission; a
    block carrying the earliest of them must find all of them cached."""
    verified = []
    monkeypatch.setattr(ledger, "verify", lambda pk, msg, sig: verified.append(msg) or True)
    senders = range(1, 101)
    per_sender = DEFAULT_CAPACITY // len(senders)
    genesis = ledger.make_genesis([(addr(i), 2 * per_sender) for i in senders])
    state = replayed_state([genesis])
    pool = Mempool()
    txs = [
        Transaction(conftest.keypair(i).public_key, addr(200), 1, 1, nonce)
        for nonce in range(per_sender)
        for i in senders
    ]
    for tx in txs:
        pool.insert(tx, state)
    assert len(pool) == DEFAULT_CAPACITY and len(verified) == DEFAULT_CAPACITY
    verified.clear()
    block = mine_child(genesis, txs=txs[: ledger.MAX_BLOCK_TXS])
    ledger.validate_block(block, genesis, state)
    assert verified == []


def test_block_admission_reuses_the_mempool_check(signature_cache, verify_calls):
    genesis = ledger.make_genesis([(addr(1), 100)])
    state = replayed_state([genesis])
    tx = signed_tx(1, 2, 10, 1, 0)
    Mempool().insert(tx, state)
    ledger.validate_block(mine_child(genesis, txs=[tx]), genesis, state)
    assert len(verify_calls) == 1
    assert list(signature_cache) == [tx.tx_hash]


def test_network_verifies_each_distinct_tx_once(signature_cache, verify_calls):
    sim = make_net(5)
    txs = [signed_tx(1, 2, 10, 1, nonce) for nonce in range(4)]
    bad = Transaction(
        txs[0].sender_public_key, addr(3), 1, 1, 4, b"", txs[0].signature
    )
    for i, tx in enumerate(txs):
        assert sim.nodes[i].on_transaction(tx) == "relayed"
        sim.drain_deliveries()
    assert sim.nodes[4].on_transaction(bad) == "rejected:bad_signature"
    assert all(len(node.mempool) == 4 for node in sim.nodes)
    block = sim.nodes[2].mine_and_broadcast()
    sim.drain_deliveries()
    assert list(block.transactions) == txs
    assert all(node.head().block_hash == block.block_hash for node in sim.nodes)
    # each valid tx once across 5 mempools and 5 block checks; the bad one
    # once, at the node that rejected it and did not relay it
    assert len(verify_calls) == len(set(verify_calls)) == len(txs) + 1
