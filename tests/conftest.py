import functools
import struct

import pytest

from chainsim import consensus, ledger
from chainsim.crypto import address_from_public_key, generate_keypair
from chainsim.kademlia import bucket_index
from chainsim.ledger import AccountState, BlockStore, Transaction, make_genesis, make_transaction


@functools.cache  # a pure function of i; KeyPair is frozen
def keypair(i: int):
    return generate_keypair(bytes([i % 256]) * 32)


def addr(i: int) -> bytes:
    return address_from_public_key(keypair(i).public_key)


def to_json(value) -> dict:
    """The reference JSON encoder of a block or transaction: the object whose
    ``canonical_json`` ``Block.encode`` writes from its fixed layouts, and the
    object the JSON decoders (``Block.from_json``, ``Transaction.from_json``)
    take."""
    if isinstance(value, Transaction):
        return {
            "sender_public_key": value.sender_public_key.hex(),
            "recipient": value.recipient.hex(),
            "amount": value.amount,
            "fee": value.fee,
            "nonce": value.nonce,
            "payload": value.payload.hex(),
            "signature": value.signature.hex(),
        }
    obj = {
        "height": value.height,
        "prev_hash": value.prev_hash.hex(),
        "timestamp": value.timestamp,
        "difficulty_bits": value.difficulty_bits,
        "pow_nonce": value.pow_nonce,
        "miner": value.miner.hex(),
        "tx_root": value.tx_root.hex(),
        "transactions": [to_json(tx) for tx in value.transactions],
    }
    if value.allocations:
        obj["allocations"] = [[a.hex(), n] for a, n in value.allocations]
    return obj


def signed_tx(sender_i: int, recipient_i: int, amount: int, fee: int, nonce: int,
              payload: bytes = b""):
    kp = keypair(sender_i)
    return make_transaction(
        kp.private_key, kp.public_key, addr(recipient_i), amount, fee, nonce, payload
    )


def oversized_tx_body() -> bytes:
    """A transaction body framed as ``Transaction.encode`` frames one, but
    with a 2,000-byte payload, over ``ledger.MAX_PAYLOAD_BYTES``."""
    head = signed_tx(1, 2, 10, 1, 0).encode()[:76]  # key, recipient, amount, fee, nonce
    return head + struct.pack(">H", 2000) + bytes(2000) + bytes(64)


def mine_child(parent, txs=(), miner=None, difficulty=4, timestamp=None):
    """Seal a real (low-difficulty) child block of ``parent``."""
    txs = tuple(txs)
    template = consensus.BlockTemplate(
        height=parent.height + 1,
        prev_hash=parent.block_hash,
        timestamp=parent.timestamp if timestamp is None else timestamp,
        difficulty_bits=difficulty,
        miner=miner if miner is not None else addr(99),
        tx_root=ledger.compute_tx_root(txs),
        transactions=txs,
    )
    return consensus.mine(template, start_nonce=0)


def count_attempts(template, start_nonce: int = 0, max_attempts: int = 1 << 24) -> int:
    """Number of hash attempts ``consensus.mine`` needs for this template (>= 1)."""
    block = consensus.mine(template, start_nonce, max_attempts)
    return block.pow_nonce - start_nonce + 1


def audit_routing(table) -> None:
    """Assert a RoutingTable's bucket-placement and size invariants."""
    for i, bucket in enumerate(table.buckets):
        assert len(bucket) <= table.k, f"bucket {i} over capacity"
        for c in bucket:
            assert c.node_id != table.owner, "owner stored in own table"
            assert bucket_index(table.owner, c.node_id) == i, "misplaced contact"


def build_chain(n_blocks, allocations=(), tx_plan=None, difficulty=4):
    """Genesis plus ``n_blocks`` mined blocks; tx_plan maps height -> list
    of transactions. Returns (BlockStore, list of blocks)."""
    genesis = make_genesis(allocations)
    store = BlockStore(genesis)
    blocks = [genesis]
    for h in range(1, n_blocks + 1):
        txs = (tx_plan or {}).get(h, ())
        block = mine_child(blocks[-1], txs=txs, difficulty=difficulty)
        store.insert(block)
        blocks.append(block)
    return store, blocks


def path_to_genesis(store, tip: bytes) -> list:
    """The stored blocks from genesis to ``tip`` inclusive, in height order,
    walked back by ``prev_hash``."""
    path = [store.blocks[tip]]
    while path[-1].height:
        path.append(store.blocks[path[-1].prev_hash])
    return path[::-1]


def replayed_state(blocks) -> AccountState:
    """The state after a genesis-rooted block list, replayed from an empty
    state: the oracle for any state a node derives."""
    state = AccountState()
    for _ in ledger.replay_blocks(list(blocks), state):
        pass
    return state


@pytest.fixture
def signature_cache():
    """The process-wide signature cache, empty for this test and after it."""
    ledger._verified_signatures.clear()
    yield ledger._verified_signatures
    ledger._verified_signatures.clear()


@pytest.fixture
def funded_state():
    state = AccountState()
    state.balances[addr(1)] = 100
    return state
