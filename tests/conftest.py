import pytest

from chainsim import consensus, ledger
from chainsim.crypto import address_from_public_key, generate_keypair
from chainsim.ledger import AccountState, BlockStore, make_genesis, make_transaction


def keypair(i: int):
    return generate_keypair(bytes([i % 256]) * 32)


def addr(i: int) -> bytes:
    return address_from_public_key(keypair(i).public_key)


def signed_tx(sender_i: int, recipient_i: int, amount: int, fee: int, nonce: int,
              payload: bytes = b""):
    kp = keypair(sender_i)
    return make_transaction(
        kp.private_key, kp.public_key, addr(recipient_i), amount, fee, nonce, payload
    )


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
    store.set_canonical(blocks[-1].block_hash)
    return store, blocks


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
