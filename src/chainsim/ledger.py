"""Transactions, blocks, the hash-linked chain, account state, and replay.

Canonical binary encodings (the basis of every hash):

* transaction = sender_pk(32) || recipient(20) || amount(u64 BE) ||
  fee(u64 BE) || nonce(u64 BE) || payload_len(u16 BE) || payload ||
  signature(64); signing bytes are the same minus the signature.
* block header = height(u64) || prev_hash(32) || timestamp(u64) ||
  difficulty_bits(u8) || pow_nonce(u64) || miner(20) || tx_root(32);
  the block hash is SHA-256 of the header.
* tx_root = SHA-256 of the concatenated transaction encodings (empty
  list hashes the empty input). The genesis block instead commits to
  its timestamp and allocation list through tx_root, and its miner,
  pow_nonce, and difficulty_bits are fixed protocol constants (zero),
  so every genesis byte is tamper-evident without an external
  reference hash.

Chain files are JSON lines, one block per line, genesis first, all byte
fields lowercase hex.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional

from .consensus import BLOCK_REWARD, meets_difficulty
from .crypto import (
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    address_from_public_key,
    hash_bytes,
    sign,
    verify,
)

MAX_PAYLOAD_BYTES = 1024
MAX_BLOCK_TXS = 100
SIGNATURE_CACHE_SIZE = 4096  # about 40 full blocks of transactions
ZERO_HASH = bytes(32)
ZERO_ADDRESS = bytes(20)
U64_MAX = (1 << 64) - 1


class LedgerError(Exception):
    """Validation failure with a machine-readable cause code."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


class TxError(LedgerError):
    """Causes: bad_signature, bad_nonce, insufficient_funds, payload_too_large."""


class BlockError(LedgerError):
    """Causes: malformed, bad_link, bad_height, bad_tx_root, bad_pow, bad_tx,
    too_many_txs, bad_timestamp, bad_genesis."""

    def __init__(self, code: str, detail: str = "", tx_index: Optional[int] = None):
        self.tx_index = tx_index
        super().__init__(code, detail)


class ChainError(LedgerError):
    """verify_chain failure; carries the first failing height."""

    def __init__(self, height: int, code: str, detail: str = ""):
        self.height = height
        super().__init__(code, f"height {height}: {detail}" if detail else f"height {height}")


@dataclass(frozen=True)
class Transaction:
    sender_public_key: bytes
    recipient: bytes
    amount: int
    fee: int
    nonce: int
    payload: bytes = b""
    signature: bytes = bytes(64)

    @cached_property
    def sender(self) -> bytes:
        return address_from_public_key(self.sender_public_key)

    def signing_bytes(self) -> bytes:
        return tx_signing_bytes(self)

    def encode(self) -> bytes:
        return tx_signing_bytes(self) + self.signature

    @cached_property
    def tx_hash(self) -> bytes:
        return hash_bytes(self.encode())

    def to_json(self) -> dict:
        return {
            "sender_public_key": self.sender_public_key.hex(),
            "recipient": self.recipient.hex(),
            "amount": self.amount,
            "fee": self.fee,
            "nonce": self.nonce,
            "payload": self.payload.hex(),
            "signature": self.signature.hex(),
        }

    @staticmethod
    def from_json(obj: dict) -> "Transaction":
        return Transaction(
            sender_public_key=bytes.fromhex(obj["sender_public_key"]),
            recipient=bytes.fromhex(obj["recipient"]),
            amount=int(obj["amount"]),
            fee=int(obj["fee"]),
            nonce=int(obj["nonce"]),
            payload=bytes.fromhex(obj["payload"]),
            signature=bytes.fromhex(obj["signature"]),
        )


def tx_signing_bytes(tx: Transaction) -> bytes:
    if len(tx.payload) > MAX_PAYLOAD_BYTES:
        raise TxError("payload_too_large", f"{len(tx.payload)} > {MAX_PAYLOAD_BYTES}")
    return b"".join(
        [
            tx.sender_public_key,
            tx.recipient,
            struct.pack(">Q", tx.amount),
            struct.pack(">Q", tx.fee),
            struct.pack(">Q", tx.nonce),
            struct.pack(">H", len(tx.payload)),
            tx.payload,
        ]
    )


def decode_transaction(data: bytes) -> Transaction:
    """Inverse of Transaction.encode; rejects trailing bytes."""
    fixed = 32 + 20 + 8 + 8 + 8 + 2
    if len(data) < fixed + 64:
        raise TxError("malformed", "transaction too short")
    pk = data[:32]
    recipient = data[32:52]
    amount, fee, nonce = struct.unpack(">QQQ", data[52:76])
    (plen,) = struct.unpack(">H", data[76:78])
    if len(data) != fixed + plen + 64:
        raise TxError("malformed", "transaction length mismatch")
    payload = data[78 : 78 + plen]
    signature = data[78 + plen :]
    return Transaction(pk, recipient, amount, fee, nonce, payload, signature)


def make_transaction(
    private_key: bytes,
    public_key: bytes,
    recipient: bytes,
    amount: int,
    fee: int,
    nonce: int,
    payload: bytes = b"",
) -> Transaction:
    """Build and sign a transaction in one step."""
    tx = Transaction(public_key, recipient, amount, fee, nonce, payload)
    sig = sign(private_key, tx.signing_bytes())
    return replace(tx, signature=sig)


def _alloc_encoding(allocations: tuple) -> bytes:
    return b"".join(addr + struct.pack(">Q", amount) for addr, amount in allocations)


def compute_tx_root(transactions: Iterable[Transaction], allocations: tuple = ()) -> bytes:
    return hash_bytes(_alloc_encoding(allocations) + b"".join(tx.encode() for tx in transactions))


def genesis_tx_root(allocations: tuple, timestamp: int) -> bytes:
    """Genesis commitment: timestamp plus the allocation list."""
    return hash_bytes(struct.pack(">Q", timestamp) + _alloc_encoding(allocations))


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    timestamp: int
    difficulty_bits: int
    pow_nonce: int
    miner: bytes
    tx_root: bytes
    transactions: tuple = ()
    allocations: tuple = ()  # genesis only: ((address, amount), ...)

    def header_bytes(self) -> bytes:
        return b"".join(
            [
                struct.pack(">Q", self.height),
                self.prev_hash,
                struct.pack(">Q", self.timestamp),
                struct.pack(">B", self.difficulty_bits),
                struct.pack(">Q", self.pow_nonce),
                self.miner,
                self.tx_root,
            ]
        )

    @cached_property
    def block_hash(self) -> bytes:
        return hash_bytes(self.header_bytes())

    def to_json(self) -> dict:
        obj = {
            "height": self.height,
            "prev_hash": self.prev_hash.hex(),
            "timestamp": self.timestamp,
            "difficulty_bits": self.difficulty_bits,
            "pow_nonce": self.pow_nonce,
            "miner": self.miner.hex(),
            "tx_root": self.tx_root.hex(),
            "transactions": [tx.to_json() for tx in self.transactions],
        }
        if self.allocations:
            obj["allocations"] = [[a.hex(), n] for a, n in self.allocations]
        return obj

    @staticmethod
    def from_json(obj: dict) -> "Block":
        return Block(
            height=int(obj["height"]),
            prev_hash=bytes.fromhex(obj["prev_hash"]),
            timestamp=int(obj["timestamp"]),
            difficulty_bits=int(obj["difficulty_bits"]),
            pow_nonce=int(obj["pow_nonce"]),
            miner=bytes.fromhex(obj["miner"]),
            tx_root=bytes.fromhex(obj["tx_root"]),
            transactions=tuple(Transaction.from_json(t) for t in obj["transactions"]),
            allocations=tuple(
                (bytes.fromhex(a), int(n)) for a, n in obj.get("allocations", [])
            ),
        )

    def encode(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()

    @staticmethod
    def decode(data: bytes) -> "Block":
        return Block.from_json(json.loads(data))


def make_genesis(allocations: Iterable[tuple], timestamp: int = 0) -> Block:
    allocs = tuple((bytes(a), int(n)) for a, n in allocations)
    return Block(
        height=0,
        prev_hash=ZERO_HASH,
        timestamp=timestamp,
        difficulty_bits=0,
        pow_nonce=0,
        miner=ZERO_ADDRESS,
        tx_root=genesis_tx_root(allocs, timestamp),
        transactions=(),
        allocations=allocs,
    )


@dataclass
class AccountState:
    balances: dict = field(default_factory=dict)
    nonces: dict = field(default_factory=dict)

    def copy(self) -> "AccountState":
        return AccountState(dict(self.balances), dict(self.nonces))

    def balance(self, address: bytes) -> int:
        return self.balances.get(address, 0)

    def next_nonce(self, address: bytes) -> int:
        return self.nonces.get(address, 0)

    def total_supply(self) -> int:
        return sum(self.balances.values())

    def state_hash(self) -> bytes:
        items = sorted(self.balances.items()) + sorted(self.nonces.items())
        return hash_bytes(
            b"".join(k + struct.pack(">Q", v) for k, v in items if v)
        )


# tx hash -> None, oldest first: transactions whose signature verified
_verified_signatures: OrderedDict = OrderedDict()


def check_signature(tx: Transaction) -> None:
    """Raise TxError unless ``tx``'s payload fits and its signature verifies.

    The one admission check of block validation and the mempool. Signature
    validity is a pure function of the transaction bytes, so a pass is
    remembered process-wide by ``tx_hash`` (which covers every byte,
    signature included) and every simulated node shares it; failures are
    never remembered. A hit also needs the standard key and signature
    widths: only then do equal encodings give ``verify`` equal arguments.
    The oldest pass is forgotten once ``SIGNATURE_CACHE_SIZE`` are held."""
    if len(tx.payload) > MAX_PAYLOAD_BYTES:
        raise TxError("payload_too_large")
    key = tx.tx_hash
    if (
        key in _verified_signatures
        and len(tx.sender_public_key) == PUBLIC_KEY_SIZE
        and len(tx.signature) == SIGNATURE_SIZE
    ):
        return
    if not verify(tx.sender_public_key, tx.signing_bytes(), tx.signature):
        raise TxError("bad_signature")
    _verified_signatures[key] = None
    if len(_verified_signatures) > SIGNATURE_CACHE_SIZE:
        _verified_signatures.popitem(last=False)


def validate_transaction(tx: Transaction, state: AccountState) -> None:
    """Raise TxError unless ``tx`` is acceptable against ``state``."""
    check_signature(tx)
    sender = tx.sender
    expected = state.next_nonce(sender)
    if tx.nonce < expected:
        raise TxError("bad_nonce", f"replay: nonce {tx.nonce} < {expected}")
    if tx.nonce > expected:
        raise TxError("bad_nonce", f"gap: nonce {tx.nonce} > {expected}")
    if state.balance(sender) < tx.amount + tx.fee:
        raise TxError(
            "insufficient_funds",
            f"balance {state.balance(sender)} < {tx.amount + tx.fee}",
        )


def apply_block(state: AccountState, block: Block) -> AccountState:
    """Replay ``block`` onto a copy of ``state``; atomic, pure.

    Transactions settle in order (sender pays amount+fee, nonce bumps),
    then the miner is credited block_reward + total fees. Genesis only
    credits its allocations.
    """
    new = state.copy()
    if block.height == 0:
        for addr, amount in block.allocations:
            new.balances[addr] = new.balances.get(addr, 0) + amount
        return new
    fees = 0
    for i, tx in enumerate(block.transactions):
        sender = tx.sender
        if new.next_nonce(sender) != tx.nonce:
            raise BlockError("bad_tx", f"nonce mismatch at tx {i}", tx_index=i)
        if new.balance(sender) < tx.amount + tx.fee:
            raise BlockError("bad_tx", f"overdraft at tx {i}", tx_index=i)
        new.balances[sender] = new.balance(sender) - tx.amount - tx.fee
        new.balances[tx.recipient] = new.balance(tx.recipient) + tx.amount
        new.nonces[sender] = tx.nonce + 1
        fees += tx.fee
    new.balances[block.miner] = new.balance(block.miner) + BLOCK_REWARD + fees
    return new


def check_fields(block: Block) -> None:
    """Reject a field the binary encodings cannot carry: a wrong-width hash
    or address, an integer outside its packed range, or an oversized
    payload. Runs before anything hashes or signs the block, so a decoded
    chain line or gossiped block that passes the JSON parse still fails
    with a cause code rather than a packing error. Runs on every block
    validation, so the checks are inline comparisons."""
    if len(block.prev_hash) != 32 or len(block.tx_root) != 32 or len(block.miner) != 20:
        raise BlockError("malformed", "header hash or miner width")
    if not (
        0 <= block.height <= U64_MAX
        and 0 <= block.timestamp <= U64_MAX
        and 0 <= block.pow_nonce <= U64_MAX
        and 0 <= block.difficulty_bits <= 0xFF
    ):
        raise BlockError("malformed", "header integer outside its packed range")
    for address, amount in block.allocations:
        if len(address) != 20 or not 0 <= amount <= U64_MAX:
            raise BlockError("malformed", "allocation address width or amount range")
    for i, tx in enumerate(block.transactions):
        if len(tx.payload) > MAX_PAYLOAD_BYTES:
            raise BlockError("bad_tx", f"tx {i}: payload_too_large", tx_index=i)
        if len(tx.recipient) != 20 or not (
            0 <= tx.amount <= U64_MAX and 0 <= tx.fee <= U64_MAX and 0 <= tx.nonce <= U64_MAX
        ):
            raise BlockError("malformed", f"tx {i}: recipient width or u64 range", tx_index=i)


def validate_genesis(block: Block) -> None:
    check_fields(block)
    if block.height != 0:
        raise BlockError("bad_genesis", "genesis height must be 0")
    if block.prev_hash != ZERO_HASH:
        raise BlockError("bad_genesis", "genesis prev_hash must be zero")
    if block.transactions:
        raise BlockError("bad_genesis", "genesis carries no transactions")
    if block.miner != ZERO_ADDRESS:
        raise BlockError("bad_genesis", "genesis miner must be the zero address")
    if block.pow_nonce != 0:
        raise BlockError("bad_genesis", "genesis pow_nonce must be 0")
    if block.difficulty_bits != 0:
        raise BlockError("bad_genesis", "genesis difficulty must be 0")
    if block.tx_root != genesis_tx_root(block.allocations, block.timestamp):
        raise BlockError("bad_tx_root", "genesis commitment mismatch")


def validate_block(block: Block, parent: Block, state_at_parent: AccountState) -> None:
    """Full validation of ``block`` against its parent and parent state."""
    check_fields(block)
    if block.height != parent.height + 1:
        raise BlockError("bad_height", f"{block.height} != {parent.height + 1}")
    if block.prev_hash != parent.block_hash:
        raise BlockError("bad_link")
    if block.timestamp < parent.timestamp:
        raise BlockError("bad_timestamp")
    if block.allocations:
        raise BlockError("bad_tx_root", "allocations only allowed in genesis")
    if len(block.transactions) > MAX_BLOCK_TXS:
        raise BlockError("too_many_txs")
    if block.tx_root != compute_tx_root(block.transactions):
        raise BlockError("bad_tx_root")
    if not meets_difficulty(block.block_hash, block.difficulty_bits):
        raise BlockError("bad_pow")
    seen = set()
    for i, tx in enumerate(block.transactions):
        if tx.tx_hash in seen:
            raise BlockError("bad_tx", f"duplicate tx at {i}", tx_index=i)
        seen.add(tx.tx_hash)
    running = state_at_parent
    for i, tx in enumerate(block.transactions):
        try:
            validate_transaction(tx, running)
        except TxError as e:
            raise BlockError("bad_tx", f"tx {i}: {e.code}", tx_index=i) from e
        running = _apply_partial(running, tx)


def _apply_partial(state: AccountState, tx: Transaction) -> AccountState:
    new = state.copy()
    sender = tx.sender
    new.balances[sender] = new.balance(sender) - tx.amount - tx.fee
    new.balances[tx.recipient] = new.balance(tx.recipient) + tx.amount
    new.nonces[sender] = tx.nonce + 1
    return new


class BlockStore:
    """Block tree: all known valid blocks, child links, and tips, plus an
    index of the canonical chain.

    Orphans (unknown parent) are rejected; they live in the node's orphan
    pool until their parent arrives. Tips remember arrival order so the
    first-seen tie-break in fork choice is stable.

    ``canonical[h]`` is the hash of the canonical block at height ``h`` and
    ``tx_heights`` maps each canonical transaction to its block's height.
    Both change only in ``set_canonical``, which walks back from the new tip
    to the fork point, so a reorg costs its depth, not the chain height.
    """

    def __init__(self, genesis: Block):
        validate_genesis(genesis)
        self.genesis = genesis
        self.blocks: dict = {genesis.block_hash: genesis}
        self.children: dict = {genesis.block_hash: []}
        self._next_arrival = 1
        self.tips: dict = {genesis.block_hash: 0}  # hash -> arrival seq
        self.canonical: list = [genesis.block_hash]  # height -> block hash
        self.tx_heights: dict = {}  # canonical tx hash -> block height

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self.blocks

    def get(self, block_hash: bytes) -> Optional[Block]:
        return self.blocks.get(block_hash)

    def insert(self, block: Block) -> None:
        """Add a block whose parent is already stored. Idempotent."""
        h = block.block_hash
        if h in self.blocks:
            return
        if block.prev_hash not in self.blocks:
            raise BlockError("bad_link", "parent not in store")
        seq = self._next_arrival
        self._next_arrival += 1
        self.blocks[h] = block
        self.children.setdefault(h, [])
        self.children[block.prev_hash].append(h)
        self.tips.pop(block.prev_hash, None)
        self.tips[h] = seq
        # the canonical index is moved by the owner via set_canonical

    def height_of(self, block_hash: bytes) -> int:
        return self.blocks[block_hash].height

    def path_to_genesis(self, tip: bytes) -> list:
        """Blocks from genesis to ``tip`` inclusive, in height order."""
        path = []
        h = tip
        while True:
            block = self.blocks[h]
            path.append(block)
            if block.height == 0:
                break
            h = block.prev_hash
        path.reverse()
        return path

    @property
    def canonical_tip(self) -> bytes:
        return self.canonical[-1]

    def is_canonical(self, block_hash: bytes) -> bool:
        block = self.blocks.get(block_hash)
        return (
            block is not None
            and block.height < len(self.canonical)
            and self.canonical[block.height] == block_hash
        )

    def set_canonical(self, tip: bytes) -> tuple:
        """Make ``tip`` the canonical head. Returns ``(displaced, adopted)``:
        the blocks that left and joined the canonical chain, each in height
        order. Only those blocks are touched."""
        adopted = []
        h = tip
        while not self.is_canonical(h):
            block = self.blocks[h]
            adopted.append(block)
            h = block.prev_hash
        fork = self.blocks[h].height
        displaced = [self.blocks[d] for d in self.canonical[fork + 1 :]]
        del self.canonical[fork + 1 :]
        for block in displaced:
            for tx in block.transactions:
                if self.tx_heights.get(tx.tx_hash, -1) > fork:
                    del self.tx_heights[tx.tx_hash]
        adopted.reverse()
        for block in adopted:
            self.canonical.append(block.block_hash)
            for tx in block.transactions:
                self.tx_heights.setdefault(tx.tx_hash, block.height)
        return displaced, adopted

    def canonical_chain(self) -> list:
        return [self.blocks[h] for h in self.canonical]


def verify_chain(store: BlockStore, tip: bytes) -> AccountState:
    """Replay genesis -> tip; returns the resulting state or raises ChainError."""
    if tip not in store.blocks:
        raise ChainError(-1, "unknown_tip")
    path = store.path_to_genesis(tip)
    return replay_blocks(path)


def replay_blocks(path: list) -> AccountState:
    """Validate and apply a genesis-rooted block list; ChainError on failure."""
    if not path:
        raise ChainError(0, "empty_chain")
    try:
        validate_genesis(path[0])
    except BlockError as e:
        raise ChainError(0, e.code, e.detail) from e
    state = apply_block(AccountState(), path[0])
    for i in range(1, len(path)):
        try:
            validate_block(path[i], path[i - 1], state)
            state = apply_block(state, path[i])
        except BlockError as e:
            raise ChainError(i, e.code, e.detail) from e
    return state


def write_chain_file(blocks: Iterable[Block], path) -> None:
    with open(path, "wb") as f:
        for block in blocks:
            f.write(block.encode() + b"\n")


def chain_file_lines(blocks: Iterable[Block]) -> list:
    return [block.encode() for block in blocks]


def read_chain_file(path) -> list:
    with open(path, "rb") as f:
        lines = [ln for ln in f.read().split(b"\n") if ln.strip()]
    return [Block.decode(ln) for ln in lines]


def verify_chain_lines(lines: list) -> AccountState:
    """Verify serialized chain lines; ChainError carries the failing height.

    A line that fails to parse reports its own position as the failing
    height, so any byte-level tamper is pinned to the block it touched.
    """
    blocks = []
    for i, ln in enumerate(lines):
        try:
            blocks.append(Block.decode(ln))
        except Exception as e:
            raise ChainError(i, "parse_error", str(e)) from e
        if blocks[-1].height != i:
            raise ChainError(i, "bad_height", f"line {i} declares height {blocks[-1].height}")
    return replay_blocks(blocks)
