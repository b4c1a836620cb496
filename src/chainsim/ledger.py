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
fields lowercase hex. The JSON decoders own every field rule (widths, u64
and u8 ranges, the payload bound), so whatever they return encodes.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional

from .consensus import block_reward, meets_difficulty
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
# a full mempool (mempool.DEFAULT_CAPACITY) plus one block: a tx verified on
# admission is still held when a block carries it
SIGNATURE_CACHE_SIZE = 10_000 + MAX_BLOCK_TXS
ZERO_HASH = bytes(32)
ZERO_ADDRESS = bytes(20)
U64_MAX = (1 << 64) - 1
POW_NONCE_OFFSET = 8 + 32 + 8 + 1  # pow_nonce's byte offset in the header


class LedgerError(Exception):
    """Validation failure with a machine-readable cause code."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


class TxError(LedgerError):
    """Causes: bad_signature, bad_nonce, insufficient_funds, payload_too_large."""


class BlockError(LedgerError):
    """Causes: bad_link, bad_height, bad_tx_root, bad_pow, bad_tx, too_many_txs,
    bad_timestamp, bad_genesis."""

    def __init__(self, code: str, detail: str = "", tx_index: Optional[int] = None):
        self.tx_index = tx_index
        super().__init__(code, detail)


class ChainError(LedgerError):
    """Chain replay failure; carries the first failing height."""

    def __init__(self, height: int, code: str, detail: str = ""):
        self.height = height
        super().__init__(code, f"height {height}: {detail}" if detail else f"height {height}")


_TX_KEYS = frozenset(
    ("sender_public_key", "recipient", "amount", "fee", "nonce", "payload", "signature")
)
_BLOCK_KEYS = frozenset(
    ("height", "prev_hash", "timestamp", "difficulty_bits", "pow_nonce", "miner", "tx_root",
     "transactions")
)
_GENESIS_KEYS = _BLOCK_KEYS | {"allocations"}


# The one canonical JSON encoder, of chain lines, BLOCKS bodies, contact lists,
# RPC replies and trace rows: json.dumps(obj, sort_keys=True, separators=(",",
# ":")) as ASCII text in pieces. It is the C encoder json.dumps builds on every
# call, built once (chainsim runs on CPython only); every value it encodes is a
# tree, so it skips the circular-reference check.
json_chunks = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True,
)


def canonical_json(obj) -> bytes:
    return "".join(json_chunks(obj, 0)).encode()


# Block.encode's fixed layouts: canonical_json of a tx, of a block and of a
# genesis block's allocations prefix, keys in sorted order. Every byte field
# is lowercase hex, which JSON never escapes, and every integer field an int,
# which %d spells as canonical_json does; a Hypothesis property holds them to
# canonical_json of the reference encoder in the tests.
_TX_JSON = (
    '{"amount":%d,"fee":%d,"nonce":%d,"payload":"%s","recipient":"%s",'
    '"sender_public_key":"%s","signature":"%s"}'
)
_BLOCK_JSON = (
    '{"difficulty_bits":%d,"height":%d,"miner":"%s","pow_nonce":%d,"prev_hash":"%s",'
    '"timestamp":%d,"transactions":[%s],"tx_root":"%s"}'
)
_ALLOCATIONS_JSON = '{"allocations":[%s],'  # then _BLOCK_JSON without its "{"
_ALLOCATION_JSON = '["%s",%d]'


def _check_keys(obj, keys: frozenset) -> None:
    """The JSON decoders take exactly the fields ``Block.encode`` writes."""
    if type(obj) is not dict or obj.keys() != keys:
        raise ValueError(f"expected an object with exactly the fields {sorted(keys)}")


def _int(value, top: int = U64_MAX) -> int:
    """An integer field, in ``0..top``: the range its packed form holds."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if not 0 <= value <= top:
        raise ValueError(f"integer outside 0..{top}")
    return value


def _hex(value, width: Optional[int] = None) -> bytes:
    """A byte field, of exactly ``width`` bytes when the field is fixed-width."""
    if type(value) is not str:
        raise TypeError(f"expected a hex string, got {type(value).__name__}")
    data = bytes.fromhex(value)
    if data.hex() != value:  # one spelling per value: lowercase, no separators
        raise ValueError("hex must be lowercase with no separators")
    if width is not None and len(data) != width:
        raise ValueError(f"expected {width} bytes, got {len(data)}")
    return data


def _list(value) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Transaction:
    sender_public_key: bytes
    recipient: bytes
    amount: int
    fee: int
    nonce: int
    payload: bytes = b""
    signature: bytes = bytes(64)

    def __post_init__(self):
        # Every tx a decoder returns gets ``sender`` and ``tx_hash`` here, as
        # plain instance attributes that shadow the lazy properties below:
        # set in ``__init__``, their keys join the key table CPython shares
        # among a class's instances (see ``Block._canonical``), and a read is
        # a dict lookup. A directly built tx that breaks a field rule (a key
        # ``sender`` refuses, an oversized payload or an integer outside its
        # packed range) keeps both lazy, so building it never raises.
        if len(self.sender_public_key) != PUBLIC_KEY_SIZE:
            return
        try:
            data = self.encode()
        except (TxError, struct.error):
            return
        object.__setattr__(self, "sender", address_from_public_key(self.sender_public_key))
        object.__setattr__(self, "tx_hash", hash_bytes(data))

    @cached_property
    def sender(self) -> bytes:
        return address_from_public_key(self.sender_public_key)

    def signing_bytes(self) -> bytes:
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise TxError("payload_too_large", f"{len(self.payload)} > {MAX_PAYLOAD_BYTES}")
        return b"".join(
            [
                self.sender_public_key,
                self.recipient,
                struct.pack(">Q", self.amount),
                struct.pack(">Q", self.fee),
                struct.pack(">Q", self.nonce),
                struct.pack(">H", len(self.payload)),
                self.payload,
            ]
        )

    def encode(self) -> bytes:
        return self.signing_bytes() + self.signature

    @cached_property
    def tx_hash(self) -> bytes:
        return hash_bytes(self.encode())

    @cached_property
    def hash_hex(self) -> str:
        """``tx_hash`` as hex: the tx's one label in every trace row."""
        return self.tx_hash.hex()

    @staticmethod
    def from_json(obj: dict) -> "Transaction":
        _check_keys(obj, _TX_KEYS)
        payload = _hex(obj["payload"])
        if len(payload) > MAX_PAYLOAD_BYTES:  # encode, and so tx_hash, would refuse it
            raise TxError("payload_too_large", f"{len(payload)} > {MAX_PAYLOAD_BYTES}")
        return Transaction(
            sender_public_key=_hex(obj["sender_public_key"], PUBLIC_KEY_SIZE),
            recipient=_hex(obj["recipient"], 20),
            amount=_int(obj["amount"]),
            fee=_int(obj["fee"]),
            nonce=_int(obj["nonce"]),
            payload=payload,
            signature=_hex(obj["signature"], SIGNATURE_SIZE),
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
    if plen > MAX_PAYLOAD_BYTES:  # encode, and so tx_hash, would refuse it
        raise TxError("payload_too_large", f"{plen} > {MAX_PAYLOAD_BYTES}")
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


def compute_tx_root(transactions: Iterable[Transaction]) -> bytes:
    return hash_bytes(b"".join(tx.encode() for tx in transactions))


def genesis_tx_root(allocations: tuple, timestamp: int) -> bytes:
    """Genesis commitment: timestamp plus the allocation list."""
    packed = [addr + struct.pack(">Q", amount) for addr, amount in allocations]
    return hash_bytes(struct.pack(">Q", timestamp) + b"".join(packed))


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
    # encode's bytes once made. __init__ sets it (a default_factory does, a
    # plain default would not), so every block has the key from the start:
    # CPython shares one key table among a class's instances, and a key
    # first set once many blocks exist gives each block a dict of its own.
    _canonical: Optional[bytes] = field(
        default_factory=type(None), init=False, repr=False, compare=False
    )

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

    @cached_property
    def hash_hex(self) -> str:
        """``block_hash`` as hex: the block's one label in every trace row."""
        return self.block_hash.hex()

    @staticmethod
    def from_json(obj: dict) -> "Block":
        _check_keys(obj, _GENESIS_KEYS if "allocations" in obj else _BLOCK_KEYS)
        allocations = []
        for pair in _list(obj.get("allocations", [])):
            if len(_list(pair)) != 2:
                raise ValueError("an allocation is an [address, amount] pair")
            allocations.append((_hex(pair[0], 20), _int(pair[1])))
        return Block(
            height=_int(obj["height"]),
            prev_hash=_hex(obj["prev_hash"], 32),
            timestamp=_int(obj["timestamp"]),
            difficulty_bits=_int(obj["difficulty_bits"], 0xFF),
            pow_nonce=_int(obj["pow_nonce"]),
            miner=_hex(obj["miner"], 20),
            tx_root=_hex(obj["tx_root"], 32),
            transactions=tuple(Transaction.from_json(t) for t in _list(obj["transactions"])),
            allocations=tuple(allocations),
        )

    def encode(self) -> bytes:
        """The canonical JSON bytes, encoded once per block object from the
        fixed layouts: every relay, ``BLOCKS`` page, chain-file line and RPC
        read of the block reuses them."""
        data = self._canonical
        if data is None:
            text = _BLOCK_JSON % (
                self.difficulty_bits, self.height, self.miner.hex(), self.pow_nonce,
                self.prev_hash.hex(), self.timestamp,
                ",".join([
                    _TX_JSON % (tx.amount, tx.fee, tx.nonce, tx.payload.hex(),
                                tx.recipient.hex(), tx.sender_public_key.hex(),
                                tx.signature.hex())
                    for tx in self.transactions
                ]),
                self.tx_root.hex(),
            )
            if self.allocations:
                text = _ALLOCATIONS_JSON % ",".join(
                    [_ALLOCATION_JSON % (a.hex(), n) for a, n in self.allocations]
                ) + text[1:]
            data = text.encode()
            object.__setattr__(self, "_canonical", data)
        return data

    @staticmethod
    def decode(data: bytes) -> "Block":
        return Block.from_json(json.loads(data))


def decode_relayed_block(data: bytes) -> Block:
    """``Block.decode`` for a gossip body. A body in the canonical spelling,
    which every relay sends, becomes the block's kept encoding, so the body
    and the block hold one copy of those bytes."""
    block = Block.decode(data)
    if block.encode() == data:
        object.__setattr__(block, "_canonical", data)
    return block


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


# tx hash -> None, oldest first: transactions whose signature verified
_verified_signatures: OrderedDict = OrderedDict()


def check_signature(tx: Transaction) -> None:
    """Raise TxError unless ``tx``'s signature verifies.

    The one admission check of block validation and the mempool. The field
    rules are the decoders'; a directly built ``Transaction`` with an
    oversized payload still raises ``payload_too_large``, from ``tx_hash``,
    before any verify. Signature validity is a pure function of the
    transaction bytes, so a pass is remembered process-wide by ``tx_hash``
    (which covers every byte, signature included) and every simulated node
    shares it; failures are never remembered. A hit also needs the standard
    key and signature widths, which every decoded transaction has: only then
    do equal encodings give ``verify`` equal arguments. The oldest pass is
    forgotten once ``SIGNATURE_CACHE_SIZE`` are held."""
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


def apply_tx(state: AccountState, tx: Transaction) -> None:
    """The one account-state transition: settle ``tx`` onto ``state`` in
    place (the sender pays amount+fee, the recipient gains amount, the
    sender's nonce bumps), or raise TxError bad_nonce / insufficient_funds
    and leave ``state`` untouched. Signatures are ``check_signature``'s."""
    sender = tx.sender
    expected = state.nonces.get(sender, 0)
    if tx.nonce < expected:
        raise TxError("bad_nonce", f"replay: nonce {tx.nonce} < {expected}")
    if tx.nonce > expected:
        raise TxError("bad_nonce", f"gap: nonce {tx.nonce} > {expected}")
    balances = state.balances
    balance = balances.get(sender, 0)
    cost = tx.amount + tx.fee
    if balance < cost:
        raise TxError("insufficient_funds", f"balance {balance} < {cost}")
    balances[sender] = balance - cost
    balances[tx.recipient] = balances.get(tx.recipient, 0) + tx.amount
    state.nonces[sender] = expected + 1


def settle_block(state: AccountState, block: Block) -> None:
    """Settle ``block`` onto ``state`` in place.

    Transactions settle in order through ``apply_tx``, then the miner is
    credited the block reward plus total fees. Genesis only credits its
    allocations. Checks no signature: ``validate_block`` does that first.
    A BlockError leaves ``state`` part-settled, so settle directly only a
    block already validated on this state; ``validate_block`` settles any
    other and rewinds it on failure.
    """
    balances = state.balances
    if block.height == 0:
        for addr, amount in block.allocations:
            balances[addr] = balances.get(addr, 0) + amount
        return
    fees = 0
    for i, tx in enumerate(block.transactions):
        try:
            apply_tx(state, tx)
        except TxError as e:
            raise BlockError("bad_tx", f"tx {i}: {e.code}", tx_index=i) from e
        fees += tx.fee
    balances[block.miner] = balances.get(block.miner, 0) + block_reward(block.height) + fees


def block_undo(state: AccountState, block: Block) -> tuple:
    """The undo record of ``block`` over ``state``, the state before it, as
    Bitcoin Core's ``CBlockUndo`` is of a block's spent outputs: an
    address, balance and nonce for each account the block touches, holding
    what ``state`` held, or None where it held no entry, so that
    ``rewind_block`` restores which keys are present too. One flat tuple
    of those triples, three fields per account, as a node keeps one per
    stored block."""
    touched = [block.miner] if block.height else [a for a, _ in block.allocations]
    for tx in block.transactions:
        touched += (tx.sender, tx.recipient)
    balances, nonces = state.balances, state.nonces
    undo = []
    for address in dict.fromkeys(touched):
        undo += (address, balances.get(address), nonces.get(address))
    return tuple(undo)


def rewind_block(state: AccountState, undo: tuple) -> None:
    """Take a block off ``state``, the state after it, in place, given its
    ``block_undo`` record: ``state`` becomes the state before the block."""
    balances, nonces = state.balances, state.nonces
    fields = iter(undo)
    for address, balance, nonce in zip(fields, fields, fields):
        if balance is None:
            balances.pop(address, None)
        else:
            balances[address] = balance
        if nonce is None:
            nonces.pop(address, None)
        else:
            nonces[address] = nonce


def validate_genesis(block: Block) -> None:
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


def validate_block(block: Block, parent: Block, state: AccountState) -> tuple:
    """Full validation of ``block`` against its parent and ``state``, the
    state after the parent: settles ``block`` onto ``state`` in place and
    returns its ``block_undo`` record.

    The checks that need no state come first (link, root, PoW, duplicate
    transactions and every signature), then ``settle_block`` is the state
    check, so a block is validated and settled in one pass, as Bitcoin
    Core's ``ConnectBlock`` connects a block in place and keeps its undo
    data. On a BlockError the undo record rewinds ``state`` to exactly what
    it was, keys present included, so no caller copies a state to stay
    atomic. Field widths and ranges are the decoders': a decoded block can
    always be encoded."""
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
        try:
            check_signature(tx)
        except TxError as e:
            raise BlockError("bad_tx", f"tx {i}: {e.code}", tx_index=i) from e
    undo = block_undo(state, block)
    try:
        settle_block(state, block)
    except BlockError:
        rewind_block(state, undo)
        raise
    return undo


class BlockStore:
    """Block tree: all known valid blocks, plus an index of the canonical
    chain, whose head fork choice picks as blocks are inserted.

    Orphans (unknown parent) are rejected; they live in the node's orphan
    pool until their parent arrives.

    ``canonical[h]`` is the hash of the canonical block at height ``h`` and
    ``tx_heights`` maps each canonical transaction to its block's height.
    Both change only in ``set_canonical``, which walks back from the new tip
    to the fork point, so a reorg costs its depth, not the chain height.
    """

    def __init__(self, genesis: Block):
        validate_genesis(genesis)
        self.blocks: dict = {genesis.block_hash: genesis}
        self.canonical: list = [genesis.block_hash]  # height -> block hash
        self.tx_heights: dict = {}  # canonical tx hash -> block height

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self.blocks

    def insert(self, block: Block) -> tuple:
        """Add a block whose parent is stored, and apply fork choice: the
        tallest chain wins, the first seen wins a tie. The new block arrived
        last, so it takes the head only when taller; then this returns
        ``set_canonical``'s ``(displaced, adopted)``, else ``([], [])``."""
        h = block.block_hash
        if h in self.blocks:
            return [], []
        if block.prev_hash not in self.blocks:
            raise BlockError("bad_link", "parent not in store")
        self.blocks[h] = block
        if block.height > len(self.canonical) - 1:
            return self.set_canonical(h)
        return [], []

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

    def branch(self, tip: bytes) -> tuple:
        """``(fork, blocks)``: the stored blocks from ``tip`` down to the
        canonical chain, ``tip`` first, and the height of the canonical
        block they fork from (``tip``'s own height, and no blocks, when
        ``tip`` is canonical)."""
        blocks = []
        h = tip
        while not self.is_canonical(h):
            block = self.blocks[h]
            blocks.append(block)
            h = block.prev_hash
        return self.blocks[h].height, blocks

    def set_canonical(self, tip: bytes) -> tuple:
        """Make ``tip`` the canonical head. Returns ``(displaced, adopted)``:
        the blocks that left and joined the canonical chain, each in height
        order. Only those blocks are touched."""
        fork, adopted = self.branch(tip)
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


def replay_blocks(blocks: list, state: AccountState):
    """The one chain replay: validate a genesis-rooted block list and settle
    it onto ``state``, which starts empty, yielding each block's
    ``block_undo`` record once it is settled; raises ChainError at the first
    failing height. ``state`` is the state after the last block yielded."""
    if not blocks:
        raise ChainError(0, "empty_chain")
    genesis = blocks[0]
    try:
        validate_genesis(genesis)
    except BlockError as e:
        raise ChainError(0, e.code, e.detail) from e
    undo = block_undo(state, genesis)
    settle_block(state, genesis)
    yield undo
    for i in range(1, len(blocks)):
        try:
            undo = validate_block(blocks[i], blocks[i - 1], state)
        except BlockError as e:
            raise ChainError(i, e.code, e.detail) from e
        yield undo


def chain_file_lines(blocks: Iterable[Block]) -> list:
    """The one chain-file writer: a file is these lines, each ended by a newline."""
    return [block.encode() for block in blocks]


def read_chain_lines(path) -> list:
    """The one chain-file reader: the file's non-blank lines, for
    ``decode_chain_lines``; ValueError if none, OSError if unreadable."""
    with open(path, "rb") as f:
        lines = [ln for ln in f.read().split(b"\n") if ln.strip()]
    if not lines:
        raise ValueError("empty chain file")
    return lines


def read_chain_file(path) -> list:
    """A chain file's blocks; a bad line raises ChainError at its height."""
    return decode_chain_lines(read_chain_lines(path))


def decode_chain_lines(lines: list) -> list:
    """Decode chain lines, block ``i`` on line ``i``. A bad line raises
    ChainError at its own height, pinning a tamper to the block it touched."""
    blocks = []
    for i, ln in enumerate(lines):
        try:
            blocks.append(Block.decode(ln))
        except Exception as e:
            raise ChainError(i, "parse_error", str(e)) from e
        if blocks[-1].height != i:
            raise ChainError(i, "bad_height", f"line {i} declares height {blocks[-1].height}")
    return blocks


def verify_chain_lines(lines: list) -> AccountState:
    """Verify serialized chain lines and return the state after them;
    ChainError carries the failing height."""
    state = AccountState()
    for _ in replay_blocks(decode_chain_lines(lines), state):
        pass
    return state
