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
and u8 ranges, the payload bound), so whatever they return encodes. The
constructors own the rules without which no hash can be made: a
``Transaction`` refuses a key that is not 32 bytes, a signature that is not
64, an oversized payload or an integer outside u64, and a ``Block`` a header
that does not pack. Every object is built whole, hashes and all.
"""

from __future__ import annotations

import itertools
import json
import re
import struct
from binascii import a2b_hex
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .consensus import POW_CEILINGS, block_reward
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
# the keys and addresses whose one copy every transaction shares (``_shared``):
# a run has a few dozen accounts, each a key and an address
SHARED_ACCOUNT_BYTES = 1024
ZERO_HASH = bytes(32)
EMPTY_TX_ROOT = hash_bytes(b"")  # compute_tx_root of no transactions
ZERO_ADDRESS = bytes(20)
U64_MAX = (1 << 64) - 1
POW_NONCE_OFFSET = 8 + 32 + 8 + 1  # pow_nonce's byte offset in the header
_HEADER_HEIGHT = struct.Struct(">Q")
_HEADER_SEAL = struct.Struct(">QBQ")  # timestamp, difficulty_bits, pow_nonce


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


_scan_once = json.JSONDecoder().scan_once


def _json_object(data: bytes):
    """``json.loads(data)``: the same object, or the same exception. Bytes
    that open an object with a key, as every block line, block body and
    JSON-RPC request does, are UTF-8 by json.loads's own detection, so they
    skip it and go straight to the decoder's scanner at their first byte,
    which is where json.loads's whitespace scan would start it, and raise
    what the scanner raises. Any other input, an object that does not fill
    the bytes (trailing whitespace or extra data) and a missing value inside
    the object (the scanner's StopIteration) take ``json.loads`` itself.
    ``Block.decode`` comes here for a line ``_match_empty_block`` does not
    take (one with transactions or allocations, or in another spelling),
    and ``rpc.RpcDispatcher.handle_payload`` for every payload."""
    if data[:2] == b'{"':
        text = data.decode("utf-8", "surrogatepass")
        try:
            obj, end = _scan_once(text, 0)
        except StopIteration:  # no value where one must be: json.loads's error
            end = None
        if end == len(text):
            return obj
    return json.loads(data)


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

# _BLOCK_JSON with no transactions, as a bytes pattern: each integer in %d's
# one spelling, of at most the digits of its range's top, and each byte field
# lowercase hex of exactly its width. Its groups are the fields in the
# layout's order: difficulty_bits, height, miner, pow_nonce, prev_hash,
# timestamp, tx_root. A line it takes is the encoding of the block its
# fields make once each integer is in its range.
_U64_DIGITS = "(0|[1-9][0-9]{0,19})"
_match_empty_block = re.compile((re.escape(_BLOCK_JSON).replace("%d", "%s") % (
    "(0|[1-9][0-9]{0,2})", _U64_DIGITS, "([0-9a-f]{40})", _U64_DIGITS, "([0-9a-f]{64})",
    _U64_DIGITS, "", "([0-9a-f]{64})")).encode()).fullmatch


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


def _fixed_hex(a, a_width: int, b, b_width: int, c, c_width: int) -> bytes:
    """``_hex(a, a_width) + _hex(b, b_width) + _hex(c, c_width)``, checked
    with one ``bytes.fromhex`` round trip over the three joined: each has
    exactly its width in hex digits, so the round trip holds for the whole
    only if it holds for each."""
    if (type(a) is type(b) is type(c) is str and len(a) == 2 * a_width
            and len(b) == 2 * b_width and len(c) == 2 * c_width):
        text = a + b + c
        data = bytes.fromhex(text)
        if data.hex() == text:
            return data
    return _hex(a, a_width) + _hex(b, b_width) + _hex(c, c_width)  # one of them raises


def _list(value) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


@lru_cache(maxsize=SHARED_ACCOUNT_BYTES)
def _shared(data: bytes) -> tuple:
    """``(data, address)``: the one kept copy of a key's or an address's
    bytes, and for a key the one copy of its address (derived on a miss;
    None for an address)."""
    if len(data) != PUBLIC_KEY_SIZE:
        return data, None
    return data, _shared(address_from_public_key(data))[0]


def _signing_bytes(sender_public_key, recipient, amount, fee, nonce, payload) -> bytes:
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise TxError("payload_too_large", f"{len(payload)} > {MAX_PAYLOAD_BYTES}")
    return b"".join(
        [sender_public_key, recipient, struct.pack(">QQQH", amount, fee, nonce, len(payload)),
         payload]
    )


# Transaction's ``__init__`` is hand-written, as Block's is (see there): it
# sets each slot through the slot's member descriptor (the ``_tx_set_*``
# below the class). Eq, hash, repr, frozen assignment and
# ``dataclasses.replace`` are still the dataclass's.
@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """A signed transfer. Its one constructor derives ``sender`` and
    ``tx_hash``, or raises: ValueError for a key or signature of the wrong
    width, TxError ``payload_too_large``, struct.error for an integer
    outside u64, and TypeError for a key, recipient, payload or signature
    that is not ``bytes``. Its key, recipient and sender address are the
    ``_shared`` copies, so the txs of one account hold one copy of each."""

    sender_public_key: bytes
    recipient: bytes
    amount: int
    fee: int
    nonce: int
    payload: bytes = b""
    signature: bytes = bytes(64)
    sender: bytes = field(init=False, compare=False, repr=False)
    tx_hash: bytes = field(init=False, compare=False, repr=False)

    def __init__(self, sender_public_key, recipient, amount, fee, nonce, payload=b"",
                 signature=bytes(64)):
        if type(payload) is not bytes or type(signature) is not bytes:
            raise TypeError("a payload and a signature are bytes")  # else the tx is unhashable
        if len(sender_public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
            raise ValueError(f"a key is {PUBLIC_KEY_SIZE} bytes and a signature {SIGNATURE_SIZE}")
        data = _signing_bytes(sender_public_key, recipient, amount, fee, nonce, payload)
        pk, sender = _shared(sender_public_key)
        _tx_set_sender_public_key(self, pk)
        _tx_set_recipient(self, _shared(recipient)[0])
        _tx_set_amount(self, amount)
        _tx_set_fee(self, fee)
        _tx_set_nonce(self, nonce)
        _tx_set_payload(self, payload)
        _tx_set_signature(self, signature)
        _tx_set_sender(self, sender)
        _tx_set_tx_hash(self, hash_bytes(data + signature))

    def __reduce__(self):
        # copies and pickles carry the wire fields only; the copy derives the rest
        return Transaction, (self.sender_public_key, self.recipient, self.amount, self.fee,
                             self.nonce, self.payload, self.signature)

    def signing_bytes(self) -> bytes:
        return _signing_bytes(self.sender_public_key, self.recipient, self.amount, self.fee,
                              self.nonce, self.payload)

    def encode(self) -> bytes:
        return self.signing_bytes() + self.signature

    @property
    def hash_hex(self) -> str:
        """``tx_hash`` as hex: the tx's one label in every trace row."""
        return self.tx_hash.hex()

    @staticmethod
    def from_json(obj: dict) -> "Transaction":
        _check_keys(obj, _TX_KEYS)
        amount, fee, nonce = obj["amount"], obj["fee"], obj["nonce"]
        if not (type(amount) is type(fee) is type(nonce) is int and 0 <= amount <= U64_MAX
                and 0 <= fee <= U64_MAX and 0 <= nonce <= U64_MAX):
            _int(amount), _int(fee), _int(nonce)  # one of them raises
        payload = _hex(obj["payload"])
        if len(payload) > MAX_PAYLOAD_BYTES:  # encode, and so tx_hash, would refuse it
            raise TxError("payload_too_large", f"{len(payload)} > {MAX_PAYLOAD_BYTES}")
        data = _fixed_hex(obj["sender_public_key"], PUBLIC_KEY_SIZE, obj["recipient"], 20,
                          obj["signature"], SIGNATURE_SIZE)
        return Transaction(data[:PUBLIC_KEY_SIZE], data[PUBLIC_KEY_SIZE:-SIGNATURE_SIZE],
                           amount, fee, nonce, payload, data[-SIGNATURE_SIZE:])


(_tx_set_sender_public_key, _tx_set_recipient, _tx_set_amount, _tx_set_fee, _tx_set_nonce,
 _tx_set_payload, _tx_set_signature, _tx_set_sender, _tx_set_tx_hash) = [
    Transaction.__dict__[name].__set__ for name in (
        "sender_public_key recipient amount fee nonce payload signature sender tx_hash").split()]


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
    message = _signing_bytes(public_key, recipient, amount, fee, nonce, payload)
    return Transaction(public_key, recipient, amount, fee, nonce, payload,
                       sign(private_key, message))


def compute_tx_root(transactions: Iterable[Transaction]) -> bytes:
    if not transactions:  # an empty sequence: every block of a tx-free chain
        return EMPTY_TX_ROOT
    return hash_bytes(b"".join([tx.encode() for tx in transactions]))


def genesis_tx_root(allocations: tuple, timestamp: int) -> bytes:
    """Genesis commitment: timestamp plus the allocation list."""
    packed = [addr + struct.pack(">Q", amount) for addr, amount in allocations]
    return hash_bytes(struct.pack(">Q", timestamp) + b"".join(packed))


def pack_header(height, prev_hash, timestamp, difficulty_bits, pow_nonce, miner,
                tx_root) -> bytes:
    """A block header's bytes, from its fields (see the module docstring)."""
    return (_HEADER_HEIGHT.pack(height) + prev_hash
            + _HEADER_SEAL.pack(timestamp, difficulty_bits, pow_nonce) + miner + tx_root)


# Block's ``__init__`` is hand-written: a frozen dataclass's generated one
# sets each field through ``object.__setattr__``, which would be most of
# what building a decoded block costs. This one sets each slot through the
# slot's member descriptor (the ``_set_*`` below the class, bound once),
# which frozen assignment does not guard. Eq, hash, repr, frozen assignment
# and ``dataclasses.replace`` are still the dataclass's.
@dataclass(frozen=True, slots=True, init=False)
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
    # encode's bytes once made
    _canonical: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    # validate_block's verdict on the checks that need no state, kept once
    # made against a parent this block links to (see validate_block): () for
    # a pass, else the BlockError's (code, detail, tx_index)
    _verdict: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    block_hash: bytes = field(init=False, repr=False, compare=False)

    def __init__(self, height, prev_hash, timestamp, difficulty_bits, pow_nonce, miner,
                 tx_root, transactions=(), allocations=()):
        _set_height(self, height)
        _set_prev_hash(self, prev_hash)
        _set_timestamp(self, timestamp)
        _set_difficulty_bits(self, difficulty_bits)
        _set_pow_nonce(self, pow_nonce)
        _set_miner(self, miner)
        _set_tx_root(self, tx_root)
        _set_transactions(self, transactions)
        _set_allocations(self, allocations)
        _set_canonical(self, None)
        _set_verdict(self, None)
        # Every block gets ``block_hash`` here, where it is built or decoded:
        # validation reads it anyway, so this adds no hashing. A header that
        # does not pack raises, struct.error or TypeError.
        _set_block_hash(self, hash_bytes(pack_header(height, prev_hash, timestamp, difficulty_bits,
                                                     pow_nonce, miner, tx_root)))

    def __reduce__(self):
        # copies and pickles carry the wire fields only; the copy derives the rest
        return Block, (self.height, self.prev_hash, self.timestamp, self.difficulty_bits,
                       self.pow_nonce, self.miner, self.tx_root, self.transactions,
                       self.allocations)

    @property
    def hash_hex(self) -> str:
        """``block_hash`` as hex: the block's one label in every trace row."""
        return self.block_hash.hex()

    @staticmethod
    def from_json(obj: dict) -> "Block":
        _check_keys(obj, _GENESIS_KEYS if "allocations" in obj else _BLOCK_KEYS)
        height, timestamp = obj["height"], obj["timestamp"]
        difficulty_bits, pow_nonce = obj["difficulty_bits"], obj["pow_nonce"]
        if not (type(height) is type(timestamp) is type(difficulty_bits) is type(pow_nonce)
                is int and 0 <= height <= U64_MAX and 0 <= timestamp <= U64_MAX
                and 0 <= difficulty_bits <= 0xFF and 0 <= pow_nonce <= U64_MAX):
            # one of them raises
            _int(height), _int(timestamp), _int(difficulty_bits, 0xFF), _int(pow_nonce)
        data = _fixed_hex(obj["prev_hash"], 32, obj["miner"], 20, obj["tx_root"], 32)
        allocations = ()
        if "allocations" in obj:
            allocations = []
            for pair in _list(obj["allocations"]):
                if len(_list(pair)) != 2:
                    raise ValueError("an allocation is an [address, amount] pair")
                allocations.append((_hex(pair[0], 20), _int(pair[1])))
            allocations = tuple(allocations)
        txs = _list(obj["transactions"])
        txs = tuple([Transaction.from_json(t) for t in txs]) if txs else ()
        return Block(height, data[:32], timestamp, difficulty_bits, pow_nonce, data[32:52],
                     data[52:], txs, allocations)

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
        """The one block decoder, of chain lines and gossip bodies:
        ``Block.from_json(_json_object(data))``. A ``bytes`` input in the
        spelling ``encode`` writes becomes the block's kept encoding, so the
        line or body and the block hold one copy of those bytes, and every
        relay, chain-file line and RPC read of the block reuses them. A line
        of a block with no transactions or allocations is read through
        ``_match_empty_block``, with the same outcome; any other input, or an
        integer out of range, takes the JSON path, where a ``bytes`` input
        is kept when ``encode`` gives the same bytes."""
        match = _match_empty_block(data) if type(data) is bytes else None
        if match is not None:
            bits, height, miner, pow_nonce, prev_hash, timestamp, tx_root = match.groups()
            bits, height, pow_nonce, timestamp = (
                int(bits), int(height), int(pow_nonce), int(timestamp))
            if bits <= 0xFF and max(height, pow_nonce, timestamp) <= U64_MAX:
                # one hex decode of the three fields, as _fixed_hex's; a2b_hex
                # takes the match's bytes, which bytes.fromhex does not
                raw = a2b_hex(prev_hash + miner + tx_root)
                block = Block(height, raw[:32], timestamp, bits, pow_nonce, raw[32:52], raw[52:])
                _set_canonical(block, data)
                return block
        block = Block.from_json(_json_object(data))
        if type(data) is bytes and block.encode() == data:
            _set_canonical(block, data)
        return block


(_set_height, _set_prev_hash, _set_timestamp, _set_difficulty_bits, _set_pow_nonce, _set_miner,
 _set_tx_root, _set_transactions, _set_allocations, _set_canonical, _set_verdict,
 _set_block_hash) = [Block.__dict__[name].__set__ for name in (
    "height prev_hash timestamp difficulty_bits pow_nonce miner tx_root transactions "
    "allocations _canonical _verdict block_hash").split()]


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

    The one admission check of block validation and the mempool. Signature
    validity is a pure function of the transaction bytes, so a pass is
    remembered process-wide by ``tx_hash`` (which covers every byte,
    signature included) and every simulated node shares it; failures are
    never remembered. Every ``Transaction`` has a 32-byte key and a 64-byte
    signature, so equal encodings give ``verify`` equal arguments. The
    oldest pass is forgotten once ``SIGNATURE_CACHE_SIZE`` are held."""
    key = tx.tx_hash
    if key in _verified_signatures:
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


def settle_block(state: AccountState, block: Block) -> tuple:
    """The one block transition: settle ``block`` onto ``state`` in place
    and return its undo record, or raise BlockError with ``state`` as it
    was. Transactions settle in order through ``apply_tx``, then the miner
    is credited the block reward plus fees; genesis only credits its
    allocations. Checks no signature: ``validate_block`` does that first.
    The record is written in the same pass, as Bitcoin Core's
    ``ConnectBlock`` writes ``CBlockUndo``: one flat tuple of an address,
    balance and nonce (None where ``state`` held no entry) from before the
    block for each account it touches: the miner, then each tx's sender
    and recipient at first touch, or genesis's allocation addresses."""
    balances, nonces = state.balances, state.nonces
    if block.height == 0:
        undo = []
        for address in dict.fromkeys([a for a, _ in block.allocations]):
            undo += (address, balances.get(address), nonces.get(address))
        for address, amount in block.allocations:
            balances[address] = balances.get(address, 0) + amount
        return tuple(undo)
    miner, reward = block.miner, block_reward(block.height)
    balance = balances.get(miner)
    if not block.transactions:
        balances[miner] = (balance or 0) + reward
        return miner, balance, nonces.get(miner)
    undo = [miner, balance, nonces.get(miner)]
    touched = {miner}
    fees = 0
    for i, tx in enumerate(block.transactions):
        for address in (tx.sender, tx.recipient):
            if address not in touched:
                touched.add(address)
                undo += (address, balances.get(address), nonces.get(address))
        try:
            apply_tx(state, tx)
        except TxError as e:
            rewind_block(state, undo)
            raise BlockError("bad_tx", f"tx {i}: {e.code}", tx_index=i) from e
        fees += tx.fee
    balances[miner] = balances.get(miner, 0) + reward + fees
    return tuple(undo)


def rewind_block(state: AccountState, undo: tuple) -> None:
    """Take a block off ``state``, the state after it, in place, given the
    undo record ``settle_block`` returned for it: ``state`` becomes the
    state before the block."""
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


def _check_block(block: Block, parent: Block) -> None:
    """The checks of ``validate_block`` that need no state, in its order;
    raises BlockError at the first that fails."""
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
    if block.block_hash > POW_CEILINGS[block.difficulty_bits]:  # meets_difficulty, inlined
        raise BlockError("bad_pow")
    if not block.transactions:
        return
    seen = set()
    for i, tx in enumerate(block.transactions):
        if tx.tx_hash in seen:
            raise BlockError("bad_tx", f"duplicate tx at {i}", tx_index=i)
        seen.add(tx.tx_hash)
        try:
            check_signature(tx)
        except TxError as e:
            raise BlockError("bad_tx", f"tx {i}: {e.code}", tx_index=i) from e


def validate_block(block: Block, parent: Block, state: AccountState) -> tuple:
    """Full validation of ``block`` against its parent and ``state``, the
    state after the parent: the checks that need no state (height, link,
    timestamp, root, PoW, duplicate transactions and every signature), then
    ``settle_block`` as the state check. So a block is validated, settled
    onto ``state`` in place and its undo record returned in one pass, and a
    BlockError leaves ``state`` as it was: no caller copies a state to stay
    atomic. Field widths and ranges are the decoders': a decoded block
    always encodes.

    The stateless checks are a pure function of the block and its parent,
    and a parent the block links to is fixed by its hash, so their verdict
    is kept on the block object (``_verdict``) the first time it is made
    against such a parent: every later node, restart replay and closing
    replay that validates the same object only settles it. A call whose
    parent the block does not link to runs every check, and keeps nothing."""
    linked = block.prev_hash == parent.block_hash
    verdict = block._verdict if linked else None
    if verdict is None:
        try:
            _check_block(block, parent)
            verdict = ()
        except BlockError as e:
            verdict = (e.code, e.detail, e.tx_index)
        if linked:
            object.__setattr__(block, "_verdict", verdict)
    if verdict:
        raise BlockError(*verdict)
    return settle_block(state, block)


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


def replay_blocks(blocks: Iterable, state: AccountState):
    """The one chain replay: validate genesis-rooted blocks, taken one at a
    time from any iterable, and settle them onto ``state``, which starts
    empty, yielding each block with ``settle_block``'s record once settled;
    raises ChainError at the first failing height. Only a block and its
    parent are held, and a block is taken only once its parent is settled,
    so a lazy iterable (``chain_blocks``) that raises ChainError for a bad
    line raises it only after every lower height passes. ``state`` is the
    state after the last block yielded."""
    parent = None
    for height, block in enumerate(blocks):
        try:
            if parent is None:
                validate_genesis(block)
                undo = settle_block(state, block)
            else:
                undo = validate_block(block, parent, state)
        except BlockError as e:
            raise ChainError(height, e.code, e.detail) from e
        yield block, undo
        parent = block
    if parent is None:
        raise ChainError(0, "empty_chain")


def chain_file_lines(blocks: Iterable[Block]) -> list:
    """The one chain-file writer: a file is these lines, each ended by a newline."""
    return [block.encode() for block in blocks]


def _nonblank_lines(f):
    with f:
        for line in f:
            if line.strip():
                yield line.rstrip(b"\n")


def stream_chain_lines(path) -> Iterator[bytes]:
    """The one chain-file reader: the file's non-blank lines, read one at a
    time as they are taken. The file is opened, and read up to its first
    non-blank line, at once: an unreadable file raises OSError, and one
    with no such line ValueError, before any line is taken."""
    lines = _nonblank_lines(open(path, "rb"))
    first = next(lines, None)
    if first is None:
        raise ValueError("empty chain file")
    return itertools.chain((first,), lines)


def read_chain_lines(path) -> list:
    """Every non-blank line of a chain file (``stream_chain_lines``)."""
    return list(stream_chain_lines(path))


def read_chain_file(path) -> list:
    """A chain file's blocks; a bad line raises ChainError at its height."""
    return decode_chain_lines(read_chain_lines(path))


def chain_blocks(lines: Iterable) -> Iterator[Block]:
    """Decode chain lines one at a time as they are taken, block ``i`` on
    line ``i``. A bad line raises ChainError at its own height, pinning a
    tamper to the block it touched, when it is taken."""
    for height, line in enumerate(lines):
        try:
            block = Block.decode(line)
        except Exception as e:
            raise ChainError(height, "parse_error", str(e)) from e
        if block.height != height:
            raise ChainError(height, "bad_height", f"line {height} declares height {block.height}")
        yield block


def decode_chain_lines(lines: Iterable) -> list:
    """Every block of ``chain_blocks``, decoded before any is validated."""
    return list(chain_blocks(lines))


def verify_chain_lines(lines: Iterable) -> AccountState:
    """Verify serialized chain lines and return the state after them;
    ChainError carries the first failing height, each line decoded just
    before its block is validated."""
    state = AccountState()
    for _ in replay_blocks(chain_blocks(lines), state):
        pass
    return state
