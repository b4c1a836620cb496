import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from chainsim import consensus, crypto, ledger, node
from chainsim.ledger import (
    AccountState,
    Block,
    BlockError,
    BlockStore,
    ChainError,
    Transaction,
    TxError,
    apply_tx,
    check_signature,
    decode_transaction,
    make_genesis,
    canonical_json,
    replay_blocks,
    rewind_block,
    settle_block,
    validate_block,
    verify_chain_lines,
)

from conftest import (
    addr, build_chain, header_bytes, keypair, mine_child, path_to_genesis, replayed_state,
    signed_tx, to_json,
)


# -- encoding ----------------------------------------------------------------

def test_encoding_deterministic():
    tx = signed_tx(1, 2, 60, 10, 0)
    assert tx.encode() == tx.encode()
    assert tx.signing_bytes() == tx.encode()[:-64]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**200, 2**200)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_canonical_json_is_json_dumps_sorted_and_compact(value):
    """The one encoder of every JSON wire format writes json.dumps's bytes."""
    reference = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    assert canonical_json(value) == reference


def json_outcome(parse, data):
    """``repr`` of what ``parse(data)`` returns, or the type of what it raises."""
    try:
        return repr(parse(data))
    except (ValueError, RecursionError) as e:  # JSONDecodeError and UnicodeDecodeError too
        return type(e)


@given(json_values.map(lambda value: json.dumps(value).encode())
       | st.builds(lambda obj, tail: json.dumps(obj).encode() + tail,
                   st.dictionaries(st.text(), json_values, min_size=1),
                   st.sampled_from([b" ", b"\r\n", b"x", b"{}", b"\x00"]))
       | st.binary().map(lambda tail: b'{"' + tail) | st.binary())
def test_block_decoding_parses_json_as_json_loads_does(data):
    assert json_outcome(ledger._json_object, data) == json_outcome(json.loads, data)


def test_nonce_changes_hash():
    a = signed_tx(1, 2, 60, 10, 0)
    b = signed_tx(1, 2, 60, 10, 1)
    assert a.tx_hash != b.tx_hash


tx_strategy = st.builds(
    signed_tx,
    sender_i=st.integers(1, 30),
    recipient_i=st.integers(1, 30),
    amount=st.integers(0, 2**40),
    fee=st.integers(0, 2**20),
    nonce=st.integers(0, 2**20),
    payload=st.binary(max_size=64),
)


@given(tx_strategy)
def test_transaction_binary_round_trip(tx):
    assert decode_transaction(tx.encode()) == tx


@given(tx_strategy)
def test_transaction_json_round_trip(tx):
    assert Transaction.from_json(to_json(tx)) == tx


def test_oversized_payload_rejected():
    with pytest.raises(TxError) as e:
        Transaction(keypair(1).public_key, addr(2), 1, 1, 0, b"y" * 1025)
    assert e.value.code == "payload_too_large"


def test_block_json_round_trip():
    tx = signed_tx(1, 2, 3, 1, 0)
    block = mine_child(make_genesis([(addr(1), 100)]), txs=[tx])
    assert Block.decode(block.encode()) == block
    assert Block.decode(block.encode()).block_hash == block.block_hash


def _bytes_of(width: int):
    return st.binary(min_size=width, max_size=width)


u64_edges = st.integers(0, ledger.U64_MAX) | st.sampled_from([0, 1, ledger.U64_MAX])
layout_tx_strategy = st.builds(
    Transaction,
    sender_public_key=_bytes_of(32),
    recipient=_bytes_of(20),
    amount=u64_edges,
    fee=u64_edges,
    nonce=u64_edges,
    # a short payload, or one byte repeated up to the bound
    payload=st.binary(max_size=16) | st.builds(
        lambda n, byte: bytes([byte]) * n, st.integers(0, ledger.MAX_PAYLOAD_BYTES),
        st.integers(0, 255)),
    signature=_bytes_of(64),
)
layout_block_strategy = st.builds(
    Block,
    height=u64_edges,
    prev_hash=_bytes_of(32),
    timestamp=u64_edges,
    difficulty_bits=st.integers(0, 0xFF),
    pow_nonce=u64_edges,
    miner=_bytes_of(20),
    tx_root=_bytes_of(32),
    # 0 to MAX_BLOCK_TXS txs, cycling through up to three drawn ones
    transactions=st.builds(
        lambda pool, n: tuple(pool[i % len(pool)] for i in range(n)),
        st.lists(layout_tx_strategy, min_size=1, max_size=3),
        st.integers(0, ledger.MAX_BLOCK_TXS)),
) | st.builds(make_genesis, st.lists(st.tuples(_bytes_of(20), u64_edges), max_size=4), u64_edges)


@settings(deadline=None)
@given(layout_block_strategy)
def test_block_encode_is_canonical_json_of_the_reference_encoder(block):
    assert block.encode() == canonical_json(to_json(block))


# -- the fixed-layout decoding of a block without transactions ------------------

empty_block_strategy = st.builds(
    Block,
    height=u64_edges,
    prev_hash=_bytes_of(32),
    timestamp=u64_edges,
    difficulty_bits=st.integers(0, 0xFF),
    pow_nonce=u64_edges,
    miner=_bytes_of(20),
    tx_root=_bytes_of(32),
)
HEX_FIELDS = {"prev_hash": 32, "miner": 20, "tx_root": 32}
INT_FIELDS = ("difficulty_bits", "height", "pow_nonce", "timestamp")


@st.composite
def block_lines(draw) -> bytes:
    """A block's canonical line, or that line respelled or broken: blocks
    without transactions over the full field ranges, genesis blocks, and
    blocks with one to three transactions."""
    block = draw(empty_block_strategy | st.builds(
        make_genesis, st.lists(st.tuples(_bytes_of(20), u64_edges), max_size=3), u64_edges)
        | st.builds(replace, empty_block_strategy,
                    transactions=st.lists(layout_tx_strategy, min_size=1, max_size=3).map(tuple)))
    line = block.encode()
    obj = json.loads(line)
    how = draw(st.sampled_from(["canonical", "bytes", "reversed_keys", "whitespace", "uppercase",
                                "leading_zeros", "over_range", "escaped_hex"]))
    if how == "bytes":  # 1 to 4 bytes set to any values
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(line) - 1))
            line = line[:i] + bytes([draw(st.integers(0, 255))]) + line[i + 1:]
    elif how == "reversed_keys":
        line = json.dumps(dict(reversed(obj.items())), separators=(",", ":")).encode()
    elif how == "whitespace":
        spaced = json.dumps(obj, sort_keys=True, separators=(", ", ": ")).encode()
        line = draw(st.sampled_from([spaced, b" " + line, line + b"\n", line + b" "]))
    elif how == "uppercase":
        key = draw(st.sampled_from(sorted(HEX_FIELDS)))
        line = canonical_json(dict(obj, **{key: obj[key].upper()}))
    elif how == "leading_zeros":
        key = draw(st.sampled_from(INT_FIELDS))
        line = line.replace(b'"%s":' % key.encode(),
                            b'"%s":%s' % (key.encode(), b"0" * draw(st.integers(1, 3))), 1)
    elif how == "over_range":  # 20 digits from 2**64 up, or a difficulty of 3 digits
        key = draw(st.sampled_from(INT_FIELDS))
        value = (draw(st.integers(256, 999)) if key == "difficulty_bits"
                 else draw(st.integers(1 << 64, 10**20 - 1)))
        line = canonical_json(dict(obj, **{key: value}))
    elif how == "escaped_hex":  # one digit of a hex field as a \u escape of itself
        key = draw(st.sampled_from(sorted(HEX_FIELDS)))
        i = line.index(b'"%s":"' % key.encode()) + len(key) + 4
        i += draw(st.integers(0, 2 * HEX_FIELDS[key] - 1))
        line = line[:i] + b"\\u%04x" % line[i] + line[i + 1:]
    return line


def decode_outcome(decode, data):
    """The block ``decode(data)`` returns, or the type and code of what it raises."""
    try:
        return decode(data)
    except Exception as e:
        return type(e), getattr(e, "code", None)


EMPTY_LINE = Block(1, bytes(32), 2, 3, 4, bytes(20), ledger.EMPTY_TX_ROOT).encode()


@settings(max_examples=400, deadline=None)
@given(block_lines(), st.sampled_from([bytes, bytearray, str]))
@example(EMPTY_LINE.replace(b'"height":1,', b'"height":18446744073709551616,'), bytes)
@example(EMPTY_LINE.replace(b'"difficulty_bits":3,', b'"difficulty_bits":256,'), bytes)
def test_block_decode_gives_what_the_json_decoder_gives(line, form):
    """``Block.decode`` gives for every input what ``Block.from_json`` gives
    for its JSON object, the same block or the same error, whether or not
    its fixed-layout path took the line; and a block keeps the line as its
    encoding exactly when the line is that encoding."""
    data = line.decode("latin-1") if form is str else form(line)
    expected = decode_outcome(lambda d: Block.from_json(ledger._json_object(d)), data)
    block = decode_outcome(Block.decode, data)
    if type(expected) is not Block:
        assert block == expected
        return
    assert block == expected and block.block_hash == expected.block_hash
    assert (block.transactions, block.allocations) == (expected.transactions,
                                                       expected.allocations)
    canonical = canonical_json(to_json(block))
    assert block.encode() == canonical
    kept = type(data) is bytes and data == canonical
    assert (block.encode() is data) == kept


def test_verify_parses_json_only_for_lines_with_transactions_or_allocations(monkeypatch):
    _, blocks = build_chain(5, allocations=[(addr(1), 100)],
                            tx_plan={3: [signed_tx(1, 2, 10, 1, 0)]})
    lines = ledger.chain_file_lines(blocks)
    parsed, json_object = [], ledger._json_object
    monkeypatch.setattr(ledger, "_json_object", lambda data: parsed.append(data) or json_object(data))
    verify_chain_lines(lines)
    assert parsed == [lines[0], lines[3]]


# -- compact transactions --------------------------------------------------------

def reference_encoding(pk, recipient, amount, fee, nonce, payload, signature) -> bytes:
    """``Transaction.encode``'s layout, spelled out field by field."""
    return b"".join([pk, recipient, struct.pack(">Q", amount), struct.pack(">Q", fee),
                     struct.pack(">Q", nonce), struct.pack(">H", len(payload)), payload,
                     signature])


def fresh(data: bytes) -> bytes:
    """An equal bytes object that is not ``data``, as a decoder would make."""
    return bytes(bytearray(data))


ACCOUNTS = (1, 2, 3)  # a small pool of keys and recipients


@settings(deadline=None)
@given(st.sampled_from(ACCOUNTS), st.sampled_from(ACCOUNTS), u64_edges, u64_edges, u64_edges,
       st.binary(max_size=32), st.sampled_from(ACCOUNTS))
def test_every_way_to_build_a_transaction_agrees_and_shares_account_bytes(
        sender_i, recipient_i, amount, fee, nonce, payload, other_i):
    kp = keypair(sender_i)
    pk, recipient = kp.public_key, addr(recipient_i)
    signing = reference_encoding(pk, recipient, amount, fee, nonce, payload, b"")
    signature = crypto.sign(kp.private_key, signing)  # RFC 8032: deterministic
    made = ledger.make_transaction(kp.private_key, fresh(pk), fresh(recipient), amount, fee,
                                   nonce, payload)
    built = Transaction(fresh(pk), fresh(recipient), amount, fee, nonce, payload, signature)
    decoded = decode_transaction(made.encode())
    from_json = Transaction.from_json(json.loads(json.dumps(to_json(made))))
    fields = (pk, recipient, amount, fee, nonce, payload, signature)
    data = reference_encoding(*fields)
    for tx in (made, built, decoded, from_json):
        assert (tx.sender_public_key, tx.recipient, tx.amount, tx.fee, tx.nonce, tx.payload,
                tx.signature) == fields
        assert tx.signing_bytes() == signing and tx.encode() == data
        assert tx.tx_hash == hashlib.sha256(data).digest()
        assert tx.hash_hex == tx.tx_hash.hex()
        assert tx.sender == hashlib.sha256(pk).digest()[:20]
        assert tx == made and hash(tx) == hash(fields)
        # one copy of each account's key, sender address and recipient
        assert tx.sender_public_key is made.sender_public_key
        assert tx.sender is made.sender
        assert tx.recipient is made.recipient
    other = signed_tx(sender_i, other_i, 1, 1, 0)  # another tx of the same sender
    assert other.sender_public_key is made.sender_public_key and other.sender is made.sender
    assert signed_tx(other_i, recipient_i, 1, 1, 0).recipient is made.recipient


def test_make_transaction_builds_one_transaction(monkeypatch):
    built, signed = [], []
    init, sign = Transaction.__init__, ledger.sign

    def counting_init(tx, *fields):
        built.append(tx)
        init(tx, *fields)

    def counting_sign(private_key, message):
        signed.append(message)
        return sign(private_key, message)

    monkeypatch.setattr(Transaction, "__init__", counting_init)
    monkeypatch.setattr(ledger, "sign", counting_sign)
    kp = keypair(1)
    tx = ledger.make_transaction(kp.private_key, kp.public_key, addr(2), 10, 1, 0, b"memo")
    assert len(built) == 1 and built[0] is tx
    assert signed == [tx.signing_bytes()]
    assert crypto.verify(kp.public_key, tx.signing_bytes(), tx.signature)
    short = ledger.make_transaction(kp.private_key, kp.public_key, bytes(19), 10, 1, 0)
    assert len(short.recipient) == 19 and len(built) == 2
    with pytest.raises(TxError) as e:  # refused before any signing or building
        ledger.make_transaction(kp.private_key, kp.public_key, addr(2), 10, 1, 0,
                                bytes(ledger.MAX_PAYLOAD_BYTES + 1))
    assert e.value.code == "payload_too_large"
    assert len(signed) == 2 and len(built) == 2


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}
# (field, value, what building the tx raises): a rule its hash needs broken,
# or a byte field that is not ``bytes``; None for a width only the decoders
# check, which builds
BROKEN_TX_FIELDS = {
    "short_key": ("sender_public_key", bytes(31), ValueError),
    "long_signature": ("signature", bytes(65), ValueError),
    "short_recipient": ("recipient", bytes(19), None),
    "oversized_payload": ("payload", bytes(ledger.MAX_PAYLOAD_BYTES + 1), TxError),
    "u64_overflow": ("amount", 1 << 64, struct.error),
    "negative_nonce": ("nonce", -1, struct.error),
    "bytearray_recipient": ("recipient", bytearray(20), TypeError),
    "bytearray_key": ("sender_public_key", bytearray(keypair(1).public_key), TypeError),
    "bytearray_payload": ("payload", bytearray(b"p"), TypeError),
    "bytearray_signature": ("signature", bytearray(64), TypeError),
}


BROKEN_TX_IDS = pytest.mark.parametrize("field,value,error", BROKEN_TX_FIELDS.values(),
                                        ids=BROKEN_TX_FIELDS.keys())


def tx_fields(**changed):
    fields = dict(sender_public_key=keypair(1).public_key, recipient=addr(2), amount=5, fee=1,
                  nonce=0, payload=b"", signature=bytes(64))
    return {**fields, **changed}


@BROKEN_TX_IDS
def test_a_transaction_that_breaks_a_field_rule_still_builds(field, value, error):
    """One whose hash does not need the broken rule builds whole; one whose
    hash needs it is refused when built, so no half-built tx exists."""
    fields = tx_fields(**{field: value})
    if error:
        with pytest.raises(error) as e:
            Transaction(**fields)
        if error is TxError:
            assert e.value.code == "payload_too_large"
        return
    tx = Transaction(**fields)
    assert getattr(tx, field) == value and type(getattr(tx, field)) is type(value)
    assert tx.sender == hashlib.sha256(fields["sender_public_key"]).digest()[:20]
    assert tx.tx_hash == hashlib.sha256(reference_encoding(*fields.values())).digest()
    assert tx.hash_hex == tx.tx_hash.hex()
    with pytest.raises(AttributeError):
        tx.note


@pytest.mark.parametrize("how", COPIES)
@BROKEN_TX_IDS
def test_a_transaction_that_breaks_a_field_rule_copies_and_pickles(how, field, value, error):
    """Copies and pickles rebuild through the constructor from the wire
    fields: they derive ``sender`` and ``tx_hash`` again, and refuse the
    broken rule as building does even when it was planted after building."""
    if error:
        tx = Transaction(**tx_fields())
        object.__setattr__(tx, field, value)
        with pytest.raises(error):
            COPIES[how](tx)
        return
    tx = Transaction(**tx_fields(**{field: value}))
    copied = COPIES[how](tx)
    assert copied == tx and type(getattr(copied, field)) is type(value)
    assert (copied.sender, copied.tx_hash) == (tx.sender, tx.tx_hash)


def test_block_and_transaction_define_no_attribute_fallback():
    """CPython 3.11's specializing interpreter (PEP 659) turns a load of
    ``block.height`` or ``tx.sender`` into a slot load only on a class with
    no ``__getattr__`` or ``__getattribute__`` of its own: either one would
    send every field read on the two hottest types down the generic lookup."""
    for cls in (Block, Transaction):
        assert not hasattr(cls, "__getattr__")
        assert cls.__getattribute__ is object.__getattribute__


@pytest.mark.parametrize("how", COPIES)
def test_blocks_copy_and_pickle_by_their_wire_fields(how):
    genesis = make_genesis([(addr(1), 100)], timestamp=7)
    block = mine_child(genesis, txs=[signed_tx(1, 2, 10, 1, 0)])
    decoded = Block.decode(block.encode())
    validate_block(decoded, genesis, replayed_state([genesis]))  # keeps a verdict
    for original in (Block.decode(genesis.encode()), decoded):
        copied = COPIES[how](original)
        assert copied == original and copied.block_hash == original.block_hash
        assert copied.hash_hex == original.hash_hex and copied.encode() == original.encode()
        assert [tx.tx_hash for tx in copied.transactions] == [
            tx.tx_hash for tx in original.transactions]
    with pytest.raises(struct.error):  # a header that does not pack is never built
        replace(block, pow_nonce=1 << 64)


BLOCK_FIELDS = ("height", "prev_hash", "timestamp", "difficulty_bits", "pow_nonce", "miner",
                "tx_root", "transactions", "allocations")
u64s = st.integers(0, ledger.U64_MAX)
block_fields = st.tuples(
    u64s, st.binary(min_size=32, max_size=32), u64s, st.integers(0, 255), u64s,
    st.binary(min_size=20, max_size=20), st.binary(min_size=32, max_size=32),
    st.sampled_from([(), (signed_tx(1, 2, 10, 1, 0),),
                     (signed_tx(1, 2, 10, 1, 0), signed_tx(2, 3, 5, 0, 0))]),
    st.lists(st.tuples(st.binary(min_size=20, max_size=20), u64s), max_size=2).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(values=block_fields, wide_nonce=st.integers(ledger.U64_MAX + 1, 1 << 80))
def test_block_constructor_keeps_the_dataclass_contract(values, wide_nonce):
    """``Block.__init__`` is hand-written; the dataclass still owns eq, hash,
    repr, frozen assignment and ``replace``, and a block hashes its header
    when built."""
    block = Block(*values)
    reference = replace(make_genesis([(addr(9), 1)]), **dict(zip(BLOCK_FIELDS, values)))
    assert block == reference and hash(block) == hash(reference) == hash(values)
    assert repr(block) == repr(reference) == "Block(%s)" % ", ".join(
        f"{name}={value!r}" for name, value in zip(BLOCK_FIELDS, values))
    assert block.block_hash == crypto.hash_bytes(ledger.pack_header(*values[:7]))
    assert block._canonical is None and block._verdict is None
    for name in BLOCK_FIELDS + ("block_hash", "_canonical", "_verdict"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(block, name, getattr(reference, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(block, name)
    assert block == reference and block.block_hash == reference.block_hash
    with pytest.raises(struct.error):  # its header does not pack
        Block(*values[:4], wide_nonce, *values[5:])


def test_the_empty_tx_root_is_the_hash_of_no_bytes():
    assert ledger.compute_tx_root(()) == ledger.compute_tx_root([]) == crypto.hash_bytes(b"")


def test_each_block_object_hashes_its_header_once(monkeypatch):
    genesis = make_genesis([(addr(1), 100)])
    txs = (signed_tx(1, 2, 10, 1, 0),)
    template = consensus.BlockTemplate(1, genesis.block_hash, 0, 4, addr(3),
                                       ledger.compute_tx_root(txs), txs)
    hashed = []
    monkeypatch.setattr(ledger, "hash_bytes", lambda data: (
        hashed.append(data) or crypto.hash_bytes(data)))
    mined = consensus.mine(template)  # the header of nonce 0 is packed, not hashed
    assert hashed == [header_bytes(mined)]
    hashed.clear()
    decoded = Block.decode(mined.encode())
    assert hashed == [tx.encode() for tx in txs] + [header_bytes(mined)]
    state = replayed_state([genesis])
    hashed.clear()
    for _ in range(2):
        assert decoded.block_hash == mined.block_hash and decoded.hash_hex == mined.hash_hex
        validate_block(decoded, genesis, state.copy())
    assert hashed == [b"".join(tx.encode() for tx in txs)]  # the tx root, checked once


def test_the_shared_account_table_stays_at_its_bound(monkeypatch):
    bound = ledger.SHARED_ACCOUNT_BYTES
    keys = [hashlib.sha256(b"account %d" % i).digest() for i in range(bound + 10)]
    for key in keys:
        Transaction(key, addr(2), 1, 1, 0)
    assert ledger._shared.cache_info().currsize == bound
    derived = []
    monkeypatch.setattr(ledger, "address_from_public_key",
                        lambda pk: derived.append(pk) or crypto.address_from_public_key(pk))
    first = Transaction(fresh(keys[0]), addr(2), 1, 1, 0)  # evicted: a miss
    assert first.sender == hashlib.sha256(keys[0]).digest()[:20]
    assert derived == [keys[0]]
    again = Transaction(fresh(keys[0]), addr(2), 2, 1, 0)  # a hit derives nothing
    assert again.sender is first.sender and derived == [keys[0]]
    assert ledger._shared.cache_info().currsize == bound


# -- transaction validation ----------------------------------------------------

def test_validate_ok(funded_state):
    tx = signed_tx(1, 2, 60, 10, 0)
    check_signature(tx)
    apply_tx(funded_state, tx)


def test_replay_after_inclusion_is_bad_nonce(funded_state):
    tx = signed_tx(1, 2, 60, 10, 0)
    apply_tx(funded_state, tx)  # inclusion consumes the nonce
    assert funded_state.nonces[addr(1)] == 1
    assert funded_state.balances[addr(1)] == 30
    with pytest.raises(TxError) as e:
        apply_tx(funded_state, tx)
    assert e.value.code == "bad_nonce"
    assert "replay" in e.value.detail


def test_nonce_gap_distinguished(funded_state):
    with pytest.raises(TxError) as e:
        apply_tx(funded_state, signed_tx(1, 2, 1, 1, 5))
    assert e.value.code == "bad_nonce"
    assert "gap" in e.value.detail


def test_insufficient_funds(funded_state):
    with pytest.raises(TxError) as e:
        apply_tx(funded_state, signed_tx(1, 2, 91, 10, 0))
    assert e.value.code == "insufficient_funds"
    assert funded_state.balances == {addr(1): 100} and funded_state.nonces == {}
    # exactly at the limit is fine
    apply_tx(funded_state, signed_tx(1, 2, 90, 10, 0))
    assert funded_state.balance(addr(1)) == 0


def test_bad_signature(funded_state):
    tx = signed_tx(1, 2, 60, 10, 0)
    tampered = Transaction(
        tx.sender_public_key, tx.recipient, tx.amount + 1, tx.fee, tx.nonce,
        tx.payload, tx.signature,
    )
    with pytest.raises(TxError) as e:
        check_signature(tampered)
    assert e.value.code == "bad_signature"


# -- block application -----------------------------------------------------

def test_apply_empty_block_credits_reward(funded_state):
    genesis = make_genesis([(addr(1), 100)])
    block = mine_child(genesis, miner=addr(9))
    before = copy.deepcopy(funded_state)
    undo = validate_block(block, genesis, funded_state)
    assert funded_state.balance(addr(9)) == 50
    assert funded_state.balance(addr(1)) == 100
    rewind_block(funded_state, undo)
    assert funded_state == before  # the undo record takes the block off
    assert addr(9) not in funded_state.balances


def test_apply_block_arithmetic():
    # independent arithmetic: A 100 -60 -10 = 30; B 0 +60; M 0 +50 +10
    state = AccountState(balances={addr(1): 100})
    genesis = make_genesis([(addr(1), 100)])
    tx = signed_tx(1, 2, 60, 10, 0)
    block = mine_child(genesis, txs=[tx], miner=addr(3))
    settle_block(state, block)
    assert state.balance(addr(1)) == 30
    assert state.balance(addr(2)) == 60
    assert state.balance(addr(3)) == 60
    assert state.next_nonce(addr(1)) == 1


def test_supply_conservation_per_block():
    state = AccountState(balances={addr(1): 100})
    genesis = make_genesis([(addr(1), 100)])
    tx = signed_tx(1, 2, 60, 10, 0)
    block = mine_child(genesis, txs=[tx], miner=addr(3))
    supply = state.total_supply()
    settle_block(state, block)
    assert state.total_supply() == supply + consensus.BLOCK_REWARD


def test_apply_block_atomic_on_violation():
    state = AccountState(balances={addr(1): 100})
    good = signed_tx(1, 2, 60, 10, 0)
    bad = signed_tx(1, 2, 100, 0, 1)  # overdraft after the first tx
    genesis = make_genesis([(addr(1), 100)])
    block = mine_child(genesis, txs=[good, bad], miner=addr(3))
    with pytest.raises(BlockError) as e:
        validate_block(block, genesis, state)
    assert e.value.tx_index == 1
    # tx 0 settled and was rewound: its recipient and the nonce bump are gone
    assert state == AccountState(balances={addr(1): 100})


# -- block validation --------------------------------------------------------

def test_validate_empty_block_after_genesis():
    genesis = make_genesis([])
    block = mine_child(genesis)
    validate_block(block, genesis, AccountState())


def test_bad_link_detected():
    genesis = make_genesis([])
    other = make_genesis([(addr(1), 5)])
    block = mine_child(other)
    with pytest.raises(BlockError) as e:
        validate_block(block, genesis, AccountState())
    assert e.value.code == "bad_link"


def test_duplicate_transaction_in_block():
    genesis = make_genesis([(addr(1), 100)])
    state = replayed_state([genesis])
    tx = signed_tx(1, 2, 10, 1, 0)
    block = mine_child(genesis, txs=[tx, tx])
    with pytest.raises(BlockError) as e:
        validate_block(block, genesis, state)
    assert e.value.code == "bad_tx"
    assert "duplicate" in e.value.detail


def test_tx_root_mismatch_detected():
    genesis = make_genesis([(addr(1), 100)])
    state = replayed_state([genesis])
    tx = signed_tx(1, 2, 10, 1, 0)
    block = mine_child(genesis, txs=[tx])
    forged = Block(
        height=block.height, prev_hash=block.prev_hash, timestamp=block.timestamp,
        difficulty_bits=block.difficulty_bits, pow_nonce=block.pow_nonce,
        miner=block.miner, tx_root=block.tx_root,
        transactions=(signed_tx(1, 2, 11, 1, 0),),
    )
    with pytest.raises(BlockError) as e:
        validate_block(forged, genesis, state)
    assert e.value.code == "bad_tx_root"


def test_timestamp_must_not_decrease():
    genesis = make_genesis([], timestamp=100)
    block = mine_child(genesis, timestamp=99)
    with pytest.raises(BlockError) as e:
        validate_block(block, genesis, AccountState())
    assert e.value.code == "bad_timestamp"


# -- the order of the checks, and the verdict kept on a block object ---------------

def validation_outcome(block, parent, state):
    """``validate_block``'s outcome on a copy of ``state``: ("ok", undo
    record, the state after) or the BlockError's (code, detail, tx_index)."""
    state = state.copy()
    try:
        undo = validate_block(block, parent, state)
    except BlockError as e:
        return e.code, e.detail, e.tx_index
    return "ok", undo, state


def fresh_copy(block):
    """The block as a peer decodes it: a new object, with no verdict kept."""
    copy_ = Block.decode(block.encode())
    assert copy_ == block and copy_._verdict is None
    return copy_


def _resealed(block, **changes):
    """``block`` with ``changes``, at the first pow_nonce whose hash does
    (or, with ``failing_pow``, does not) meet its difficulty."""
    failing = changes.pop("failing_pow", False)
    for nonce in range(1 << 16):
        candidate = replace(block, pow_nonce=nonce, **changes)
        if consensus.meets_difficulty(candidate.block_hash, candidate.difficulty_bits) != failing:
            return candidate
    raise AssertionError("no nonce found")


def _two_faults(case):
    """A child of a funded genesis that is wrong in the two ways ``case``
    names, with the parent it is checked against."""
    genesis = make_genesis([(addr(1), 100)], timestamp=50)
    good, bad = signed_tx(1, 2, 10, 1, 0), replace(signed_tx(1, 2, 10, 1, 1), amount=11)
    child = mine_child(genesis, txs=[good], difficulty=8)
    if case == "height_and_link":
        return _resealed(child, height=2, prev_hash=bytes(32)), genesis
    if case == "link_and_timestamp":
        return _resealed(child, prev_hash=bytes(32), timestamp=49), genesis
    if case == "tx_root_and_pow":
        return _resealed(child, tx_root=bytes(32), failing_pow=True), genesis
    txs = {"duplicate_then_signature": (good, good, bad),
           "signature_then_duplicate": (good, bad, good)}[case]
    return _resealed(child, transactions=txs, tx_root=ledger.compute_tx_root(txs)), genesis


# each block's two faults, and the first one the check order reports
ORDER_CASES = {
    "height_and_link": ("bad_height", "2 != 1", None),
    "link_and_timestamp": ("bad_link", "", None),
    "tx_root_and_pow": ("bad_tx_root", "", None),
    "duplicate_then_signature": ("bad_tx", "duplicate tx at 1", 1),
    "signature_then_duplicate": ("bad_tx", "tx 1: bad_signature", 1),
}


@pytest.mark.parametrize("case", ORDER_CASES)
def test_a_block_wrong_in_two_ways_reports_the_first_check(case):
    block, parent = _two_faults(case)
    if case == "tx_root_and_pow":  # both really fail
        assert block.tx_root != ledger.compute_tx_root(block.transactions)
        assert not consensus.meets_difficulty(block.block_hash, block.difficulty_bits)
    state = replayed_state([parent])
    for _ in range(2):  # and the same again from the verdict the first call kept
        assert validation_outcome(block, parent, state) == ORDER_CASES[case]
    assert validation_outcome(fresh_copy(block), parent, state) == ORDER_CASES[case]


def test_a_verdict_is_kept_only_against_a_parent_the_block_links_to(monkeypatch):
    genesis = make_genesis([(addr(1), 100)])
    block = mine_child(genesis, txs=[signed_tx(1, 2, 10, 1, 0)])
    checked = []
    real = ledger._check_block
    monkeypatch.setattr(ledger, "_check_block", lambda b, p: checked.append(b) or real(b, p))
    other = make_genesis([(addr(1), 5)])
    for _ in range(2):  # unlinked: every check runs each time, and nothing is kept
        assert validation_outcome(block, other, replayed_state([other]))[0] == "bad_link"
    assert len(checked) == 2 and block._verdict is None
    for _ in range(3):
        assert validation_outcome(block, genesis, replayed_state([genesis]))[0] == "ok"
    assert len(checked) == 3 and block._verdict == ()


def _funded_child():
    genesis = make_genesis([(addr(1), 100), (addr(2), 100)], timestamp=10)
    parent = mine_child(genesis, txs=[signed_tx(1, 2, 10, 1, 0)], timestamp=20)
    return genesis, parent


@st.composite
def mutated_children(draw):
    """A valid child of ``_funded_child``'s parent, or that child with one
    field changed: (block, genesis, parent)."""
    genesis, parent = _funded_child()
    txs, nonces = [], {1: 1, 2: 0}
    for sender in draw(st.lists(st.sampled_from((1, 2)), max_size=3)):
        txs.append(signed_tx(sender, 3, draw(st.integers(0, 20)), 1, nonces[sender]))
        nonces[sender] += 1
    block = mine_child(parent, txs, timestamp=parent.timestamp + draw(st.integers(0, 9)))
    field_ = draw(st.sampled_from((None, "height", "prev_hash", "timestamp", "pow_nonce",
                                   "tx_root", "allocations", "duplicate", "signature",
                                   "too_many")))
    if field_ in ("duplicate", "signature") and not txs:
        field_ = None
    if field_ == "height":
        block = replace(block, height=draw(st.sampled_from((0, 1, 3, 2**40))))
    elif field_ == "prev_hash":
        block = replace(block, prev_hash=draw(st.binary(min_size=32, max_size=32)))
    elif field_ == "timestamp":
        block = replace(block, timestamp=draw(st.integers(0, parent.timestamp - 1)))
    elif field_ == "pow_nonce":
        block = replace(block, pow_nonce=draw(st.integers(0, ledger.U64_MAX)))
    elif field_ == "tx_root":
        block = replace(block, tx_root=draw(st.binary(min_size=32, max_size=32)))
    elif field_ == "allocations":
        block = replace(block, allocations=((addr(4), draw(st.integers(0, 9))),))
    elif field_ == "too_many":
        block = replace(block, transactions=tuple(txs or [signed_tx(1, 3, 1, 1, 1)])[:1]
                        * (ledger.MAX_BLOCK_TXS + 1))
    elif field_ == "duplicate":
        block = replace(block, transactions=(*txs, txs[draw(st.integers(0, len(txs) - 1))]))
    elif field_ == "signature":
        i = draw(st.integers(0, len(txs) - 1))
        tx = txs[i]
        txs[i] = replace(tx, signature=bytes([tx.signature[0] ^ 1]) + tx.signature[1:])
        block = replace(block, transactions=tuple(txs))
    if field_ in ("duplicate", "signature", "too_many") and draw(st.booleans()):
        block = replace(block, tx_root=ledger.compute_tx_root(block.transactions))
    return block, genesis, parent


@settings(max_examples=80, deadline=None)
@given(mutated_children(), st.data())
def test_a_kept_verdict_equals_a_fresh_validation(case, data):
    """Validating one block object again (on a different state, and against
    a wrong parent) raises, or settles, as a freshly decoded copy does."""
    block, genesis, parent = case
    state = replayed_state([genesis, parent])
    shifted = state.copy()  # the same parent, but one sender's nonce is off
    sender = data.draw(st.sampled_from((addr(1), addr(2))))
    shifted.nonces[sender] = shifted.nonces.get(sender, 0) + data.draw(st.sampled_from((-1, 1)))
    checks = [(parent, state), (parent, state), (parent, shifted), (genesis, state),
              (parent, state)]
    for against, on in data.draw(st.permutations(checks)):
        assert validation_outcome(block, against, on) == validation_outcome(
            fresh_copy(block), against, on)
    if block._verdict == () and any(tx.sender == sender for tx in block.transactions):
        first = next(i for i, tx in enumerate(block.transactions) if tx.sender == sender)
        code, detail, index = validation_outcome(block, parent, shifted)
        assert (code, index) == ("bad_tx", first) and detail.endswith("bad_nonce")


# -- chain verification -------------------------------------------------------

def _chain_with_txs():
    plan = {4: [signed_tx(1, 2, 5, 1, 0)], 7: [signed_tx(1, 2, 5, 1, 1)]}
    return build_chain(10, allocations=[(addr(1), 100)], tx_plan=plan)


def test_untampered_chain_verifies():
    store, blocks = _chain_with_txs()
    state = verify_chain_lines(ledger.chain_file_lines(blocks))
    assert state.total_supply() == 100 + 10 * consensus.BLOCK_REWARD


def test_payload_tamper_fails_at_exact_height():
    store, blocks = _chain_with_txs()
    tampered = blocks[4]
    tx = tampered.transactions[0]
    mutated = Transaction(
        tx.sender_public_key, tx.recipient, tx.amount, tx.fee, tx.nonce,
        tx.payload + b"", bytes([tx.signature[0] ^ 1]) + tx.signature[1:],
    )
    bad_block = Block(
        height=tampered.height, prev_hash=tampered.prev_hash,
        timestamp=tampered.timestamp, difficulty_bits=tampered.difficulty_bits,
        pow_nonce=tampered.pow_nonce, miner=tampered.miner,
        tx_root=tampered.tx_root, transactions=(mutated,),
    )
    path = blocks[:4] + [bad_block] + blocks[5:]
    with pytest.raises(ChainError) as e:
        list(replay_blocks(path, AccountState()))
    assert e.value.height == 4
    assert e.value.code == "bad_tx_root"


def test_repaired_tx_root_breaks_pow_or_link():
    store, blocks = _chain_with_txs()
    tampered = blocks[4]
    tx = tampered.transactions[0]
    mutated = Transaction(
        tx.sender_public_key, tx.recipient, tx.amount, tx.fee, tx.nonce,
        b"\x01", tx.signature,
    )
    repaired = Block(
        height=tampered.height, prev_hash=tampered.prev_hash,
        timestamp=tampered.timestamp, difficulty_bits=tampered.difficulty_bits,
        pow_nonce=tampered.pow_nonce, miner=tampered.miner,
        tx_root=ledger.compute_tx_root((mutated,)), transactions=(mutated,),
    )
    path = blocks[:4] + [repaired] + blocks[5:]
    with pytest.raises(ChainError) as e:
        list(replay_blocks(path, AccountState()))
    # either the old nonce no longer seals the new root, or block 5's link breaks
    assert (e.value.height, e.value.code) in {(4, "bad_pow"), (4, "bad_tx"), (5, "bad_link")}


def test_replay_determinism():
    store, blocks = _chain_with_txs()
    lines = ledger.chain_file_lines(blocks)
    assert verify_chain_lines(lines) == verify_chain_lines(lines)
    undos = [list(replay_blocks(blocks, AccountState())) for _ in range(2)]
    assert undos[0] == undos[1]
    assert len(undos[0]) == len(blocks)


def test_verify_holds_one_replay_state_at_a_time(monkeypatch):
    store, blocks = build_chain(50, allocations=[(addr(1), 100)])
    lines = ledger.chain_file_lines(blocks)
    built, copies, settled = [], [], []
    real_init, real_copy = AccountState.__init__, AccountState.copy
    monkeypatch.setattr(AccountState, "__init__", lambda state, *args: (
        built.append(state) or real_init(state, *args)))
    monkeypatch.setattr(AccountState, "copy", lambda state: (
        copies.append(state) or real_copy(state)))
    real_settle = ledger.settle_block
    monkeypatch.setattr(ledger, "settle_block", lambda state, block: (
        settled.append(state) or real_settle(state, block)))
    state = verify_chain_lines(lines)
    assert copies == []
    assert len(built) == 1 and built[0] is state  # every block settles onto one state
    assert len(settled) == 51 and all(s is state for s in settled)


def test_verify_takes_each_line_as_its_block_is_validated_and_holds_two_blocks(monkeypatch):
    _, blocks = build_chain(6, allocations=[(addr(1), 100)],
                            tx_plan={2: [signed_tx(1, 2, 5, 1, 0)]})
    lines = ledger.chain_file_lines(blocks)
    taken = []

    def source():
        for line in lines:
            taken.append(line)
            yield line

    def live_blocks():
        return sum(type(o) is Block for o in gc.get_objects())

    checked = []
    real = ledger.validate_block
    monkeypatch.setattr(ledger, "validate_block", lambda block, parent, state: (
        checked.append((block.height, len(taken), live_blocks() - before))
        or real(block, parent, state)))
    before = live_blocks()
    verify_chain_lines(source())
    # block h is validated once lines 0..h are taken, beside its parent alone
    assert checked == [(h, h + 1, 2) for h in range(1, 7)]


def test_nonce_monotonicity_along_chain():
    store, blocks = _chain_with_txs()
    nonces = [tx.nonce for b in blocks for tx in b.transactions
              if tx.sender == addr(1)]
    assert nonces == list(range(len(nonces)))


def test_chain_file_round_trip(tmp_path):
    store, blocks = _chain_with_txs()
    path = tmp_path / "chain.jsonl"
    path.write_bytes(b"\n".join(ledger.chain_file_lines(blocks)) + b"\n")
    loaded = ledger.read_chain_file(path)
    assert [b.block_hash for b in loaded] == [b.block_hash for b in blocks]
    lines = ledger.read_chain_lines(path)
    assert lines == ledger.chain_file_lines(blocks)
    verify_chain_lines(lines)


@st.composite
def valid_chains(draw):
    """A genesis with drawn allocations, then up to four sealed blocks of
    signed transfers from its funded keys: a chain ``verify_chain_lines``
    accepts."""
    funded = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    others = draw(st.lists(st.tuples(st.binary(min_size=20, max_size=20),
                                     st.integers(0, ledger.U64_MAX)), max_size=2))
    genesis = make_genesis([(addr(i), 1_000) for i in funded] + others,
                           timestamp=draw(st.integers(0, 1 << 40)))
    blocks, nonces = [genesis], dict.fromkeys(funded, 0)
    for _ in range(draw(st.integers(0, 4))):
        txs = []
        for sender, recipient, amount, payload in draw(st.lists(st.tuples(
            st.sampled_from(funded), st.integers(1, 30), st.integers(0, 50),
            st.binary(max_size=40),
        ), max_size=3)):
            txs.append(signed_tx(sender, recipient, amount, 1, nonces[sender], payload))
            nonces[sender] += 1
        blocks.append(mine_child(
            blocks[-1], txs, miner=addr(draw(st.integers(1, 30))),
            difficulty=draw(st.integers(0, 4)),
            timestamp=blocks[-1].timestamp + draw(st.integers(0, 5_000)),
        ))
    return blocks


@settings(max_examples=60, deadline=None)
@given(valid_chains())
def test_chain_file_lines_decode_to_the_same_blocks(blocks):
    lines = ledger.chain_file_lines(blocks)
    decoded = ledger.decode_chain_lines(lines)
    assert decoded == blocks
    # each decoded block keeps its line as its encoding, whichever decoder path read it
    assert all(a is b for a, b in zip(ledger.chain_file_lines(decoded), lines, strict=True))
    verify_chain_lines(lines)  # valid, not only decodable


def test_verify_chain_lines_reports_parse_error_height():
    _, blocks = _chain_with_txs()
    lines = ledger.chain_file_lines(blocks)
    lines[6] = lines[6][:10] + b"\xff" + lines[6][11:]
    with pytest.raises(ChainError) as e:
        verify_chain_lines(lines)
    assert e.value.height == 6


def test_genesis_allocation_tamper_detected():
    import json

    _, blocks = _chain_with_txs()
    lines = ledger.chain_file_lines(blocks)
    genesis_obj = to_json(blocks[0])
    genesis_obj["allocations"][0][1] += 1
    lines[0] = json.dumps(genesis_obj, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ChainError) as e:
        verify_chain_lines(lines)
    assert e.value.height == 0


def test_store_rejects_orphan_insert():
    genesis = make_genesis([])
    store = BlockStore(genesis)
    stranger = mine_child(make_genesis([(addr(5), 1)]))
    with pytest.raises(BlockError):
        store.insert(stranger)


# -- canonical chain index ---------------------------------------------------

def _tree_tx(i: int) -> Transaction:
    # unsigned: BlockStore indexes transactions by hash and never validates
    return Transaction(bytes(32), addr(2), amount=i, fee=0, nonce=i)


@st.composite
def block_trees(draw):
    """A genesis-rooted tree of unvalidated blocks, a random insertion order
    (the test holds a block back until its parent is stored), and a list of
    later tip moves. Ties at equal height are common; no transaction repeats
    along any root path, as in every valid chain."""
    genesis = make_genesis([(addr(1), 100)])
    n = draw(st.integers(1, 24))
    blocks = [genesis]
    on_path = [frozenset()]  # tx ids on each block's path from genesis
    for i in range(1, n + 1):
        parent = draw(st.integers(0, i - 1))
        wanted = draw(st.lists(st.integers(0, 7), max_size=3, unique=True))
        ids = [t for t in wanted if t not in on_path[parent]]
        txs = tuple(_tree_tx(t) for t in ids)
        blocks.append(Block(
            height=blocks[parent].height + 1,
            prev_hash=blocks[parent].block_hash,
            timestamp=0,
            difficulty_bits=0,
            pow_nonce=i,
            miner=addr(3),
            tx_root=ledger.compute_tx_root(txs),
            transactions=txs,
        ))
        on_path.append(on_path[parent] | frozenset(ids))
    order = draw(st.permutations(range(1, n + 1)))
    moves = draw(st.lists(st.integers(0, n), max_size=12))
    return blocks, order, moves


def _hashes(blocks) -> list:
    return [b.block_hash for b in blocks]


def _move_and_check(store: BlockStore, tip: bytes, move) -> None:
    """Run ``move`` (an insert or a set_canonical) and check that it leaves
    ``tip`` at the head, reports the moved blocks and keeps the index."""
    old_path = path_to_genesis(store, store.canonical_tip)
    displaced, adopted = move()
    new_path = path_to_genesis(store, tip)
    old_set, new_set = set(_hashes(old_path)), set(_hashes(new_path))
    assert _hashes(displaced) == [h for h in _hashes(old_path) if h not in new_set]
    assert _hashes(adopted) == [h for h in _hashes(new_path) if h not in old_set]
    assert store.canonical_tip == tip
    assert _hashes(store.canonical_chain()) == _hashes(new_path)
    scan = {}
    for block in new_path:
        for tx in block.transactions:
            scan.setdefault(tx.tx_hash, block.height)
    assert store.tx_heights == scan
    assert {h for h in store.blocks if store.is_canonical(h)} == new_set


@given(block_trees())
def test_canonical_index_matches_full_path_walks(tree):
    blocks, order, moves = tree
    store = BlockStore(blocks[0])
    arrived = [0]  # block indices in insertion order
    pending = list(order)
    while pending:  # insert in the drawn order, deferring orphans
        deferred = []
        for i in pending:
            if blocks[i].prev_hash in store:
                arrived.append(i)
                # reference fork choice: the tallest block, and of equal
                # heights the first to arrive (max keeps the first maximum)
                head = max(arrived, key=lambda j: blocks[j].height)
                _move_and_check(store, blocks[head].block_hash,
                                lambda: store.insert(blocks[i]))
            else:
                deferred.append(i)
        pending = deferred
    for i in moves:
        tip = blocks[i].block_hash
        _move_and_check(store, tip, lambda: store.set_canonical(tip))


def test_is_canonical_unknown_hash():
    store, blocks = build_chain(2)
    assert store.is_canonical(blocks[2].block_hash)
    assert not store.is_canonical(bytes(32))


# -- field widths and ranges -------------------------------------------------

def _chain_lines_with(mutate, height=1):
    """Chain lines of a 3-block chain with one tx at height 1, with the JSON
    object of line ``height`` passed through ``mutate``."""
    import json

    _, blocks = build_chain(
        3, allocations=[(addr(1), 100)], tx_plan={1: [signed_tx(1, 2, 10, 1, 0)]}
    )
    lines = ledger.chain_file_lines(blocks)
    obj = json.loads(lines[height])
    mutate(obj)
    lines[height] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return lines


def test_sealed_short_miner_is_rejected():
    genesis = make_genesis([(addr(1), 100)])
    block = mine_child(genesis, miner=bytes(19))  # valid PoW over a 19-byte miner
    with pytest.raises(ValueError):
        Block.decode(block.encode())
    with pytest.raises(ChainError) as e:
        verify_chain_lines(ledger.chain_file_lines([genesis, block]))
    assert (e.value.height, e.value.code) == (1, "parse_error")


@pytest.mark.parametrize("field,width", [("miner", 19), ("prev_hash", 31), ("tx_root", 33)])
def test_decode_rejects_wrong_width_fields(field, width):
    genesis = make_genesis([(addr(1), 100)])
    for block in (mine_child(genesis), genesis):
        obj = to_json(block)
        obj[field] = bytes(width).hex()
        with pytest.raises(ValueError):
            Block.from_json(obj)
        with pytest.raises(ValueError):
            node.decode_blocks(canonical_json([obj]))


@pytest.mark.parametrize("field,value", [
    ("amount", -1), ("fee", 1 << 64), ("nonce", -5),
])
def test_out_of_range_tx_field_fails_at_its_height(field, value):
    def mutate(obj):
        obj["transactions"][0][field] = value
    with pytest.raises(ChainError) as e:
        verify_chain_lines(_chain_lines_with(mutate))
    assert (e.value.height, e.value.code) == (1, "parse_error")


def test_signed_short_recipient_is_rejected():
    kp = keypair(1)
    tx = ledger.make_transaction(kp.private_key, kp.public_key, bytes(19), 10, 1, 0)
    genesis = make_genesis([(addr(1), 100)])
    block = mine_child(genesis, txs=[tx])
    with pytest.raises(ChainError) as e:
        verify_chain_lines(ledger.chain_file_lines([genesis, block]))
    assert (e.value.height, e.value.code) == (1, "parse_error")


@pytest.mark.parametrize("field,value", [
    ("timestamp", 1 << 64), ("pow_nonce", -1), ("difficulty_bits", 256),
])
def test_out_of_range_header_field_fails_at_its_height(field, value):
    def mutate(obj):
        obj[field] = value
    with pytest.raises(ChainError) as e:
        verify_chain_lines(_chain_lines_with(mutate, height=2))
    assert (e.value.height, e.value.code) == (2, "parse_error")


def test_out_of_range_allocation_fails_at_genesis():
    def mutate(obj):
        obj["allocations"][0][1] = -100
    with pytest.raises(ChainError) as e:
        verify_chain_lines(_chain_lines_with(mutate, height=0))
    assert (e.value.height, e.value.code) == (0, "parse_error")


def test_oversized_payload_in_chain_file_fails_at_its_height():
    def mutate(obj):
        obj["transactions"][0]["payload"] = "00" * (ledger.MAX_PAYLOAD_BYTES + 1)
    with pytest.raises(ChainError) as e:
        verify_chain_lines(_chain_lines_with(mutate))
    assert (e.value.height, e.value.code) == (1, "parse_error")


# -- strict JSON decoding ------------------------------------------------------

@pytest.mark.parametrize("mutate", [
    lambda obj: obj.update(height=str(obj["height"])),
    lambda obj: obj.update(timestamp=float(obj["timestamp"])),
    lambda obj: obj.update(note="extra"),
    lambda obj: obj.pop("pow_nonce"),
    lambda obj: obj.update(difficulty_bits=True),
    lambda obj: obj.update(transactions={}),
    lambda obj: obj["transactions"][0].update(amount="10"),
    lambda obj: obj["transactions"][0].update(extra=1),
    lambda obj: obj["transactions"][0].pop("payload"),
    lambda obj: obj["transactions"][0].update(recipient=list(bytes(20))),
    lambda obj: obj.update(tx_root=obj["tx_root"].upper()),
    lambda obj: obj["transactions"][0].update(signature=" ".join(
        obj["transactions"][0]["signature"][i : i + 2] for i in range(0, 128, 2))),
], ids=[
    "string_height", "float_timestamp", "unknown_key", "missing_key", "bool_int",
    "object_txs", "string_amount", "unknown_tx_key", "missing_tx_key", "list_hex",
    "uppercase_hex", "spaced_hex",
])
def test_loosely_typed_chain_line_fails_at_its_height(mutate):
    with pytest.raises(ChainError) as e:
        verify_chain_lines(_chain_lines_with(mutate))
    assert (e.value.height, e.value.code) == (1, "parse_error")


@pytest.mark.parametrize("allocations", [{}, [["00" * 20]], [["00" * 20, 1.0]]])
def test_loosely_typed_allocations_fail_at_genesis(allocations):
    with pytest.raises(ChainError) as e:
        verify_chain_lines(_chain_lines_with(lambda obj: obj.update(allocations=allocations),
                                             height=0))
    assert (e.value.height, e.value.code) == (0, "parse_error")


# arbitrary widths and ranges, drawn as field values: each meets every field
# rule or breaks some, and `fitted` makes values that meet them all
any_u64 = st.integers(-2, ledger.U64_MAX + 2)
raw_tx_strategy = st.fixed_dictionaries(dict(
    sender_public_key=st.binary(max_size=40),
    recipient=st.binary(max_size=24),
    amount=any_u64,
    fee=any_u64,
    nonce=any_u64,
    payload=st.binary(max_size=16) | st.binary(min_size=1024, max_size=1026),
    signature=st.binary(max_size=70),
))
raw_block_strategy = st.fixed_dictionaries(dict(
    height=any_u64,
    prev_hash=st.binary(max_size=34),
    timestamp=any_u64,
    difficulty_bits=st.integers(-2, 257),
    pow_nonce=any_u64,
    miner=st.binary(max_size=22),
    tx_root=st.binary(max_size=34),
    transactions=st.lists(raw_tx_strategy, max_size=3).map(tuple),
    allocations=st.lists(st.tuples(st.binary(max_size=22), any_u64), max_size=3).map(tuple),
))
REFUSED = (ValueError, TxError)  # a field rule broken; TxError for payload_too_large


def _width(data: bytes, n: int) -> bytes:
    return data[:n].ljust(n, b"\0")


def _range(n: int, top: int = ledger.U64_MAX) -> int:
    return min(max(n, 0), top)


def fitted(fields: dict) -> dict:
    """``fields`` with every value cut, padded or clamped to its rule."""
    if "signature" in fields:
        return dict(
            sender_public_key=_width(fields["sender_public_key"], 32),
            recipient=_width(fields["recipient"], 20), amount=_range(fields["amount"]),
            fee=_range(fields["fee"]), nonce=_range(fields["nonce"]),
            payload=fields["payload"][: ledger.MAX_PAYLOAD_BYTES],
            signature=_width(fields["signature"], 64),
        )
    return dict(
        height=_range(fields["height"]), prev_hash=_width(fields["prev_hash"], 32),
        timestamp=_range(fields["timestamp"]),
        difficulty_bits=_range(fields["difficulty_bits"], 0xFF),
        pow_nonce=_range(fields["pow_nonce"]), miner=_width(fields["miner"], 20),
        tx_root=_width(fields["tx_root"], 32),
        transactions=tuple(fitted(tx) for tx in fields["transactions"]),
        allocations=tuple((_width(a, 20), _range(n)) for a, n in fields["allocations"]),
    )


@given(raw_tx_strategy, st.booleans())
def test_transaction_json_decode_inverts_encode(fields, fit):
    fields = fitted(fields) if fit else fields
    obj = json.loads(json.dumps(to_json(fields)))
    if fitted(fields) == fields:
        decoded = Transaction.from_json(obj)
        assert decoded == Transaction(**fields)
        assert decode_transaction(decoded.encode()) == decoded  # and the binary form
    else:
        with pytest.raises(REFUSED):
            Transaction.from_json(obj)


@given(raw_block_strategy, st.booleans())
def test_block_decode_inverts_encode(fields, fit):
    fields = fitted(fields) if fit else fields
    data = canonical_json(to_json(fields))
    if fitted(fields) == fields:
        decoded = Block.decode(data)
        txs = tuple(Transaction(**tx) for tx in fields["transactions"])
        assert decoded == Block(**dict(fields, transactions=txs))
        assert decoded.encode() == data
        assert len(header_bytes(decoded)) == 109  # each header field packs at its width
        ledger.compute_tx_root(decoded.transactions)  # and the body
        ledger.genesis_tx_root(decoded.allocations, decoded.timestamp)
    else:
        with pytest.raises(REFUSED):
            Block.decode(data)


# -- the account-state transition ------------------------------------------------

SENDERS = (1, 2, 3, 4)  # 1 and 2 are funded at genesis; 3 and 4 only by transfers
MINERS = (9,) + SENDERS  # 9 is never sent to, so it holds only what it mines
TRANSITION_GENESIS = make_genesis([(addr(1), 100), (addr(2), 100)])
FAULTS = ("replay", "gap", "overdraft", "bad_signature")


def reference_settle(txs):
    """The transition written out for the test: settle ``txs`` in order from
    the genesis allocations, skipping any with the wrong nonce or too little
    balance. Returns (balances, nonces, settled txs, first failure)."""
    balances = dict(TRANSITION_GENESIS.allocations)
    nonces = {}
    settled, first = [], None
    for i, tx in enumerate(txs):
        sender, cost = tx.sender, tx.amount + tx.fee
        if tx.nonce != nonces.get(sender, 0):
            first = first or (i, "bad_nonce")
        elif balances.get(sender, 0) < cost:
            first = first or (i, "insufficient_funds")
        else:
            balances[sender] = balances.get(sender, 0) - cost
            balances[tx.recipient] = balances.get(tx.recipient, 0) + tx.amount
            nonces[sender] = tx.nonce + 1
            settled.append(tx)
    return balances, nonces, settled, first


@st.composite
def tx_lists(draw):
    """0 to 8 transactions, valid ones, spends of received funds and each of
    FAULTS, with nonces and amounts drawn against the reference state of the
    transactions before them; half are valid, so whole blocks often settle.
    Returns (txs, indices of the transactions with a bad signature, the
    block's miner)."""
    txs, bad = [], []
    for i in range(draw(st.integers(0, 8))):
        balances, nonces, settled, _ = reference_settle(txs)
        kind = draw(st.sampled_from(("valid", "spend_received"))) if draw(
            st.booleans()) else draw(st.sampled_from(FAULTS))
        sender = draw(st.sampled_from(SENDERS))
        if kind == "spend_received" and settled:
            sender = SENDERS[[addr(s) for s in SENDERS].index(
                draw(st.sampled_from([tx.recipient for tx in settled])))]
        expected = nonces.get(addr(sender), 0)
        balance = balances.get(addr(sender), 0)
        fee = min(draw(st.integers(0, 5)), balance)
        amount = min(draw(st.integers(0, 60)), balance - fee)
        nonce = expected
        if kind == "replay" and expected:
            nonce = draw(st.integers(0, expected - 1))
        elif kind == "gap":
            nonce = expected + draw(st.integers(1, 3))
        elif kind == "overdraft":
            amount = balance - fee + 1
        elif kind == "spend_received":
            amount = balance - fee
        tx = signed_tx(sender, draw(st.sampled_from(SENDERS)), amount, fee, nonce,
                       payload=bytes([i]))  # a distinct hash per position
        if kind == "bad_signature":
            tx = replace(tx, amount=tx.amount + 1)
            bad.append(i)
        txs.append(tx)
    return txs, bad, draw(st.sampled_from(MINERS))


def nonzero(mapping: dict) -> dict:
    return {k: v for k, v in mapping.items() if v}


def reference_record(state, txs, miner):
    """The undo record written out for the test: the miner, then each tx's
    sender and recipient at first touch, each with its balance and nonce in
    ``state`` (the state before the block), or None where it held none."""
    touched = []
    for address in [miner] + [a for tx in txs for a in (tx.sender, tx.recipient)]:
        if address not in touched:
            touched.append(address)
    return tuple(field for address in touched for field in (
        address, state.balances.get(address), state.nonces.get(address)))


@settings(max_examples=80, deadline=None)
@given(tx_lists())
@example(([], [], 9))  # an empty block whose miner holds no balance
@example(([], [], 1))  # an empty block whose miner holds one
def test_block_transition_matches_reference_model(case):
    txs, bad, miner = case
    state = replayed_state([TRANSITION_GENESIS])
    before = copy.deepcopy(state)
    block = mine_child(TRANSITION_GENESIS, txs=txs, miner=addr(miner), difficulty=0)
    balances, nonces, _, first = reference_settle(txs)
    if bad:  # every signature is checked before any state
        first = (bad[0], "bad_signature")
    try:
        undo = validate_block(block, TRANSITION_GENESIS, state)
    except BlockError as e:
        assert first is not None
        assert (e.code, e.tx_index, e.detail) == ("bad_tx", first[0], f"tx {first[0]}: {first[1]}")
        assert state == before  # rewound exactly, which keys exist included
    else:
        assert first is None
        balances[addr(miner)] = balances.get(addr(miner), 0) + consensus.BLOCK_REWARD + sum(
            tx.fee for tx in txs
        )
        assert nonzero(state.balances) == nonzero(balances)
        assert state.nonces == nonces
        assert undo == reference_record(before, txs, addr(miner))
        rewind_block(state, undo)
        assert state == before  # the undo record takes the block off exactly
