import json
import socket
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chainsim.kademlia import Contact
from chainsim.ledger import canonical_json, make_genesis
from chainsim.netsim import SimConfig, Simulator
from chainsim.node import SimNode
from chainsim.rpc import (
    INVALID_PARAMS,
    INVALID_REQUEST,
    MAX_BATCH_LENGTH,
    MAX_BODY_BYTES,
    PARSE_ERROR,
    RpcDispatcher,
    bind,
    start,
)

from conftest import addr, oversized_tx_body, signed_tx, to_json

GENESIS = make_genesis([(addr(1), 10_000)])


def make_node():
    sim = Simulator(SimConfig(difficulty_bits=4, sync_interval_ms=0), 2)
    for i in range(2):
        sim.attach(i, SimNode(sim, i, bytes([0xB0 + i]) * 32, GENESIS))
    sim.nodes[1].join(Contact(sim.nodes[0].node_id, 0))
    return sim, sim.nodes[0]


def call(dispatcher, method, params=None, rid=1):
    req = {"jsonrpc": "2.0", "id": rid, "method": method}
    if params is not None:
        req["params"] = params
    return json.loads(dispatcher.handle_payload(json.dumps(req).encode()))


def test_submit_get_status_and_balance_lifecycle():
    sim, node = make_node()
    d = RpcDispatcher(node)
    tx = signed_tx(1, 2, 25, 2, 0)

    resp = call(d, "chain_getTransactionStatus", {"hash": tx.tx_hash.hex()})
    assert resp["result"] == {"status": "unknown"}

    resp = call(d, "chain_submitTransaction", {"tx": tx.encode().hex()})
    assert resp["result"] == tx.tx_hash.hex()

    resp = call(d, "chain_getTransactionStatus", {"hash": tx.tx_hash.hex()})
    assert resp["result"] == {"status": "pending"}

    node.mine_and_broadcast()
    resp = call(d, "chain_getTransactionStatus", {"hash": tx.tx_hash.hex()})
    assert resp["result"] == {"status": "confirmed", "height": 1}

    resp = call(d, "chain_getBalance", {"address": addr(2).hex()})
    assert resp["result"] == 25


def test_duplicate_submission_gets_app_code_1004():
    sim, node = make_node()
    d = RpcDispatcher(node)
    tx = signed_tx(1, 2, 25, 2, 0)
    call(d, "chain_submitTransaction", {"tx": tx.encode().hex()})
    resp = call(d, "chain_submitTransaction", {"tx": tx.encode().hex()})
    assert resp["error"]["code"] == 1004


def test_rejection_codes():
    sim, node = make_node()
    d = RpcDispatcher(node)
    broke = signed_tx(7, 2, 10, 1, 0)  # unfunded sender
    resp = call(d, "chain_submitTransaction", {"tx": broke.encode().hex()})
    assert resp["error"]["code"] == 1003
    gap = signed_tx(1, 2, 10, 1, 5)
    resp = call(d, "chain_submitTransaction", {"tx": gap.encode().hex()})
    assert resp["error"]["code"] == 1002
    ok = signed_tx(1, 2, 10, 1, 0)
    forged = bytearray(ok.encode())
    forged[-1] ^= 1
    resp = call(d, "chain_submitTransaction", {"tx": bytes(forged).hex()})
    assert resp["error"]["code"] == 1001


def test_a_forged_signature_is_1001_only_when_every_cheaper_check_passes():
    sim, node = make_node()
    d = RpcDispatcher(node)

    def forged(tx):
        body = bytearray(tx.encode())
        body[-1] ^= 1  # one bit of the signature
        return bytes(body).hex()

    resp = call(d, "chain_submitTransaction", {"tx": forged(signed_tx(1, 2, 10, 1, 5))})
    assert resp["error"]["code"] == 1002  # the gapped nonce is found first
    resp = call(d, "chain_submitTransaction", {"tx": forged(signed_tx(1, 2, 10, 1, 0))})
    assert resp["error"]["code"] == 1001
    assert len(node.mempool) == 0


def test_oversized_payload_gets_app_code_1005():
    sim, node = make_node()
    d = RpcDispatcher(node)
    resp = call(d, "chain_submitTransaction", {"tx": oversized_tx_body().hex()})
    assert resp["error"]["code"] == 1005
    assert len(node.mempool) == 0


def test_get_block_by_height_and_hash_with_canonical_flag():
    sim, node = make_node()
    d = RpcDispatcher(node)
    blk = node.mine_and_broadcast()
    resp = call(d, "chain_getBlockByHeight", {"height": 1})
    assert resp["result"]["hash"] == blk.block_hash.hex()
    assert resp["result"]["canonical"] is True
    resp = call(d, "chain_getBlockByHash", {"hash": blk.block_hash.hex()})
    assert resp["result"]["height"] == 1
    assert call(d, "chain_getBlockByHeight", {"height": 99})["result"] is None
    head = call(d, "chain_getHead")["result"]
    assert head == {"height": 1, "hash": blk.block_hash.hex()}


def test_side_chain_block_reports_non_canonical():
    sim, node = make_node()
    d = RpcDispatcher(node)
    other = sim.nodes[1]
    a = node.mine_and_broadcast()
    side = other.mine_and_broadcast()  # same height, different miner
    node.on_block(side)
    assert node.head().block_hash == a.block_hash  # first arrival kept
    resp = call(d, "chain_getBlockByHash", {"hash": side.block_hash.hex()})
    assert resp["result"]["canonical"] is False


def test_net_getPeers_lists_contacts():
    sim, node = make_node()
    d = RpcDispatcher(node)
    peers = call(d, "net_getPeers")["result"]
    assert {p["endpoint"] for p in peers} == {1}
    assert all(len(bytes.fromhex(p["id"])) == 20 for p in peers)


def test_protocol_errors():
    sim, node = make_node()
    d = RpcDispatcher(node)
    assert json.loads(d.handle_payload(b"{nope"))["error"]["code"] == -32700
    resp = call(d, "no_such_method")
    assert resp["error"]["code"] == -32601
    bad = json.loads(d.handle_payload(json.dumps({"id": 5, "method": "x"}).encode()))
    assert bad["error"]["code"] == -32600
    resp = call(d, "chain_getBalance", {"address": "zz"})
    assert resp["error"]["code"] == -32602
    resp = call(d, "chain_getBlockByHeight", {"height": -3})
    assert resp["error"]["code"] == -32602


def test_deep_nesting_is_a_parse_error():
    sim, node = make_node()
    reply = json.loads(RpcDispatcher(node).handle_payload(b"[" * 200_000))
    assert reply["error"]["code"] == PARSE_ERROR and reply["id"] is None


BALANCE_REQUEST = json.dumps({"jsonrpc": "2.0", "id": 7, "method": "chain_getBalance",
                              "params": {"address": addr(1).hex()}}).encode()
BALANCE_REPLY = b'{"id":7,"jsonrpc":"2.0","result":10000}'
PARSE_REPLY = b'{"error":{"code":-32700,"message":"parse error"},"id":null,"jsonrpc":"2.0"}'
SURROGATE_REPLY = (b'{"error":{"code":-32601,"message":"unknown method nope"},"id":"\\ud800",'
                   b'"jsonrpc":"2.0"}')


@pytest.mark.parametrize("payload,reply", [
    (b"\xef\xbb\xbf" + BALANCE_REQUEST, BALANCE_REPLY),  # a UTF-8 byte order mark
    (b" \r\n\t" + BALANCE_REQUEST, BALANCE_REPLY),
    (BALANCE_REQUEST + b" \n", BALANCE_REPLY),
    (b"[" + BALANCE_REQUEST + b"]", b"[" + BALANCE_REPLY + b"]"),
    (BALANCE_REQUEST + b"x", PARSE_REPLY),
    (BALANCE_REQUEST + b"{}", PARSE_REPLY),
    (b'{"\xff":1}', PARSE_REPLY),  # not UTF-8
    (b'{"jsonrpc":"2.0","id":"\xc3","method":"nope"}', PARSE_REPLY),
    (b'{"jsonrpc":"2.0","id":"\\ud800","method":"nope"}', SURROGATE_REPLY),  # a lone surrogate
    (b'{"jsonrpc":"2.0","id":"\xed\xa0\x80","method":"nope"}', SURROGATE_REPLY),  # and encoded
    (b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}", PARSE_REPLY),  # past the recursion
    (b"[" * 100_000 + b"]" * 100_000, PARSE_REPLY),  # limit
], ids=["bom", "leading-space", "trailing-space", "batch", "trailing-byte", "trailing-object",
        "bad-utf8-key", "bad-utf8-id", "escaped-surrogate", "encoded-surrogate",
        "deep-object", "deep-list"])
def test_a_payload_gets_the_reply_json_loads_would_give(payload, reply):
    """The dispatcher parses a payload as json.loads does: the same object or
    the same failure, whether or not the payload opens an object."""
    assert RpcDispatcher(make_node()[1]).handle_payload(payload) == reply


def test_batch_answers_positionally():
    sim, node = make_node()
    d = RpcDispatcher(node)
    batch = [
        {"jsonrpc": "2.0", "id": 1, "method": "chain_getHead"},
        {"jsonrpc": "2.0", "id": 2, "method": "nope"},
        {"jsonrpc": "2.0", "id": 3, "method": "chain_getBalance",
         "params": {"address": addr(1).hex()}},
    ]
    out = json.loads(d.handle_payload(json.dumps(batch).encode()))
    assert [r["id"] for r in out] == [1, 2, 3]
    assert out[1]["error"]["code"] == -32601
    assert out[2]["result"] == 10_000
    empty = json.loads(d.handle_payload(b"[]"))
    assert empty["error"]["code"] == -32600


def test_http_transport_round_trip():
    import urllib.request

    sim, node = make_node()
    server = start(bind(port=0), node)
    try:
        host, port = server.server_address
        req = urllib.request.Request(
            f"http://{host}:{port}",
            data=json.dumps(
                {"jsonrpc": "2.0", "id": 1, "method": "chain_getHead"}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            body = json.loads(resp.read())
        assert body["result"]["height"] == 0
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("spell", [str.upper, lambda h: h[:8] + " " + h[8:]],
                         ids=["upper_case", "embedded_space"])
def test_hex_params_have_one_spelling(spell):
    sim, node = make_node()
    d = RpcDispatcher(node)
    tx = signed_tx(1, 2, 25, 2, 0)
    for method, key, value in [
        ("chain_getBlockByHash", "hash", GENESIS.block_hash.hex()),
        ("chain_getTransactionStatus", "hash", tx.tx_hash.hex()),
        ("chain_getBalance", "address", addr(1).hex()),
        ("chain_submitTransaction", "tx", tx.encode().hex()),
    ]:
        assert "result" in call(d, method, {key: value})
        assert call(d, method, {key: spell(value)})["error"]["code"] == INVALID_PARAMS


@pytest.mark.parametrize("method,key,width", [
    ("chain_getBalance", "address", 20),
    ("chain_getBlockByHash", "hash", 32),
    ("chain_getTransactionStatus", "hash", 32),
])
@pytest.mark.parametrize("off_by", [-1, 1])
def test_hex_params_have_one_width(method, key, width, off_by):
    sim, node = make_node()
    reply = call(RpcDispatcher(node), method, {key: "ab" * (width + off_by)})
    assert reply["error"]["code"] == INVALID_PARAMS
    assert f"'{key}'" in reply["error"]["message"]


def raw_post(port: int, length: str, body: bytes = b"") -> bytes:
    """One hand-written POST; the whole reply, or a timeout if none comes."""
    head = f"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("length,status", [
    ("abc", b"400"),
    ("-1", b"400"),
    (str(MAX_BODY_BYTES + 1), b"413"),  # refused before any body arrives
], ids=["not_a_number", "negative", "over_the_limit"])
def test_bad_content_length_gets_an_http_error(length, status):
    sim, node = make_node()
    server = start(bind(port=0), node)
    try:
        reply = raw_post(server.server_address[1], length)
        assert reply.split(b"\r\n", 1)[0].split(b" ")[1] == status
        # the server still answers the next request
        request = b'{"jsonrpc":"2.0","id":1,"method":"chain_getHead"}'
        reply = raw_post(server.server_address[1], str(len(request)), request)
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["result"]["height"] == 0
    finally:
        server.shutdown()
        server.server_close()


def test_missing_content_length_gets_411():
    sim, node = make_node()
    server = start(bind(port=0), node)
    try:
        head = b"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.server_address[1]),
                                      timeout=5) as sock:
            sock.sendall(head + b"2\r\n{}\r\n0\r\n\r\n")
            reply = sock.recv(65536)
        assert reply.split(b"\r\n", 1)[0].split(b" ")[1] == b"411"
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("rid", [
    b"[1]",
    b'{"a":1}',
    b"true",
    b"[" * 990 + b"]" * 990,  # parses from a script's top level; never echoed
], ids=["list", "object", "bool", "deep_array"])
def test_an_id_that_is_not_a_string_number_or_null_is_invalid(rid):
    sim, node = make_node()
    payload = b'{"jsonrpc":"2.0","method":"chain_getHead","id":' + rid + b"}"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 200)  # give back the frames pytest itself holds
    try:
        reply = json.loads(RpcDispatcher(node).handle_payload(payload))
    finally:
        sys.setrecursionlimit(limit)
    assert reply == {"jsonrpc": "2.0", "id": None,
                     "error": {"code": INVALID_REQUEST, "message": "invalid request"}}


def test_a_batch_over_the_limit_gets_one_invalid_request_reply():
    sim, node = make_node()
    d = RpcDispatcher(node)
    head = {"jsonrpc": "2.0", "id": 1, "method": "chain_getHead"}
    full = json.loads(d.handle_payload(json.dumps([head] * MAX_BATCH_LENGTH).encode()))
    assert len(full) == MAX_BATCH_LENGTH and "result" in full[0]
    over = json.loads(d.handle_payload(json.dumps([head] * (MAX_BATCH_LENGTH + 1)).encode()))
    assert over["error"]["code"] == INVALID_REQUEST and over["id"] is None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=10,
)
REQUESTS = st.fixed_dictionaries(
    {"jsonrpc": st.sampled_from(["2.0", "1.0"]),
     "method": st.sampled_from(sorted(RpcDispatcher.METHODS) + ["nope"])},
    optional={
        "id": JSON_VALUES,
        "params": st.dictionaries(st.sampled_from(["tx", "hash", "address", "height"]),
                                  JSON_VALUES, max_size=2) | JSON_VALUES,
    },
)


def assert_one_reply(raw: bytes):
    reply = json.loads(raw)
    replies = reply if isinstance(reply, list) else [reply]
    assert replies
    for r in replies:
        assert r["jsonrpc"] == "2.0" and ("result" in r) != ("error" in r)
        assert r["id"] is None or type(r["id"]) in (str, int, float)
        assert set(r) == {"jsonrpc", "id", "result" if "result" in r else "error"}


@pytest.fixture(scope="module")
def dispatcher():
    return RpcDispatcher(make_node()[1])


@settings(max_examples=200, deadline=None)
@given(payload=st.binary(max_size=64))
def test_arbitrary_bytes_always_get_one_reply(dispatcher, payload):
    assert_one_reply(dispatcher.handle_payload(payload))


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES | REQUESTS | st.lists(REQUESTS | JSON_VALUES, max_size=4))
def test_arbitrary_json_values_always_get_one_reply(dispatcher, value):
    assert_one_reply(dispatcher.handle_payload(json.dumps(value).encode()))


@pytest.fixture(scope="module")
def served():
    """A node holding genesis (with an allocation), two canonical blocks (one
    carrying a tx) and a side block, and its dispatcher."""
    sim, node = make_node()
    node.on_transaction(signed_tx(1, 2, 25, 2, 0, b"%s\"\\"))
    canonical = [GENESIS, node.mine_and_broadcast()]
    side = sim.nodes[1].mine_and_broadcast()  # same height, different miner
    node.on_block(side)
    canonical.append(node.mine_and_broadcast())
    assert canonical[1].transactions and node.head() == canonical[-1]
    assert not node.store.is_canonical(side.block_hash)
    return RpcDispatcher(node), canonical, side


# ids a reply must echo: strings JSON escapes (quotes, backslashes, non-ASCII)
# or a % format would read, integers, finite floats and null
REPLY_IDS = (
    st.text(st.sampled_from('"\\%sdé€\U0001f600\n') | st.characters(), max_size=8)
    | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.none()
)
# a block read, by canonical height (genesis, a block with a tx, the head, or
# past the head) or by hash (one of those or the side block); or an error
BLOCK_READS = st.sampled_from(
    [("height", h) for h in range(4)] + [("hash", i) for i in range(4)] + ["nope", "v1"])


def block_read(served, read, rid) -> tuple:
    """A request and the reply object a dispatcher should answer it with."""
    _, canonical, side = served
    request = {"jsonrpc": "2.0", "id": rid}
    if read == "nope":
        request["method"] = "nope"
        return request, {"jsonrpc": "2.0", "id": rid,
                         "error": {"code": -32601, "message": "unknown method nope"}}
    if read == "v1":
        request.update(jsonrpc="1.0", method="chain_getBlockByHeight", params={"height": 0})
        return request, {"jsonrpc": "2.0", "id": rid,
                         "error": {"code": INVALID_REQUEST, "message": "invalid request"}}
    by, i = read
    if by == "height":
        request.update(method="chain_getBlockByHeight", params={"height": i})
        block = canonical[i] if i < len(canonical) else None
    else:
        block = (canonical + [side])[i]
        request.update(method="chain_getBlockByHash", params={"hash": block.block_hash.hex()})
    result = None if block is None else dict(
        to_json(block), hash=block.block_hash.hex(), canonical=block is not side)
    return request, {"jsonrpc": "2.0", "id": rid, "result": result}


@settings(deadline=None)
@given(reads=st.lists(st.tuples(BLOCK_READS, REPLY_IDS), min_size=1, max_size=4),
       batched=st.booleans())
def test_block_read_replies_are_canonical_json_of_the_reference_reply(served, reads, batched):
    pairs = [block_read(served, read, rid) for read, rid in reads]
    requests, replies = zip(*pairs)
    dispatcher = served[0]
    if batched:
        assert dispatcher.handle_payload(json.dumps(requests).encode()) == canonical_json(
            list(replies))
    else:
        for request, reply in pairs:
            assert dispatcher.handle_payload(json.dumps(request).encode()) == canonical_json(
                reply)
