"""JSON-RPC 2.0 surface for a node.

The dispatcher is transport-free so simulations can call it in-process
against any simulated node; ``start`` wraps the same dispatcher in the
loopback HTTP server that ``bind`` made (one JSON-RPC payload per POST),
and only ``bind`` loads ``http.server``. Application error codes: 1001
bad_signature, 1002 bad_nonce, 1003 insufficient_funds, 1004 duplicate,
1005 payload_too_large. A submitted transaction gets the first that holds in
mempool admission order: 1005 (at decoding), then 1004, 1002, 1003,
``pool_full`` as -32602, and 1001 only when every cheaper check passes.
Every request gets a reply:

- a body that does not parse, however deeply nested, is -32700;
- a request whose ``id`` is not a string, a number or null, and a batch
  longer than ``MAX_BATCH_LENGTH``, are -32600 with a null ``id``;
- the server answers a POST without ``Content-Length`` with HTTP 411, one
  that is not a decimal integer with 400 and one over ``MAX_BODY_BYTES``
  with 413, each without reading the body.

A payload is parsed by ``ledger._json_object``, which gives what
``json.loads`` gives (the same object, or the same exception, so the same
reply) and skips its encoding detection for a payload that opens an object.
Every reply is one ``%`` fill of one bytes layout (``_RESULT_REPLY`` and
the others below), and a batch joins its members' replies. The request's
id is spelled once, ``b"%d"`` for an int and ``ledger.canonical_json``
otherwise, and goes into the fill with the result's fields: a block read
fills ``_BLOCK_REPLY`` with slices of the block's kept canonical JSON
(``Block.encode``), with ``canonical`` and ``hash`` between them, so the
line is copied into the reply once. For a node booted from a chain file
that is the file's own line, which ``Block.decode`` kept, so no read of a
canonical chain encodes a block; a block held in another spelling is
encoded once. A status, the head, a balance and a submitted tx's hash
have fixed layouts, and every error fills ``_ERROR_REPLY``;
``canonical_json`` is left for ids that are not ints, error messages and
the open-ended ``net_getPeers`` result. The bytes are those
``canonical_json`` gives for the whole reply object.
"""

from __future__ import annotations

import math
import threading
from binascii import b2a_hex
from typing import TYPE_CHECKING, Optional

from . import ledger

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

# the largest POST body served: about 400 maximal transactions in one batch
MAX_BODY_BYTES = 1 << 20
# the most requests one batch may carry (geth's default batch limit)
MAX_BATCH_LENGTH = 1000

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602

APP_ERROR_CODES = {
    "bad_signature": 1001,
    "bad_nonce": 1002,
    "insufficient_funds": 1003,
    "duplicate": 1004,
    "payload_too_large": 1005,
}


# The reply layouts: canonical_json of each reply object, keys in sorted
# order. Each %s takes bytes already spelled as JSON (an id, a message or a
# result through canonical_json, lowercase hex, which JSON never escapes, or
# slices of a block's kept line) and each %d an int, which %d spells as
# canonical_json does. A Hypothesis property holds every reply to
# canonical_json of its reference reply object in the tests.
_REPLY = b'{"id":%s,"jsonrpc":"2.0","result":'
_RESULT_REPLY = _REPLY + b'%s}'
_NULL_REPLY = _REPLY + b'null}'
_HASH_REPLY = _REPLY + b'"%s"}'
_BALANCE_REPLY = _REPLY + b'%d}'
_HEAD_REPLY = _REPLY + b'{"hash":"%s","height":%d}}'
_PENDING_REPLY = _REPLY + b'{"status":"pending"}}'
_CONFIRMED_REPLY = _REPLY + b'{"height":%d,"status":"confirmed"}}'
_UNKNOWN_REPLY = _REPLY + b'{"status":"unknown"}}'
# a block's kept bytes with "canonical" and "hash" spliced in (_block_reply)
_BLOCK_REPLY = _REPLY + b'%s"canonical":%s,%s"hash":"%s",%s}'
_ERROR_REPLY = b'{"error":{"code":%d,"message":%s},"id":%s,"jsonrpc":"2.0"}'
# the params of a request without any: methods only read them
_NO_PARAMS: dict = {}


class RpcError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _require_hex(params: dict, key: str, length: Optional[int] = None) -> bytes:
    try:
        # one spelling and one width per value, as in chain files
        return ledger._hex(params.get(key), length)
    except (TypeError, ValueError) as e:  # missing, not a string, or not the hex rule
        raise RpcError(INVALID_PARAMS, f"param '{key}': {e}")


class RpcDispatcher:
    """Maps JSON-RPC methods onto one node; requests are serialized."""

    def __init__(self, node):
        self.node = node
        self._lock = threading.Lock()

    # -- methods: each takes the request's spelled id and returns its reply --

    def chain_submitTransaction(self, params: dict, rid: bytes) -> bytes:
        raw = _require_hex(params, "tx")
        try:
            tx = ledger.decode_transaction(raw)
        except ledger.TxError as e:
            raise RpcError(APP_ERROR_CODES.get(e.code, INVALID_PARAMS),
                           f"undecodable transaction: {e.code}")
        status = self.node.on_transaction(tx, origin=None)
        if status == "duplicate":
            raise RpcError(APP_ERROR_CODES["duplicate"], "transaction already known")
        if status.startswith("rejected:"):
            cause = status.split(":", 1)[1]
            raise RpcError(APP_ERROR_CODES.get(cause, INVALID_PARAMS), cause)
        return _HASH_REPLY % (rid, b2a_hex(tx.tx_hash))

    def _block_reply(self, rid: bytes, block) -> bytes:
        """The reply to a read of ``block``, in one fill of ``_BLOCK_REPLY``:
        the block's kept bytes (``Block.encode``) with ``canonical`` spliced
        in before ``difficulty_bits`` and ``hash`` before ``height``, their
        places in sorted key order. Every string in those bytes is hex, so
        the first match of a quoted key is the key; the line is sliced at
        the two keys and its slices are copied into the reply once."""
        data = block.encode()
        i = data.index(b'"difficulty_bits"')
        j = data.index(b'"height"', i)
        canonical = b"true" if self.node.store.is_canonical(block.block_hash) else b"false"
        return _BLOCK_REPLY % (
            rid, data[:i], canonical, data[i:j], b2a_hex(block.block_hash), data[j:])

    def chain_getBlockByHeight(self, params: dict, rid: bytes) -> bytes:
        height = params.get("height")
        if type(height) is not int or height < 0:  # a bool is not an int here
            raise RpcError(INVALID_PARAMS, "height must be a non-negative integer")
        store = self.node.store
        if height >= len(store.canonical):
            return _NULL_REPLY % rid
        return self._block_reply(rid, store.blocks[store.canonical[height]])

    def chain_getBlockByHash(self, params: dict, rid: bytes) -> bytes:
        h = _require_hex(params, "hash", 32)
        block = self.node.store.blocks.get(h)
        if block is None:
            return _NULL_REPLY % rid
        return self._block_reply(rid, block)

    def chain_getBalance(self, params: dict, rid: bytes) -> bytes:
        address = _require_hex(params, "address", 20)
        return _BALANCE_REPLY % (rid, self.node.canonical_state.balance(address))

    def chain_getTransactionStatus(self, params: dict, rid: bytes) -> bytes:
        h = _require_hex(params, "hash", 32)
        if h in self.node.mempool:
            return _PENDING_REPLY % rid
        height = self.node.store.tx_heights.get(h)
        if height is not None:
            return _CONFIRMED_REPLY % (rid, height)
        return _UNKNOWN_REPLY % rid

    def chain_getHead(self, params: dict, rid: bytes) -> bytes:
        head = self.node.head()
        return _HEAD_REPLY % (rid, b2a_hex(head.block_hash), head.height)

    def net_getPeers(self, params: dict, rid: bytes) -> bytes:
        return _RESULT_REPLY % (rid, ledger.canonical_json([
            {"id": c.node_id.hex(), "endpoint": c.endpoint}
            for c in self.node.routing.contacts()
        ]))

    METHODS = {
        "chain_submitTransaction": chain_submitTransaction,
        "chain_getBlockByHeight": chain_getBlockByHeight,
        "chain_getBlockByHash": chain_getBlockByHash,
        "chain_getBalance": chain_getBalance,
        "chain_getTransactionStatus": chain_getTransactionStatus,
        "chain_getHead": chain_getHead,
        "net_getPeers": net_getPeers,
    }

    # -- protocol ----------------------------------------------------------

    def _handle_one(self, req) -> bytes:
        rid = req.get("id") if type(req) is dict else None
        # the id is spelled once, and every layout below takes its bytes
        if type(rid) is int:  # a bool is not an int here
            rid = b"%d" % rid
        elif _valid_id(rid):
            rid = ledger.canonical_json(rid)
        else:  # never echoed, so a deep id never reaches the encoder
            return _error_reply(INVALID_REQUEST, "invalid request")
        if (
            type(req) is not dict
            or req.get("jsonrpc") != "2.0"
            or type(req.get("method")) is not str
        ):
            return _error_reply(INVALID_REQUEST, "invalid request", rid)
        method = self.METHODS.get(req["method"])
        if method is None:
            return _error_reply(METHOD_NOT_FOUND, f"unknown method {req['method']}", rid)
        params = req.get("params", _NO_PARAMS)
        if type(params) is not dict:
            return _error_reply(INVALID_PARAMS, "params must be by-name", rid)
        try:
            return method(self, params, rid)
        except RpcError as e:
            return _error_reply(e.code, e.message, rid)

    def handle_payload(self, payload: bytes) -> bytes:
        """One raw JSON-RPC payload in, one out; batches answer positionally."""
        try:
            req = ledger._json_object(payload)
        except (ValueError, UnicodeDecodeError, RecursionError):
            return _error_reply(PARSE_ERROR, "parse error")
        with self._lock:
            if type(req) is not list:
                return self._handle_one(req)
            if not req:
                return _error_reply(INVALID_REQUEST, "empty batch")
            if len(req) > MAX_BATCH_LENGTH:
                return _error_reply(INVALID_REQUEST, f"batch over {MAX_BATCH_LENGTH} requests")
            return b"[" + b",".join([self._handle_one(r) for r in req]) + b"]"


def _valid_id(rid) -> bool:
    """JSON-RPC 2.0 §4: a string, a number or null; a bool is not a number."""
    return rid is None or type(rid) in (str, int) or (
        type(rid) is float and math.isfinite(rid))


def _error_reply(code: int, message: str, rid: bytes = b"null") -> bytes:
    return _ERROR_REPLY % (code, ledger.canonical_json(message), rid)


def bind(host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """An HTTP JSON-RPC server bound to ``port`` (``.server_address`` has
    it), or OSError, e.g. for a port in use, before any node is built. It
    answers once ``start`` gives it a node."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            declared = self.headers.get("Content-Length")
            if declared is None:  # chunked or unframed: RFC 9110 §15.5.12
                self.send_error(411, "Content-Length required")
                return
            if not (declared.isascii() and declared.isdigit()):  # RFC 9110 §8.6
                self.send_error(400, "Content-Length must be a non-negative integer")
                return
            digits = declared.lstrip("0") or "0"  # int() refuses very long digit runs
            if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
                self.send_error(413, f"request body over {MAX_BODY_BYTES} bytes")
                return
            body = self.rfile.read(int(digits))
            response = self.server.dispatcher.handle_payload(body)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(response)))
            self.end_headers()
            self.wfile.write(response)

        def log_message(self, fmt, *args):  # quiet server
            pass

    return ThreadingHTTPServer((host, port), Handler)


def start(server, node) -> ThreadingHTTPServer:
    """Serve ``node`` on a ``bind`` server, whose one ``serve_forever``
    loop runs on the daemon thread ``.thread``; returns the server."""
    server.dispatcher = RpcDispatcher(node)
    server.thread = threading.Thread(target=server.serve_forever, daemon=True)
    server.thread.start()
    return server
