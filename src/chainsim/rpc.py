"""JSON-RPC 2.0 surface for a node.

The dispatcher is transport-free so simulations can call it in-process
against any simulated node; ``serve`` wraps the same dispatcher in a
loopback HTTP server (one JSON-RPC payload per POST), and only ``serve``
loads ``http.server``. Application error codes: 1001 bad_signature,
1002 bad_nonce, 1003 insufficient_funds, 1004 duplicate, 1005
payload_too_large. Every request gets a reply:

- a body that does not parse, however deeply nested, is -32700;
- a request whose ``id`` is not a string, a number or null, and a batch
  longer than ``MAX_BATCH_LENGTH``, are -32600 with a null ``id``;
- the server answers a POST without ``Content-Length`` with HTTP 411, one
  that is not a decimal integer with 400 and one over ``MAX_BODY_BYTES``
  with 413, each without reading the body.
"""

from __future__ import annotations

import json
import math
import threading
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


class RpcError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _require_hex(params: dict, key: str, length: Optional[int] = None) -> bytes:
    value = params.get(key)
    if not isinstance(value, str):
        raise RpcError(INVALID_PARAMS, f"missing or non-string param '{key}'")
    try:
        raw = ledger._hex(value)  # one spelling per value, as in chain files
    except ValueError:
        raise RpcError(INVALID_PARAMS, f"param '{key}' is not lowercase hex")
    if length is not None and len(raw) != length:
        raise RpcError(INVALID_PARAMS, f"param '{key}' must be {length} bytes")
    return raw


class RpcDispatcher:
    """Maps JSON-RPC methods onto one node; requests are serialized."""

    def __init__(self, node):
        self.node = node
        self._lock = threading.Lock()

    # -- method implementations ---------------------------------------------

    def chain_submitTransaction(self, params: dict):
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
        return tx.tx_hash.hex()

    def _block_result(self, block) -> dict:
        obj = block.to_json()
        obj["hash"] = block.block_hash.hex()
        obj["canonical"] = self.node.store.is_canonical(block.block_hash)
        return obj

    def chain_getBlockByHeight(self, params: dict):
        height = params.get("height")
        if not isinstance(height, int) or isinstance(height, bool) or height < 0:
            raise RpcError(INVALID_PARAMS, "height must be a non-negative integer")
        store = self.node.store
        if height >= len(store.canonical):
            return None
        return self._block_result(store.blocks[store.canonical[height]])

    def chain_getBlockByHash(self, params: dict):
        h = _require_hex(params, "hash", 32)
        block = self.node.store.blocks.get(h)
        if block is None:
            return None
        return self._block_result(block)

    def chain_getBalance(self, params: dict):
        address = _require_hex(params, "address", 20)
        return self.node.canonical_state.balance(address)

    def chain_getTransactionStatus(self, params: dict):
        h = _require_hex(params, "hash", 32)
        if h in self.node.mempool:
            return {"status": "pending"}
        height = self.node.store.tx_heights.get(h)
        if height is not None:
            return {"status": "confirmed", "height": height}
        return {"status": "unknown"}

    def chain_getHead(self, params: dict):
        head = self.node.head()
        return {"height": head.height, "hash": head.block_hash.hex()}

    def net_getPeers(self, params: dict):
        return [
            {"id": c.node_id.hex(), "endpoint": c.endpoint}
            for c in self.node.routing.contacts()
        ]

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

    def _handle_one(self, req) -> dict:
        rid = req.get("id") if isinstance(req, dict) else None
        if not _valid_id(rid):  # never echoed, so a deep id never reaches the encoder
            return _error_response(None, INVALID_REQUEST, "invalid request")
        if (
            not isinstance(req, dict)
            or req.get("jsonrpc") != "2.0"
            or not isinstance(req.get("method"), str)
        ):
            return _error_response(rid, INVALID_REQUEST, "invalid request")
        method = self.METHODS.get(req["method"])
        if method is None:
            return _error_response(rid, METHOD_NOT_FOUND, f"unknown method {req['method']}")
        params = req.get("params", {})
        if not isinstance(params, dict):
            return _error_response(rid, INVALID_PARAMS, "params must be by-name")
        try:
            result = method(self, params)
        except RpcError as e:
            return _error_response(rid, e.code, e.message)
        return {"jsonrpc": "2.0", "id": rid, "result": result}

    def handle_payload(self, payload: bytes) -> bytes:
        """One raw JSON-RPC payload in, one out; batches answer positionally."""
        try:
            req = json.loads(payload)
        except (ValueError, UnicodeDecodeError, RecursionError):
            return ledger.canonical_json(_error_response(None, PARSE_ERROR, "parse error"))
        with self._lock:
            if not isinstance(req, list):
                reply = self._handle_one(req)
            elif not req:
                reply = _error_response(None, INVALID_REQUEST, "empty batch")
            elif len(req) > MAX_BATCH_LENGTH:
                reply = _error_response(
                    None, INVALID_REQUEST, f"batch over {MAX_BATCH_LENGTH} requests")
            else:
                reply = [self._handle_one(r) for r in req]
            return ledger.canonical_json(reply)


def _valid_id(rid) -> bool:
    """JSON-RPC 2.0 §4: a string, a number or null; a bool is not a number."""
    return rid is None or type(rid) in (str, int) or (
        type(rid) is float and math.isfinite(rid))


def _error_response(rid, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": rid, "error": {"code": code, "message": message}}


def serve(node, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Start an HTTP JSON-RPC server for ``node``; returns the server, whose
    one ``serve_forever`` loop runs on the daemon thread ``.thread``
    (``.server_address`` has the port)."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    dispatcher = RpcDispatcher(node)

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
            response = dispatcher.handle_payload(body)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(response)))
            self.end_headers()
            self.wfile.write(response)

        def log_message(self, fmt, *args):  # quiet server
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    server.thread = threading.Thread(target=server.serve_forever, daemon=True)
    server.thread.start()
    return server
