"""The JSON-RPC request mix and the reference answers it is checked against.

The reference reads a chain file with its own decoder, hashes and replay
(``json``, ``hashlib``, ``struct``), so a reply is compared with an answer
that does not come from the code under test. Valid writes are signed with
the ``cryptography`` package directly.

Mix, by share of requests: getBlockByHeight 30%, getTransactionStatus on
confirmed hashes 20% and on unknown hashes 5%, getBalance 15%,
getBlockByHash 10%, getHead 5%, valid submitTransaction at the sender's
next nonce 10%, invalid submits 5% (half bad signature, expecting 1001;
half bad nonce, expecting 1002). A chain with no transactions asks for the
status of the mix's own pending submits instead of confirmed ones.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

BLOCK_REWARD = 50
BAD_SIGNATURE, BAD_NONCE = 1001, 1002
SUBMIT_COST = 2  # amount 1 + fee 1

MIX = (
    ("getBlockByHeight", 30),
    ("status_confirmed", 20),
    ("status_unknown", 5),
    ("getBalance", 15),
    ("getBlockByHash", 10),
    ("getHead", 5),
    ("submit_valid", 10),
    ("submit_invalid", 5),
)


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def block_hash(obj: dict) -> str:
    header = (
        struct.pack(">Q", obj["height"]) + bytes.fromhex(obj["prev_hash"])
        + struct.pack(">Q", obj["timestamp"]) + struct.pack(">B", obj["difficulty_bits"])
        + struct.pack(">Q", obj["pow_nonce"]) + bytes.fromhex(obj["miner"])
        + bytes.fromhex(obj["tx_root"])
    )
    return _sha256(header).hex()


def tx_bytes(pk: bytes, recipient: bytes, amount: int, fee: int, nonce: int,
             payload: bytes = b"", signature: bytes = b"") -> bytes:
    return (pk + recipient + struct.pack(">QQQ", amount, fee, nonce)
            + struct.pack(">H", len(payload)) + payload + signature)


def _tx_obj_bytes(tx: dict) -> bytes:
    return tx_bytes(
        bytes.fromhex(tx["sender_public_key"]), bytes.fromhex(tx["recipient"]),
        tx["amount"], tx["fee"], tx["nonce"], bytes.fromhex(tx["payload"]),
        bytes.fromhex(tx["signature"]),
    )


class ChainReference:
    """Blocks, hashes, tx heights and the replayed account state of one
    chain file, computed independently of chainsim."""

    def __init__(self, lines: list):
        self.blocks = [json.loads(ln) for ln in lines]
        self.hashes = [block_hash(b) for b in self.blocks]
        self.tx_height: dict = {}
        self.balances: dict = {}
        self.nonces: dict = {}
        for addr, amount in self.blocks[0].get("allocations", []):
            self.balances[addr] = self.balances.get(addr, 0) + amount
        for b in self.blocks[1:]:
            fees = 0
            for tx in b["transactions"]:
                self.tx_height[_sha256(_tx_obj_bytes(tx)).hex()] = b["height"]
                sender = _sha256(bytes.fromhex(tx["sender_public_key"]))[:20].hex()
                self.balances[sender] = self.balances.get(sender, 0) - tx["amount"] - tx["fee"]
                self.balances[tx["recipient"]] = self.balances.get(tx["recipient"], 0) + tx["amount"]
                self.nonces[sender] = tx["nonce"] + 1
                fees += tx["fee"]
            self.balances[b["miner"]] = self.balances.get(b["miner"], 0) + BLOCK_REWARD + fees

    def block_result(self, height: int) -> dict:
        return dict(self.blocks[height], hash=self.hashes[height], canonical=True)


class Request:
    __slots__ = ("method", "payload", "result", "error")

    def __init__(self, method: str, payload: bytes, result=None, error=None):
        self.method, self.payload, self.result, self.error = method, payload, result, error


def make_requests(ref: ChainReference, key_seeds: list, seed: int, n: int) -> list:
    """``n`` requests drawn from the mix, each with its expected answer."""
    rng = random.Random(f"rpcmix/{seed}")
    senders = []
    budget: dict = {}  # what each sender can still spend on valid submits
    for s in key_seeds:
        sk = Ed25519PrivateKey.from_private_bytes(bytes.fromhex(s))
        pk = sk.public_key().public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        addr = _sha256(pk)[:20].hex()
        if ref.balances.get(addr, 0) >= SUBMIT_COST:
            senders.append((sk, pk, addr))
            budget[addr] = ref.balances[addr]
    accounts = sorted(ref.balances)
    confirmed = sorted(ref.tx_height)
    submitted = {addr: 0 for _, _, addr in senders}
    pending: list = []
    head = len(ref.blocks) - 1
    kinds, weights = zip(*MIX)
    requests = []
    for rid, kind in enumerate(rng.choices(kinds, weights, k=n)):
        params: dict = {}
        result = error = None
        if kind == "getBlockByHeight":
            h = rng.randint(0, head)
            params, result = {"height": h}, ref.block_result(h)
        elif kind == "getBlockByHash":
            h = rng.randint(0, head)
            params, result = {"hash": ref.hashes[h]}, ref.block_result(h)
        elif kind == "status_confirmed" and (confirmed or pending):
            if confirmed:
                tx = rng.choice(confirmed)
                result = {"status": "confirmed", "height": ref.tx_height[tx]}
            else:
                tx, result = rng.choice(pending), {"status": "pending"}
            params = {"hash": tx}
        elif kind in ("status_confirmed", "status_unknown"):
            params, result = {"hash": "%064x" % rng.getrandbits(256)}, {"status": "unknown"}
        elif kind == "getBalance":
            addr = rng.choice(accounts)
            params, result = {"address": addr}, ref.balances[addr]
        elif kind == "getHead":
            result = {"height": head, "hash": ref.hashes[head]}
        else:
            funded = [x for x in senders if budget[x[2]] >= SUBMIT_COST]
            if not funded:
                raise ValueError("no funded sender left for the write share of the mix")
            sk, pk, addr = rng.choice(funded)
            nonce = ref.nonces.get(addr, 0) + submitted[addr]
            recipient = bytes.fromhex(rng.choice(accounts))
            bad_nonce = kind == "submit_invalid" and rng.random() < 0.5
            if bad_nonce:
                nonce += 1 + rng.randrange(1000)
            body = tx_bytes(pk, recipient, SUBMIT_COST - 1, 1, nonce)
            sig = sk.sign(body)
            if kind == "submit_invalid" and not bad_nonce:
                sig = sig[:-1] + bytes([sig[-1] ^ 1])
            raw = body + sig
            params = {"tx": raw.hex()}
            if kind == "submit_valid":
                submitted[addr] += 1
                budget[addr] -= SUBMIT_COST
                result = _sha256(raw).hex()
                pending.append(result)
            else:
                error = BAD_NONCE if bad_nonce else BAD_SIGNATURE
        method = kind if kind.startswith("get") else (
            "getTransactionStatus" if kind.startswith("status") else "submitTransaction")
        payload = json.dumps({"jsonrpc": "2.0", "id": rid, "method": f"chain_{method}",
                              "params": params}, sort_keys=True).encode()
        requests.append(Request(method, payload, result, error))
    return requests


def check(req: Request, reply: bytes) -> str:
    """'ok', 'expected_error' or a description of the mismatch."""
    try:
        obj = json.loads(reply)
    except ValueError:
        return "unparsable reply"
    if req.error is not None:
        code = obj.get("error", {}).get("code") if isinstance(obj, dict) else None
        return "expected_error" if code == req.error else f"wanted error {req.error}, got {reply[:120]!r}"
    if not isinstance(obj, dict) or "error" in obj:
        return f"unexpected error {reply[:120]!r}"
    return "ok" if obj.get("result") == req.result else f"wrong result for {req.payload[:80]!r}"
