"""Scenario configs and the deterministic scenario runner.

A scenario JSON names the network (node count, miners and their hash
rate shares, latency/drop/partition model), the genesis allocations, a
timed transaction workload, and optional crash/restart schedules. The
runner wires up the simulator and executes it. The trace streams to the
sink it is given as the run goes, folded into the run's metrics on the way;
the nodes, their chains and the summary come back in a ``RunResult``, and
the CLI owns file output.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import ledger
from .blobstore import MAX_BLOB_BYTES, BlobStore, blob_link_payload
from .crypto import address_from_public_key, generate_keypair
from .kademlia import Contact
from .ledger import make_genesis, make_transaction
from .netsim import SimConfig, Simulator, Tracer
from .node import SimNode

QUIESCE_SYNC_ROUNDS = 3  # anti-entropy rounds after the run before heads must agree
# Each node costs about 20 KiB before the run starts, so a count in the
# millions would exhaust memory before anything ran. 4,096 is 50 times the
# top rung (80 nodes) of ROADMAP's node-count scaling ladder.
MAX_NODES = 4096
SIM_INT_FIELDS = (
    "latency_min_ms", "latency_max_ms", "block_interval_target_ms", "difficulty_bits",
    "sync_interval_ms",
)
# the keys each JSON object of a scenario may hold; any other key is refused
SCENARIO_KEYS = {"name", "num_nodes", "seed", "sim", "miners", "duration_ms",
                 "genesis_allocations", "workload", "crashes", "restarts"}
SIM_KEYS = {*SIM_INT_FIELDS, "drop_probability", "partition_schedule"}
GENESIS_KEYS = {"address", "seed", "amount"}
WORKLOAD_KEYS = {"time_ms", "node", "sender_seed", "recipient_address", "recipient_seed",
                 "amount", "fee", "blob"}
SCHEDULE_KEYS = {"time_ms", "node"}


class ScenarioError(Exception):
    """Configuration problem; maps to CLI exit code 2."""


@dataclass
class WorkloadItem:
    time_ms: int
    node: int
    sender_seed: bytes
    recipient: bytes
    amount: int
    fee: int
    blob: Optional[bytes] = None


@dataclass
class Scenario:
    name: str
    num_nodes: int
    sim: SimConfig
    duration_ms: int
    genesis_allocations: list = field(default_factory=list)  # (address, amount)
    workload: list = field(default_factory=list)
    crashes: list = field(default_factory=list)  # (time_ms, node)
    restarts: list = field(default_factory=list)

    def validate(self) -> None:
        try:
            self.sim.validate()
        except ValueError as e:
            raise ScenarioError(str(e))
        if not 1 <= self.num_nodes <= MAX_NODES:
            raise ScenarioError(f"num_nodes must be in 1..{MAX_NODES}")
        # the integers the run packs: node_key_seed's signed seed, and each
        # genesis amount and workload amount and fee as a u64
        if not -(1 << 63) <= self.sim.rng_seed < 1 << 63:
            raise ScenarioError("seed must be a signed 64-bit integer")
        amounts = [n for _, n in self.genesis_allocations]
        amounts += [n for item in self.workload for n in (item.amount, item.fee)]
        if not all(0 <= n <= ledger.U64_MAX for n in amounts):
            raise ScenarioError("amounts and fees must be in 0..2**64-1")
        for item in self.workload:
            if item.blob is not None and not 0 < len(item.blob) <= MAX_BLOB_BYTES:
                raise ScenarioError(f"a workload blob must hold 1..{MAX_BLOB_BYTES} bytes")

        def check_node(idx, what):
            if not 0 <= idx < self.num_nodes:
                raise ScenarioError(f"{what} references node {idx} of {self.num_nodes}")

        for idx in self.sim.hash_rate_shares:
            check_node(idx, "hash_rate_shares")
        for item in self.workload:
            check_node(item.node, "workload")
        for t, idx in self.crashes:
            check_node(idx, "crashes")
        for t, idx in self.restarts:
            check_node(idx, "restarts")
        for start, end, side_a, side_b in self.sim.partition_schedule:
            for idx in list(side_a) + list(side_b):
                check_node(idx, "partition_schedule")


def _known(obj, keys: set, what: str) -> dict:
    """``obj``, which must be a JSON object with no key outside ``keys``."""
    if type(obj) is not dict:
        raise ScenarioError(f"{what} must be a JSON object")
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise ScenarioError(f"unknown {what} key(s): {', '.join(unknown)}")
    return obj


def _entries(obj: dict, key: str, keys: set) -> list:
    """The JSON objects listed under ``obj[key]`` (none if it is absent)."""
    return [_known(e, keys, f"{key} entry") for e in obj.get(key, [])]


def _seed_bytes(value: str) -> bytes:
    raw = ledger._hex(value)
    if len(raw) == 32:
        return raw
    return hashlib.sha256(raw).digest()


def _resolve_address(entry: dict, key_prefix: str) -> bytes:
    if f"{key_prefix}address" in entry:
        return ledger._hex(entry[f"{key_prefix}address"], 20)
    if f"{key_prefix}seed" in entry:
        kp = generate_keypair(_seed_bytes(entry[f"{key_prefix}seed"]))
        return address_from_public_key(kp.public_key)
    raise ScenarioError(f"entry needs {key_prefix}address or {key_prefix}seed")


def _node_index(key: str) -> int:
    """A ``miners`` key: a node index in canonical decimal, one spelling per node."""
    index = int(key)
    if str(index) != key:
        raise ScenarioError(f"miner key {key!r} is not a node index in canonical decimal")
    return index


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ScenarioError(f"{what} must be a JSON integer, not {value!r}")
    return value


def _json_number(value, what: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ScenarioError(f"{what} must be a finite JSON number, not {value!r}")
    return float(value)


def _schedule(obj: dict, key: str) -> list:
    """(time_ms, node) per crash or restart entry."""
    return [
        (_json_int(e["time_ms"], f"{key} time_ms"), _json_int(e["node"], f"{key} node"))
        for e in _entries(obj, key, SCHEDULE_KEYS)
    ]


def load_scenario(obj: dict) -> Scenario:
    _known(obj, SCENARIO_KEYS, "scenario")
    try:
        sim_cfg = _known(obj.get("sim", {}), SIM_KEYS, "sim")
        miners = obj.get("miners", {})
        shares = {_node_index(k): _json_number(v, f"miner {k} share") for k, v in miners.items()}
        fields = {k: _json_int(sim_cfg[k], f"sim.{k}") for k in SIM_INT_FIELDS if k in sim_cfg}
        if "drop_probability" in sim_cfg:
            fields["drop_probability"] = _json_number(
                sim_cfg["drop_probability"], "sim.drop_probability"
            )
        sim = SimConfig(
            rng_seed=_json_int(obj.get("seed", 0), "seed"),
            hash_rate_shares=shares,
            **fields,
        )
        sim.partition_schedule = [
            (_json_int(start, "partition start"), _json_int(end, "partition end"),
             {_json_int(i, "partition node") for i in side_a},
             {_json_int(i, "partition node") for i in side_b})
            for start, end, side_a, side_b in sim_cfg.get("partition_schedule", [])
        ]
        allocations = [
            (_resolve_address(e, ""), _json_int(e["amount"], "genesis amount"))
            for e in _entries(obj, "genesis_allocations", GENESIS_KEYS)
        ]
        workload = [
            WorkloadItem(
                time_ms=_json_int(w["time_ms"], "workload time_ms"),
                node=_json_int(w["node"], "workload node"),
                sender_seed=_seed_bytes(w["sender_seed"]),
                recipient=_resolve_address(w, "recipient_"),
                amount=_json_int(w["amount"], "workload amount"),
                fee=_json_int(w["fee"], "workload fee"),
                blob=ledger._hex(w["blob"]) if "blob" in w else None,
            )
            for w in _entries(obj, "workload", WORKLOAD_KEYS)
        ]
        if type(obj["name"]) is not str:
            raise ScenarioError(f"name must be a JSON string, not {obj['name']!r}")
        scenario = Scenario(
            name=obj["name"],
            num_nodes=_json_int(obj["num_nodes"], "num_nodes"),
            sim=sim,
            duration_ms=_json_int(obj["duration_ms"], "duration_ms"),
            genesis_allocations=allocations,
            workload=workload,
            crashes=_schedule(obj, "crashes"),
            restarts=_schedule(obj, "restarts"),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as e:  # e.g. a list of miners
        raise ScenarioError(f"malformed scenario: {e!r}")
    scenario.validate()
    return scenario


def load_scenario_file(path) -> Scenario:
    try:
        with open(path, "r") as f:
            obj = json.load(f)
    except (OSError, ValueError) as e:
        raise ScenarioError(f"cannot read scenario {path}: {e}")
    return load_scenario(obj)


def node_key_seed(rng_seed: int, index: int) -> bytes:
    return hashlib.sha256(b"node-key" + struct.pack(">qq", rng_seed, index)).digest()


@dataclass
class RunResult:
    scenario: Scenario
    sim: Simulator
    tracer: Tracer
    nodes: list
    submitted: list  # (time_ms, node, Transaction)

    def head_hashes(self) -> list:
        return [n.head().block_hash.hex() for n in self.nodes if n is not None]

    def converged(self) -> bool:
        heads = self.head_hashes()
        return len(set(heads)) == 1

    def summary(self) -> dict:
        live = [n for n in self.nodes if n is not None]
        heights = [n.head().height for n in live]
        mined = self.tracer.fold.mined
        canonical_miners = {}
        index_of: dict = {}  # address -> lowest index of a live node with it
        for i, n in enumerate(self.nodes):
            if n is not None:
                index_of.setdefault(n.address, i)
        if live:
            for block in live[0].store.canonical_chain()[1:]:
                idx = index_of.get(block.miner)
                key = str(idx) if idx is not None else block.miner.hex()
                canonical_miners[key] = canonical_miners.get(key, 0) + 1
        return {
            "scenario": self.scenario.name,
            "converged": self.converged(),
            "head_hashes": self.head_hashes(),
            "heights": heights,
            "blocks_mined": {str(k): v for k, v in sorted(mined.items())},
            "canonical_blocks_by_miner": dict(sorted(canonical_miners.items())),
            "messages_sent": self.sim.messages_sent,
            "messages_delivered": self.sim.messages_delivered,
        }


def run_scenario(
    scenario: Scenario, sink=None, blob_root: Optional[Path] = None
) -> RunResult:
    """Execute a scenario end to end, deterministically, writing each trace
    line to ``sink`` (a binary file) as it is logged and folding it into
    ``result.tracer.fold``; with no sink the trace goes to the tracer's
    in-memory buffer."""
    tracer = Tracer(sink)
    genesis = make_genesis(scenario.genesis_allocations)
    # overlay bootstrap: every other node joins, and rejoins, through node 0
    bootstrap_kp = generate_keypair(node_key_seed(scenario.sim.rng_seed, 0))
    bootstrap = Contact(address_from_public_key(bootstrap_kp.public_key), 0)

    sim = Simulator(scenario.sim, scenario.num_nodes, tracer)
    for i in range(scenario.num_nodes):
        node = SimNode(sim, i, node_key_seed(scenario.sim.rng_seed, i), genesis)
        if i != 0:
            node.set_bootstrap(bootstrap)
        if blob_root is not None:
            node.blob_store = BlobStore(blob_root / f"node_{i}")
        sim.attach(i, node)

    for node in sim.nodes[1:]:  # in index order
        node.join(bootstrap)

    # workload: nonces run per sender in listed order; blobs go off-chain
    submitted = []
    nonces: dict = {}
    for item in sorted(scenario.workload, key=lambda w: w.time_ms):
        kp = generate_keypair(item.sender_seed)
        sender = address_from_public_key(kp.public_key)
        nonce = nonces.get(sender, 0)
        nonces[sender] = nonce + 1
        payload = b""
        if item.blob is not None:
            digest = hashlib.sha256(item.blob).digest()
            payload = blob_link_payload(digest)
        tx = make_transaction(
            kp.private_key, kp.public_key, item.recipient,
            item.amount, item.fee, nonce, payload,
        )
        submitted.append((item.time_ms, item.node, tx))

        def submit(node_idx=item.node, tx=tx, blob=item.blob):
            node = sim.nodes[node_idx]
            if node is None:
                return
            if blob is not None and node.blob_store is not None:
                node.blob_store.put(blob)
            status = node.on_transaction(tx, origin=None)
            tracer.log({
                "time": sim.now,
                "type": "tx_submit",
                "node": node_idx,
                "tx": tx.hash_hex,
                "status": status,
            })

        sim.schedule(item.time_ms, submit)

    for t, idx in scenario.crashes:
        sim.schedule(t, sim.crash_node, idx)
    for t, idx in scenario.restarts:
        sim.schedule(t, sim.restart_node, idx)

    if scenario.sim.hash_rate_shares and sum(scenario.sim.hash_rate_shares.values()) > 0:
        sim.enable_mining()
    sim.enable_periodic_sync()

    sim.run_until(scenario.duration_ms)
    _quiesce(sim)
    return RunResult(scenario, sim, tracer, sim.nodes, submitted)


def _quiesce(sim: Simulator) -> None:
    """Let in-flight traffic settle with the mining and sync timers
    discarded, then run anti-entropy rounds until heads agree. An
    equal-height tie between competing tips can only be broken by another
    block, so one miner seals tie-breaker blocks (still real proof-of-work)
    until one branch wins."""
    sim.drain_deliveries()
    miners = [i for i, s in sorted(sim.config.hash_rate_shares.items()) if s > 0]
    for attempt in range(QUIESCE_SYNC_ROUNDS + 16):
        for node in sim.nodes:
            if node is not None:
                node.periodic_sync()
        sim.drain_deliveries()
        heads = {n.head().block_hash: n.head().height for n in sim.nodes if n is not None}
        if len(heads) <= 1 and attempt >= QUIESCE_SYNC_ROUNDS - 1:
            break
        max_height = max(heads.values(), default=0)
        tied = [h for h, ht in heads.items() if ht == max_height]
        if len(heads) > 1 and len(tied) > 1 and attempt >= QUIESCE_SYNC_ROUNDS - 1:
            # an equal-height standoff: only a fresh block can break it
            breaker = next((i for i in miners if sim.nodes[i] is not None), None)
            if breaker is None:
                break
            sim.now += 1
            sim.fire_mining_once(breaker)
            sim.drain_deliveries()
