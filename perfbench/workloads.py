"""Seeded workload generators.

Every workload is a pure function of ``(name, seed)``: the same seed gives
the same bytes. The program under test sees only what is generated here,
through its public input formats: a scenario JSON file for the three
simulations, a chain file for ``rpc_reads``. Each generated input also
names the key seeds the RPC phase may submit transactions from, so the
request mix can sign valid writes.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WHY = {
    "chain_growth": (
        "long 5-node chain with no txs: loads path walks, fork choice, PoW "
        "and locator sync, where a chain index shows and a verify cache does not"
    ),
    "tx_gossip": (
        "20 nodes, lossy links and a dense signed-tx stream on a short chain: "
        "loads Ed25519 verify, mempool and gossip; the mirror of chain_growth"
    ),
    "partition_churn": (
        "16 nodes in repeated 8/8 partitions with crashes: deep reorgs, mempool "
        "prune and reinstate, block paging and persisted-chain replay"
    ),
    "rpc_reads": (
        "a 1,000-block chain of signed txs served over in-process JSON-RPC with "
        "writes beside reads: the only load on rpc.py and verify_chain_lines"
    ),
}

WORKLOADS = tuple(WHY)
# The simulator's own random streams (latency, loss, mining delays, node
# keys). Fixed, so the mining schedule, and with it the chain's length and
# txs per block, holds across seeds: chain_growth's cost grows with the
# square of its length. The seed varies everything else: link latency, the
# transaction stream, sender placement and the crash schedule.
NETWORK_SEED = 42
SIMULATIONS = ("chain_growth", "tx_gossip", "partition_churn")


def _rng(name: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"perfbench/{name}/{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _key_seed(rng: random.Random) -> str:
    return "%064x" % rng.getrandbits(256)


def _sim(latency_max_ms: int, drop: float, interval_ms: int, sync_ms: int, **extra) -> dict:
    return dict(
        latency_min_ms=5,
        latency_max_ms=latency_max_ms,
        drop_probability=drop,
        block_interval_target_ms=interval_ms,
        difficulty_bits=8,
        sync_interval_ms=sync_ms,
        **extra,
    )


def chain_growth(seed: int) -> dict:
    """sybil_shares shape, twice as long: about 1,100+ canonical blocks;
    the seed sets the link latency, and with it forks and reorgs."""
    rng = _rng("chain_growth", seed)
    return {
        "name": "chain_growth",
        "num_nodes": 5,
        "seed": NETWORK_SEED,
        "sim": _sim(rng.randint(15, 30), 0.0, 500, 5000),
        "miners": {"0": 0.7, "1": 0.3},
        "duration_ms": 600_000,
        "genesis_allocations": [],
        "workload": [],
    }


def tx_gossip(seed: int) -> dict:
    """convergence_20 shape with 400 txs, one every 100 ms, from 20 senders
    each placed at a random node."""
    rng = _rng("tx_gossip", seed)
    num_nodes = 20
    senders = [_key_seed(rng) for _ in range(20)]
    home = [rng.randrange(num_nodes) for _ in senders]
    workload = []
    for j in range(400):
        s = rng.randrange(len(senders))
        workload.append({
            "time_ms": 500 + 100 * j,
            "node": home[s],
            "sender_seed": senders[s],
            "recipient_seed": senders[(s + 1 + rng.randrange(len(senders) - 1)) % len(senders)],
            "amount": rng.randint(1, 20),
            "fee": rng.randint(1, 10),
        })
    return {
        "name": "tx_gossip",
        "num_nodes": num_nodes,
        "seed": NETWORK_SEED,
        "sim": _sim(50, 0.01, 1000, 2000),
        "miners": {"0": 1.0, "1": 1.0, "2": 1.0},
        "duration_ms": 45_000,
        "genesis_allocations": [{"seed": s, "amount": 100_000} for s in senders],
        "workload": workload,
    }


PARTITION_CYCLES = 3
CYCLE_MS = 40_000
WINDOW_MS = 25_000
PARTITION_SENDERS = 48


def partition_churn(seed: int) -> dict:
    """16 nodes split 8/8 with one miner per side (45/55); a 25 s partition
    every 40 s, and per cycle one non-miner on each side crashes for 10 s.
    Each sender is pinned to one node, three per node, and submits in a
    fixed round every 250 ms. The seed picks which nodes crash, where each
    sender lives, the submit order and the amounts; times and counts are
    fixed, so how many senders a crash or a heal strands, and with it the
    run's length, holds across seeds."""
    rng = _rng("partition_churn", seed)
    num_nodes = 16
    side_a, side_b = list(range(8)), list(range(8, 16))
    miners = {0: 0.45, 8: 0.55}
    windows, crashes, restarts = [], [], []
    for c in range(PARTITION_CYCLES):
        start = 5_000 + c * CYCLE_MS
        windows.append([start, start + WINDOW_MS, side_a, side_b])
        for k, side in enumerate((side_a, side_b)):
            down = start + 4_000 + 8_000 * k
            node = rng.choice([n for n in side if n not in miners])
            crashes.append({"time_ms": down, "node": node})
            restarts.append({"time_ms": down + 10_000, "node": node})
    senders = [_key_seed(rng) for _ in range(PARTITION_SENDERS)]
    # three senders per node, so every heal and every crash strands some
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    home = [nodes[i % num_nodes] for i in range(len(senders))]
    order = list(range(len(senders)))
    rng.shuffle(order)
    duration = 5_000 + PARTITION_CYCLES * CYCLE_MS
    workload = []
    for j, t in enumerate(range(1_000, duration - 2_000, 250)):
        s = order[j % len(order)]
        workload.append({
            "time_ms": t,
            "node": home[s],
            "sender_seed": senders[s],
            "recipient_seed": senders[(s + 1) % len(senders)],
            "amount": rng.randint(1, 20),
            "fee": rng.randint(1, 10),
        })
    return {
        "name": "partition_churn",
        "num_nodes": num_nodes,
        "seed": NETWORK_SEED,
        "sim": _sim(40, 0.0, 1000, 2000, partition_schedule=windows),
        "miners": {str(k): v for k, v in miners.items()},
        "duration_ms": duration,
        "genesis_allocations": [{"seed": s, "amount": 1_000_000} for s in senders],
        "workload": workload,
        "crashes": crashes,
        "restarts": restarts,
    }


RPC_BLOCKS = 1_000
RPC_TXS_PER_BLOCK = 10
RPC_SENDERS = 40


def rpc_chain(seed: int) -> tuple:
    """Chain-file lines of about 1,000 blocks x 10 signed txs, built with
    the program's own make_transaction, BlockTemplate and mine; returns
    (lines, sender key seeds)."""
    from chainsim import consensus, ledger
    from chainsim.crypto import address_from_public_key, generate_keypair

    rng = _rng("rpc_reads", seed)
    seeds = [_key_seed(rng) for _ in range(RPC_SENDERS)]
    keys = [generate_keypair(bytes.fromhex(s)) for s in seeds]
    addrs = [address_from_public_key(k.public_key) for k in keys]
    miners = [bytes(rng.getrandbits(8) for _ in range(20)) for _ in range(4)]
    genesis = ledger.make_genesis([(a, 10_000_000) for a in addrs], timestamp=0)
    nonces = [0] * len(keys)
    blocks = [genesis]
    for height in range(1, RPC_BLOCKS + 1):
        txs = []
        for j in rng.sample(range(len(keys)), RPC_TXS_PER_BLOCK):
            kp = keys[j]
            txs.append(ledger.make_transaction(
                kp.private_key, kp.public_key, addrs[rng.randrange(len(addrs))],
                rng.randint(1, 1000), rng.randint(1, 50), nonces[j],
            ))
            nonces[j] += 1
        parent = blocks[-1]
        template = consensus.BlockTemplate(
            height=height,
            prev_hash=parent.block_hash,
            timestamp=parent.timestamp + rng.randint(1, 2000),
            difficulty_bits=8,
            miner=miners[rng.randrange(len(miners))],
            tx_root=ledger.compute_tx_root(txs),
            transactions=tuple(txs),
        )
        blocks.append(consensus.mine(template, start_nonce=rng.getrandbits(32)))
    return ledger.chain_file_lines(blocks), seeds


def scenario_key_seeds(scenario: dict) -> list:
    """Key seeds whose accounts a simulation can fund: its tx senders and
    every node key (miners earn rewards)."""
    from chainsim.scenario import node_key_seed

    seeds = sorted({w["sender_seed"] for w in scenario.get("workload", [])})
    seeds += [node_key_seed(scenario["seed"], i).hex() for i in range(scenario["num_nodes"])]
    return seeds


def generate(name: str, seed: int, workdir: Path) -> dict:
    """Write workload ``name`` for ``seed`` under ``workdir``; returns the
    input spec a worker reads."""
    if name in SIMULATIONS:
        scenario = {"chain_growth": chain_growth, "tx_gossip": tx_gossip,
                    "partition_churn": partition_churn}[name](seed)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(scenario, indent=1, sort_keys=True) + "\n")
        return {"workload": name, "seed": seed, "scenario": str(path),
                "key_seeds": scenario_key_seeds(scenario)}
    if name == "rpc_reads":
        lines, seeds = rpc_chain(seed)
        path = workdir / "rpc_reads_chain.jsonl"
        path.write_bytes(b"".join(ln + b"\n" for ln in lines))
        return {"workload": name, "seed": seed, "chain": str(path), "key_seeds": seeds}
    raise ValueError(f"unknown workload {name!r}")
