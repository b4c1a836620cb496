"""Acceptance suite: one test per top-level behavioral guarantee.

Each test prints a single PASS line with the measured numbers so the
suite doubles as a report. Scenario runs are module-scoped fixtures so
each bundled scenario executes once.
"""

import json
import random
import time

import pytest

from chainsim import consensus, ledger, rpc
from chainsim.blobstore import BlobStore, blob_link_payload
from chainsim.cli import bundled_scenario_path
from chainsim.crypto import hash_bytes
from chainsim.kademlia import Contact, RoutingTable, iterative_lookup, xor_distance
from chainsim.ledger import ChainError, make_genesis, verify_chain_lines
from chainsim.mempool import Mempool
from chainsim.metrics import compute_metrics, metrics_csv
from chainsim.netsim import SimConfig, Simulator
from chainsim.node import SimNode
from chainsim.scenario import load_scenario_file, run_scenario

from conftest import (
    addr, build_chain, count_attempts, parse_trace_lines, pool_transactions, signed_tx,
)
from test_mempool import oracle_select, rich_state


def run_bundled(name, blob_root=None):
    scenario = load_scenario_file(bundled_scenario_path(name))
    return scenario, run_scenario(scenario, blob_root=blob_root)


@pytest.fixture(scope="module")
def convergence_run():
    start = time.monotonic()
    scenario, result = run_bundled("convergence_20")
    return scenario, result, time.monotonic() - start


@pytest.fixture(scope="module")
def partition_run():
    return run_bundled("partition_heal")


@pytest.fixture(scope="module")
def sybil_run():
    return run_bundled("sybil_shares")


@pytest.fixture(scope="module")
def churn_run():
    return run_bundled("churn_restart")


# 1. Replica convergence ------------------------------------------------------

def test_criterion_01_replica_convergence(convergence_run):
    scenario, result, wall = convergence_run
    summary = result.summary()
    heads = set(summary["head_hashes"])
    assert scenario.num_nodes == 20
    assert len(summary["head_hashes"]) == 20
    assert len(heads) == 1, f"heads diverged: {heads}"
    height = summary["heights"][0]
    assert height >= 30, f"only {height} blocks"
    assert wall < 30.0, f"took {wall:.1f}s"
    print(f"\nPASS criterion 1: 20/20 identical heads, height {height}, "
          f"{wall:.1f}s wall clock")


# 2. Tamper evidence ----------------------------------------------------------

def test_criterion_02_tamper_evidence():
    plan = {h: [signed_tx(1, 2, 5, 1, h - 1)] for h in range(1, 11)}
    # difficulty 16 so a byte flip passing proof-of-work by luck is ~2^-16
    _, blocks = build_chain(10, allocations=[(addr(1), 1000)],
                            tx_plan=plan, difficulty=16)
    lines = ledger.chain_file_lines(blocks)
    verify_chain_lines(lines)  # baseline must be clean
    flips = 0
    for i, line in enumerate(lines):
        positions = sorted({1, len(line) // 4, len(line) // 2,
                            3 * len(line) // 4, len(line) - 2})
        assert len(positions) >= 3
        for pos in positions:
            mutated = list(lines)
            mutated[i] = line[:pos] + bytes([line[pos] ^ 0x01]) + line[pos + 1:]
            with pytest.raises(ChainError) as e:
                verify_chain_lines(mutated)
            assert e.value.height == i, (
                f"block {i} byte {pos}: failed at height {e.value.height}"
            )
            flips += 1
    print(f"\nPASS criterion 2: {flips} single-byte flips over 11 blocks, "
          f"every one detected at its exact height")


# 3. Longest-chain fork resolution -------------------------------------------

def test_criterion_03_partition_heal(partition_run):
    scenario, result = partition_run
    summary = result.summary()
    assert summary["blocks_mined"] == {"1": 4, "6": 6}, summary["blocks_mined"]
    assert summary["converged"], "heads still split after heal"
    # everyone sits on the majority (6-block) branch
    assert summary["canonical_blocks_by_miner"] == {"6": 6}
    assert set(summary["heights"]) == {6}
    # every workload tx displaced by the reorg reappears in mempools
    # (none can confirm: no blocks are mined after the heal)
    canonical_txs = {
        t.tx_hash for b in result.nodes[0].store.canonical_chain()
        for t in b.transactions
    }
    for _, _, tx in result.submitted:
        assert all(
            tx.tx_hash in node.mempool or tx.tx_hash in canonical_txs
            for node in result.nodes
            if node is not None and node.head().height == 6
        ) or any(
            tx.tx_hash in node.mempool for node in result.nodes if node is not None
        ), f"tx {tx.tx_hash.hex()} lost in the reorg"
    reinstated = sum(
        1 for _, _, tx in result.submitted
        if any(tx.tx_hash in n.mempool for n in result.nodes if n is not None)
    )
    assert reinstated == len(result.submitted)
    print(f"\nPASS criterion 3: 4-block branch displaced by 6-block branch, "
          f"{reinstated}/{len(result.submitted)} displaced txs reinstated")


# 4. Hash-power share ---------------------------------------------------------

def test_criterion_04_hash_power_share(sybil_run):
    scenario, result = sybil_run
    summary = result.summary()
    mined = {int(k): v for k, v in summary["blocks_mined"].items()}
    total = sum(mined.values())
    assert total >= 500, f"only {total} blocks mined"
    share0 = mined.get(0, 0) / total
    share1 = mined.get(1, 0) / total
    assert abs(share0 - 0.7) <= 0.05, f"node 0 mined {share0:.1%}"
    assert abs(share1 - 0.3) <= 0.05, f"node 1 mined {share1:.1%}"
    print(f"\nPASS criterion 4: {total} blocks, shares {share0:.1%}/{share1:.1%} "
          f"vs configured 70%/30%")


# 5. PoW work law -------------------------------------------------------------

def test_criterion_05_pow_work_law():
    results = {}
    for d, mines in ((8, 400), (12, 200)):
        total_attempts = 0
        for i in range(mines):
            template = consensus.BlockTemplate(
                height=1,
                prev_hash=hash_bytes(f"work-law-{d}-{i}".encode()),
                timestamp=i,
                difficulty_bits=d,
                miner=addr(1),
                tx_root=ledger.compute_tx_root(()),
            )
            total_attempts += count_attempts(template)
        mean = total_attempts / mines
        assert 2**d / 2 <= mean <= 2**d * 2, f"d={d}: mean {mean:.0f}"
        results[d] = mean
    print(f"\nPASS criterion 5: mean attempts d=8: {results[8]:.0f} "
          f"(target 256), d=12: {results[12]:.0f} (target 4096)")


# 6. Kademlia correctness -----------------------------------------------------

def test_criterion_06_kademlia_lookup_exactness():
    n = 256
    node_ids = [hash_bytes(b"overlay" + i.to_bytes(4, "big"))[:20] for i in range(n)]
    tables = {}
    for i, me in enumerate(node_ids):
        t = RoutingTable(me)
        for j, other in enumerate(node_ids):
            if j != i:
                t.observe_contact(Contact(other, j))
        tables[me] = t

    def query(contact, target):
        return tables[contact.node_id].find_closest(target, 8)

    rng = random.Random(2026)
    max_rounds = 0
    for trial in range(100):
        target = rng.getrandbits(160).to_bytes(20, "big")
        origin = node_ids[rng.randrange(n)]
        found, rounds = iterative_lookup(tables[origin], target, query)
        got = [c.node_id for c in found]
        oracle = sorted(
            (nid for nid in node_ids if nid != origin),
            key=lambda nid: xor_distance(nid, target),
        )[:8]
        assert got == oracle, f"trial {trial}: lookup missed the oracle set"
        assert rounds <= 11, f"trial {trial}: {rounds} rounds"
        max_rounds = max(max_rounds, rounds)
    print(f"\nPASS criterion 6: 100/100 lookups matched the oracle exactly, "
          f"max {max_rounds} rounds")


# 7. Mempool oracle equivalence ----------------------------------------------

def test_criterion_07_mempool_oracle_equivalence():
    rng = random.Random(777)
    senders = list(range(1, 15))
    state = rich_state(*senders, amount=10**9)
    for trial in range(1000):
        pool = Mempool()
        next_nonce = {s: 0 for s in senders}
        for _ in range(rng.randrange(0, 51)):
            s = rng.choice(senders)
            pool.insert(signed_tx(s, rng.choice(senders), rng.randrange(1, 200),
                                  rng.randrange(0, 30), next_nonce[s]), state)
            next_nonce[s] += 1
        max_n = rng.choice([1, 3, 10, 50, 100])
        got = pool.select_for_block(max_n)
        want = oracle_select(pool_transactions(pool), pool.arrival, max_n)
        assert [t.tx_hash for t in got] == [t.tx_hash for t in want], f"trial {trial}"
    print("\nPASS criterion 7: 1000/1000 random pools matched the "
          "brute-force selection oracle")


# 8. Determinism ----------------------------------------------------------

def test_criterion_08_byte_identical_determinism():
    for name in ("tamper_detect", "churn_restart"):
        runs = []
        for _ in range(2):
            _, result = run_bundled(name)
            chain_lines = {
                i: ledger.chain_file_lines(n.store.canonical_chain())
                for i, n in enumerate(result.nodes) if n is not None
            }
            runs.append({
                "trace": result.tracer.lines(),
                "metrics": metrics_csv(compute_metrics(parse_trace_lines(result.tracer.lines()))),
                "chains": chain_lines,
            })
        assert runs[0]["trace"] == runs[1]["trace"], f"{name}: traces differ"
        assert runs[0]["metrics"] == runs[1]["metrics"], f"{name}: metrics differ"
        assert runs[0]["chains"] == runs[1]["chains"], f"{name}: chain files differ"
    print("\nPASS criterion 8: tamper_detect and churn_restart re-runs are "
          "byte-identical (trace, metrics, chain files)")


# 9. Churn tolerance -----------------------------------------------------------

def test_criterion_09_churn_tolerance(churn_run):
    scenario, result = churn_run
    summary = result.summary()
    assert len(summary["head_hashes"]) == 10
    assert summary["converged"], "restarted nodes never re-converged"
    crash_t = min(t for t, _ in scenario.crashes)
    restart_t = max(t for t, _ in scenario.restarts)
    rows = parse_trace_lines(result.tracer.lines())
    mine_rows = [r for r in rows if r.get("type") == "mine"]
    before = max((r["height"] for r in mine_rows if r["time"] <= crash_t), default=0)
    during = max(
        (r["height"] for r in mine_rows if crash_t < r["time"] <= restart_t),
        default=0,
    )
    assert during > before, f"height stalled during outage ({before} -> {during})"
    print(f"\nPASS criterion 9: 3/10 nodes crashed and recovered, heads identical "
          f"at height {summary['heights'][0]}; height {before} -> {during} "
          f"during the outage")


# 10. End-to-end RPC + off-chain blob ---------------------------------------

def test_criterion_10_rpc_blob_end_to_end(tmp_path):
    import urllib.request

    genesis = make_genesis([(addr(1), 10_000)])
    sim = Simulator(SimConfig(difficulty_bits=8, sync_interval_ms=0), 1)
    node = SimNode(sim, 0, bytes([0xC1]) * 32, genesis)
    node.blob_store = BlobStore(tmp_path / "blobs")
    sim.attach(0, node)
    server = rpc.serve(node, port=0)
    try:
        host, port = server.server_address

        def call(method, params):
            req = urllib.request.Request(
                f"http://{host}:{port}",
                data=json.dumps({"jsonrpc": "2.0", "id": 1, "method": method,
                                 "params": params}).encode(),
            )
            with urllib.request.urlopen(req, timeout=5) as resp:
                return json.loads(resp.read())

        blob = b"the document the chain only points at" * 10
        ref = node.blob_store.put(blob)
        tx = signed_tx(1, 2, 10, 2, 0, payload=blob_link_payload(ref.digest))
        out = call("chain_submitTransaction", {"tx": tx.encode().hex()})
        assert out["result"] == tx.tx_hash.hex()

        dup = call("chain_submitTransaction", {"tx": tx.encode().hex()})
        assert dup["error"]["code"] == 1004

        node.mine_and_broadcast()
        status = call("chain_getTransactionStatus", {"hash": tx.tx_hash.hex()})
        assert status["result"] == {"status": "confirmed", "height": 1}

        confirmed = call("chain_getBlockByHeight", {"height": 1})["result"]
        payload = bytes.fromhex(confirmed["transactions"][0]["payload"])
        digest = payload[1:33]
        assert node.blob_store.get(digest) == blob
    finally:
        server.shutdown()
        server.server_close()
    print("\nPASS criterion 10: blob-linked tx confirmed at height 1 over HTTP "
          "JSON-RPC, blob fetched byte-exactly, duplicate rejected with 1004")
