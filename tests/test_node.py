import hashlib
import json
from collections import OrderedDict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from chainsim import consensus, ledger, netsim, node as node_mod
from chainsim.kademlia import Contact
from chainsim.ledger import AccountState, BlockStore, make_genesis
from chainsim.netsim import DECODE_CACHE_SIZE, Envelope, SimConfig, Simulator
from chainsim.node import SYNC_PAGE_SIZE, SimNode, decode_blocks, decode_message, encode_blocks

from conftest import addr, mine_child, oversized_tx_body, signed_tx


def seed_of(i: int) -> bytes:
    return bytes([0xA0 + i]) * 32

GENESIS = make_genesis([(addr(1), 10_000)])


def make_net(n, difficulty=4, **cfg):
    cfg.setdefault("latency_min_ms", 5)
    cfg.setdefault("latency_max_ms", 10)
    cfg.setdefault("sync_interval_ms", 0)
    config = SimConfig(difficulty_bits=difficulty, **cfg)

    def factory(sim, index, persisted):
        node = SimNode(sim, index, seed_of(index), GENESIS, persisted_lines=persisted)
        if index != 0:
            node.set_bootstrap(Contact(sim.nodes[0].node_id, 0))
        return node

    sim = Simulator(config, n, node_factory=factory)
    for i in range(n):
        sim.attach(i, SimNode(sim, i, seed_of(i), GENESIS))
    boot = Contact(sim.nodes[0].node_id, 0)
    for i in range(1, n):
        sim.nodes[i].set_bootstrap(boot)
        sim.nodes[i].join(boot)
    return sim


def split(sim, side_a, side_b):
    """Cut every link between the two sides from now until the schedule is cleared."""
    sim.config.partition_schedule = [(sim.now, 2**63, set(side_a), set(side_b))]


def heal(sim):
    sim.config.partition_schedule = []


def test_join_populates_routing_tables():
    sim = make_net(6)
    for node in sim.nodes:
        assert len(node.routing) >= 1
        node.routing.audit()


def test_transaction_gossip_reaches_everyone():
    sim = make_net(6)
    tx = signed_tx(1, 2, 10, 1, 0)
    assert sim.nodes[3].on_transaction(tx) == "relayed"
    sim.drain_deliveries()
    assert all(tx.tx_hash in n.mempool for n in sim.nodes)
    # dedup: replaying yields duplicate, no endless re-flood
    assert sim.nodes[0].on_transaction(tx) == "duplicate"


def test_a_relay_after_a_bucket_change_sends_in_the_new_order(monkeypatch):
    sim = make_net(8)
    node = sim.nodes[0]
    sent = []
    monkeypatch.setattr(sim, "send", lambda src, dst, kind, body: sent.append(dst))

    def bucket_order():
        return [c.endpoint for b in node.routing.buckets for c in b]

    assert node.on_transaction(signed_tx(1, 2, 10, 1, 0)) == "relayed"
    first = list(sent)
    assert first == bucket_order()
    bucket = next(b for b in node.routing.buckets if len(b) > 1)
    node.observe(bucket[0])  # the least recently seen moves to the fresh end
    sent.clear()
    assert node.on_transaction(signed_tx(1, 2, 10, 1, 1)) == "relayed"
    assert sent == bucket_order() and sent != first


def test_invalid_transaction_not_relayed():
    sim = make_net(3)
    bad = signed_tx(5, 2, 10, 1, 0)  # addr(5) has no funds
    assert sim.nodes[0].on_transaction(bad) == "rejected:insufficient_funds"
    sim.drain_deliveries()
    assert all(len(n.mempool) == 0 for n in sim.nodes)


def test_mined_block_propagates_and_applies():
    sim = make_net(5)
    tx = signed_tx(1, 2, 10, 3, 0)
    sim.nodes[0].on_transaction(tx)
    sim.drain_deliveries()
    block = sim.nodes[0].mine_and_broadcast()
    sim.drain_deliveries()
    assert block is not None and tx in block.transactions
    for n in sim.nodes:
        assert n.head().block_hash == block.block_hash
        assert n.canonical_state.balance(addr(2)) == 10
        assert tx.tx_hash not in n.mempool


def test_orphan_then_parent_connects():
    sim = make_net(2)
    a, b = sim.nodes
    blk1 = a.mine_and_broadcast()
    blk2 = a.mine_and_broadcast()
    # feed the child first: b orphans it, then connects on parent arrival
    assert b.on_block(blk2) == "orphaned"
    assert b.head().height == 0
    assert b.on_block(blk1) == "adopted"
    assert b.head().block_hash == blk2.block_hash


def test_orphan_pool_is_capped():
    sim = make_net(2)
    a, b = sim.nodes
    blocks = [a.mine_and_broadcast() for _ in range(70)]
    for blk in blocks[1:]:  # withhold the first so all 69 stay orphans
        b.on_block(blk)
    assert len(b.orphan_pool) <= 64


def test_orphan_pool_evicts_oldest_and_connects_children_in_arrival_order():
    sim = make_net(1)
    node = sim.nodes[0]
    # each filler orphan waits on its own withheld parent
    parents = [mine_child(GENESIS, timestamp=k + 1) for k in range(66)]
    fillers = [mine_child(p) for p in parents]
    withheld = mine_child(GENESIS, miner=addr(7))
    first, second = mine_child(withheld, miner=addr(12)), mine_child(withheld, miner=addr(11))
    sent = fillers[:5] + [first] + fillers[5:6] + [second] + fillers[6:21]
    sent += [fillers[1]] + fillers[21:]  # a re-sent orphan keeps its place
    for block in sent:
        assert node.on_block(block) == "orphaned"
    # 68 distinct orphans against a cap of 64: the four oldest are evicted
    assert node.on_block(withheld) == "adopted"
    assert node.head().block_hash == first.block_hash  # first seen wins the tie
    children = [h for h in node.store.blocks if h in (first.block_hash, second.block_hash)]
    assert children == [first.block_hash, second.block_hash]
    for parent in parents:
        node.on_block(parent)
    connected = [k for k, f in enumerate(fillers) if f.block_hash in node.store]
    assert connected == list(range(4, 66))


def test_reorg_reinstates_displaced_transactions():
    sim = make_net(2)
    a, b = sim.nodes
    split(sim, [0], [1])
    tx = signed_tx(1, 2, 10, 3, 0)
    a.on_transaction(tx)
    short = a.mine_and_broadcast()  # a's branch: height 1, carries tx
    b.mine_and_broadcast()
    b.mine_and_broadcast()          # b's branch: height 2, empty
    sim.drain_deliveries()
    heal(sim)
    assert a.head().height == 1 and b.head().height == 2
    a._request_blocks(1)
    sim.drain_deliveries()
    assert a.head().block_hash == b.head().block_hash
    assert tx.tx_hash in a.mempool  # displaced tx back in the pool
    assert a.canonical_state.balance(addr(2)) == 0


def test_sync_catches_up_over_many_pages():
    sim = make_net(2, sync_interval_ms=0)
    a, b = sim.nodes
    split(sim, [0], [1])
    for _ in range(75):  # > 2 sync pages of 32
        a.mine_and_broadcast()
    sim.drain_deliveries()
    heal(sim)
    b._request_blocks(0)
    sim.drain_deliveries()
    assert b.head().height == 75
    assert b.head().block_hash == a.head().block_hash


def test_crash_persists_and_restart_recovers():
    sim = make_net(3)
    a = sim.nodes[0]
    for _ in range(5):
        a.mine_and_broadcast()
    sim.drain_deliveries()
    assert sim.nodes[2].head().height == 5
    sim.crash_node(2)
    for _ in range(3):
        a.mine_and_broadcast()
    sim.drain_deliveries()
    sim.restart_node(2)
    sim.drain_deliveries()
    restarted = sim.nodes[2]
    assert restarted.head().height == 8
    assert restarted.head().block_hash == a.head().block_hash


def test_mempool_filtering_keeps_templates_valid_after_reorg():
    sim = make_net(2)
    a, b = sim.nodes
    split(sim, [0], [1])
    # a sees a tx and holds it; b mines a conflicting spend of the same nonce
    a.on_transaction(signed_tx(1, 2, 10, 3, 0))
    b.on_transaction(signed_tx(1, 3, 9_999, 1, 0))
    b.mine_and_broadcast()
    b.mine_and_broadcast()
    sim.drain_deliveries()
    heal(sim)
    a._request_blocks(1)
    sim.drain_deliveries()
    assert a.head().block_hash == b.head().block_hash
    template = a.build_template()
    # the stale tx (nonce consumed, balance nearly drained) must not appear
    assert all(t.nonce != 0 or t.sender != addr(1) for t in template.transactions)
    blk = a.mine_and_broadcast()
    assert blk is not None


def test_tip_extension_and_block_serving_walk_no_path(monkeypatch):
    sim = make_net(2)
    a, b = sim.nodes
    for _ in range(40):
        a.mine_and_broadcast()
    sim.drain_deliveries()
    assert b.head().block_hash == a.head().block_hash
    walks = []
    real = BlockStore.path_to_genesis
    monkeypatch.setattr(
        BlockStore, "path_to_genesis", lambda store, tip: walks.append(tip) or real(store, tip)
    )
    sent = []
    monkeypatch.setattr(sim, "send", lambda src, dst, kind, body: sent.append((kind, body)))

    block = consensus.mine(a.build_template())
    assert b.on_block(block) == "adopted"
    assert b.head().block_hash == block.block_hash
    # a peer that holds only genesis asks for blocks
    b.handle(Envelope(0, 0, 0, 1, "GET_BLOCKS", GENESIS.block_hash))
    assert walks == []
    pages = [decode_blocks(body) for kind, body in sent if kind == "BLOCKS"]
    assert [blk.height for blk in pages[0]] == list(range(1, SYNC_PAGE_SIZE + 1))
    assert [blk.block_hash for blk in pages[0]] == b.store.canonical[1 : SYNC_PAGE_SIZE + 1]


# -- malformed gossip bodies ---------------------------------------------------

def _block_json(**fields) -> bytes:
    obj = GENESIS.to_json()
    obj.update(fields)
    return json.dumps(obj).encode()


MALFORMED_BODIES = {
    "tx_junk": ("TX_ANNOUNCE", b"junk"),
    "tx_payload_too_large": ("TX_ANNOUNCE", oversized_tx_body()),
    "block_not_json": ("BLOCK_ANNOUNCE", b"{not json"),
    "blocks_int": ("BLOCKS", b"7"),
    "blocks_object": ("BLOCKS", b'{"a":1}'),
    "block_negative_height": ("BLOCK_ANNOUNCE", _block_json(height=-1)),
    "blocks_negative_height": ("BLOCKS", b"[" + _block_json(height=-1) + b"]"),
    "block_infinite_height": (
        "BLOCK_ANNOUNCE", _block_json().replace(b'"height": 0', b'"height": Infinity')
    ),
    "blocks_deep_nesting": ("BLOCKS", b"[" * 100_000),
    "locator_ragged": ("GET_BLOCKS", bytes(33)),
    "unknown_kind": ("FOUND_NODES", b""),
}


def deliver(sim, dst, kind, body):
    """Queue one message for ``dst`` and run it through Simulator.step."""
    env = Envelope(sim.now, sim.now, 0, dst, kind, body)
    sim.schedule(sim.now, sim._deliver, env)
    sim.step()
    return json.loads(sim.tracer.lines()[-1])


@pytest.mark.parametrize("kind,body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys())
def test_malformed_body_is_dropped_and_traced(kind, body):
    sim = make_net(2)
    node = sim.nodes[1]
    head, pool = node.head(), len(node.mempool)
    sent = sim.messages_sent
    row = deliver(sim, 1, kind, body)
    assert row["type"] == "deliver" and row["reject"] == "malformed"
    assert "block" not in row and "tx" not in row
    assert node.head() == head and len(node.mempool) == pool
    assert sim.messages_sent == sent


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(sorted(GENESIS.to_json())) | st.text(max_size=4), inner, max_size=8
    ),
    max_leaves=20,
)
VALID_BODIES = {
    "TX_ANNOUNCE": signed_tx(1, 2, 10, 1, 0).encode(),
    "BLOCK_ANNOUNCE": GENESIS.encode(),
    "GET_BLOCKS": GENESIS.block_hash,
    "BLOCKS": encode_blocks([GENESIS]),
}


@st.composite
def mutated_valid_body(draw, kind):
    data = bytearray(VALID_BODIES[kind])
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(sorted(VALID_BODIES)))
    body = draw(
        st.binary(max_size=300)
        | json_values.map(lambda v: json.dumps(v).encode())
        | mutated_valid_body(kind)
    )
    return kind, body


@settings(max_examples=300, deadline=None)
@given(messages())
def test_arbitrary_bodies_never_raise_from_handle(message):
    kind, body = message
    sim = make_net(2)
    row = deliver(sim, 1, kind, body)
    assert row["type"] == "deliver"


def test_connecting_a_block_copies_the_state_once(monkeypatch):
    sim = make_net(1)
    node = sim.nodes[0]
    block = mine_child(GENESIS, txs=[signed_tx(1, 2, 10, 1, n) for n in range(5)])
    copies = []
    real = AccountState.copy
    monkeypatch.setattr(AccountState, "copy", lambda state: copies.append(1) or real(state))
    assert node.on_block(block) == "adopted"
    assert len(copies) == 1  # validated and applied in one pass
    assert node.canonical_state.next_nonce(addr(1)) == 5


def test_reloading_a_persisted_chain_applies_each_block_once(monkeypatch):
    sim = make_net(1)
    node = sim.nodes[0]
    for n in range(4):
        assert node.on_transaction(signed_tx(1, 2, 10, 1, n)) == "relayed"
        node.mine_and_broadcast()
    lines = node.persist_chain_lines()
    applied = []
    real = ledger.apply_block
    monkeypatch.setattr(
        ledger, "apply_block", lambda state, block: applied.append(block.block_hash) or real(state, block)
    )
    restored = SimNode(sim, 0, seed_of(0), GENESIS, persisted_lines=lines)
    mined = node.store.canonical[1:]
    assert len(mined) == 4
    # genesis's state is built by the constructor as well; mined blocks once each
    assert [h for h in applied if h != GENESIS.block_hash] == mined
    assert restored.store.canonical == node.store.canonical
    for h in node.store.canonical:
        assert restored.snapshots[h] == node.snapshots[h]


# -- the run-wide decode map -----------------------------------------------------

def count_decodes(monkeypatch):
    """Record every delivered (kind, body) and every strict decode that ran."""
    delivered, decodes = [], []
    real_message, real_decode = node_mod.decode_message, node_mod._decode
    monkeypatch.setattr(node_mod, "decode_message", lambda kind, body, decoded: (
        delivered.append((kind, body)) or real_message(kind, body, decoded)))
    monkeypatch.setattr(node_mod, "_decode", lambda kind, body: (
        decodes.append((kind, body)) or real_decode(kind, body)))
    return delivered, decodes


def test_each_distinct_body_is_decoded_once_per_run(monkeypatch):
    sim = make_net(5)
    delivered, decodes = count_decodes(monkeypatch)
    for n in range(3):
        sim.nodes[n].on_transaction(signed_tx(1, 2, 10, 1, n))
    sim.drain_deliveries()
    sim.crash_node(4)
    for _ in range(3):
        sim.nodes[0].mine_and_broadcast()
        sim.drain_deliveries()
    sim.restart_node(4)  # re-syncs with GET_BLOCKS and a BLOCKS page
    sim.drain_deliveries()
    assert sim.nodes[4].head() == sim.nodes[0].head()
    assert {kind for kind, _ in delivered} == set(VALID_BODIES)
    assert len(delivered) > 2 * len(set(delivered))
    assert sorted(decodes) == sorted(set(delivered))
    assert len(sim.decoded) == len(decodes)


def test_malformed_body_is_decoded_and_rejected_every_time(monkeypatch):
    sim = make_net(2)
    _, decodes = count_decodes(monkeypatch)
    for _ in range(2):
        assert deliver(sim, 1, "TX_ANNOUNCE", b"junk")["reject"] == "malformed"
    assert decodes == [("TX_ANNOUNCE", b"junk")] * 2
    assert not sim.decoded


def test_recipients_of_one_body_share_one_decoded_object():
    sim = make_net(3)
    tx = signed_tx(1, 2, 10, 1, 0)
    sim.nodes[0].on_transaction(tx)
    sim.drain_deliveries()
    a, b = (sim.nodes[i].mempool.entries[tx.tx_hash] for i in (1, 2))
    assert a is b and a is not tx
    sim.nodes[0].mine_and_broadcast()
    sim.drain_deliveries()
    assert sim.nodes[1].head() is sim.nodes[2].head()
    assert sim.nodes[1].head() is not sim.nodes[0].head()


def test_decode_map_evicts_the_oldest_beyond_its_bound():
    decoded = OrderedDict()
    keys = [("GET_BLOCKS", i.to_bytes(32, "big")) for i in range(DECODE_CACHE_SIZE + 1)]
    first = decode_message(*keys[0], decoded)
    for key in keys[1:DECODE_CACHE_SIZE]:
        decode_message(*key, decoded)
    assert decode_message(*keys[0], decoded) is first  # a hit does not reorder
    decode_message(*keys[-1], decoded)
    assert list(decoded) == keys[1:]
    assert decode_message(*keys[0], decoded) is not first
    assert list(decoded) == keys[2:] + keys[:1]


# -- per-body work in the deliver path ---------------------------------------------

def count_body_hashes(monkeypatch):
    """Every SHA-256 the simulator computes for a deliver row's body_hash."""
    hashed = []
    real = hashlib.sha256
    monkeypatch.setattr(
        netsim, "hashlib", SimpleNamespace(sha256=lambda data: hashed.append(data) or real(data))
    )
    return hashed


def test_each_distinct_body_is_hashed_once_per_run(monkeypatch):
    sim = make_net(5)
    delivered, _ = count_decodes(monkeypatch)
    hashed = count_body_hashes(monkeypatch)
    for n in range(3):
        sim.nodes[n].on_transaction(signed_tx(1, 2, 10, 1, n))
    sim.drain_deliveries()
    for _ in range(2):
        sim.nodes[0].mine_and_broadcast()
        sim.drain_deliveries()
    rows = [json.loads(line) for line in sim.tracer.lines()]
    deliver_rows = [r for r in rows if r["type"] == "deliver"]
    assert len(deliver_rows) == len(delivered) > 2 * len(set(delivered))
    bodies = {body for _, body in delivered}
    assert sorted(hashed) == sorted(bodies)
    digests = {body: hashlib.sha256(body).hexdigest() for body in bodies}
    assert [r["body_hash"] for r in deliver_rows] == [digests[body] for _, body in delivered]


def test_every_deliver_row_for_one_item_shares_one_label(monkeypatch):
    sim = make_net(5)
    logged = []  # each row as it reaches the tracer, before it is encoded
    log = sim.tracer.log
    monkeypatch.setattr(sim.tracer, "log", lambda row: logged.append(row) or log(row))
    tx = signed_tx(1, 2, 10, 1, 0)
    sim.nodes[0].on_transaction(tx)
    sim.drain_deliveries()
    block = sim.nodes[1].mine_and_broadcast()
    sim.drain_deliveries()
    for key, label in (("tx", tx.tx_hash.hex()), ("block", block.block_hash.hex())):
        labels = [r[key] for r in logged if r["type"] == "deliver" and key in r]
        assert len(labels) > 1 and labels[0] == label
        assert all(other is labels[0] for other in labels)


def test_malformed_body_row_carries_its_sha256(monkeypatch):
    sim = make_net(2)
    hashed = count_body_hashes(monkeypatch)
    rows = [deliver(sim, 1, "BLOCK_ANNOUNCE", b"{not json") for _ in range(2)]
    digest = hashlib.sha256(b"{not json").hexdigest()
    assert [(r["reject"], r["body_hash"]) for r in rows] == [("malformed", digest)] * 2
    assert hashed == [b"{not json"]
