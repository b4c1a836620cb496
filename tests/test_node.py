import json

import pytest
from hypothesis import given, settings, strategies as st

from chainsim import consensus
from chainsim.kademlia import Contact
from chainsim.ledger import BlockStore, make_genesis
from chainsim.netsim import Envelope, SimConfig, Simulator
from chainsim.node import SYNC_PAGE_SIZE, SimNode, decode_blocks, encode_blocks

from conftest import addr, signed_tx


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


def test_join_populates_routing_tables():
    sim = make_net(6)
    for node in sim.nodes:
        assert len(node.routing) >= 1
        node.routing.audit()


def test_transaction_gossip_reaches_everyone():
    sim = make_net(6)
    tx = signed_tx(1, 2, 10, 1, 0)
    assert sim.nodes[3].on_transaction(tx) == "relayed"
    sim.run()
    assert all(tx.tx_hash in n.mempool for n in sim.nodes)
    # dedup: replaying yields duplicate, no endless re-flood
    assert sim.nodes[0].on_transaction(tx) == "duplicate"


def test_invalid_transaction_not_relayed():
    sim = make_net(3)
    bad = signed_tx(5, 2, 10, 1, 0)  # addr(5) has no funds
    assert sim.nodes[0].on_transaction(bad) == "rejected:insufficient_funds"
    sim.run()
    assert all(len(n.mempool) == 0 for n in sim.nodes)


def test_mined_block_propagates_and_applies():
    sim = make_net(5)
    tx = signed_tx(1, 2, 10, 3, 0)
    sim.nodes[0].on_transaction(tx)
    sim.run()
    block = sim.nodes[0].mine_and_broadcast()
    sim.run()
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
    assert len(b._orphan_order) <= 64


def test_reorg_reinstates_displaced_transactions():
    sim = make_net(2)
    a, b = sim.nodes
    sim.partition([0], [1])
    tx = signed_tx(1, 2, 10, 3, 0)
    a.on_transaction(tx)
    short = a.mine_and_broadcast()  # a's branch: height 1, carries tx
    b.mine_and_broadcast()
    b.mine_and_broadcast()          # b's branch: height 2, empty
    sim.run()
    sim.heal()
    assert a.head().height == 1 and b.head().height == 2
    a.sync(1)
    sim.run()
    assert a.head().block_hash == b.head().block_hash
    assert tx.tx_hash in a.mempool  # displaced tx back in the pool
    assert a.canonical_state.balance(addr(2)) == 0


def test_sync_catches_up_over_many_pages():
    sim = make_net(2, sync_interval_ms=0)
    a, b = sim.nodes
    sim.partition([0], [1])
    for _ in range(75):  # > 2 sync pages of 32
        a.mine_and_broadcast()
    sim.run()
    sim.heal()
    b.sync(0)
    sim.run()
    assert b.head().height == 75
    assert b.head().block_hash == a.head().block_hash


def test_crash_persists_and_restart_recovers():
    sim = make_net(3)
    a = sim.nodes[0]
    for _ in range(5):
        a.mine_and_broadcast()
    sim.run()
    assert sim.nodes[2].head().height == 5
    sim.crash_node(2)
    for _ in range(3):
        a.mine_and_broadcast()
    sim.run()
    sim.restart_node(2)
    sim.run()
    restarted = sim.nodes[2]
    assert restarted.head().height == 8
    assert restarted.head().block_hash == a.head().block_hash


def test_mempool_filtering_keeps_templates_valid_after_reorg():
    sim = make_net(2)
    a, b = sim.nodes
    sim.partition([0], [1])
    # a sees a tx and holds it; b mines a conflicting spend of the same nonce
    a.on_transaction(signed_tx(1, 2, 10, 3, 0))
    b.on_transaction(signed_tx(1, 3, 9_999, 1, 0))
    b.mine_and_broadcast()
    b.mine_and_broadcast()
    sim.run()
    sim.heal()
    a.sync(1)
    sim.run()
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
    sim.run()
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
    sim.schedule(sim.now, ("deliver", env))
    sim.step()
    return sim.tracer.rows[-1]


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
