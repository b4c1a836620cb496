import copy
import functools
import hashlib
import json
from collections import OrderedDict
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chainsim import consensus, ledger, netsim, node as node_mod
from chainsim.kademlia import Contact
from chainsim.ledger import AccountState, Block, BlockStore, canonical_json, make_genesis
from chainsim.netsim import DECODE_CACHE_SIZE, Envelope, SimConfig, Simulator
from chainsim.metrics import MetricsFold
from chainsim.node import SYNC_PAGE_SIZE, SimNode, decode_blocks, encode_blocks, gossip_record

from conftest import (
    addr, audit_routing, mine_child, oversized_tx_body, parse_trace_lines, path_to_genesis,
    replayed_state, signed_tx, to_json,
)


def seed_of(i: int) -> bytes:
    return bytes([0xA0 + i]) * 32

GENESIS = make_genesis([(addr(1), 10_000)])


def make_net(n, difficulty=4, **cfg):
    cfg.setdefault("latency_min_ms", 5)
    cfg.setdefault("latency_max_ms", 10)
    cfg.setdefault("sync_interval_ms", 0)
    config = SimConfig(difficulty_bits=difficulty, **cfg)
    sim = Simulator(config, n)
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
        audit_routing(node.routing)


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


def crash_with_volatile_state(sim):
    """Give node 2 of a three-node net something in every field that a
    crash wipes, crash it, and return it with the chain it held."""
    a, node = sim.nodes[0], sim.nodes[2]
    a.on_transaction(signed_tx(1, 2, 10, 1, 0))
    sim.drain_deliveries()
    for _ in range(3):
        a.mine_and_broadcast()
        sim.drain_deliveries()
    tip = node.head()
    assert node.on_block(mine_child(node.store.blocks[tip.prev_hash], miner=addr(4))) == "side_chain"
    assert node.on_block(mine_child(mine_child(tip), miner=addr(5))) == "orphaned"
    assert node.on_transaction(signed_tx(1, 2, 10, 1, 1)) == "relayed"
    node.periodic_sync()
    assert node.side_states and node.orphan_pool and len(node.mempool) and node.seen
    assert node.undo and node._sync_rotation and node.routing.contacts()
    chain = node.store.canonical_chain()
    assert sim.crash_node(2)
    a.mine_and_broadcast()  # the net moves on while node 2 is down
    sim.drain_deliveries()
    return node, chain


def node_fields(node) -> dict:
    """Everything a node holds that a restart may set, by name."""
    return {
        "names": set(vars(node)),
        "canonical": list(node.store.canonical),
        "stored": set(node.store.blocks),
        "tx_heights": dict(node.store.tx_heights),
        "state": node.canonical_state,
        "undo": node.undo,
        "side_states": node.side_states,
        "mempool": dict(node.mempool.entries),
        "contacts": node.routing.contacts(),
        "orphan_pool": node.orphan_pool,
        "seen": node.seen,
        "sync_rotation": node._sync_rotation,
        "bootstrap": node._bootstrap,
    }


def test_a_restarted_node_equals_one_built_fresh_from_the_chain_it_held(monkeypatch):
    sim = make_net(3)
    node, chain = crash_with_volatile_state(sim)
    restarted = []  # the node's fields as restart left them, before it rejoins
    monkeypatch.setattr(SimNode, "rejoin", lambda n: restarted.append(node_fields(n)))
    sim.restart_node(2)
    assert sim.nodes[2] is node
    fresh = SimNode(sim, 2, seed_of(2), GENESIS,
                    persisted_lines=ledger.chain_file_lines(chain))
    fresh.set_bootstrap(node._bootstrap)
    assert restarted == [node_fields(fresh)]
    assert restarted[0]["canonical"] == [b.block_hash for b in chain]


def test_a_restarted_node_keeps_its_block_objects_and_decodes_nothing(monkeypatch):
    sim = make_net(3)
    node, chain = crash_with_volatile_state(sim)
    refuse = lambda *a: pytest.fail("a restart decoded a block")
    monkeypatch.setattr(Block, "decode", staticmethod(refuse))
    monkeypatch.setattr(Block, "from_json", staticmethod(refuse))
    sim.restart_node(2)
    assert [node.store.blocks[h] for h in node.store.canonical] == chain
    assert all(node.store.blocks[b.block_hash] is b for b in chain)
    assert len(node.store.blocks) == len(chain)
    monkeypatch.undo()
    sim.drain_deliveries()  # and it catches up with the block it missed
    assert node.head() == sim.nodes[0].head()


def test_a_restart_replay_and_the_closing_replay_only_settle(monkeypatch):
    """A restarted node replays block objects every node has validated, so
    their kept verdicts stand: no stateless check runs again, and neither
    does one for a replay of a live node's chain, as ``chainsim run`` makes
    at its end."""
    sim = make_net(3)
    node, chain = crash_with_volatile_state(sim)
    checked = []
    real = ledger._check_block
    monkeypatch.setattr(ledger, "_check_block", lambda b, p: checked.append(b) or real(b, p))
    sim.restart_node(2)
    assert node.head() == chain[-1] and len(chain) > 3
    assert replayed_state(sim.nodes[0].store.canonical_chain()) == sim.nodes[0].canonical_state
    assert checked == []


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
    walked, settled = [], []
    real_branch, real_settle = BlockStore.branch, ledger.settle_block

    def branch(store, tip):
        fork, blocks = real_branch(store, tip)
        walked.extend(blocks)
        return fork, blocks

    monkeypatch.setattr(BlockStore, "branch", branch)
    monkeypatch.setattr(ledger, "settle_block", lambda state, blk: (
        settled.append(blk) or real_settle(state, blk)))
    sent = []
    monkeypatch.setattr(sim, "send", lambda src, dst, kind, body: sent.append((kind, body)))

    block = consensus.mine(a.build_template())
    assert b.on_block(block) == "adopted"
    assert b.head().block_hash == block.block_hash
    # the store's fork search stops at the tip's parent, and only the block settles
    assert walked == settled == [block]
    walked.clear()
    # a peer that holds only genesis asks for blocks
    b.handle(Envelope(0, 0, 0, 1, "GET_BLOCKS", GENESIS.block_hash))
    assert walked == []
    pages = [decode_blocks(body) for kind, body in sent if kind == "BLOCKS"]
    assert [blk.height for blk in pages[0]] == list(range(1, SYNC_PAGE_SIZE + 1))
    assert [blk.block_hash for blk in pages[0]] == b.store.canonical[1 : SYNC_PAGE_SIZE + 1]


# -- malformed gossip bodies ---------------------------------------------------

def _block_json(**fields) -> bytes:
    obj = to_json(GENESIS)
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
        st.sampled_from(sorted(to_json(GENESIS))) | st.text(max_size=4), inner, max_size=8
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


def count_copies(monkeypatch) -> list:
    """Record every AccountState.copy call."""
    copies = []
    real = AccountState.copy
    monkeypatch.setattr(AccountState, "copy", lambda state: copies.append(state) or real(state))
    return copies


def test_connecting_a_block_copies_a_state_only_off_the_tip(monkeypatch):
    sim = make_net(1)
    node = sim.nodes[0]
    copies = count_copies(monkeypatch)
    state = node.canonical_state
    main = [mine_child(GENESIS, txs=[signed_tx(1, 2, 10, 1, n) for n in range(5)])]
    main.append(mine_child(main[0], miner=addr(3)))
    for block in main:
        assert node.on_block(block) == "adopted"
    assert copies == []  # each tip extension validated and settled in place
    assert node.canonical_state is state
    assert node.canonical_state.next_nonce(addr(1)) == 5
    # a branch off genesis: the first block's parent state is derived, the
    # next ones' are held, and the third takes the head; one copy each
    side = [mine_child(GENESIS, txs=[signed_tx(1, 3, 10, 1, 0)], miner=addr(4))]
    side.append(mine_child(side[0], miner=addr(4)))
    side.append(mine_child(side[1], miner=addr(4)))
    for block, status in zip(side, ["side_chain", "side_chain", "adopted"]):
        copies.clear()
        assert node.on_block(block) == status
        assert len(copies) == 1
    assert node.canonical_state == replayed_state([GENESIS] + side)
    copies.clear()
    assert node.on_block(mine_child(side[-1], miner=addr(4))) == "adopted"
    assert copies == []


def test_reloading_a_persisted_chain_applies_each_block_once(monkeypatch):
    sim = make_net(1)
    node = sim.nodes[0]
    for n in range(4):
        assert node.on_transaction(signed_tx(1, 2, 10, 1, n)) == "relayed"
        node.mine_and_broadcast()
    lines = ledger.chain_file_lines(node.store.canonical_chain())
    settled = []
    real = ledger.settle_block
    monkeypatch.setattr(
        ledger, "settle_block", lambda state, block: settled.append(block.block_hash) or real(state, block)
    )
    copies = count_copies(monkeypatch)
    restored = SimNode(sim, 0, seed_of(0), GENESIS, persisted_lines=lines)
    assert len(node.store.canonical) == 5
    assert settled == node.store.canonical  # genesis and each mined block once, in order
    assert copies == []
    assert restored.store.canonical == node.store.canonical
    assert restored.undo == node.undo
    for h in node.store.canonical:  # the state reached at each height, rewound from the tip
        replayed = replayed_state(path_to_genesis(node.store, h))
        assert restored.state_at(h) == node.state_at(h) == replayed


def test_a_node_reloaded_from_genesis_alone_holds_the_allocations():
    sim = make_net(1)
    restored = SimNode(sim, 0, seed_of(0), GENESIS,
                       persisted_lines=ledger.chain_file_lines([GENESIS]))
    assert restored.canonical_state == AccountState(balances=dict(GENESIS.allocations))
    assert restored.undo == {}
    # so it accepts a block that spends from them
    assert restored.on_block(mine_child(GENESIS, txs=[signed_tx(1, 2, 10, 1, 0)])) == "adopted"


def test_a_block_that_overdrafts_after_settled_txs_leaves_the_node_unchanged():
    sim = make_net(1)
    node = sim.nodes[0]
    assert node.on_block(mine_child(GENESIS, txs=[signed_tx(1, 2, 100, 1, 0)])) == "adopted"
    before = copy.deepcopy((node.canonical_state, node.undo, node.store.canonical))
    # tx 1 pays 2 -> 3; tx 2 overdrafts 2 once 0 and 1 have settled
    txs = [signed_tx(1, 2, 50, 1, 1), signed_tx(2, 3, 100, 1, 0), signed_tx(2, 5, 49, 1, 1)]
    block = mine_child(node.head(), txs=txs, miner=addr(4))
    assert node.on_block(block) == "rejected:bad_tx"
    assert (node.canonical_state, node.undo, node.store.canonical) == before
    assert block.block_hash not in node.store


# -- one state per node, undo records and side states ---------------------------

class ReplayNode(SimNode):
    """The reference: every state it validates against is replayed from genesis."""

    def state_at(self, block_hash):
        return replayed_state(path_to_genesis(self.store, block_hash))

    @property
    def canonical_state(self):
        return self.state_at(self.store.canonical_tip)


def lone(cls):
    sim = Simulator(SimConfig(difficulty_bits=4, sync_interval_ms=0), 1)
    sim.attach(0, cls(sim, 0, seed_of(0), GENESIS))
    return sim.nodes[0]


@functools.cache  # signing is the slow part of building a tree
def tx_of(sender: int, recipient: int, amount: int, nonce: int):
    return signed_tx(sender, recipient, amount, 1, nonce)


def assert_states_replay(node):
    """The canonical state, and the state derived at every stored block,
    equal a replay from genesis, keys present included."""
    store = node.store
    assert node.canonical_state == replayed_state(path_to_genesis(store, store.canonical_tip))
    for h in store.blocks:
        assert node.state_at(h) == replayed_state(path_to_genesis(store, h))
    assert len(node.side_states) <= node_mod.SIDE_STATE_CAP


@st.composite
def block_trees(draw):
    """Blocks over GENESIS in arrival order. Each picks a parent among the
    blocks before it, so forks and reorgs of any depth occur, and carries
    txs that continue its branch's nonces or, now and then, replay or skip
    one. Sender 2 starts unfunded and miner 4 unknown, so a branch decides
    both balances and which keys exist. Arrival is a permutation: a child
    that comes before its parent waits in the orphan pool."""
    n = draw(st.integers(1, 12))
    blocks, nonces = [GENESIS], [{1: 0, 2: 0}]
    for i in range(1, n + 1):
        p = i - 1 - draw(st.integers(0, i - 1))
        nonce = dict(nonces[p])
        txs = []
        for sender in draw(st.lists(st.sampled_from([1, 2]), max_size=3)):
            skew = draw(st.sampled_from([0, 0, 0, -1, 1]))
            recipient, amount = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([5, 40]))
            txs.append(tx_of(sender, recipient, amount, max(0, nonce[sender] + skew)))
            nonce[sender] += 1
        blocks.append(mine_child(blocks[p], txs, miner=addr(draw(st.sampled_from([2, 3, 4])))))
        nonces.append(nonce)
    return [blocks[i] for i in draw(st.permutations(range(1, n + 1)))]


@settings(max_examples=150, deadline=None)
@given(block_trees(), st.sampled_from([1, 2, node_mod.SIDE_STATE_CAP]))
def test_the_state_at_every_block_equals_a_replay_from_genesis(arrivals, cap):
    node, reference = lone(SimNode), lone(ReplayNode)
    with mock.patch.object(node_mod, "SIDE_STATE_CAP", cap):  # small bounds evict, so rewinds run
        for block in arrivals:
            assert node.on_block(block) == reference.on_block(block)
            assert node.store.canonical == reference.store.canonical
            assert_states_replay(node)


def test_a_branch_past_the_side_state_bound_is_rewound_with_the_same_statuses(monkeypatch):
    cap = node_mod.SIDE_STATE_CAP
    main, side = [GENESIS], [GENESIS]
    for n in range(cap + 4):
        main.append(mine_child(main[-1], [tx_of(1, 2, 5, n)], miner=addr(3)))
        pays_on = [tx_of(5, 2, 10, n - 1)] if n else []  # 5 is funded on this branch only
        side.append(mine_child(side[-1], [tx_of(1, 5, 40, n)] + pays_on, miner=addr(4)))
    fork = mine_child(side[1], [tx_of(5, 3, 20, 0)], miner=addr(2))
    side_next = mine_child(side[-1], miner=addr(4))
    main_next = mine_child(main[-1], miner=addr(3))
    main_last = mine_child(main_next, miner=addr(3))
    node, reference = lone(SimNode), lone(ReplayNode)
    settled = []
    real_settle = ledger.settle_block
    monkeypatch.setattr(ledger, "settle_block", lambda state, block: (
        settled.append(block.block_hash) or real_settle(state, block)))

    by_node = []  # what the node settled in its last on_block

    def arrive(block):
        settled.clear()
        status = node.on_block(block)
        by_node[:] = settled
        assert status == reference.on_block(block)
        assert_states_replay(node)
        return status

    assert [arrive(b) for b in main[1:] + side[1:]] == ["adopted"] * (cap + 4) + ["side_chain"] * (cap + 4)
    assert side[1].block_hash not in node.side_states  # the branch outgrew the bound
    assert arrive(fork) == "side_chain"
    # rewound to genesis, side[1] settled again, then the fork validated on that
    assert by_node == [side[1].block_hash, fork.block_hash]
    assert arrive(side_next) == "adopted"  # a reorg as deep as the main chain
    assert arrive(main_next) == "side_chain"
    assert by_node == [b.block_hash for b in main[1:]] + [main_next.block_hash]
    assert arrive(main_last) == "adopted"


# -- the run-wide record map ------------------------------------------------------

def count_decodes(monkeypatch):
    """Record every delivered (kind, body) and every strict decode that ran."""
    delivered, decodes = [], []
    real_handle, real_record = SimNode.handle, node_mod._record
    monkeypatch.setattr(SimNode, "handle", lambda node, env: (
        delivered.append((env.kind, env.body)) or real_handle(node, env)))
    # a record is made once per strict decode
    monkeypatch.setattr(node_mod, "_record", lambda kind, body: (
        decodes.append((kind, body)) or real_record(kind, body)))
    return delivered, decodes


def churn(sim):
    """Gossip txs, mine with node 4 down, then restart it: it replays its
    kept canonical blocks and re-syncs with GET_BLOCKS and a BLOCKS page."""
    for n in range(3):
        sim.nodes[n].on_transaction(signed_tx(1, 2, 10, 1, n))
    sim.drain_deliveries()
    sim.crash_node(4)
    for _ in range(3):
        sim.nodes[0].mine_and_broadcast()
        sim.drain_deliveries()
    sim.restart_node(4)
    sim.drain_deliveries()
    assert sim.nodes[4].head() == sim.nodes[0].head()


def test_each_distinct_body_is_decoded_once_per_run(monkeypatch):
    sim = make_net(5)
    delivered, decodes = count_decodes(monkeypatch)
    churn(sim)
    assert {kind for kind, _ in delivered} == set(VALID_BODIES)
    assert len(delivered) > 2 * len(set(delivered))
    assert sorted(decodes) == sorted(set(delivered))
    assert sorted(sim.records) == sorted(decodes)
    assert all(record.msg is not None for record in sim.records.values())


def test_malformed_body_is_decoded_and_rejected_every_time(monkeypatch):
    sim = make_net(2)
    _, decodes = count_decodes(monkeypatch)
    for _ in range(2):
        assert deliver(sim, 1, "TX_ANNOUNCE", b"junk")["reject"] == "malformed"
    assert decodes == [("TX_ANNOUNCE", b"junk")] * 2
    # kept for its row only: the record holds no message
    assert [record.msg for record in sim.records.values()] == [None]


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


def test_record_map_evicts_the_oldest_beyond_its_bound():
    records = OrderedDict()
    keys = [("GET_BLOCKS", i.to_bytes(32, "big")) for i in range(DECODE_CACHE_SIZE + 1)]
    first = gossip_record(*keys[0], records)
    for key in keys[1:DECODE_CACHE_SIZE]:
        gossip_record(*key, records)
    assert gossip_record(*keys[0], records) is first  # a hit does not reorder
    gossip_record(*keys[-1], records)
    assert list(records) == keys[1:]
    again = gossip_record(*keys[0], records)
    assert again is not first and again == first
    assert list(records) == keys[2:] + keys[:1]


def test_simulator_record_map_evicts_its_oldest_body_and_hashes_it_again(monkeypatch):
    sim = make_net(2)
    hashed = count_body_hashes(monkeypatch)
    bodies = [i.to_bytes(32, "big") for i in range(DECODE_CACHE_SIZE + 1)]
    for body in bodies:
        sim.schedule(sim.now, sim._deliver, Envelope(sim.now, sim.now, 0, 1, "GET_BLOCKS", body))
    for _ in bodies:  # in send order, before any BLOCKS reply arrives
        sim.step()
    assert len(sim.records) == DECODE_CACHE_SIZE
    assert ("GET_BLOCKS", bodies[0]) not in sim.records
    assert next(iter(sim.records)) == ("GET_BLOCKS", bodies[1])
    assert sorted(hashed) == sorted(bodies)
    # a forgotten body is hashed again, to the same digest, as the newest record
    row = deliver(sim, 1, "GET_BLOCKS", bodies[0])
    assert next(reversed(sim.records)) == ("GET_BLOCKS", bodies[0])
    assert row["body_hash"] == hashlib.sha256(bodies[0]).hexdigest()
    assert hashed[-1] == bodies[0] and len(sim.records) == DECODE_CACHE_SIZE


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
    handled = []  # (kind, record) of each delivery, as handle returns it
    real = SimNode.handle
    monkeypatch.setattr(SimNode, "handle", lambda node, env: (
        handled.append((env.kind, real(node, env))) or handled[-1][1]))
    tx = signed_tx(1, 2, 10, 1, 0)
    sim.nodes[0].on_transaction(tx)
    sim.drain_deliveries()
    block = sim.nodes[1].mine_and_broadcast()
    sim.drain_deliveries()
    rows = [json.loads(line) for line in sim.tracer.lines()]
    for kind, item, key in (("TX_ANNOUNCE", tx, "tx"), ("BLOCK_ANNOUNCE", block, "block")):
        records = [record for k, record in handled if k == kind]
        assert len(records) > 1 and all(record is records[0] for record in records)
        assert records[0].msg == item
        assert records[0].block == (item.hash_hex if key == "block" else None)
        labels = [r.get(key) for r in rows if r["type"] == "deliver" and r["kind"] == kind]
        assert labels == [item.hash_hex] * len(records)


def test_malformed_body_row_carries_its_sha256(monkeypatch):
    sim = make_net(2)
    hashed = count_body_hashes(monkeypatch)
    rows = [deliver(sim, 1, "BLOCK_ANNOUNCE", b"{not json") for _ in range(2)]
    digest = hashlib.sha256(b"{not json").hexdigest()
    assert [(r["reject"], r["body_hash"]) for r in rows] == [("malformed", digest)] * 2
    assert hashed == [b"{not json"]


def test_a_malformed_block_announce_folds_alike_live_and_from_the_file():
    sim = make_net(3)
    sim.tracer = netsim.Tracer()
    sim.nodes[0].mine_and_broadcast()
    sim.drain_deliveries()
    assert deliver(sim, 1, "BLOCK_ANNOUNCE", b"{not json")["reject"] == "malformed"
    from_file = MetricsFold()
    for row in parse_trace_lines(sim.tracer.lines()):
        from_file.add(row)
    assert vars(sim.tracer.fold) == vars(from_file)
    assert list(from_file.last_announce) == [sim.nodes[0].head().hash_hex]


def test_a_deliver_row_with_no_block_label_folds_no_announce():
    fold = MetricsFold()
    fold.add({"time": 5, "type": "deliver", "from": 0, "to": 1, "kind": "BLOCK_ANNOUNCE",
              "body_hash": "00", "reject": "malformed"})
    assert fold.last_announce == {} and fold.end_time == 5


# -- each block encoded once ---------------------------------------------------------

def test_each_block_object_is_json_encoded_once(monkeypatch):
    sim = make_net(5)
    encoded = []  # every block encode found with no kept bytes, held so that no id is reused
    real = Block.encode

    def counted(block):
        if block._canonical is None:
            encoded.append(block)
        return real(block)

    monkeypatch.setattr(Block, "encode", counted)
    delivered, _ = count_decodes(monkeypatch)
    churn(sim)
    kinds = {kind for kind, _ in delivered}
    assert {"BLOCK_ANNOUNCE", "BLOCKS"} <= kinds
    assert len(ledger.chain_file_lines(sim.nodes[4].store.canonical_chain())) == 4
    assert encoded and len({id(block) for block in encoded}) == len(encoded)


def test_a_block_in_a_non_canonical_spelling_relays_and_persists_canonical_bytes(monkeypatch):
    sim = make_net(3)
    block = mine_child(GENESIS)
    obj = to_json(block)
    body = json.dumps(dict(reversed(list(obj.items()))), indent=1).encode()
    canonical = canonical_json(obj)
    assert body != canonical and Block.decode(body) == block
    sent = []
    real_send = Simulator.send
    monkeypatch.setattr(Simulator, "send", lambda sim, src, dst, kind, body: (
        sent.append((kind, body)) or real_send(sim, src, dst, kind, body)))
    deliver(sim, 1, "BLOCK_ANNOUNCE", body)
    relayed = [b for kind, b in sent if kind == "BLOCK_ANNOUNCE"]
    assert relayed and set(relayed) == {canonical}
    assert ledger.chain_file_lines(sim.nodes[1].store.canonical_chain())[-1] == canonical
    sim.drain_deliveries()
    assert sim.nodes[2].head() == block
    assert ledger.chain_file_lines(sim.nodes[2].store.canonical_chain()) == [
        GENESIS.encode(), canonical]


def test_a_block_body_in_the_canonical_spelling_is_the_blocks_kept_encoding():
    block = mine_child(GENESIS, txs=[signed_tx(1, 2, 10, 1, 0)])
    body = canonical_json(to_json(block))
    decoded = Block.decode(body)
    assert decoded == block and decoded.encode() is body
    spelled = json.dumps(to_json(block), indent=1).encode()
    respelled = Block.decode(spelled)
    assert respelled == block and respelled.encode() == body


def test_a_relayed_transaction_forwards_the_body_it_arrived_in(monkeypatch):
    sim = make_net(3)
    body = signed_tx(1, 2, 10, 1, 0).encode()
    encoded, sent = [], []  # the fields of every tx encoding made
    real_encode, real_send = ledger._signing_bytes, Simulator.send
    monkeypatch.setattr(ledger, "_verified_signatures", OrderedDict())  # so its check runs
    monkeypatch.setattr(ledger, "_signing_bytes",
                        lambda *fields: encoded.append(fields) or real_encode(*fields))
    monkeypatch.setattr(Simulator, "send", lambda sim, src, dst, kind, data: (
        sent.append((src, data)) or real_send(sim, src, dst, kind, data)))
    deliver(sim, 1, "TX_ANNOUNCE", body)
    sim.drain_deliveries()
    assert {src for src, _ in sent} == {0, 1, 2}  # every node relayed it
    assert all(data is body for _, data in sent)
    # once for the tx hash of the one decoded object, once for its signature check
    assert len(encoded) == 2


@pytest.mark.parametrize("heights", [0, 1, 3])
def test_a_blocks_page_is_the_canonical_json_list_of_its_blocks(heights):
    page, parent = [GENESIS], GENESIS
    for h in range(heights):
        parent = mine_child(parent, txs=[signed_tx(1, 2, 10, 1, h)] if h % 2 else [])
        page.append(parent)
    for blocks in (page, page[1:], []):
        assert encode_blocks(blocks) == canonical_json([to_json(b) for b in blocks])
        assert decode_blocks(encode_blocks(blocks)) == tuple(blocks)
