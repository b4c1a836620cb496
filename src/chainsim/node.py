"""Per-peer protocol state machine.

Composes ledger, mempool, proof-of-work, and the Kademlia table into one
event-driven node: validate-then-gossip for transactions and blocks,
orphan handling with parent re-request, longest-chain reorgs with
mempool reinstatement, and locator-based chain sync for catch-up.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Optional

from . import consensus, kademlia, ledger
from .crypto import generate_keypair, node_id_from_public_key
from .kademlia import Contact, RoutingTable
from .ledger import AccountState, Block, BlockStore, Transaction
from .mempool import Mempool
from .netsim import DECODE_CACHE_SIZE, Delivery, delivery

ORPHAN_POOL_CAP = 64
# side-branch block states a node holds, newest last: a branch that arrives
# in order (a BLOCKS page after a heal) finds each parent's state here
SIDE_STATE_CAP = 8
SYNC_PAGE_SIZE = 32
# what decoding a peer's body can raise; JSON also yields OverflowError
# (an int field of Infinity) and RecursionError (deep nesting)
MALFORMED = (
    ledger.LedgerError, ValueError, KeyError, TypeError, OverflowError, RecursionError,
)


def encode_blocks(blocks: list) -> bytes:
    """A ``BLOCKS`` body: the blocks' canonical JSON list, joined from the
    bytes each block keeps (``Block.encode``)."""
    return b"[" + b",".join([b.encode() for b in blocks]) + b"]"


def decode_blocks(body: bytes) -> tuple:
    return tuple(Block.from_json(obj) for obj in ledger._list(json.loads(body)))


def decode_locator(body: bytes) -> tuple:
    if len(body) % 32 != 0:
        raise ValueError("locator is not a whole number of hashes")
    return tuple(body[i : i + 32] for i in range(0, len(body), 32))


# gossip kind -> (its strict decoder, the label its deliver row carries: the
# decoded message's hash_hex under "tx" or "block", or none). Each decoder is
# looked up by name when it runs, as a direct call is, so a wrapper bound in
# its place (a profiler's) sees every decode.
_KINDS = {
    "TX_ANNOUNCE": (lambda body: ledger.decode_transaction(body), "tx"),
    "BLOCK_ANNOUNCE": (lambda body: ledger.decode_relayed_block(body), "block"),
    "GET_BLOCKS": (lambda body: decode_locator(body), ""),
    "BLOCKS": (lambda body: decode_blocks(body), ""),
}


def _record(kind: str, body: bytes) -> Delivery:
    """A new record of a gossip body; raises one of MALFORMED (KeyError for
    an unknown kind)."""
    decode, label = _KINDS[kind]
    msg = decode(body)
    return delivery(kind, body, msg, label, msg.hash_hex if label else "")


def gossip_record(kind: str, body: bytes, records: OrderedDict) -> Delivery:
    """The record of a gossip body (``netsim.Delivery``) in ``records``, the
    simulator's run-wide map, made on a miss; never raises.

    The decoded message is a pure function of ``(kind, body)`` and
    immutable, so every recipient of a body shares the record, message
    included, that the first one made. A body that does not decode gets a
    ``reject: malformed`` record with no message, kept so that its digest is
    computed once, but it is decoded again at every delivery: a failed
    decode is never kept, because a RecursionError depends on call depth. A
    hit does not reorder, and the oldest record is forgotten beyond
    ``netsim.DECODE_CACHE_SIZE``."""
    key = (kind, body)
    known = records.get(key)
    if known is not None and known.msg is not None:
        return known
    try:
        record = _record(kind, body)
    except MALFORMED:
        if known is not None:
            return known
        record = delivery(kind, body, None, "reject", "malformed")
    records[key] = record
    if len(records) > DECODE_CACHE_SIZE:
        records.popitem(last=False)
    return record


def encode_contacts(contacts: list) -> bytes:
    return ledger.canonical_json([[c.node_id.hex(), c.endpoint] for c in contacts])


def decode_contacts(body: bytes) -> list:
    return [Contact(bytes.fromhex(nid), endpoint) for nid, endpoint in json.loads(body)]


class SimNode:
    """One peer inside a Simulator."""

    def __init__(
        self,
        sim,
        index: int,
        seed: bytes,
        genesis: Optional[Block],
        persisted_lines: Optional[list] = None,
    ):
        """A node whose canonical chain is ``genesis`` alone or, when
        ``persisted_lines`` is given, the chain file those lines hold
        (``genesis`` is then unused); a corrupt file raises ChainError."""
        self.sim = sim
        self.index = index
        self.keypair = generate_keypair(seed)
        self.node_id = node_id_from_public_key(self.keypair.public_key)
        self.address = self.node_id  # same 20-byte derivation
        self.blob_store = None  # attached by the scenario runner when used
        self._bootstrap: Optional[Contact] = None  # rejoin's contact, if any
        self._boot(ledger.decode_chain_lines(persisted_lines) if persisted_lines else [genesis])

    def _boot(self, chain: list) -> None:
        """Set every field that does not survive a crash, the chain held
        included: replay ``chain``, a genesis-rooted block list, onto an
        empty state, keeping each block's undo record. The replay is the
        node's own validation of ``chain``; it raises ChainError, at height
        0 for a bad genesis, before the store is built."""
        self._state = AccountState()  # at the canonical tip
        self.undo: dict = {}  # stored block hash -> its ledger.block_undo record
        undos = ledger.replay_blocks(chain, self._state)
        next(undos)  # settles genesis
        self.store = BlockStore(chain[0])
        for block, undo in zip(chain[1:], undos):
            self.undo[block.block_hash] = undo
            self.store.insert(block)
        self.side_states: dict = {}  # side-branch block hash -> state after it, oldest first
        self.mempool = Mempool()
        self.routing = RoutingTable(self.node_id)
        self.orphan_pool: dict = {}  # block hash -> Block, oldest first
        self.seen: set = set()  # hashes of relayed transactions
        self._sync_rotation = 0

    def restart(self) -> None:
        """Come back from a crash holding only the canonical chain: every
        other field starts again as ``_boot`` sets it."""
        self._boot(self.store.canonical_chain())

    # -- identity ------------------------------------------------------------

    @property
    def canonical_state(self) -> AccountState:
        return self._state

    def head(self) -> Block:
        return self.store.blocks[self.store.canonical_tip]

    def state_at(self, block_hash: bytes) -> AccountState:
        """A new copy of the account state after stored block
        ``block_hash``: of the held state of a recent side-branch block
        (``side_states``), or else of the canonical state rewound to the
        fork with the undo records, then the branch settled again (neither
        step runs for a canonical tip)."""
        state = self.side_states.get(block_hash)
        if state is not None:
            return state.copy()
        store = self.store
        fork, branch = store.branch(block_hash)
        state = self._state.copy()
        for d in reversed(store.canonical[fork + 1 :]):
            ledger.rewind_block(state, self.undo[d])
        for block in reversed(branch):
            ledger.settle_block(state, block)
        return state

    # -- overlay -------------------------------------------------------------

    def _ping_contact(self, contact: Contact) -> bool:
        return (
            self.sim.query(self.index, contact.endpoint, "PING", self.node_id)
            is not None
        )

    def observe(self, contact: Contact) -> None:
        self.routing.observe_contact(contact, ping=self._ping_contact)

    def join(self, bootstrap: Contact) -> None:
        """Standard bootstrap: learn one contact, then look up our own id."""
        self.observe(bootstrap)
        try:
            self.lookup(self.node_id)
        except kademlia.LookupFailed:
            pass

    def lookup(self, target: bytes) -> None:
        def query(contact: Contact, tgt: bytes):
            # body = requester id || target, so the peer learns us too
            resp = self.sim.query(
                self.index, contact.endpoint, "FIND_NODE", self.node_id + tgt
            )
            if resp is None:
                return None
            return decode_contacts(resp)

        found, _ = kademlia.iterative_lookup(self.routing, target, query)
        for contact in found:
            self.observe(contact)

    def handle_query(self, kind: str, body: bytes, src: int) -> Optional[bytes]:
        """Synchronous overlay RPCs (FIND_NODE, PING) served in place."""
        if kind == "PING":
            if len(body) == 20:
                self.observe(Contact(body, src))
            return b"PONG"
        if kind == "FIND_NODE":
            if len(body) != 40:
                return None
            requester, target = body[:20], body[20:]
            self.observe(Contact(requester, src))
            closest = self.routing.find_closest(target, kademlia.K) if len(self.routing) else []
            closest = [c for c in closest if c.endpoint != src]
            return encode_contacts(closest)
        return None

    def rejoin(self) -> None:
        """After restart: bootstrap back into the overlay and re-sync."""
        if self._bootstrap is not None:
            self.join(self._bootstrap)
        self.periodic_sync()

    def set_bootstrap(self, contact: Contact) -> None:
        self._bootstrap = contact

    # -- gossip --------------------------------------------------------------

    def _gossip(self, kind: str, body: bytes, exclude: Optional[int] = None) -> None:
        send, index = self.sim.send, self.index
        for contact in self.routing.contacts():
            endpoint = contact.endpoint
            if endpoint != exclude and endpoint != index:
                send(index, endpoint, kind, body)

    def handle(self, env) -> Delivery:
        """Deliver one message and return its body's record
        (``gossip_record``). A body that does not decode is dropped, and its
        record's row says ``reject: malformed``; it never raises."""
        kind, records = env.kind, self.sim.records
        record = records.get((kind, env.body))
        if record is None or record.msg is None:
            record = gossip_record(kind, env.body, records)
            if record.msg is None:
                return record
        msg, origin = record.msg, env.src
        if kind == "TX_ANNOUNCE":
            self.on_transaction(msg, origin, env.body)
        elif kind == "BLOCK_ANNOUNCE":
            self.on_block(msg, origin)
        elif kind == "GET_BLOCKS":
            self._serve_blocks(msg, origin)
        else:
            self._on_blocks(msg, origin)
        return record

    # -- transactions ----------------------------------------------------------

    def on_transaction(
        self, tx: Transaction, origin: Optional[int] = None, body: Optional[bytes] = None
    ) -> str:
        """Returns 'relayed', 'duplicate', or 'rejected:<cause>'. ``body``,
        the gossip body ``tx`` was decoded from, is relayed as it came:
        ``decode_transaction`` is the exact inverse of ``Transaction.encode``."""
        if tx.tx_hash in self.seen:
            return "duplicate"
        try:
            self.mempool.insert(tx, self.canonical_state)
        except ledger.TxError as e:
            if e.code == "duplicate":
                return "duplicate"
            return f"rejected:{e.code}"
        self.seen.add(tx.tx_hash)
        self._gossip("TX_ANNOUNCE", tx.encode() if body is None else body, exclude=origin)
        return "relayed"

    # -- blocks ------------------------------------------------------------

    def on_block(self, block: Block, origin: Optional[int] = None) -> str:
        """Returns 'adopted', 'side_chain', 'orphaned', 'duplicate', or
        'rejected:<cause>'."""
        h = block.block_hash
        if h in self.store:
            return "duplicate"
        if block.prev_hash not in self.store:
            self._add_orphan(block)
            if origin is not None:
                self._request_blocks(origin)
            return "orphaned"
        status = self._connect(block)
        if status.startswith("rejected"):
            return status
        self._gossip("BLOCK_ANNOUNCE", block.encode(), exclude=origin)
        self._connect_orphans(h, origin)
        return status

    def _connect(self, block: Block) -> str:
        """Validate ``block``, whose parent is stored, and store it. A block
        that extends the canonical tip settles straight onto the canonical
        state; any other onto a copy of its parent's state (``state_at``)."""
        store = self.store
        parent = store.blocks[block.prev_hash]
        if block.prev_hash == store.canonical_tip:
            state = self.canonical_state
        else:
            state = self.state_at(block.prev_hash)
        try:
            undo = ledger.validate_block(block, parent, state)  # rewinds on failure
        except ledger.BlockError as e:
            return f"rejected:{e.code}"
        h = block.block_hash
        self.undo[h] = undo
        displaced, adopted = store.insert(block)
        if adopted:
            self._state = state
            self._adopt(displaced, adopted)
            return "adopted"
        self.side_states[h] = state
        if len(self.side_states) > SIDE_STATE_CAP:
            del self.side_states[next(iter(self.side_states))]
        return "side_chain"

    def _adopt(self, displaced_blocks: list, adopted: list) -> None:
        """Follow a canonical-chain switch the store made: prune the mempool
        and reinstate the displaced blocks' transactions."""
        adopted_txs = {tx.tx_hash for b in adopted for tx in b.transactions}
        displaced = [
            tx
            for b in displaced_blocks
            for tx in b.transactions
            if tx.tx_hash not in adopted_txs
        ]
        self.mempool.prune(self.canonical_state)
        self.mempool.reinstate(displaced, self.canonical_state)
        head = self.head()
        self.sim.tracer.log({
            "time": self.sim.now,
            "type": "adopt",
            "node": self.index,
            "height": head.height,
            "hash": head.hash_hex,
        })

    def _add_orphan(self, block: Block) -> None:
        """Hold a block for its parent; a re-sent one keeps its place."""
        self.orphan_pool.setdefault(block.block_hash, block)
        if len(self.orphan_pool) > ORPHAN_POOL_CAP:
            del self.orphan_pool[next(iter(self.orphan_pool))]

    def _connect_orphans(self, parent_hash: bytes, origin: Optional[int]) -> None:
        """Connect the orphans waiting on ``parent_hash`` in arrival order."""
        waiting = [b for b in self.orphan_pool.values() if b.prev_hash == parent_hash]
        for block in waiting:
            del self.orphan_pool[block.block_hash]
            self.on_block(block, origin)

    # -- mining ------------------------------------------------------------

    def build_template(self) -> consensus.BlockTemplate:
        parent = self.head()
        txs = self.mempool.select_for_block(ledger.MAX_BLOCK_TXS)
        return consensus.BlockTemplate(
            height=parent.height + 1,
            prev_hash=parent.block_hash,
            timestamp=max(self.sim.now, parent.timestamp),
            difficulty_bits=self.sim.config.difficulty_bits,
            miner=self.address,
            tx_root=ledger.compute_tx_root(txs),
            transactions=tuple(txs),
        )

    def mine_and_broadcast(self) -> Optional[Block]:
        template = self.build_template()
        block = consensus.mine(template, start_nonce=0)
        status = self.on_block(block, origin=None)
        if status in ("adopted", "side_chain"):
            return block
        return None

    # -- sync --------------------------------------------------------------

    def _locator(self) -> list:
        """Canonical-chain sample: tip, exponentially spaced back, genesis."""
        chain = self.store.canonical
        hashes = []
        step = 1
        i = len(chain) - 1
        while i > 0:
            hashes.append(chain[i])
            i -= step
            step *= 2
        hashes.append(chain[0])
        return hashes

    def _request_blocks(self, peer: int) -> None:
        body = b"".join(self._locator())
        self.sim.send(self.index, peer, "GET_BLOCKS", body)

    def periodic_sync(self) -> None:
        """Anti-entropy: ask a rotating contact for anything newer."""
        contacts = self.routing.contacts()
        if not contacts:
            return
        contact = contacts[self._sync_rotation % len(contacts)]
        self._sync_rotation += 1
        self._request_blocks(contact.endpoint)

    def _serve_blocks(self, locator: list, origin: int) -> None:
        store = self.store
        start = 0
        for h in locator:
            if store.is_canonical(h):
                start = store.blocks[h].height + 1
                break
        page = [store.blocks[h] for h in store.canonical[start : start + SYNC_PAGE_SIZE]]
        if page:
            self.sim.send(self.index, origin, "BLOCKS", encode_blocks(page))

    def _on_blocks(self, blocks: list, origin: int) -> None:
        progressed = False
        for block in blocks:
            status = self.on_block(block, origin)
            if status in ("adopted", "side_chain", "orphaned"):
                progressed = True
        if progressed and len(blocks) == SYNC_PAGE_SIZE:
            self._request_blocks(origin)  # more pages likely remain
