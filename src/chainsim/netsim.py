"""Deterministic discrete-event network harness.

Virtual time only: every message delivery, mining and sync timer, crash,
restart and scheduled call is an entry ``(time, seq, handler, args)`` in
one priority queue, ordered by time and then insertion sequence; running
an event calls ``handler(*args)``. A node is down exactly when its slot
in ``Simulator.nodes`` is ``None``, and a link is cut only inside a window
of ``SimConfig.partition_schedule``. All randomness (latency, drops,
mining delays) comes from per-node RNG streams derived from (seed, node
index, purpose), so replaying a scenario with the same seed reproduces the
exact event trace. The ``Tracer`` streams that trace: each row is folded
into the run's metrics, then encoded and written to its sink as it is
logged, in ``ledger.canonical_json``: a deliver row by filling its body's
record line (``Delivery``), which that encoder wrote once per body.

``send`` and the delivery path run once per message, so they are written
for few interpreter calls: the latency draw inlines ``Random.randint``'s
``getrandbits`` loop, draw for draw, and everything a delivery needs that
depends only on its ``(kind, body)`` is built once per body, in a record of
the run-wide ``Simulator.records``. Tools outside the package hook the path
at four seams, which must stay:

- every event runs through ``Simulator.step``, looked up on the class;
- every message goes through ``Simulator.send``;
- ``SimNode.handle(env)`` gets an envelope with a ``.kind`` and returns the
  body's ``Delivery`` record;
- every trace row goes through ``Tracer.log(row)`` or, for a deliver row,
  ``Tracer.deliver(time_ms, line, block)``.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import random
import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .consensus import MAX_DIFFICULTY_BITS, MINE_ATTEMPTS
from .ledger import canonical_json
from .metrics import MetricsFold, announced_block


# the longest mean mining delay a miner may have: expovariate(1 / mean) draws
# -log(1 - random()) * mean, at most 53 ln 2 (< 64) times mean since random()
# <= 1 - 2**-53, so every delay stays a finite float (see _mine_delay)
MAX_MINE_MEAN_MS = sys.float_info.max / 64

# distinct gossip bodies held in Simulator.records (see node.gossip_record);
# perfbench chain_growth (seed 1) decodes 1,737
DECODE_CACHE_SIZE = 4096


@dataclass
class SimConfig:
    rng_seed: int = 0
    latency_min_ms: int = 5
    latency_max_ms: int = 50
    drop_probability: float = 0.0
    hash_rate_shares: dict = field(default_factory=dict)  # node index -> share
    block_interval_target_ms: int = 1000
    partition_schedule: list = field(default_factory=list)  # (start, end, setA, setB)
    difficulty_bits: int = 8
    sync_interval_ms: int = 2000  # periodic anti-entropy; 0 disables

    def validate(self) -> None:
        if not 0 <= self.latency_min_ms <= self.latency_max_ms:
            raise ValueError("latency_min_ms must be in [0, latency_max_ms]")
        # a miner's mean delay is at least the interval (see mine_mean_ms)
        if not 1 <= self.block_interval_target_ms <= MAX_MINE_MEAN_MS:
            raise ValueError(f"block_interval_target_ms must be in [1, {MAX_MINE_MEAN_MS:.3g}]")
        if not 0 <= self.difficulty_bits <= MAX_DIFFICULTY_BITS:  # so mining ends
            raise ValueError(f"difficulty_bits must be in [0, {MAX_DIFFICULTY_BITS}]: mining "
                             f"gives up on a block after {MINE_ATTEMPTS:,} nonces")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if any(s < 0 for s in self.hash_rate_shares.values()):
            raise ValueError("hash rate shares must be non-negative")
        if not all(self.mine_mean_ms(s) <= MAX_MINE_MEAN_MS
                   for s in self.hash_rate_shares.values() if s > 0):
            raise ValueError(f"a miner's mean mining delay (block_interval_target_ms * total "
                             f"share / its share) must be at most {MAX_MINE_MEAN_MS:.3g} ms")
        for start, end, side_a, side_b in self.partition_schedule:
            if start > end:
                raise ValueError("partition window start > end")
            if set(side_a) & set(side_b):
                raise ValueError("partition sides overlap")

    def mine_mean_ms(self, share: float) -> float:
        """The mean mining delay of a miner holding ``share`` of the hash rate."""
        return self.block_interval_target_ms * (sum(self.hash_rate_shares.values()) / share)


class Envelope(NamedTuple):
    """One message in flight: immutable, and built positionally on every
    send, so a named tuple (cheaper to build than a frozen dataclass)."""

    send_time: int
    deliver_time: int
    src: int
    dst: int
    kind: str
    body: bytes


# a deliver row's per-delivery fields: the placeholder each holds as
# delivery() encodes the row, key-anchored, and the slot its record line
# leaves in its place. An encoded string holds no unescaped quote, so each
# placeholder matches only at its key.
_SLOTS = ((b'"from":-1,', b'"from":%d,'), (b'"time":-2,', b'"time":%d,'),
          (b'"to":-3,', b'"to":%d,'))


class Delivery(NamedTuple):
    """The record of one gossip body ``(kind, body)``: what every delivery
    of that body hands on and writes, built once per body."""

    msg: object  # the decoded message; None when the body does not decode
    line: bytes  # the deliver row; line % (from, time, to) fills it
    block: Optional[str]  # a BLOCK_ANNOUNCE's block label, for the metrics fold


def delivery(kind: str, body: bytes, msg=None, label: str = "", text: str = "") -> Delivery:
    """The record of ``body`` sent as ``kind``, decoded to ``msg``. Its row
    carries ``body``'s SHA-256 and, unless ``label`` is empty, ``label``:
    ``text``. The row is encoded once, by ``ledger.canonical_json``, with
    ``%`` doubled and a ``%d`` slot for each of from, time and to."""
    row = {"time": -2, "type": "deliver", "from": -1, "to": -3, "kind": kind,
           "body_hash": hashlib.sha256(body).hexdigest()}
    if label:
        row[label] = text
    line = canonical_json(row).replace(b"%", b"%%")
    for placeholder, slot in _SLOTS:
        line = line.replace(placeholder, slot)
    return Delivery(msg, line + b"\n", announced_block(row))


class Tracer:
    """Folds each trace row into the run's metrics (``fold``, a
    ``metrics.MetricsFold``) as it is logged, then encodes it in ledger's
    canonical JSON and writes the line to a binary sink; holds no rows.
    With no sink, lines go to an in-memory buffer that ``lines`` reads back."""

    def __init__(self, sink=None):
        self.sink = io.BytesIO() if sink is None else sink
        self.fold = MetricsFold()

    def log(self, row: dict) -> None:
        """Fold and write ``row``, which must be complete: it is encoded now."""
        self.fold.add(row)
        self.sink.write(canonical_json(row) + b"\n")

    def deliver(self, time_ms: int, line: bytes, block: Optional[str]) -> None:
        """Fold and write a deliver row at ``time_ms``, already encoded as
        ``line`` (a filled ``Delivery.line``); ``block`` is its record's block
        label, the one field of the row the fold reads besides the time."""
        self.fold.deliver(time_ms, block)
        self.sink.write(line)

    def lines(self) -> list:
        """The in-memory buffer's lines."""
        return self.sink.getvalue().splitlines()


def _derive_rng(seed: int, node: int, purpose: str) -> random.Random:
    material = struct.pack(">qq", seed, node) + purpose.encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest, "big"))


class Simulator:
    def __init__(
        self,
        config: SimConfig,
        num_nodes: int,
        tracer: Optional[Tracer] = None,
    ):
        config.validate()
        self.config = config
        # randint(latency_min_ms, latency_max_ms) as CPython draws it: the
        # width of the range and the bits drawn per try (see send)
        self._latency_span = config.latency_max_ms - config.latency_min_ms + 1
        self._latency_bits = self._latency_span.bit_length()
        self.num_nodes = num_nodes
        self.tracer = tracer or Tracer()
        self.now = 0
        self._queue: list = []
        self._seq = 0
        self.nodes: list = [None] * num_nodes  # None: not attached, or down
        self.down: dict = {}  # node index -> its crashed node, untouched until restart
        self._net_rng = [_derive_rng(config.rng_seed, i, "net") for i in range(num_nodes)]
        self._mine_rng = [_derive_rng(config.rng_seed, i, "mine") for i in range(num_nodes)]
        self.messages_sent = 0
        self.messages_delivered = 0
        # (kind, body) -> its Delivery record, oldest first: every node that
        # receives a body shares the one record, and the message, built from it
        self.records: OrderedDict = OrderedDict()

    # -- wiring ------------------------------------------------------------

    def attach(self, index: int, node) -> None:
        self._check_index(index)
        self.nodes[index] = node

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"unknown node index {index}")

    # -- scheduling --------------------------------------------------------

    def schedule(self, time_ms: int, handler: Callable, *args) -> None:
        """Queue ``handler(*args)`` to run at ``time_ms``; equal times run in
        the order they were scheduled."""
        heapq.heappush(self._queue, (time_ms, self._seq, handler, args))
        self._seq += 1

    def pending(self) -> int:
        return len(self._queue)

    # -- transport ---------------------------------------------------------

    def _partitioned(self, a: int, b: int) -> bool:
        for start, end, side_a, side_b in self.config.partition_schedule:
            if start <= self.now < end:
                if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                    return True
        return False

    def send(self, src: int, dst: int, kind: str, body: bytes) -> bool:
        """Schedule one message; returns False when dropped (lossy link,
        partition boundary, or a down endpoint)."""
        num_nodes = self.num_nodes
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            self._check_index(src)
            self._check_index(dst)
        self.messages_sent += 1
        config = self.config
        rng = self._net_rng[src]
        # the latency draw of rng.randint(latency_min_ms, latency_max_ms):
        # CPython's _randbelow_with_getrandbits loop, without its three frames
        getrandbits, span, bits = rng.getrandbits, self._latency_span, self._latency_bits
        offset = getrandbits(bits)
        while offset >= span:
            offset = getrandbits(bits)
        if config.drop_probability > 0 and rng.random() < config.drop_probability:
            return False
        nodes = self.nodes
        if nodes[src] is None or nodes[dst] is None:
            return False
        if config.partition_schedule and self._partitioned(src, dst):
            return False
        now = self.now
        deliver_time = now + config.latency_min_ms + offset
        env = Envelope(now, deliver_time, src, dst, kind, body)
        heapq.heappush(self._queue, (deliver_time, self._seq, self._deliver, (env,)))
        self._seq += 1
        return True

    def query(self, src: int, dst: int, kind: str, body: bytes) -> Optional[bytes]:
        """Synchronous request/response (FIND_NODE, PING). Subject to the
        same partition/down-node/drop rules, one loss roll per direction."""
        self._check_index(src)
        self._check_index(dst)
        if self.nodes[src] is None or self.nodes[dst] is None or self._partitioned(src, dst):
            return None
        rng = self._net_rng[src]
        if self.config.drop_probability > 0 and (
            rng.random() < self.config.drop_probability
            or rng.random() < self.config.drop_probability
        ):
            return None
        return self.nodes[dst].handle_query(kind, body, src)

    # -- event loop --------------------------------------------------------

    def step(self) -> None:
        """Run the earliest event, if any."""
        if self._queue:
            time_ms, _, handler, args = heapq.heappop(self._queue)
            if time_ms > self.now:
                self.now = time_ms
            handler(*args)

    def run_until(self, t_end: int) -> None:
        queue, step = self._queue, self.step
        while queue and queue[0][0] <= t_end:
            step()
        if t_end > self.now:
            self.now = t_end

    def drain_deliveries(self) -> None:
        """Run every queued event except mining and sync timers, which are
        discarded, until the queue is empty: settles in-flight traffic
        without mining or syncing further. Timers reschedule themselves, so
        this is the one way to run the queue to empty."""
        timers = (self._fire_mining, self._sync)
        while self._queue:
            if self._queue[0][2] in timers:
                heapq.heappop(self._queue)
            else:
                self.step()

    def _deliver(self, env: Envelope) -> None:
        node = self.nodes[env.dst]
        if node is None:
            return  # the destination went down while the message was in flight
        self.messages_delivered += 1
        record = node.handle(env)
        now = self.now
        self.tracer.deliver(now, record.line % (env.src, now, env.dst), record.block)

    # -- mining ------------------------------------------------------------

    def enable_mining(self) -> None:
        total = sum(self.config.hash_rate_shares.values())
        if total <= 0:
            raise ValueError("mining enabled with zero total hash rate")
        for idx, share in self.config.hash_rate_shares.items():
            if share > 0:
                self._schedule_next_mine(idx)

    def _mine_delay(self, node_idx: int) -> int:
        share = self.config.hash_rate_shares.get(node_idx, 0)
        if share <= 0:
            raise ValueError(f"node {node_idx} has zero hash rate share")
        mean = self.config.mine_mean_ms(share)
        return max(1, round(self._mine_rng[node_idx].expovariate(1.0 / mean)))

    def _schedule_next_mine(self, node_idx: int) -> None:
        self.schedule(self.now + self._mine_delay(node_idx), self._fire_mining, node_idx)

    def _fire_mining(self, node_idx: int) -> None:
        if self.nodes[node_idx] is None:
            return  # rescheduled on restart
        self.fire_mining_once(node_idx)
        self._schedule_next_mine(node_idx)

    def fire_mining_once(self, node_idx: int):
        node = self.nodes[node_idx]
        block = node.mine_and_broadcast()
        if block is not None:
            self.tracer.log({
                "time": self.now,
                "type": "mine",
                "node": node_idx,
                "height": block.height,
                "hash": block.hash_hex,
                "txs": [tx.hash_hex for tx in block.transactions],
            })
        return block

    def enable_periodic_sync(self) -> None:
        if self.config.sync_interval_ms <= 0:
            return
        for idx in range(self.num_nodes):
            # stagger by index so sync traffic doesn't arrive in lockstep
            offset = 1 + (idx * self.config.sync_interval_ms) // max(1, self.num_nodes)
            self.schedule(offset, self._sync, idx)

    def _sync(self, node_idx: int) -> None:
        node = self.nodes[node_idx]
        if node is not None:
            node.periodic_sync()
        self.schedule(self.now + self.config.sync_interval_ms, self._sync, node_idx)

    # -- churn -------------------------------------------------------------

    def crash_node(self, index: int) -> bool:
        """Take a node offline; it keeps its canonical chain, and nothing
        reaches it until it restarts. Crashing a node that is already down
        is a reported no-op (returns False)."""
        self._check_index(index)
        node = self.nodes[index]
        if node is None:
            return False
        self.down[index] = node
        self.nodes[index] = None
        self.tracer.log({"time": self.now, "type": "crash", "node": index})
        return True

    def restart_node(self, index: int) -> None:
        """Bring a crashed node back in place (``SimNode.restart``): its
        volatile state is gone, its kept canonical blocks are replayed, and
        it re-joins and re-syncs. A slot with no crashed node is a no-op."""
        self._check_index(index)
        node = self.down.pop(index, None)
        if node is None:
            return
        node.restart()
        self.nodes[index] = node
        self.tracer.log({"time": self.now, "type": "restart", "node": index})
        node.rejoin()
        if self.config.hash_rate_shares.get(index, 0) > 0:
            self._schedule_next_mine(index)
